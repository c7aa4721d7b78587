"""Byte-stream transport abstraction shared by the crawler and the simnet.

A transport connects to an endpoint and returns a connection object with
four capabilities: send bytes, receive an exact number of bytes under a
timeout, close, and read a connection-local monotonic clock.  The clock is
what makes latency measurement uniform: the TCP transport reports wall
monotonic time, the simulated network reports virtual time, and the crawler
never needs to know which one it got.

Endpoints are keyed by canonical IP text (see :class:`Endpoint`) and a port
in 0-65535.  Every reader of an input file decodes it here, so a byte that
is not UTF-8 is reported with the file and the line, and a line ends only at
a newline byte, as in ``grep -n`` (prefix tables keep ``csv``'s line rule).
"""

from __future__ import annotations

import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Protocol

from .wirecodec import DEFAULT_PORT, canonical_ip

MAX_PORT = 0xFFFF


class TransportError(Exception):
    """Base class for connection-level failures."""


class ConnectError(TransportError):
    """Endpoint refused, unreachable, or timed out during connect."""


class RecvTimeoutError(TransportError):
    pass


class ConnectionClosedError(TransportError):
    pass


@dataclass(frozen=True, order=True)
class Endpoint:
    """Canonical (ip, port) key for one network endpoint.

    ``ip`` is canonical text as :func:`~chainobs.wirecodec.canonical_ip`
    renders it: ``inet_ntop`` output (RFC 5952), with IPv4-mapped IPv6 as a
    plain dotted quad and ``::/96`` in ``ipaddress``'s form.  That also
    covers OnionCat-encoded onion peers.  ``port`` lies in 0-65535;
    :meth:`make` and :meth:`parse` raise ValueError for anything else.
    """

    ip: str
    port: int

    def __str__(self) -> str:
        if ":" in self.ip:
            return f"[{self.ip}]:{self.port}"
        return f"{self.ip}:{self.port}"

    @classmethod
    def make(cls, ip: str, port: int = DEFAULT_PORT) -> "Endpoint":
        port = int(port)
        if not 0 <= port <= MAX_PORT:
            raise ValueError(f"port {port} outside 0-{MAX_PORT}")
        return cls(canonical_ip(ip), port)

    @classmethod
    def parse(cls, text: str, default_port: int = DEFAULT_PORT) -> "Endpoint":
        """Parse ``ip``, ``ip:port``, ``[v6]`` or ``[v6]:port``."""
        text = text.strip()
        if not text:
            raise ValueError("empty endpoint")
        if text.startswith("["):
            host, bracket, rest = text[1:].partition("]")
            if not bracket:
                raise ValueError(f"unterminated bracket in {text!r}")
            port = int(rest[1:]) if rest.startswith(":") else default_port
            return cls.make(host, port)
        if text.count(":") == 1:
            host, _, port_text = text.partition(":")
            return cls.make(host, int(port_text))
        # zero colons: bare IPv4; two or more: bare IPv6 without a port
        return cls.make(text, default_port)


def _read_text(path: str | Path, error: Callable[[int, str], Exception] | None = None) -> str:
    """Decode a UTF-8 file.  A byte that is not UTF-8 raises ``error(line, "not UTF-8")``,
    or without ``error`` a ValueError naming the file and the line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        if error is not None:
            raise error(lineno, "not UTF-8") from exc
        raise ValueError(f"{path}: line {lineno}: not UTF-8") from exc


@contextmanager
def _naming_file(path: str | Path, errors: type[Exception]) -> Iterator[None]:
    """Put ``path`` in front of the message of any ``errors`` raised inside."""
    try:
        yield
    except errors as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _content_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` for each line of a UTF-8 file that holds
    more than a ``#`` comment; the text has its comment and outer space removed."""
    for lineno, raw in enumerate(_read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class Connection(Protocol):
    def send(self, data: bytes) -> None: ...

    def recv_exact(self, n: int, timeout: float) -> bytes: ...

    def close(self) -> None: ...

    def clock(self) -> float: ...


class Transport(Protocol):
    def connect(self, endpoint: Endpoint, timeout: float) -> Connection: ...


class TcpConnection:
    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ConnectionClosedError(str(exc)) from exc

    def recv_exact(self, n: int, timeout: float) -> bytes:
        deadline = time.monotonic() + timeout
        chunks = bytearray()
        while len(chunks) < n:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RecvTimeoutError(f"needed {n} bytes, got {len(chunks)}")
            self._sock.settimeout(remaining)
            try:
                chunk = self._sock.recv(n - len(chunks))
            except socket.timeout as exc:
                raise RecvTimeoutError(str(exc)) from exc
            except OSError as exc:
                raise ConnectionClosedError(str(exc)) from exc
            if not chunk:
                raise ConnectionClosedError("peer closed the stream")
            chunks += chunk
        return bytes(chunks)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def clock(self) -> float:
        return time.monotonic()


class TcpTransport:
    """Plain TCP sockets; the transport used against the real network."""

    def connect(self, endpoint: Endpoint, timeout: float) -> TcpConnection:
        try:
            sock = socket.create_connection((endpoint.ip, endpoint.port), timeout=timeout)
        except OSError as exc:
            raise ConnectError(f"{endpoint}: {exc}") from exc
        sock.settimeout(timeout)
        return TcpConnection(sock)
