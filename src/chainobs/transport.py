"""Byte-stream transport abstraction shared by the crawler and the simnet.

A transport connects to an endpoint and returns a connection object with
four capabilities: send bytes, receive an exact number of bytes before a
deadline, close, and read a connection-local monotonic clock.  The clock is
what makes latency measurement uniform: the TCP transport reports wall
monotonic time, the simulated network reports virtual time, and the crawler
never needs to know which one it got.  A read's deadline is a time on that
same clock, and the connection is the one place that checks it.  The same
holds for the transport's own ``now`` (epoch seconds) and ``sleep``, which a
crawl is stamped and waits on: wall time over TCP, virtual time on the simnet.

Endpoints are keyed by canonical IP text (see :class:`Endpoint`) and a port
in 0-65535, written in ASCII digits.  An endpoint is a named tuple: it
iterates as ``ip, port`` and equals the plain tuple of the two.  Every
reader of an input file streams it from here as numbered lines, so a line
ends only at a newline byte, as in ``grep -n``, and the first bad line is
reported with the file, whatever its fault, a byte that is not UTF-8 too.
Every output file is written here, through a temporary file renamed over the
target, so a failed write never leaves a half-written file.  The readers' number
rules live here (``_int``, ``_port``, ``_decimal``), and so does :class:`_Memo`, the
one table that builds a value on its key's first lookup, from a builder that never
refers to the table's owner (the series reader, the simnet's gossip, timeline rows).
"""

from __future__ import annotations

import os
import re
import socket
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, Protocol

from .wirecodec import DEFAULT_PORT, canonical_ip

MAX_PORT = 0xFFFF
_LineError = Callable[[int, str], Exception]  # (line number, reason) -> the error to raise


class TransportError(Exception):
    """Base class for connection-level failures."""


class ConnectError(TransportError):
    """Endpoint refused, unreachable, or timed out during connect."""


class RecvTimeoutError(TransportError):
    pass


class ConnectionClosedError(TransportError):
    pass


class Endpoint(NamedTuple):
    """Canonical (ip, port) key for one network endpoint.

    ``ip`` is canonical text as :func:`~chainobs.wirecodec.canonical_ip`
    renders it: ``inet_ntop`` output (RFC 5952), with IPv4-mapped IPv6 as a
    plain dotted quad and ``::/96`` in ``ipaddress``'s form.  That also
    covers OnionCat-encoded onion peers.  ``port`` lies in 0-65535;
    :meth:`make` and :meth:`parse` raise ValueError for anything else.

    An endpoint is a tuple: it unpacks as ``ip, port``, and it equals, sorts
    and hashes as the plain tuple ``(ip, port)``.  Construction, comparison
    and hashing all run in C, which matters on the crawl path, where every
    gossiped address becomes one.
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
        """Parse ``ip``, ``ip:port``, ``[v6]`` or ``[v6]:port``; a port is ASCII digits only."""
        text = text.strip()
        if not text:
            raise ValueError("empty endpoint")
        if text.startswith("["):
            host, bracket, rest = text[1:].partition("]")
            if not bracket or rest[:1] not in ("", ":"):
                raise ValueError(f"expected [ipv6] or [ipv6]:port, got {text!r}")
            return cls.make(host, _port(rest[1:]) if rest else default_port)
        if text.count(":") == 1:
            host, _, port_text = text.partition(":")
            return cls.make(host, _port(port_text))
        # zero colons: bare IPv4; two or more: bare IPv6 without a port
        return cls.make(text, default_port)


def _port(text: str) -> int:
    """A port written as ASCII digits; ``int`` alone would also take ``+80``, ``8_333``,
    `` 80`` or non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"port {text!r} is not ASCII digits")
    return int(text)


def _int(text: str, name: str) -> int:
    """The ``name`` value as an integer written ``-?[0-9]+`` in ASCII; ``int`` alone
    would also take ``+1_0``, outer spaces or non-ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{name} {text!r} is not an integer in ASCII digits")
    return int(text)


_DECIMAL = r"[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?"  # as repr writes a float >= 0
_is_decimal = re.compile(_DECIMAL).fullmatch


def _decimal(text: str, name: str, positive: bool = False) -> float:
    """The ``name`` value as a finite float, > 0 if ``positive``, written in ASCII as ``repr`` writes
    one: ``float`` alone would also take ``nan``, ``-5``, ``+2``, ``1_0`` or ``٣.5``."""
    if not _is_decimal(text) or (value := float(text)) == float("inf") or (positive and not value):
        raise ValueError(f"{name} {text!r} is not a finite decimal{' > 0' if positive else ''} in ASCII digits")
    return value


class _Memo(dict):
    """Key -> ``build(key)``, built on the first lookup of that key only, so equal keys give one
    object; a key ``build`` raises on is not stored.  ``build`` never refers to the table's owner:
    the two would make a reference cycle, which only the garbage collector frees."""

    __slots__ = ("build",)

    def __init__(self, build: Callable[[Any], object]):
        super().__init__()
        self.build = build

    def __missing__(self, key: Any) -> object:
        value = self[key] = self.build(key)
        return value


def _lines(path: str | Path, error: _LineError | None = None) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, text)`` for each line of a UTF-8 file.  A line ends at a newline byte,
    dropped with a carriage return just before it.  A line that is not UTF-8 raises ``error(line,
    "not UTF-8")``, or a ValueError naming the file and the line, once every earlier line is out."""
    error = error or (lambda lineno, reason: ValueError(f"{path}: line {lineno}: {reason}"))
    with Path(path).open("rb") as handle:
        lineno = 0
        # 64 KiB of whole lines at a time: a decode and a split per block cost far less than per line
        while block := handle.read(1 << 16) + handle.readline():
            try:
                text, bad = block.decode("utf-8"), None
            except UnicodeDecodeError as exc:  # keep the lines before the bad one
                text, bad = block[: block.rfind(b"\n", 0, exc.start) + 1].decode("utf-8"), exc
            pieces = text.replace("\r\n", "\n").removesuffix("\n").split("\n") if text else []
            yield from enumerate(pieces, start=lineno + 1)
            lineno += len(pieces)
            if bad is not None:
                raise error(lineno + 1, "not UTF-8") from bad


def _write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8, line ends as given, through a temporary file renamed
    over ``path``: a failed or interrupted write leaves the old file, or none, and no
    temporary file behind.  A replaced file keeps its permission bits.  A symlink keeps
    pointing at the file it names, which is the one replaced; a pipe or device such as
    ``/dev/stdout`` is written in place."""
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    path = Path(os.path.realpath(path))
    # the temporary name must not match *.snap.ndrec, which snapshotstore.load_series globs
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        if path.exists():
            os.chmod(partial, path.stat().st_mode & 0o7777)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


@contextmanager
def _naming_file(path: str | Path, errors: type[Exception]) -> Iterator[None]:
    """Put ``path`` in front of the message of any ``errors`` raised inside."""
    try:
        yield
    except errors as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _content_lines(path: str | Path, error: _LineError | None = None) -> Iterator[tuple[int, str]]:
    """The :func:`_lines` that hold more than a ``#`` comment, stripped of it and outer space."""
    for lineno, raw in _lines(path, error):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class Connection(Protocol):
    def send(self, data: bytes) -> None: ...

    def recv_exact(self, n: int, deadline: float) -> bytes:
        """``n`` bytes before ``deadline`` on :meth:`clock`, else :class:`RecvTimeoutError`."""

    def close(self) -> None: ...

    def clock(self) -> float: ...


class Transport(Protocol):
    def connect(self, endpoint: Endpoint, timeout: float) -> Connection: ...

    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class TcpConnection:
    def __init__(self, sock: socket.socket):
        self._sock = sock

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ConnectionClosedError(str(exc)) from exc

    def recv_exact(self, n: int, deadline: float) -> bytes:
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

    now = staticmethod(time.time)
    sleep = staticmethod(time.sleep)

    def connect(self, endpoint: Endpoint, timeout: float) -> TcpConnection:
        try:
            sock = socket.create_connection((endpoint.ip, endpoint.port), timeout=timeout)
        except OSError as exc:
            raise ConnectError(f"{endpoint}: {exc}") from exc
        return TcpConnection(sock)
