"""Recursive discovery of a reachable peer-to-peer network.

Starting from seed endpoints, the crawler connects to each peer, completes
the version/verack handshake, measures minimum application-level round-trip
time over a few ping/pong cycles, and harvests the peer's gossip cache with
one getaddr request: a peer answers only the first of a connection.  Every
harvested endpoint is enqueued exactly once; breadth-first exploration ends
when the frontier drains (or a safety cap trips, which flags the snapshot as
partial).

Each phase waits under its own deadline of one handshake timeout on the
connection's clock: the whole handshake, each ping, and the getaddr.
Every read is handed its phase deadline, and the connection checks it.
Pings from the peer are answered with a pong in every phase.  The frame pump
decodes each header once: a frame whose header announces more payload than
its command can carry (this pump alone enforces
``wirecodec.MAX_PAYLOAD_BY_COMMAND``) is rejected before its payload is read,
any other command may announce up to the 4 MiB frame limit, and the payload
read is checked against the header's checksum by ``wirecodec.check_payload``.

Every crawl hands all its probes one table from each ``addr`` entry's 18 wire
bytes of IP and port to its :class:`Endpoint`, so an endpoint gossiped by many
peers is built once; a new one is stored only below ``max_frontier`` entries.
The thread pool shares it without a lock, as CPython's dict ``get``, ``len`` and
item assignment are atomic: racing probes pass the cap by < ``max_inflight``.

A peer counts as *active* only when the full handshake completes; a peer
that answers version but never verack stays inactive.  From ``connect`` on, a
failure ends the probe at one ``except`` with a ``discovered_inactive`` record,
so one hostile peer cannot abort a crawl.  Every stamp is read from
``transport.now()``: a record, active or not, carries the time before ``connect``.
"""

from __future__ import annotations

import hashlib
import logging
import random
import socket
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import wirecodec
from .transport import Connection, Endpoint, TcpTransport, Transport, TransportError, _content_lines
from .wirecodec import DEFAULT_PORT, MAINNET_MAGIC, VersionPayload

log = logging.getLogger(__name__)

STATUS_ACTIVE = "active"
STATUS_INACTIVE = "discovered_inactive"

CRAWLER_USER_AGENT = "/chainobs:0.1.0/"


class EmptySeedSetError(ValueError):
    pass


class UnresolvableSeedsError(ValueError):
    """No seed name resolved to a single usable address."""


@dataclass(slots=True)
class PeerRecord:
    """One discovered endpoint and what the probe learned about it.

    Slotted, with no per-instance ``__dict__``: a year-long series holds millions of them."""

    address: Endpoint
    status: str
    first_seen: int
    last_seen: int
    services: int | None = None
    protocol_version: int | None = None
    user_agent: str | None = None
    start_height: int | None = None
    min_rtt_ms: float | None = None
    addr_count_returned: int = 0

    @property
    def is_active(self) -> bool:
        return self.status == STATUS_ACTIVE


@dataclass(frozen=True)
class CrawlConfig:
    seeds: tuple[Endpoint, ...]
    max_inflight: int = 512
    connect_timeout_ms: float = 5000.0
    handshake_timeout_ms: float = 5000.0
    ping_count: int = 5
    max_frontier: int = 1_000_000
    magic: bytes = MAINNET_MAGIC
    user_agent: str = CRAWLER_USER_AGENT

    def __post_init__(self) -> None:
        """Reject a value the crawl cannot honour, naming its setting.  A ``ping_count``
        of 0 still sends one ping (see :func:`measure_min_rtt`)."""
        for name, low in (("max_inflight", 1), ("ping_count", 0), ("max_frontier", 1)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name in ("connect_timeout_ms", "handshake_timeout_ms"):
            value = getattr(self, name)
            if not 0 < value < float("inf"):  # also false for nan
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.seeds:
            raise EmptySeedSetError("crawl needs at least one seed")

    def digest(self) -> str:
        """Hash of every field in declaration order: tuples comma-joined, bytes as hex."""
        text = "|".join(_digest_text(getattr(self, field.name)) for field in fields(self))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digest_text(value: object) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if isinstance(value, bytes):
        return value.hex()
    return str(value)


@dataclass
class Snapshot:
    """Result of one full crawl: every probed endpoint, keyed by (ip, port)."""

    started_at: int
    finished_at: int
    seeds: tuple[Endpoint, ...]
    records: dict[Endpoint, PeerRecord]
    crawler_config_digest: str
    partial: bool = False

    @property
    def total_count(self) -> int:
        return len(self.records)

    @property
    def active_count(self) -> int:
        return sum(1 for r in self.records.values() if r.is_active)

    def active_records(self) -> list[PeerRecord]:
        return [r for r in self.records.values() if r.is_active]

    def active_addresses(self) -> set[Endpoint]:
        return {r.address for r in self.records.values() if r.is_active}


# --- seed bootstrap --------------------------------------------------------


def _default_resolver(name: str) -> list[str]:
    infos = socket.getaddrinfo(name, None, proto=socket.IPPROTO_TCP)
    return [info[4][0] for info in infos]


def bootstrap_seeds(
    source: str | Path | Sequence[str],
    *,
    default_port: int = DEFAULT_PORT,
    resolver: Callable[[str], list[str]] | None = None,
) -> list[Endpoint]:
    """Resolve a seed source into a deduplicated endpoint list.

    A path (or path string) naming an existing file is read as one
    ``ip[:port]`` per line with ``#`` comments.  Any other string or path is
    comma-separated DNS names, any other sequence is DNS names; names are stripped, blank
    ones skipped, and every A/AAAA record of a name is a seed on the default port.
    """
    resolver = resolver or _default_resolver
    endpoints: dict[Endpoint, None] = {}  # insertion-ordered set: first-seen order
    if isinstance(source, (str, Path)) and Path(source).exists():
        for lineno, line in _content_lines(source):
            try:
                endpoints[Endpoint.parse(line, default_port=default_port)] = None
            except ValueError as exc:
                raise ValueError(f"{source}: line {lineno}: {exc}") from exc
    else:
        names = str(source).split(",") if isinstance(source, (str, Path)) else source
        names = [name for name in map(str.strip, names) if name]
        if not names:
            raise EmptySeedSetError("no seed names given")
        failures = 0
        for name in names:
            try:
                resolved = resolver(name)
            except OSError as exc:
                log.warning("seed %s did not resolve: %s", name, exc)
                failures += 1
                continue
            endpoints.update(dict.fromkeys(Endpoint.make(ip, default_port) for ip in resolved))
        if failures == len(names):
            raise UnresolvableSeedsError(f"none of {len(names)} seed names resolved")
    if not endpoints:
        raise EmptySeedSetError(f"seed source {source!r} yielded no endpoints")
    return list(endpoints)


# --- single-peer probe -----------------------------------------------------


def _next_frame(conn: Connection, magic: bytes, deadline: float) -> tuple[str, bytes]:
    """Next frame other than ``ping`` before ``deadline`` on ``conn.clock()``.

    Pings met on the way are answered with a pong echoing their nonce.  A
    header announcing more payload than its command can carry raises
    :class:`~chainobs.wirecodec.OversizedPayloadError` before any of the
    payload is read, and a payload that does not match its header's checksum
    raises :class:`~chainobs.wirecodec.BadChecksumError`.
    """
    while True:
        header = conn.recv_exact(wirecodec.HEADER_SIZE, deadline)
        command, length, check = wirecodec.decode_header(header, magic)
        if length > wirecodec.MAX_PAYLOAD_BY_COMMAND.get(command, wirecodec.MAX_PAYLOAD_SIZE):
            raise wirecodec.OversizedPayloadError(f"{length} byte {command} payload")
        payload = conn.recv_exact(length, deadline)
        wirecodec.check_payload(command, payload, check)
        if command != "ping":
            return command, payload
        pong = wirecodec.encode_pong(wirecodec.decode_ping(payload))
        conn.send(wirecodec.encode_message("pong", pong, magic))


def _build_version(endpoint: Endpoint, config: CrawlConfig, now: int) -> bytes:
    payload = VersionPayload(
        protocol_version=wirecodec.PROTOCOL_VERSION,
        services=0,
        timestamp=now,
        receiver=wirecodec.NetAddress(0, endpoint.ip, endpoint.port),
        sender=wirecodec.NULL_ADDRESS,
        nonce=random.getrandbits(64),
        user_agent=config.user_agent,
        start_height=0,
        relay=False,
    )
    return wirecodec.encode_message("version", wirecodec.encode_version(payload), config.magic)


def _handshake(conn: Connection, endpoint: Endpoint, config: CrawlConfig, now: int) -> VersionPayload:
    conn.send(_build_version(endpoint, config, now))
    deadline = conn.clock() + config.handshake_timeout_ms / 1000.0
    their_version: VersionPayload | None = None
    verack_seen = False
    while their_version is None or not verack_seen:
        command, payload = _next_frame(conn, config.magic, deadline)
        if command == "version":
            their_version = wirecodec.decode_version(payload)
            if their_version.start_height < 0:
                log.debug("%s advertises negative start height %d", endpoint, their_version.start_height)
        elif command == "verack":
            verack_seen = True
        # other pre-handshake chatter is ignored
    conn.send(wirecodec.encode_message("verack", b"", config.magic))
    return their_version


def measure_min_rtt(conn: Connection, magic: bytes, count: int, timeout: float) -> float | None:
    """Minimum round-trip time over ``count`` ping/pong cycles, in ms; None when no pong came back."""
    samples: list[float] = []
    for _ in range(max(1, count)):
        nonce = random.getrandbits(64)
        sent_at = conn.clock()
        try:
            conn.send(wirecodec.encode_message("ping", wirecodec.encode_ping(nonce), magic))
            while True:
                command, payload = _next_frame(conn, magic, sent_at + timeout)
                if command == "pong" and wirecodec.decode_pong(payload) == nonce:
                    break
        except (TransportError, wirecodec.CodecError):
            continue
        samples.append((conn.clock() - sent_at) * 1000.0)
    # records promise min_rtt > 0; clamp the degenerate zero-latency case
    return max(min(samples), 1e-6) if samples else None


def _harvest(
    conn: Connection, config: CrawlConfig, endpoints: dict[bytes, Endpoint]
) -> tuple[list[Endpoint], int]:
    # endpoints maps an entry's wire key (IP and port bytes) to its Endpoint, built
    # once; decode_addr_key renders canonical IP text, so no trip through canonical_ip
    deadline = conn.clock() + config.handshake_timeout_ms / 1000.0
    try:
        conn.send(wirecodec.encode_message("getaddr", b"", config.magic))
        command, payload = _next_frame(conn, config.magic, deadline)
        while command != "addr":
            command, payload = _next_frame(conn, config.magic, deadline)
        keys = wirecodec.addr_keys(payload)
    except (TransportError, wirecodec.CodecError) as exc:
        log.debug("getaddr failed: %s", exc)
        return [], 0
    harvested: dict[Endpoint, None] = {}
    for key in keys:
        endpoint = endpoints.get(key)
        if endpoint is None:
            endpoint = Endpoint(*wirecodec.decode_addr_key(key))
            if len(endpoints) < config.max_frontier:
                endpoints[key] = endpoint
        harvested[endpoint] = None
    return list(harvested), len(keys)


def probe_peer(
    endpoint: Endpoint, config: CrawlConfig, transport: Transport, *, _endpoints: dict[bytes, Endpoint] | None = None
) -> tuple[PeerRecord, list[Endpoint]]:
    """Probe one endpoint; a failure from ``connect`` on gives an inactive record, never a raise.

    ``_endpoints`` is the crawl's table of gossiped endpoints (see :func:`crawl`);
    without it the probe keeps its own.
    """
    now = int(transport.now())
    conn = None
    try:
        conn = transport.connect(endpoint, config.connect_timeout_ms / 1000.0)
        version = _handshake(conn, endpoint, config, now)
        min_rtt = measure_min_rtt(conn, config.magic, config.ping_count, config.handshake_timeout_ms / 1000.0)
        harvested, entries_received = _harvest(conn, config, {} if _endpoints is None else _endpoints)
        record = PeerRecord(
            address=endpoint,
            status=STATUS_ACTIVE,
            first_seen=now,
            last_seen=now,
            services=version.services,
            protocol_version=version.protocol_version,
            user_agent=version.user_agent,
            start_height=version.start_height,
            min_rtt_ms=min_rtt,
            addr_count_returned=entries_received,
        )
        return record, harvested
    except (TransportError, wirecodec.CodecError) as exc:
        log.debug("%s: probe failed: %s", endpoint, exc)
        return PeerRecord(address=endpoint, status=STATUS_INACTIVE, first_seen=now, last_seen=now), []
    finally:
        if conn is not None:
            conn.close()


# --- full crawl -------------------------------------------------------------


def crawl(config: CrawlConfig, transport: Transport) -> Snapshot:
    """Breadth-first crawl from the configured seeds.

    Each endpoint is probed exactly once.  Only over a :class:`TcpTransport`,
    whose reads wait on the network, do up to ``max_inflight`` threads probe
    at once; any other transport (the simnet's reads never wait) and
    ``max_inflight=1`` probe one peer at a time on the calling thread.
    """
    started_at = int(transport.now())
    seeds = tuple(dict.fromkeys(config.seeds))
    visited: set[Endpoint] = set(seeds)
    frontier: deque[Endpoint] = deque(seeds)
    records: dict[Endpoint, PeerRecord] = {}
    partial = False

    def absorb(record: PeerRecord, harvested: Iterable[Endpoint]) -> None:
        nonlocal partial
        records[record.address] = record
        for endpoint in harvested:
            if endpoint in visited:
                continue
            if len(visited) >= config.max_frontier:
                if not partial:
                    log.warning("frontier cap %d hit; snapshot will be partial", config.max_frontier)
                partial = True
                continue
            visited.add(endpoint)
            frontier.append(endpoint)

    endpoints: dict[bytes, Endpoint] = {}  # wire key -> Endpoint, shared by every probe
    if config.max_inflight == 1 or not isinstance(transport, TcpTransport):
        while frontier:
            absorb(*probe_peer(frontier.popleft(), config, transport, _endpoints=endpoints))
    else:
        with ThreadPoolExecutor(max_workers=config.max_inflight) as pool:
            pending: set[Future] = set()
            while frontier or pending:
                while frontier and len(pending) < config.max_inflight:
                    pending.add(pool.submit(probe_peer, frontier.popleft(), config, transport, _endpoints=endpoints))
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    absorb(*future.result())

    return Snapshot(
        started_at=started_at,
        finished_at=int(transport.now()),
        seeds=seeds,
        records=records,
        crawler_config_digest=config.digest(),
        partial=partial,
    )
