"""Recursive discovery of a reachable peer-to-peer network.

Starting from seed endpoints, the crawler connects to each peer, completes
the version/verack handshake, measures minimum application-level round-trip
time over a few ping/pong cycles, and harvests the peer's gossip cache with
repeated getaddr requests.  Every harvested endpoint is enqueued exactly
once; breadth-first exploration ends when the frontier drains (or a safety
cap trips, which flags the snapshot as partial).

Each phase waits under its own deadline of one handshake timeout on the
connection's clock: the whole handshake, each ping, and each getaddr round.
Pings from the peer are answered with a pong in every phase.  A frame whose
header announces more payload than its command can carry (``addr``: 1000
entries, ``ping``/``pong``: 8 bytes, ``verack``/``getaddr``: none) is
rejected before its payload is read.

A peer counts as *active* only when the full handshake completes; a peer
that answers version but never verack stays inactive.  Connection, timeout,
and protocol failures are never raised out of a probe: they are encoded as
``discovered_inactive`` records so one hostile peer cannot abort a crawl.
"""

from __future__ import annotations

import hashlib
import logging
import random
import socket
import struct
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import wirecodec
from .transport import Connection, Endpoint, RecvTimeoutError, Transport, TransportError, _content_lines
from .wirecodec import DEFAULT_PORT, MAINNET_MAGIC, VersionPayload

log = logging.getLogger(__name__)

STATUS_ACTIVE = "active"
STATUS_INACTIVE = "discovered_inactive"

CRAWLER_USER_AGENT = "/chainobs:0.1.0/"


class EmptySeedSetError(ValueError):
    pass


class UnresolvableSeedsError(ValueError):
    """No seed name resolved to a single usable address."""


class NoPongReceivedError(Exception):
    pass


@dataclass
class PeerRecord:
    """One discovered endpoint and what the probe learned about it."""

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
    getaddr_rounds: int = 3
    ping_count: int = 5
    max_frontier: int = 1_000_000
    magic: bytes = MAINNET_MAGIC
    user_agent: str = CRAWLER_USER_AGENT

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.connect_timeout_ms <= 0 or self.handshake_timeout_ms <= 0:
            raise ValueError("timeouts must be positive")
        if not self.seeds:
            raise EmptySeedSetError("crawl needs at least one seed")

    def digest(self) -> str:
        text = "|".join(
            [
                ",".join(str(s) for s in self.seeds),
                str(self.max_inflight),
                str(self.connect_timeout_ms),
                str(self.handshake_timeout_ms),
                str(self.getaddr_rounds),
                str(self.ping_count),
                str(self.max_frontier),
                self.magic.hex(),
                self.user_agent,
            ]
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


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

    A path (or path string pointing at an existing file) is read as one
    ``ip[:port]`` per line with ``#`` comments; any other sequence of strings
    is treated as DNS names whose A/AAAA records all become seeds on the
    default port.
    """
    resolver = resolver or _default_resolver
    endpoints: list[Endpoint] = []

    def add(endpoint: Endpoint) -> None:
        if endpoint not in endpoints:
            endpoints.append(endpoint)

    if isinstance(source, (str, Path)) and Path(source).exists():
        for lineno, line in _content_lines(source):
            try:
                add(Endpoint.parse(line, default_port=default_port))
            except ValueError as exc:
                raise ValueError(f"{source}: line {lineno}: {exc}") from exc
    else:
        names = [source] if isinstance(source, (str, Path)) else list(source)
        if not names:
            raise EmptySeedSetError("no seed names given")
        failures = 0
        for name in names:
            try:
                resolved = resolver(str(name))
            except OSError as exc:
                log.warning("seed %s did not resolve: %s", name, exc)
                failures += 1
                continue
            for ip in resolved:
                add(Endpoint.make(ip, default_port))
        if failures == len(names):
            raise UnresolvableSeedsError(f"none of {len(names)} seed names resolved")
    if not endpoints:
        raise EmptySeedSetError(f"seed source {source!r} yielded no endpoints")
    return endpoints


# --- single-peer probe -----------------------------------------------------


# Largest payload each fixed-format command can carry, checked before the
# payload is buffered; version and unknown commands get MAX_PAYLOAD_SIZE.
_MAX_PAYLOAD_BY_COMMAND = {
    b"addr": 3 + 30 * wirecodec.MAX_ADDR_ENTRIES,
    b"ping": 8,
    b"pong": 8,
    b"verack": 0,
    b"getaddr": 0,
}


def _next_frame(conn: Connection, magic: bytes, deadline: float) -> tuple[str, bytes]:
    """Next frame other than ``ping`` before ``deadline`` on ``conn.clock()``.

    Pings met on the way are answered with a pong echoing their nonce.  A
    header announcing more payload than its command can carry raises
    :class:`~chainobs.wirecodec.OversizedPayloadError` before any of the
    payload is read.
    """
    while True:
        remaining = deadline - conn.clock()
        if remaining <= 0:
            raise RecvTimeoutError("no frame before deadline")
        header = conn.recv_exact(wirecodec.HEADER_SIZE, remaining)
        frame = wirecodec.decode_message_prefix(header, magic)
        if frame is None:  # the header announces a payload
            (length,) = struct.unpack("<I", header[16:20])
            command = header[4:16].rstrip(b"\x00")  # validated by decode_message_prefix
            if length > _MAX_PAYLOAD_BY_COMMAND.get(command, wirecodec.MAX_PAYLOAD_SIZE):
                raise wirecodec.OversizedPayloadError(f"{length} byte {command.decode()} payload")
            remaining = deadline - conn.clock()
            if remaining <= 0:
                raise RecvTimeoutError("payload did not arrive in time")
            frame = wirecodec.decode_message(header + conn.recv_exact(length, remaining), magic)
        command, payload = frame[:2]
        if command != "ping":
            return command, payload
        pong = wirecodec.encode_pong(wirecodec.decode_ping(payload))
        conn.send(wirecodec.encode_message("pong", pong, magic))


def _build_version(endpoint: Endpoint, config: CrawlConfig) -> bytes:
    payload = VersionPayload(
        protocol_version=wirecodec.PROTOCOL_VERSION,
        services=0,
        timestamp=int(time.time()),
        receiver=wirecodec.NetAddress(0, endpoint.ip, endpoint.port),
        sender=wirecodec.NULL_ADDRESS,
        nonce=random.getrandbits(64),
        user_agent=config.user_agent,
        start_height=0,
        relay=False,
    )
    return wirecodec.encode_message("version", wirecodec.encode_version(payload), config.magic)


def _handshake(conn: Connection, endpoint: Endpoint, config: CrawlConfig) -> VersionPayload:
    conn.send(_build_version(endpoint, config))
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


def measure_min_rtt(conn: Connection, magic: bytes, count: int, timeout: float) -> float:
    """Minimum round-trip time over ``count`` ping/pong cycles, in ms.

    Raises :class:`NoPongReceivedError` when not a single pong came back.
    """
    best: float | None = None
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
        sample = (conn.clock() - sent_at) * 1000.0
        if best is None or sample < best:
            best = sample
    if best is None:
        raise NoPongReceivedError(f"{count} pings went unanswered")
    # records promise min_rtt > 0; clamp the degenerate zero-latency case
    return max(best, 1e-6)


def _harvest(conn: Connection, config: CrawlConfig) -> tuple[list[Endpoint], int]:
    # decode_addr already yields canonical IP text, so entries become
    # endpoints without another trip through canonical_ip
    harvested: dict[Endpoint, None] = {}
    entries_received = 0
    for _ in range(config.getaddr_rounds):
        deadline = conn.clock() + config.handshake_timeout_ms / 1000.0
        try:
            conn.send(wirecodec.encode_message("getaddr", b"", config.magic))
            command, payload = _next_frame(conn, config.magic, deadline)
            while command != "addr":
                command, payload = _next_frame(conn, config.magic, deadline)
            entries = wirecodec.decode_addr(payload)
        except (TransportError, wirecodec.CodecError) as exc:
            log.debug("getaddr round failed: %s", exc)
            continue
        entries_received += len(entries)
        harvested.update(dict.fromkeys(Endpoint(entry.ip, entry.port) for entry in entries))
    return list(harvested), entries_received


def probe_peer(
    endpoint: Endpoint, config: CrawlConfig, transport: Transport
) -> tuple[PeerRecord, list[Endpoint]]:
    """Probe one endpoint; failures become an inactive record, never a raise."""
    now = int(time.time())
    inactive = PeerRecord(address=endpoint, status=STATUS_INACTIVE, first_seen=now, last_seen=now)
    try:
        conn = transport.connect(endpoint, config.connect_timeout_ms / 1000.0)
    except TransportError as exc:
        log.debug("%s: connect failed: %s", endpoint, exc)
        return inactive, []
    try:
        version = _handshake(conn, endpoint, config)
        try:
            min_rtt = measure_min_rtt(
                conn, config.magic, config.ping_count, config.handshake_timeout_ms / 1000.0
            )
        except NoPongReceivedError:
            min_rtt = None
        harvested, entries_received = _harvest(conn, config)
        done = int(time.time())
        record = PeerRecord(
            address=endpoint,
            status=STATUS_ACTIVE,
            first_seen=done,
            last_seen=done,
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
        return inactive, []
    finally:
        conn.close()


# --- full crawl -------------------------------------------------------------


def crawl(config: CrawlConfig, transport: Transport) -> Snapshot:
    """Breadth-first crawl from the configured seeds.

    Each endpoint is probed exactly once.  ``max_inflight`` bounds the
    number of simultaneously open probes; with ``max_inflight=1`` the crawl
    degenerates to a strictly sequential loop on the calling thread.
    """
    started_at = int(time.time())
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

    if config.max_inflight == 1:
        while frontier:
            endpoint = frontier.popleft()
            absorb(*probe_peer(endpoint, config, transport))
    else:
        with ThreadPoolExecutor(max_workers=config.max_inflight) as pool:
            pending: dict[Future, Endpoint] = {}
            while frontier or pending:
                while frontier and len(pending) < config.max_inflight:
                    endpoint = frontier.popleft()
                    pending[pool.submit(probe_peer, endpoint, config, transport)] = endpoint
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    del pending[future]
                    absorb(*future.result())

    return Snapshot(
        started_at=started_at,
        finished_at=int(time.time()),
        seeds=seeds,
        records=records,
        crawler_config_digest=config.digest(),
        partial=partial,
    )
