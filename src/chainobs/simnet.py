"""Deterministic in-process peer network speaking the census wire protocol.

Every peer is described by a :class:`SimPeerProfile` whose ``behavior``
selects connection dynamics:

* ``normal``      - handshakes, answers pings and getaddr.
* ``unreachable`` - refuses connections (models NATed/private peers).
* ``silent``      - accepts the connection, then never sends a byte.
* ``slow``        - like normal, with a fixed extra response delay in ms.
* ``stale``       - like normal, but advertises an outdated protocol version.
* ``empty-addr``  - like normal, but every getaddr yields zero addresses.

Time is virtual: responses carry arrival stamps on a per-connection clock,
so latency and timeout behavior are exact and tests never sleep.
A connection builds its peer's gossip entries once, on the first getaddr,
and each getaddr samples them with the peer's RNG, so ``topology.rng_seed``
fully determines gossip: equal topologies give byte-identical addr messages.

Topology file format (one peer per line, ``#`` starts a comment)::

    id behavior services start_height rtt_ms peer1,peer2,...

``id`` and peer references are ``ip:port`` endpoints; ``-`` means no known
peers.  ``slow`` accepts an optional delay suffix, e.g. ``slow:6000``.
Optional directives ``@rng_seed N`` and ``@seeds id1,id2`` may precede the
peer lines (the file format itself has no seed columns).
"""

from __future__ import annotations

import hashlib
import random
import threading
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from . import wirecodec
from .transport import ConnectError, ConnectionClosedError, Endpoint, RecvTimeoutError, _content_lines
from .wirecodec import AddrEntry, NetAddress, VersionPayload

BEHAVIORS = ("normal", "unreachable", "silent", "slow", "stale", "empty-addr")

MAX_KNOWN_PEERS = 2500
STALE_PROTOCOL_VERSION = 70001
DEFAULT_SLOW_DELAY_MS = 150.0
SIM_USER_AGENT = "/simpeer:0.1/"
STALE_USER_AGENT = "/simpeer:0.0.1/"
# Fixed wall-clock stamp used in gossip entries and version timestamps,
# keeping responses byte-identical across builds.
BASE_TIME = 1_500_000_000

# Behaviors that complete a handshake; of those, all but empty-addr gossip.
_CONNECTABLE = frozenset({"normal", "slow", "stale", "empty-addr"})
_GOSSIPING = frozenset({"normal", "slow", "stale"})


class DuplicateAddressError(ValueError):
    pass


@dataclass(frozen=True)
class SimPeerProfile:
    address: Endpoint
    behavior: str = "normal"
    services: int = wirecodec.NODE_NETWORK | wirecodec.NODE_WITNESS
    start_height: int = 600_000
    rtt_ms: float = 20.0
    known_peers: tuple[Endpoint, ...] = ()
    slow_delay_ms: float = DEFAULT_SLOW_DELAY_MS
    protocol_version: int | None = None  # None: 70015, or 70001 when stale

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {self.behavior!r}")
        if len(self.known_peers) > MAX_KNOWN_PEERS:
            raise ValueError(f"{self.address}: more than {MAX_KNOWN_PEERS} known peers")

    @property
    def advertised_version(self) -> int:
        if self.protocol_version is not None:
            return self.protocol_version
        return STALE_PROTOCOL_VERSION if self.behavior == "stale" else wirecodec.PROTOCOL_VERSION

    @property
    def advertised_user_agent(self) -> str:
        return STALE_USER_AGENT if self.behavior == "stale" else SIM_USER_AGENT


@dataclass(frozen=True)
class SimTopology:
    peers: tuple[SimPeerProfile, ...]
    seed_ids: tuple[Endpoint, ...]
    rng_seed: int = 0

    def __post_init__(self) -> None:
        seen: set[Endpoint] = set()
        for peer in self.peers:
            if peer.address in seen:
                raise DuplicateAddressError(str(peer.address))
            seen.add(peer.address)
        missing = [s for s in self.seed_ids if s not in seen]
        if missing:
            raise ValueError(f"seeds not in topology: {missing}")

    def profile(self, endpoint: Endpoint) -> SimPeerProfile | None:
        return self._by_address.get(endpoint)

    @cached_property
    def _by_address(self) -> dict[Endpoint, SimPeerProfile]:
        return {p.address: p for p in self.peers}


def _peer_rng(rng_seed: int, address: Endpoint) -> random.Random:
    digest = hashlib.sha256(f"{rng_seed}|{address}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class _SimConnection:
    """One crawler-side connection to a simulated peer, on virtual time."""

    def __init__(self, network: "SimNetwork", profile: SimPeerProfile):
        self._network = network
        self._profile = profile
        slow_ms = profile.slow_delay_ms if profile.behavior == "slow" else 0.0
        self._latency_s = (profile.rtt_ms + slow_ms) / 1000.0
        # built on the first getaddr; an empty-addr peer has nothing to gossip
        self._gossip: list[AddrEntry] | None = [] if profile.behavior == "empty-addr" else None
        self._now = 0.0
        self._incoming = bytearray()
        self._readable = bytearray()
        self._arrivals: deque[tuple[float, bytes]] = deque()
        self._closed = False
        self._broken = False  # peer gave up after a protocol violation

    # -- Connection protocol ------------------------------------------

    def send(self, data: bytes) -> None:
        if self._closed:
            raise ConnectionClosedError("connection is closed")
        if self._profile.behavior == "silent" or self._broken:
            return
        self._incoming += data
        try:
            while frame := wirecodec.decode_message_prefix(self._incoming, self._network.magic):
                command, payload, consumed = frame
                del self._incoming[:consumed]
                self._respond(command, payload)
        except wirecodec.CodecError:
            self._broken = True  # bad frame or malformed payload: peer hangs up

    def recv_exact(self, n: int, timeout: float) -> bytes:
        if self._closed:
            raise ConnectionClosedError("connection is closed")
        deadline = self._now + timeout
        while len(self._readable) < n:
            if not self._arrivals or self._arrivals[0][0] > deadline:
                # what the peer sent before hanging up arrives first, as over TCP
                if self._broken:
                    raise ConnectionClosedError("peer dropped the connection")
                self._now = deadline
                raise RecvTimeoutError(f"needed {n} bytes, got {len(self._readable)}")
            arrival, data = self._arrivals.popleft()
            self._now = max(self._now, arrival)
            self._readable += data
        out = bytes(self._readable[:n])
        del self._readable[:n]
        return out

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._network._connection_closed()

    def clock(self) -> float:
        return self._now

    # -- peer side ------------------------------------------------------

    def _schedule(self, data: bytes) -> None:
        self._arrivals.append((self._now + self._latency_s, data))

    def _respond(self, command: str, payload: bytes) -> None:
        profile = self._profile
        magic = self._network.magic
        if command == "version":
            version = VersionPayload(
                protocol_version=profile.advertised_version,
                services=profile.services,
                timestamp=BASE_TIME,
                receiver=wirecodec.NULL_ADDRESS,
                sender=NetAddress(profile.services, profile.address.ip, profile.address.port),
                nonce=self._network._draw_nonce(profile.address),
                user_agent=profile.advertised_user_agent,
                start_height=profile.start_height,
                relay=False,
            )
            reply = wirecodec.encode_message("version", wirecodec.encode_version(version), magic)
            reply += wirecodec.encode_message("verack", b"", magic)
            self._schedule(reply)
        elif command == "ping":
            nonce = wirecodec.decode_ping(payload)
            self._schedule(wirecodec.encode_message("pong", wirecodec.encode_pong(nonce), magic))
        elif command == "getaddr":
            if self._gossip is None:
                self._gossip = self._network._gossip_entries(profile)
            entries = self._network._sample_gossip(profile.address, self._gossip)
            self._schedule(wirecodec.encode_message("addr", wirecodec.encode_addr(entries), magic))
        # verack and anything else: nothing to say back


class SimNetwork:
    """Transport over a :class:`SimTopology`, with connection accounting.

    ``peak_connections`` records the highest number of simultaneously open
    connections, which lets tests assert crawler concurrency bounds.
    """

    def __init__(self, topology: SimTopology, magic: bytes = wirecodec.SIMNET_MAGIC):
        self.topology = topology
        self.magic = magic
        self.open_connections = 0
        self.peak_connections = 0
        self.connects_attempted = 0
        self._lock = threading.Lock()
        self._rngs = {p.address: _peer_rng(topology.rng_seed, p.address) for p in topology.peers}

    def connect(self, endpoint: Endpoint, timeout: float) -> _SimConnection:
        profile = self.topology.profile(endpoint)
        with self._lock:
            self.connects_attempted += 1
            if profile is None or profile.behavior == "unreachable":
                raise ConnectError(f"{endpoint}: connection refused")
            self.open_connections += 1
            self.peak_connections = max(self.peak_connections, self.open_connections)
        return _SimConnection(self, profile)

    def _connection_closed(self) -> None:
        with self._lock:
            self.open_connections -= 1

    def _draw_nonce(self, address: Endpoint) -> int:
        with self._lock:
            return self._rngs[address].getrandbits(64)

    def _gossip_entries(self, profile: SimPeerProfile) -> list[AddrEntry]:
        entries = []
        for endpoint in profile.known_peers:
            known = self.topology.profile(endpoint)
            services = known.services if known is not None else 0
            entries.append(AddrEntry(BASE_TIME, services, endpoint.ip, endpoint.port))
        return entries

    def _sample_gossip(self, address: Endpoint, entries: list[AddrEntry]) -> list[AddrEntry]:
        count = min(wirecodec.MAX_ADDR_ENTRIES, len(entries))
        with self._lock:
            return self._rngs[address].sample(entries, count)


def build_network(topology: SimTopology, magic: bytes = wirecodec.SIMNET_MAGIC) -> SimNetwork:
    """Build the transport for a topology (validation happens in SimTopology)."""
    return SimNetwork(topology, magic)


# --- oracles --------------------------------------------------------------


def discovered_set(topology: SimTopology) -> set[Endpoint]:
    """Every endpoint reachable by transitive gossip from the seeds."""
    visited = set(topology.seed_ids)
    queue = deque(topology.seed_ids)
    while queue:
        profile = topology.profile(queue.popleft())
        if profile is None or profile.behavior not in _GOSSIPING:
            continue
        for neighbor in profile.known_peers:
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(neighbor)
    return visited


def reachable_set(topology: SimTopology) -> set[Endpoint]:
    """Gossip-reachable endpoints that also accept and complete a handshake.

    This is the breadth-first oracle a crawl over the same topology must
    match exactly: silent and unreachable peers are discovered but excluded.
    """
    return {
        endpoint
        for endpoint in discovered_set(topology)
        if (profile := topology.profile(endpoint)) is not None
        and profile.behavior in _CONNECTABLE
    }


# --- topology files -------------------------------------------------------


def _parse_behavior(token: str) -> tuple[str, float]:
    name, _, delay = token.partition(":")
    if name not in BEHAVIORS:
        raise ValueError(f"unknown behavior {token!r}")
    if delay and name != "slow":
        raise ValueError(f"only slow takes a delay parameter: {token!r}")
    return name, float(delay) if delay else DEFAULT_SLOW_DELAY_MS


def load_topology(path: str | Path) -> SimTopology:
    peers: list[SimPeerProfile] = []
    seed_ids: tuple[Endpoint, ...] = ()
    rng_seed = 0
    line_of: dict[Endpoint, int] = {}
    for lineno, line in _content_lines(path):
        try:
            if line.startswith("@"):
                directive, _, value = line.partition(" ")
                if directive == "@rng_seed":
                    rng_seed = int(value)
                elif directive == "@seeds":
                    seed_ids = tuple(Endpoint.parse(t) for t in value.split(",") if t.strip())
                else:
                    raise ValueError(f"unknown directive {directive!r}")
                continue
            fields = line.split()
            if len(fields) != 6:
                raise ValueError(f"expected 6 fields, got {len(fields)}")
            behavior, slow_delay = _parse_behavior(fields[1])
            known = ()
            if fields[5] != "-":
                known = tuple(Endpoint.parse(t) for t in fields[5].split(",") if t.strip())
            peers.append(
                SimPeerProfile(
                    address=Endpoint.parse(fields[0]),
                    behavior=behavior,
                    services=int(fields[2]),
                    start_height=int(fields[3]),
                    rtt_ms=float(fields[4]),
                    known_peers=known,
                    slow_delay_ms=slow_delay,
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        address = peers[-1].address
        if address in line_of:
            raise DuplicateAddressError(f"{path}: line {lineno}: {address} repeats line {line_of[address]}")
        line_of[address] = lineno
    if not seed_ids and peers:
        seed_ids = (peers[0].address,)
    return SimTopology(peers=tuple(peers), seed_ids=seed_ids, rng_seed=rng_seed)


def save_topology(topology: SimTopology, path: str | Path) -> None:
    lines = [f"@rng_seed {topology.rng_seed}"]
    lines.append("@seeds " + ",".join(str(s) for s in topology.seed_ids))
    for peer in topology.peers:
        behavior = peer.behavior
        if behavior == "slow":
            behavior = f"slow:{peer.slow_delay_ms:g}"
        known = ",".join(str(k) for k in peer.known_peers) or "-"
        lines.append(
            f"{peer.address} {behavior} {peer.services} {peer.start_height} "
            f"{peer.rtt_ms:g} {known}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_topology(
    size: int,
    rng_seed: int,
    *,
    unreachable_fraction: float = 0.0,
    silent_fraction: float = 0.0,
    slow_fraction: float = 0.0,
    stale_fraction: float = 0.0,
    empty_addr_fraction: float = 0.0,
    seed_count: int = 3,
    min_known: int = 8,
    max_known: int = 40,
    slow_delay_ms: float = DEFAULT_SLOW_DELAY_MS,
) -> SimTopology:
    """Generate a gossip topology with the given behavior mix.

    Peers get 10.x.y.z addresses; each one's gossip cache is a uniform
    sample of the other peers.  Seeds are always normal peers so a crawl
    has somewhere to start.
    """
    rng = random.Random(rng_seed)
    addresses = []
    for i in range(size):
        ip = f"10.{(i >> 16) & 0xFF}.{(i >> 8) & 0xFF}.{i & 0xFF}"
        addresses.append(Endpoint.make(ip, wirecodec.DEFAULT_PORT))

    counts = [
        ("unreachable", int(round(size * unreachable_fraction))),
        ("silent", int(round(size * silent_fraction))),
        ("slow", int(round(size * slow_fraction))),
        ("stale", int(round(size * stale_fraction))),
        ("empty-addr", int(round(size * empty_addr_fraction))),
    ]
    if sum(count for _, count in counts) >= size:
        raise ValueError("behavior fractions leave no normal peers to seed from")
    behaviors = [behavior for behavior, count in counts for _ in range(count)]
    behaviors += ["normal"] * (size - len(behaviors))
    rng.shuffle(behaviors)

    peers = []
    for i, (address, behavior) in enumerate(zip(addresses, behaviors)):
        # sample among the size - 1 other peers: index j >= i stands for peer j + 1
        k = min(size - 1, rng.randint(min_known, max_known))
        known = tuple(addresses[j + (j >= i)] for j in rng.sample(range(size - 1), k))
        peers.append(
            SimPeerProfile(
                address=address,
                behavior=behavior,
                services=rng.choice(
                    (
                        wirecodec.NODE_NETWORK | wirecodec.NODE_WITNESS,
                        wirecodec.NODE_NETWORK | wirecodec.NODE_WITNESS | wirecodec.NODE_BLOOM,
                        wirecodec.NODE_NETWORK_LIMITED | wirecodec.NODE_WITNESS,
                    )
                ),
                start_height=600_000 + rng.randint(-10, 10),
                rtt_ms=round(rng.uniform(5.0, 120.0), 1),
                known_peers=known,
                slow_delay_ms=slow_delay_ms,
            )
        )

    normal_peers = [p.address for p in peers if p.behavior == "normal"]
    seeds = tuple(rng.sample(normal_peers, min(seed_count, len(normal_peers))))
    return SimTopology(peers=tuple(peers), seed_ids=seeds, rng_seed=rng_seed)
