"""Deterministic in-process peer network speaking the census wire protocol.

Every peer is described by a :class:`SimPeerProfile` whose ``behavior``
selects connection dynamics:

* ``normal``      - handshakes, answers pings and the first getaddr.
* ``unreachable`` - refuses connections (models NATed/private peers).
* ``silent``      - accepts the connection, then never sends a byte.
* ``slow``        - like normal, with a fixed extra response delay in ms.
* ``stale``       - like normal, but advertises an outdated protocol version.
* ``empty-addr``  - like normal, but its getaddr yields zero addresses.

Time is virtual, so latency and timeouts are exact and tests never sleep: each
connection's clock starts at 0, and the network's ``now`` starts at ``BASE_TIME``
and moves by each closed connection's time and each ``sleep``.
A peer answers only the first getaddr of a connection, as Bitcoin Core
does, with the 30-byte wire records of a sample of its known peers drawn by
its RNG, so ``topology.rng_seed`` fully determines gossip: equal topologies
give byte-identical addr messages.  A repeated getaddr draws nothing.
The network encodes each endpoint's record once, the first time a peer
gossips it, and every peer that knows the endpoint shares those bytes.

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
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

from . import wirecodec
from .transport import (
    ConnectError, ConnectionClosedError, Endpoint, RecvTimeoutError, _Memo, _content_lines, _decimal, _int, _write_text
)
from .wirecodec import AddrEntry, NetAddress, VersionPayload

BEHAVIORS = ("normal", "unreachable", "silent", "slow", "stale", "empty-addr")

MAX_KNOWN_PEERS = 2500
STALE_PROTOCOL_VERSION = 70001
DEFAULT_SLOW_DELAY_MS = 150.0
SIM_USER_AGENT = "/simpeer:0.1/"
STALE_USER_AGENT = "/simpeer:0.0.1/"
# Fixed start of the network's clock, and the stamp of gossip entries and version messages.
BASE_TIME = 1_500_000_000

# Behaviors that complete a handshake; of those, all but empty-addr gossip.
_CONNECTABLE = frozenset({"normal", "slow", "stale", "empty-addr"})
_GOSSIPING = frozenset({"normal", "slow", "stale"})


class DuplicateAddressError(ValueError):
    pass


@dataclass(frozen=True)
class SimPeerProfile:
    """A simulated peer; its version and user agent follow from ``behavior``.  Values
    the wire cannot carry raise ValueError: services outside 0..2^64-1, a start
    height outside -2^31..2^31-1, a negative or non-finite ``rtt_ms`` or delay."""

    address: Endpoint
    behavior: str = "normal"
    services: int = wirecodec.NODE_NETWORK | wirecodec.NODE_WITNESS
    start_height: int = 600_000
    rtt_ms: float = 20.0
    known_peers: tuple[Endpoint, ...] = ()
    slow_delay_ms: float = DEFAULT_SLOW_DELAY_MS

    def __post_init__(self) -> None:
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"unknown behavior {self.behavior!r}")
        if len(self.known_peers) > MAX_KNOWN_PEERS:
            raise ValueError(f"{self.address}: more than {MAX_KNOWN_PEERS} known peers")
        if not 0 <= self.services < 2**64:
            raise ValueError(f"services {self.services} not in 0..2^64-1")
        if not -(2**31) <= self.start_height < 2**31:
            raise ValueError(f"start height {self.start_height} not in -2^31..2^31-1")
        if not (0 <= self.rtt_ms < float("inf") and 0 <= self.slow_delay_ms < float("inf")):  # also false for nan
            raise ValueError(f"rtt_ms {self.rtt_ms} and slow_delay_ms {self.slow_delay_ms} must be finite and >= 0")

    @property
    def advertised_version(self) -> int:
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
        missing = [str(s) for s in self.seed_ids if s not in seen]
        if missing:
            raise ValueError(f"seeds not in topology: {', '.join(missing)}")

    def profile(self, endpoint: Endpoint) -> SimPeerProfile | None:
        return self._by_address.get(endpoint)

    @cached_property
    def _by_address(self) -> dict[Endpoint, SimPeerProfile]:
        return {p.address: p for p in self.peers}


def _peer_rng(rng_seed: int, address: Endpoint) -> random.Random:
    digest = hashlib.sha256(f"{rng_seed}|{address}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _addr_record(topology: SimTopology, endpoint: Endpoint) -> bytes:
    """The 30-byte ``addr`` record every peer of ``topology`` gossips for ``endpoint``."""
    known = topology.profile(endpoint)
    return AddrEntry(BASE_TIME, known.services if known is not None else 0, endpoint.ip, endpoint.port).encode()


class _SimConnection:
    """One crawler-side connection to a simulated peer, on virtual time."""

    def __init__(self, network: "SimNetwork", profile: SimPeerProfile):
        self._network = network
        self._profile = profile
        slow_ms = profile.slow_delay_ms if profile.behavior == "slow" else 0.0
        self._latency_s = (profile.rtt_ms + slow_ms) / 1000.0
        self._getaddr_answered = False
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

    def recv_exact(self, n: int, deadline: float) -> bytes:
        if self._closed:
            raise ConnectionClosedError("connection is closed")
        if n and self._now >= deadline:
            raise RecvTimeoutError(f"read of {n} bytes starts at or after its deadline")
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
            self._network.open_connections -= 1
            self._network._elapsed_s += self._now

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
                nonce=self._network._rngs[profile.address].getrandbits(64),
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
        elif command == "getaddr" and not self._getaddr_answered:
            self._getaddr_answered = True
            gossip = self._network._gossip_records(profile) if profile.behavior in _GOSSIPING else []
            count = min(wirecodec.MAX_ADDR_ENTRIES, len(gossip))
            records = self._network._rngs[profile.address].sample(gossip, count)
            self._schedule(wirecodec.encode_message("addr", wirecodec.encode_addr_records(records), magic))
        # verack, a repeated getaddr and anything else: nothing to say back


class SimNetwork:
    """Transport over a :class:`SimTopology`, with connection accounting.

    Single-threaded: its reads never wait, so the crawler probes it on the
    calling thread.  It always speaks ``magic``, which is ``SIMNET_MAGIC``, and
    ``peak_connections`` is the most connections open at once.
    """

    magic = wirecodec.SIMNET_MAGIC

    def __init__(self, topology: SimTopology):
        self.topology = topology
        self.open_connections = 0
        self.peak_connections = 0
        self.connects_attempted = 0
        self._elapsed_s = 0.0  # virtual seconds of closed connections and sleeps
        self._rngs = {p.address: _peer_rng(topology.rng_seed, p.address) for p in topology.peers}
        self._records = _Memo(partial(_addr_record, topology))  # built on first gossip, from the topology alone

    def connect(self, endpoint: Endpoint, timeout: float) -> _SimConnection:
        profile = self.topology.profile(endpoint)
        self.connects_attempted += 1
        if profile is None or profile.behavior == "unreachable":
            raise ConnectError(f"{endpoint}: connection refused")
        self.open_connections += 1
        self.peak_connections = max(self.peak_connections, self.open_connections)
        return _SimConnection(self, profile)

    def now(self) -> float:
        return BASE_TIME + self._elapsed_s

    def sleep(self, seconds: float) -> None:
        self._elapsed_s += seconds

    def _gossip_records(self, profile: SimPeerProfile) -> list[bytes]:
        """Each known peer's ``addr`` record, in ``known_peers`` order."""
        return [self._records[endpoint] for endpoint in profile.known_peers]


def build_network(topology: SimTopology) -> SimNetwork:
    """Build the transport for a topology, on ``SIMNET_MAGIC`` (validation happens in SimTopology)."""
    return SimNetwork(topology)


# --- oracles --------------------------------------------------------------


def discovered_set(topology: SimTopology) -> set[Endpoint]:
    """Every endpoint reachable by transitive gossip from the seeds.

    A crawl finds all of it only while each gossiping peer knows at most
    ``wirecodec.MAX_ADDR_ENTRIES`` others, so that its one getaddr reply carries its whole cache.
    """
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
    return name, _decimal(delay, "slow delay") if delay else DEFAULT_SLOW_DELAY_MS


def load_topology(path: str | Path) -> SimTopology:
    peers: list[SimPeerProfile] = []
    seed_ids: tuple[Endpoint, ...] = ()
    rng_seed = 0
    seeds_line = 0
    line_of: dict[Endpoint, int] = {}
    for lineno, line in _content_lines(path):
        try:
            if line.startswith("@"):
                directive, _, value = line.partition(" ")
                if directive == "@rng_seed":
                    rng_seed = _int(value.strip(), "@rng_seed")
                elif directive == "@seeds":
                    seed_ids = tuple(Endpoint.parse(t) for t in value.split(",") if t.strip())
                    seeds_line = lineno
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
                    services=_int(fields[2], "services"),
                    start_height=_int(fields[3], "start height"),
                    rtt_ms=_decimal(fields[4], "rtt_ms"),
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
    try:
        return SimTopology(peers=tuple(peers), seed_ids=seed_ids, rng_seed=rng_seed)
    except ValueError as exc:  # addresses are unique by now: an @seeds entry is not a peer
        raise ValueError(f"{path}: line {seeds_line}: {exc}") from exc


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
    _write_text(path, "\n".join(lines) + "\n")


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
