"""Simulated network tests: behaviors, determinism, oracles, topology files."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainobs import crawler, simnet, wirecodec
from chainobs.simnet import SimPeerProfile, SimTopology
from chainobs.transport import ConnectError, ConnectionClosedError, Endpoint, RecvTimeoutError
from helpers import version_payload

MAGIC = wirecodec.SIMNET_MAGIC


def ep(ip, port=8333):
    return Endpoint.make(ip, port)


def topology(profiles, seeds=None, rng_seed=7):
    seeds = seeds if seeds is not None else (profiles[0].address,)
    return SimTopology(peers=tuple(profiles), seed_ids=tuple(seeds), rng_seed=rng_seed)


def send_version(conn):
    payload = wirecodec.encode_version(version_payload("/test/", services=0, start_height=0))
    conn.send(wirecodec.encode_message("version", payload, MAGIC))


def read_frame(conn, timeout=5.0):
    header = conn.recv_exact(wirecodec.HEADER_SIZE, conn.clock() + timeout)
    _, length, _ = wirecodec.decode_header(header, MAGIC)
    return wirecodec.decode_message(header + conn.recv_exact(length, conn.clock() + timeout), MAGIC)


def handshake(conn):
    send_version(conn)
    version_payload = None
    verack = False
    while version_payload is None or not verack:
        command, payload = read_frame(conn)
        if command == "version":
            version_payload = wirecodec.decode_version(payload)
        elif command == "verack":
            verack = True
    conn.send(wirecodec.encode_message("verack", b"", MAGIC))
    return version_payload


def getaddr_payload(conn):
    conn.send(wirecodec.encode_message("getaddr", b"", MAGIC))
    command, payload = read_frame(conn)
    assert command == "addr"
    return payload


def test_unreachable_peer_refuses_connection():
    topo = topology([SimPeerProfile(ep("10.0.0.1"), behavior="unreachable")], seeds=())
    network = simnet.build_network(topo)
    with pytest.raises(ConnectError):
        network.connect(ep("10.0.0.1"), timeout=1.0)


def test_unknown_endpoint_refuses_connection():
    network = simnet.build_network(topology([SimPeerProfile(ep("10.0.0.1"))]))
    with pytest.raises(ConnectError):
        network.connect(ep("10.9.9.9"), timeout=1.0)


def test_normal_peer_handshake_reports_profile_metadata():
    profile = SimPeerProfile(ep("10.0.0.1"), services=1033, start_height=123_456)
    network = simnet.build_network(topology([profile]))
    conn = network.connect(profile.address, timeout=1.0)
    version = handshake(conn)
    assert version.services == 1033
    assert version.start_height == 123_456
    assert version.protocol_version == wirecodec.PROTOCOL_VERSION


def test_stale_peer_advertises_old_protocol_version():
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="stale")
    network = simnet.build_network(topology([profile]))
    version = handshake(network.connect(profile.address, timeout=1.0))
    assert version.protocol_version == simnet.STALE_PROTOCOL_VERSION


def test_silent_peer_accepts_then_never_answers():
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="silent")
    network = simnet.build_network(topology([profile]))
    conn = network.connect(profile.address, timeout=1.0)
    send_version(conn)
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(1, conn.clock() + 2.5)
    # virtual clock advanced by exactly the timeout, no wall sleeping
    assert conn.clock() == 2.5


def test_slow_peer_delay_shows_up_on_the_virtual_clock():
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="slow", rtt_ms=10.0, slow_delay_ms=500.0)
    network = simnet.build_network(topology([profile]))
    conn = network.connect(profile.address, timeout=1.0)
    send_version(conn)
    read_frame(conn, timeout=5.0)
    assert conn.clock() == pytest.approx(0.510)


def test_slow_peer_beyond_timeout_times_out():
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="slow", rtt_ms=10.0, slow_delay_ms=9_000.0)
    network = simnet.build_network(topology([profile]))
    conn = network.connect(profile.address, timeout=1.0)
    send_version(conn)
    with pytest.raises(RecvTimeoutError):
        read_frame(conn, timeout=5.0)


def test_empty_addr_peer_returns_zero_addresses():
    known = (ep("10.0.0.2"), ep("10.0.0.3"))
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="empty-addr", known_peers=known)
    network = simnet.build_network(topology([profile]))
    conn = network.connect(profile.address, timeout=1.0)
    handshake(conn)
    assert wirecodec.decode_addr(getaddr_payload(conn)) == []


def test_addr_sampling_is_capped_at_wire_limit():
    known = tuple(ep(f"10.1.{i // 256}.{i % 256}") for i in range(1200))
    profile = SimPeerProfile(ep("10.0.0.1"), known_peers=known)
    network = simnet.build_network(topology([profile]))
    conn = network.connect(profile.address, timeout=1.0)
    handshake(conn)
    entries = wirecodec.decode_addr(getaddr_payload(conn))
    assert len(entries) == wirecodec.MAX_ADDR_ENTRIES
    assert len({(e.ip, e.port) for e in entries}) == len(entries)  # without replacement


def test_equal_rng_seed_gives_byte_identical_addr_responses():
    known = tuple(ep(f"10.2.0.{i}") for i in range(120))
    profiles = [SimPeerProfile(ep("10.0.0.1"), known_peers=known)]

    def collect():
        network = simnet.build_network(topology(profiles, rng_seed=42))
        payloads = []
        for _ in range(3):  # one getaddr per connection
            conn = network.connect(ep("10.0.0.1"), timeout=1.0)
            handshake(conn)
            payloads.append(getaddr_payload(conn))
        return payloads

    assert collect() == collect()


@pytest.mark.parametrize("behavior", ["normal", "empty-addr"])
def test_peer_answers_only_the_first_getaddr_of_a_connection(behavior):
    known = tuple(ep(f"10.2.0.{i}") for i in range(120))
    profile = SimPeerProfile(ep("10.0.0.1"), behavior=behavior, known_peers=known)
    network = simnet.build_network(topology([profile]))
    conn = network.connect(profile.address, timeout=1.0)
    handshake(conn)
    entries = wirecodec.decode_addr(getaddr_payload(conn))
    assert len(entries) == (0 if behavior == "empty-addr" else 120)
    rng_state = network._rngs[profile.address].getstate()
    conn.send(wirecodec.encode_message("getaddr", b"", MAGIC))
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(1, conn.clock() + 5.0)
    assert network._rngs[profile.address].getstate() == rng_state
    conn.send(ping_frame(3))  # the connection still answers pings
    command, payload = read_frame(conn)
    assert (command, wirecodec.decode_pong(payload)) == ("pong", 3)


def test_different_rng_seed_changes_sampling_order():
    known = tuple(ep(f"10.2.0.{i}") for i in range(120))
    profiles = [SimPeerProfile(ep("10.0.0.1"), known_peers=known)]

    def first_payload(seed):
        network = simnet.build_network(topology(profiles, rng_seed=seed))
        conn = network.connect(ep("10.0.0.1"), timeout=1.0)
        handshake(conn)
        return getaddr_payload(conn)

    assert first_payload(1) != first_payload(2)


# --- framing -------------------------------------------------------------------


def ping_frame(nonce):
    return wirecodec.encode_message("ping", wirecodec.encode_ping(nonce), MAGIC)


def connected_peer():
    profile = SimPeerProfile(ep("10.0.0.1"), known_peers=(ep("10.0.0.2"),))
    network = simnet.build_network(topology([profile]))
    return network.connect(profile.address, timeout=1.0)


def test_network_clock_moves_only_by_closed_connections_and_sleeps():
    profile = SimPeerProfile(ep("10.0.0.1"), rtt_ms=20.0)
    network = simnet.build_network(topology([profile, SimPeerProfile(ep("10.0.0.2"), behavior="unreachable")]))
    assert network.now() == simnet.BASE_TIME
    conn = network.connect(profile.address, timeout=1.0)
    handshake(conn)
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(1, deadline=3.0)  # nothing more is coming: the read waits to its deadline
    assert conn.clock() == 3.0
    assert network.now() == simnet.BASE_TIME  # an open connection's time is not yet spent
    conn.close()
    conn.close()
    assert network.now() == simnet.BASE_TIME + 3.0  # counted once
    with pytest.raises(ConnectError):
        network.connect(ep("10.0.0.2"), timeout=1.0)
    network.sleep(600.0)
    assert network.now() == simnet.BASE_TIME + 603.0
    assert network.connect(profile.address, timeout=1.0).clock() == 0.0  # each connection's clock starts at 0


def test_frame_fed_one_byte_per_send_is_answered_once_complete():
    conn = connected_peer()
    handshake(conn)
    frame = ping_frame(0xC0FFEE)
    for i in range(len(frame) - 1):
        conn.send(frame[i : i + 1])
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(1, conn.clock() + 1.0)  # nothing until the last byte arrives
    conn.send(frame[-1:])
    command, payload = read_frame(conn)
    assert (command, wirecodec.decode_pong(payload)) == ("pong", 0xC0FFEE)


def test_two_frames_in_one_send_are_both_answered_in_order():
    conn = connected_peer()
    handshake(conn)
    conn.send(ping_frame(1) + wirecodec.encode_message("getaddr", b"", MAGIC))
    command, payload = read_frame(conn)
    assert (command, wirecodec.decode_pong(payload)) == ("pong", 1)
    command, payload = read_frame(conn)
    assert command == "addr"
    assert [(e.ip, e.port) for e in wirecodec.decode_addr(payload)] == [("10.0.0.2", 8333)]


def test_one_send_of_500_pings_is_answered_with_500_pongs_in_order(monkeypatch):
    conn = connected_peer()
    handshake(conn)
    burst = b"".join(ping_frame(nonce) for nonce in range(500))
    copied = []  # the size of each copy the peer hands the frame decoder; a memoryview is read in place
    decode = wirecodec.decode_message_prefix

    def counted(data, magic):
        copied.append(0 if type(data) is memoryview else len(data))
        return decode(data, magic)

    monkeypatch.setattr(wirecodec, "decode_message_prefix", counted)
    conn.send(burst)
    assert sum(copied) <= len(burst)  # the burst is read in linear time, not sliced once per frame
    assert len(copied) == 501
    assert conn._incoming == b""
    nonces = []
    for _ in range(500):
        command, payload = read_frame(conn)
        assert command == "pong"
        nonces.append(wirecodec.decode_pong(payload))
    assert nonces == list(range(500))
    assert conn._readable[conn._read_at :] == b""
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(1, conn.clock() + 1.0)


@pytest.mark.parametrize("cut", [1, 4, 5, wirecodec.HEADER_SIZE - 1])
def test_frame_split_inside_its_header_is_answered_once(cut):
    conn = connected_peer()
    handshake(conn)
    frame = ping_frame(0xBEEF)
    conn.send(frame[:cut])
    assert conn._incoming == frame[:cut]
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(1, conn.clock() + 1.0)
    conn.send(frame[cut:] + ping_frame(0xCAFE)[:cut])  # the next frame starts in the same send
    command, payload = read_frame(conn)
    assert (command, wirecodec.decode_pong(payload)) == ("pong", 0xBEEF)
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(1, conn.clock() + 1.0)  # answered once
    conn.send(ping_frame(0xCAFE)[cut:])
    command, payload = read_frame(conn)
    assert (command, wirecodec.decode_pong(payload)) == ("pong", 0xCAFE)
    assert conn._incoming == b""


def test_bad_frame_after_several_good_ones_in_one_send_delivers_their_replies():
    conn = connected_peer()
    handshake(conn)
    conn.send(b"".join(ping_frame(nonce) for nonce in (1, 2, 3)) + _bad_checksum(ping_frame(4)) + ping_frame(5))
    for nonce in (1, 2, 3):
        command, payload = read_frame(conn)
        assert (command, wirecodec.decode_pong(payload)) == ("pong", nonce)
    with pytest.raises(ConnectionClosedError):
        conn.recv_exact(1, conn.clock() + 1.0)


def _bad_magic(frame):
    return b"\xde\xad\xbe\xef" + frame[4:]


def _bad_checksum(frame):
    return frame[:20] + bytes(b ^ 0xFF for b in frame[20:24]) + frame[24:]


def _bad_payload(frame):
    # a well-framed ping whose payload is one byte short
    return wirecodec.encode_message("ping", b"\x00" * 7, MAGIC)


def _bad_checksum_on_the_payload_just_hashed(frame):
    # ping 6 again, sent just before: the checksum memo holds its payload
    return _bad_checksum(ping_frame(6))


def _payload_just_hashed_under_another_header(frame):
    # ping 7's header over ping 6's payload, which the peer has just hashed
    return frame[: wirecodec.HEADER_SIZE] + wirecodec.encode_ping(6)


@pytest.mark.parametrize(
    "spoil",
    [
        _bad_magic,
        _bad_checksum,
        _bad_payload,
        _bad_checksum_on_the_payload_just_hashed,
        _payload_just_hashed_under_another_header,
    ],
)
def test_peer_answers_a_good_frame_then_hangs_up_on_a_bad_one(spoil):
    conn = connected_peer()
    handshake(conn)
    conn.send(ping_frame(5))
    command, payload = read_frame(conn)
    assert (command, wirecodec.decode_pong(payload)) == ("pong", 5)
    # the pong to a ping sent together with the bad frame arrives before the hang-up
    conn.send(ping_frame(6) + spoil(ping_frame(7)))
    command, payload = read_frame(conn)
    assert (command, wirecodec.decode_pong(payload)) == ("pong", 6)
    with pytest.raises(ConnectionClosedError):
        conn.recv_exact(1, conn.clock() + 1.0)
    conn.send(ping_frame(8))  # a peer that hung up ignores what follows
    with pytest.raises(ConnectionClosedError):
        conn.recv_exact(1, conn.clock() + 1.0)


# --- read contract: deadlines on the connection's clock --------------------------


@pytest.mark.parametrize("late", [0.0, 5.0], ids=["at", "after"])
def test_read_that_starts_at_or_after_its_deadline_times_out_with_bytes_buffered(late):
    conn = connected_peer()
    handshake(conn)
    conn.send(ping_frame(9))
    conn.recv_exact(wirecodec.HEADER_SIZE, conn.clock() + 1.0)  # the whole pong arrives at once
    now = conn.clock()
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(8, now - late)
    assert conn.clock() == now
    assert wirecodec.decode_pong(conn.recv_exact(8, now + 1.0)) == 9


def test_past_deadline_never_moves_the_clock_backwards():
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="silent")
    conn = simnet.build_network(topology([profile])).connect(profile.address, timeout=1.0)
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(1, 2.5)
    for deadline in (2.5, 1.0, -3.0):
        with pytest.raises(RecvTimeoutError):
            conn.recv_exact(1, deadline)
        assert conn.clock() == 2.5


def test_empty_read_returns_at_any_time():
    conn = connected_peer()
    for deadline in (-1.0, 0.0, 1.0):
        assert conn.recv_exact(0, deadline) == b""
    assert conn.clock() == 0.0


@pytest.mark.parametrize(
    "use",
    [lambda conn: conn.send(ping_frame(1)), lambda conn: conn.recv_exact(1, conn.clock() + 1.0)],
    ids=["send", "recv_exact"],
)
def test_closed_connection_refuses_reads_and_writes(use):
    conn = connected_peer()
    conn.close()
    with pytest.raises(ConnectionClosedError, match="connection is closed"):
        use(conn)


# --- gossip: differential against the per-call sampler it replaced ----------------


def reference_addr_payload(topo, profile, rng):
    """The old simulated peer's getaddr answer: sample endpoints, then build entries."""
    if profile.behavior == "empty-addr":
        return wirecodec.encode_addr([])
    count = min(wirecodec.MAX_ADDR_ENTRIES, len(profile.known_peers))
    entries = []
    for endpoint in rng.sample(profile.known_peers, count):
        known = topo.profile(endpoint)
        services = known.services if known is not None else 0
        entries.append(wirecodec.AddrEntry(simnet.BASE_TIME, services, endpoint.ip, endpoint.port))
    return wirecodec.encode_addr(entries)


def gossip_topology(seed):
    """Members of every behavior; known peers mix members with outsiders
    (services 0 on the wire), and some peers know more than the 1000-entry cap."""
    rng = random.Random(seed)
    members = [ep(f"10.0.{i // 256}.{i % 256}") for i in range(40)]
    outsiders = [ep(f"172.16.{i // 256}.{i % 256}", 8333 + i % 3) for i in range(1400)]
    profiles = []
    for i, address in enumerate(members):
        behavior = simnet.BEHAVIORS[i % len(simnet.BEHAVIORS)]
        size = rng.choice((0, 1, 7, 200, 1000, 1001, 1350))
        pool = [m for m in members if m != address] + outsiders
        profiles.append(
            SimPeerProfile(
                address,
                behavior=behavior,
                services=rng.choice((1, 9, 1033, 2**63 + 5)),
                known_peers=tuple(rng.sample(pool, size)),
            )
        )
    return topology(profiles, rng_seed=seed)


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_addr_payloads_match_the_per_call_reference(seed):
    topo = gossip_topology(seed)
    network = simnet.build_network(topo)
    checked = set()
    for profile in topo.peers:
        if profile.behavior in ("unreachable", "silent"):
            continue
        rng = simnet._peer_rng(topo.rng_seed, profile.address)
        for _ in range(3):  # one getaddr per connection
            conn = network.connect(profile.address, timeout=1.0)
            handshake(conn)
            rng.getrandbits(64)  # the version nonce the handshake drew
            assert getaddr_payload(conn) == reference_addr_payload(topo, profile, rng)
            conn.close()
        checked.add(profile.behavior)
    assert checked == {"normal", "slow", "stale", "empty-addr"}


@pytest.mark.parametrize("seed", [3, 2024])
def test_network_record_table_gives_the_bytes_of_fresh_entries(seed):
    topo = gossip_topology(seed)
    network = simnet.build_network(topo)
    assert network._records == {}  # filled on first gossip, not while the network is built
    shared = {}
    for profile in topo.peers:
        records = network._gossip_records(profile)
        fresh = []
        for endpoint in profile.known_peers:
            known = topo.profile(endpoint)
            services = known.services if known is not None else 0
            fresh.append(wirecodec.AddrEntry(simnet.BASE_TIME, services, endpoint.ip, endpoint.port))
        assert records == [entry.encode() for entry in fresh]
        for chunk in range(0, len(fresh), wirecodec.MAX_ADDR_ENTRIES):
            window = slice(chunk, chunk + wirecodec.MAX_ADDR_ENTRIES)
            assert wirecodec.encode_addr_records(records[window]) == wirecodec.encode_addr(fresh[window])
        for endpoint, record in zip(profile.known_peers, records):
            assert shared.setdefault(endpoint, record) is record  # one bytes object per endpoint
    assert set(network._records) == set(shared)


class _RecordingNetwork:
    """A transport over a simulated network that keeps every byte each peer sends the crawler."""

    def __init__(self, network):
        self.network = network
        self.now = network.now
        self.received: dict[Endpoint, bytearray] = {}

    def connect(self, endpoint, timeout):
        conn = self.network.connect(endpoint, timeout)
        received = self.received.setdefault(endpoint, bytearray())
        recv_exact = conn.recv_exact

        def recording_recv_exact(n, deadline):
            data = recv_exact(n, deadline)
            received.extend(data)
            return data

        conn.recv_exact = recording_recv_exact
        return conn


@pytest.mark.parametrize("seed", [11, 404])
def test_every_addr_payload_of_a_seeded_crawl_encodes_the_entries_a_same_seeded_rng_samples(seed):
    topo = simnet.random_topology(
        150, seed, unreachable_fraction=0.1, silent_fraction=0.05, slow_fraction=0.05, stale_fraction=0.05,
        empty_addr_fraction=0.05, max_known=60,
    )
    recording = _RecordingNetwork(simnet.build_network(topo))
    config = crawler.CrawlConfig(seeds=topo.seed_ids, magic=MAGIC, max_inflight=1)
    snapshot = crawler.crawl(config, recording)
    checked = 0
    for endpoint, received in recording.received.items():
        profile = topo.profile(endpoint)
        rng = simnet._peer_rng(topo.rng_seed, endpoint)
        rng.getrandbits(64)  # the version nonce
        commands = []
        while frame := wirecodec.decode_message_prefix(received, MAGIC):
            command, payload, consumed = frame
            del received[:consumed]
            commands.append(command)
            if command == "addr":
                assert payload == reference_addr_payload(topo, profile, rng)
                checked += 1
        assert not received
        if profile.behavior != "silent":
            assert commands.count("addr") == 1
    assert checked == snapshot.active_count > 0


def test_duplicate_address_rejected():
    with pytest.raises(simnet.DuplicateAddressError):
        topology([SimPeerProfile(ep("10.0.0.1")), SimPeerProfile(ep("10.0.0.1"))])


def test_known_peers_cache_limit():
    too_many = tuple(ep(f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}", 8333) for i in range(2501))
    with pytest.raises(ValueError):
        SimPeerProfile(ep("10.0.0.1"), known_peers=too_many)


def test_unknown_behavior_rejected():
    with pytest.raises(ValueError, match="unknown behavior 'bogus'"):
        SimPeerProfile(ep("10.0.0.1"), behavior="bogus")


def test_random_topology_needs_a_normal_peer_to_seed_from():
    with pytest.raises(ValueError, match="no normal peers"):
        simnet.random_topology(10, 1, unreachable_fraction=1.0)


def test_seed_outside_topology_rejected():
    with pytest.raises(ValueError):
        topology([SimPeerProfile(ep("10.0.0.1"))], seeds=(ep("10.9.9.9"),))


# --- oracles -----------------------------------------------------------------


def test_reachable_set_excludes_unreachable_neighbor():
    a = SimPeerProfile(ep("10.0.0.1"), known_peers=(ep("10.0.0.2"),))
    b = SimPeerProfile(ep("10.0.0.2"), behavior="unreachable")
    topo = topology([a, b], seeds=(a.address,))
    assert simnet.reachable_set(topo) == {a.address}
    assert simnet.discovered_set(topo) == {a.address, b.address}


def test_reachable_set_fully_connected_network():
    addresses = [ep(f"10.0.0.{i}") for i in range(1, 6)]
    profiles = [
        SimPeerProfile(a, known_peers=tuple(x for x in addresses if x != a)) for a in addresses
    ]
    topo = topology(profiles, seeds=(addresses[0],))
    assert simnet.reachable_set(topo) == set(addresses)


def test_silent_peer_discovered_but_not_reachable():
    a = SimPeerProfile(ep("10.0.0.1"), known_peers=(ep("10.0.0.2"), ep("10.0.0.3")))
    b = SimPeerProfile(ep("10.0.0.2"), behavior="silent")
    c = SimPeerProfile(ep("10.0.0.3"))
    topo = topology([a, b, c], seeds=(a.address,))
    assert simnet.reachable_set(topo) == {a.address, c.address}
    assert b.address in simnet.discovered_set(topo)


def test_gossip_does_not_traverse_silent_peers():
    # c is only known to the silent peer, so it is never heard about
    a = SimPeerProfile(ep("10.0.0.1"), known_peers=(ep("10.0.0.2"),))
    b = SimPeerProfile(ep("10.0.0.2"), behavior="silent", known_peers=(ep("10.0.0.3"),))
    c = SimPeerProfile(ep("10.0.0.3"))
    topo = topology([a, b, c], seeds=(a.address,))
    assert simnet.discovered_set(topo) == {a.address, b.address}


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=300),
    rng_seed=st.integers(min_value=0, max_value=2**32),
    min_known=st.integers(min_value=0, max_value=50),
    extra_known=st.integers(min_value=0, max_value=30),
)
def test_random_topology_gossip_caches_are_samples_of_the_other_peers(size, rng_seed, min_known, extra_known):
    max_known = min_known + extra_known
    topo = simnet.random_topology(size, rng_seed, min_known=min_known, max_known=max_known)
    addresses = {p.address for p in topo.peers}
    assert len(addresses) == size
    for peer in topo.peers:
        known = peer.known_peers
        assert peer.address not in known
        assert len(set(known)) == len(known)
        assert set(known) <= addresses
        assert min(size - 1, min_known) <= len(known) <= min(size - 1, max_known)


# --- topology files ------------------------------------------------------------


def test_topology_file_round_trip(tmp_path):
    topo = simnet.random_topology(
        40,
        rng_seed=3,
        unreachable_fraction=0.2,
        silent_fraction=0.1,
        slow_fraction=0.1,
        stale_fraction=0.1,
        empty_addr_fraction=0.05,
    )
    path = tmp_path / "net.topo"
    simnet.save_topology(topo, path)
    loaded = simnet.load_topology(path)
    assert loaded == topo


def test_topology_file_parsing(tmp_path):
    path = tmp_path / "net.topo"
    path.write_text(
        "# comment line\n"
        "@rng_seed 99\n"
        "@seeds 10.0.0.1:8333\n"
        "10.0.0.1:8333 normal 9 600000 25.5 10.0.0.2:8333,10.0.0.3:8333\n"
        "10.0.0.2:8333 slow:7000 9 600000 40 -\n"
        "10.0.0.3:8333 unreachable 0 0 0 -  # trailing comment\n"
    )
    topo = simnet.load_topology(path)
    assert topo.rng_seed == 99
    assert topo.seed_ids == (ep("10.0.0.1"),)
    by_ip = {p.address.ip: p for p in topo.peers}
    assert by_ip["10.0.0.1"].known_peers == (ep("10.0.0.2"), ep("10.0.0.3"))
    assert by_ip["10.0.0.2"].behavior == "slow"
    assert by_ip["10.0.0.2"].slow_delay_ms == 7000.0
    assert by_ip["10.0.0.3"].behavior == "unreachable"


def test_topology_file_rejects_unknown_behavior(tmp_path):
    path = tmp_path / "bad.topo"
    path.write_text("10.0.0.1:8333 bogus 0 0 0 -\n")
    with pytest.raises(ValueError):
        simnet.load_topology(path)


@pytest.mark.parametrize(
    "content, line, reason",
    [
        (
            b"10.0.0.1:8333 normal 9 600000 25 -\n10.0.0.2:8333 normal x 0 0 -\n",
            2,
            "services 'x' is not an integer in ASCII digits",
        ),
        (b"# caf\xe9\n10.0.0.1:8333 normal 9 600000 25 -\n", 1, "not UTF-8"),
        (b"@rng_seed 1\n\n@bogus 2\n", 3, "unknown directive '@bogus'"),
        (
            b"10.0.0.1:8333 normal 9 0 0 -\n10.0.0.2:8333 normal 9 0 0 -\n10.0.0.1:8333 slow 9 0 0 -\n",
            3,
            "10.0.0.1:8333 repeats line 1",
        ),
        (b"10.0.0.1:8333 normal:5 9 0 0 -\n", 1, "only slow takes a delay parameter: 'normal:5'"),
        (b"10.0.0.1:8333 normal -1 0 0 -\n", 1, "services -1 not in 0..2^64-1"),
        (b"10.0.0.1:8333 normal 18446744073709551616 0 0 -\n", 1, "services 18446744073709551616 not in 0..2^64-1"),
        (b"10.0.0.1:8333 normal 9 3000000000 0 -\n", 1, "start height 3000000000 not in -2^31..2^31-1"),
        (b"10.0.0.1:8333 normal 9 2147483648 0 -\n", 1, "start height 2147483648 not in -2^31..2^31-1"),
        (b"10.0.0.1:8333 normal 9 -2147483649 0 -\n", 1, "start height -2147483649 not in -2^31..2^31-1"),
        (b"10.0.0.1:8333 normal 9 0 nan -\n", 1, "rtt_ms 'nan' is not a finite decimal in ASCII digits"),
        (b"10.0.0.1:8333 normal 9 0 -50 -\n", 1, "rtt_ms '-50' is not a finite decimal in ASCII digits"),
        (b"10.0.0.1:8333 slow:inf 9 0 20 -\n", 1, "slow delay 'inf' is not a finite decimal in ASCII digits"),
        (
            b"@rng_seed 1\n@seeds 10.0.0.1:8333,10.0.0.9:8333,[::1]:18333\n10.0.0.1:8333 normal 9 0 0 -\n",
            2,
            "seeds not in topology: 10.0.0.9:8333, [::1]:18333",
        ),
    ],
    ids=[
        "services", "not-utf8", "directive", "repeat", "delay-on-normal", "services-negative",
        "services-above-64-bits", "height-above-32-bits", "height-2^31", "height-below-32-bits",
        "rtt-nan", "rtt-negative", "slow-delay-inf", "unknown-seeds",
    ],
)
def test_topology_file_errors_name_the_file_and_the_line(tmp_path, content, line, reason):
    path = tmp_path / "bad.topo"
    path.write_bytes(content)
    with pytest.raises(ValueError) as err:
        simnet.load_topology(path)
    assert str(err.value) == f"{path}: line {line}: {reason}"


@pytest.mark.parametrize("token", ["+1_0", "1_0", "+7", "٣", "٣٣", "1.0", "1e3", "--1", "-"])
@pytest.mark.parametrize(
    "template, name",
    [
        ("@rng_seed {}\n10.0.0.1:8333 normal 9 0 0 -\n", "@rng_seed"),
        ("@rng_seed 1\n10.0.0.1:8333 normal {} 0 0 -\n", "services"),
        ("@rng_seed 1\n10.0.0.1:8333 normal 9 {} 0 -\n", "start height"),
    ],
    ids=["rng-seed", "services", "start-height"],
)
def test_topology_integers_are_ascii_digits_with_an_optional_minus(tmp_path, template, name, token):
    path = tmp_path / "odd.topo"
    path.write_text(template.format(token), encoding="utf-8")
    line = 1 if name == "@rng_seed" else 2
    with pytest.raises(ValueError) as err:
        simnet.load_topology(path)
    assert str(err.value) == f"{path}: line {line}: {name} {token!r} is not an integer in ASCII digits"


def test_topology_integers_read_with_a_minus_and_leading_zeros(tmp_path):
    path = tmp_path / "signed.topo"
    path.write_text("@rng_seed -0042\n10.0.0.1:8333 normal 0009 -0010 0 -\n")
    topology = simnet.load_topology(path)
    assert topology.rng_seed == -42
    assert (topology.peers[0].services, topology.peers[0].start_height) == (9, -10)


def test_peer_profile_accepts_the_wire_bounds():
    for services, start_height in ((0, -(2**31)), (2**64 - 1, 2**31 - 1)):
        profile = SimPeerProfile(ep("10.0.0.1"), services=services, start_height=start_height, rtt_ms=0.0)
        version = handshake(simnet.build_network(topology([profile])).connect(profile.address, timeout=1.0))
        assert (version.services, version.start_height) == (services, start_height)


def test_topology_file_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.topo"
    path.write_text("10.0.0.1:8333 normal 0 0\n")
    with pytest.raises(ValueError):
        simnet.load_topology(path)
