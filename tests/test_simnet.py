"""Simulated network tests: behaviors, determinism, oracles, topology files."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainobs import simnet, wirecodec
from chainobs.simnet import SimPeerProfile, SimTopology
from chainobs.transport import ConnectError, ConnectionClosedError, Endpoint, RecvTimeoutError

MAGIC = wirecodec.SIMNET_MAGIC


def ep(ip, port=8333):
    return Endpoint.make(ip, port)


def topology(profiles, seeds=None, rng_seed=7):
    seeds = seeds if seeds is not None else (profiles[0].address,)
    return SimTopology(peers=tuple(profiles), seed_ids=tuple(seeds), rng_seed=rng_seed)


def send_version(conn):
    payload = wirecodec.VersionPayload(
        protocol_version=wirecodec.PROTOCOL_VERSION,
        services=0,
        timestamp=0,
        receiver=wirecodec.NULL_ADDRESS,
        sender=wirecodec.NULL_ADDRESS,
        nonce=1,
        user_agent="/test/",
        start_height=0,
    )
    conn.send(wirecodec.encode_message("version", wirecodec.encode_version(payload), MAGIC))


def read_frame(conn, timeout=5.0):
    header = conn.recv_exact(wirecodec.HEADER_SIZE, timeout)
    parsed = wirecodec.decode_message_prefix(header, MAGIC)
    if parsed is not None:
        return parsed[0], parsed[1]
    length = int.from_bytes(header[16:20], "little")
    return wirecodec.decode_message(header + conn.recv_exact(length, timeout), MAGIC)


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
        conn.recv_exact(1, timeout=2.5)
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
        conn = network.connect(ep("10.0.0.1"), timeout=1.0)
        handshake(conn)
        return [getaddr_payload(conn) for _ in range(3)]

    assert collect() == collect()


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


def test_frame_fed_one_byte_per_send_is_answered_once_complete():
    conn = connected_peer()
    handshake(conn)
    frame = ping_frame(0xC0FFEE)
    for i in range(len(frame) - 1):
        conn.send(frame[i : i + 1])
    with pytest.raises(RecvTimeoutError):
        conn.recv_exact(1, timeout=1.0)  # nothing until the last byte arrives
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


def _bad_magic(frame):
    return b"\xde\xad\xbe\xef" + frame[4:]


def _bad_checksum(frame):
    return frame[:20] + bytes(b ^ 0xFF for b in frame[20:24]) + frame[24:]


def _bad_payload(frame):
    # a well-framed ping whose payload is one byte short
    return wirecodec.encode_message("ping", b"\x00" * 7, MAGIC)


@pytest.mark.parametrize("spoil", [_bad_magic, _bad_checksum, _bad_payload])
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
        conn.recv_exact(1, timeout=1.0)
    conn.send(ping_frame(8))  # a peer that hung up ignores what follows
    with pytest.raises(ConnectionClosedError):
        conn.recv_exact(1, timeout=1.0)


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
        conn = network.connect(profile.address, timeout=1.0)
        handshake(conn)
        rng = simnet._peer_rng(topo.rng_seed, profile.address)
        rng.getrandbits(64)  # the version nonce the handshake drew
        for _ in range(3):
            assert getaddr_payload(conn) == reference_addr_payload(topo, profile, rng)
        conn.close()
        checked.add(profile.behavior)
    assert checked == {"normal", "slow", "stale", "empty-addr"}


def test_duplicate_address_rejected():
    with pytest.raises(simnet.DuplicateAddressError):
        topology([SimPeerProfile(ep("10.0.0.1")), SimPeerProfile(ep("10.0.0.1"))])


def test_known_peers_cache_limit():
    too_many = tuple(ep(f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}", 8333) for i in range(2501))
    with pytest.raises(ValueError):
        SimPeerProfile(ep("10.0.0.1"), known_peers=too_many)


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
            "invalid literal for int() with base 10: 'x'",
        ),
        (b"# caf\xe9\n10.0.0.1:8333 normal 9 600000 25 -\n", 1, "not UTF-8"),
        (b"@rng_seed 1\n\n@bogus 2\n", 3, "unknown directive '@bogus'"),
        (
            b"10.0.0.1:8333 normal 9 0 0 -\n10.0.0.2:8333 normal 9 0 0 -\n10.0.0.1:8333 slow 9 0 0 -\n",
            3,
            "10.0.0.1:8333 repeats line 1",
        ),
    ],
    ids=["services", "not-utf8", "directive", "repeat"],
)
def test_topology_file_errors_name_the_file_and_the_line(tmp_path, content, line, reason):
    path = tmp_path / "bad.topo"
    path.write_bytes(content)
    with pytest.raises(ValueError) as err:
        simnet.load_topology(path)
    assert str(err.value) == f"{path}: line {line}: {reason}"


def test_topology_file_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.topo"
    path.write_text("10.0.0.1:8333 normal 0 0\n")
    with pytest.raises(ValueError):
        simnet.load_topology(path)
