"""Crawler tests: seeds, single-peer probes, full crawls, transports."""

import socket
import struct
import threading

import pytest

from chainobs import crawler, simnet, wirecodec
from chainobs.crawler import CrawlConfig, STATUS_ACTIVE, STATUS_INACTIVE
from chainobs.simnet import SimPeerProfile, SimTopology
from chainobs.transport import ConnectionClosedError, Endpoint, RecvTimeoutError, TcpTransport

MAGIC = wirecodec.SIMNET_MAGIC


def ep(ip, port=8333):
    return Endpoint.make(ip, port)


def topology(profiles, seeds=None, rng_seed=5):
    seeds = seeds if seeds is not None else (profiles[0].address,)
    return SimTopology(peers=tuple(profiles), seed_ids=tuple(seeds), rng_seed=rng_seed)


def config(seeds, **overrides):
    defaults = dict(seeds=tuple(seeds), magic=MAGIC, max_inflight=8)
    defaults.update(overrides)
    return CrawlConfig(**defaults)


# --- endpoint parsing ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("10.0.0.2", ("10.0.0.2", 8333)),
        ("10.0.0.2:8444", ("10.0.0.2", 8444)),
        ("[2001:db8::1]:9000", ("2001:db8::1", 9000)),
        ("2001:db8::1", ("2001:db8::1", 8333)),
        ("::ffff:10.0.0.9", ("10.0.0.9", 8333)),  # v4-mapped normalizes to v4
    ],
)
def test_endpoint_parse(text, expected):
    endpoint = Endpoint.parse(text)
    assert (endpoint.ip, endpoint.port) == expected


@pytest.mark.parametrize(
    "build",
    [
        lambda: Endpoint.parse("1.2.3.4:65536"),
        lambda: Endpoint.parse("[2001:db8::1]:70000"),
        lambda: Endpoint.parse("1.2.3.4:-1"),
        lambda: Endpoint.make("1.2.3.4", -1),
        lambda: Endpoint.make("1.2.3.4", 65536),
    ],
    ids=["parse-65536", "parse-v6-70000", "parse-negative", "make-negative", "make-65536"],
)
def test_endpoint_rejects_ports_outside_16_bits(build):
    with pytest.raises(ValueError):
        build()


def test_endpoint_accepts_port_range_bounds():
    assert Endpoint.parse("1.2.3.4:0").port == 0
    assert Endpoint.parse("1.2.3.4:65535").port == 65535


def test_endpoint_str_brackets_ipv6():
    assert str(ep("2001:db8::1", 8333)) == "[2001:db8::1]:8333"
    assert str(ep("10.0.0.1", 8333)) == "10.0.0.1:8333"


# --- seed bootstrap -------------------------------------------------------------


def test_seed_file_dedup_and_default_port(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("10.0.0.1:8333\n10.0.0.1:8333\n# comment\n10.0.0.2\n")
    endpoints = crawler.bootstrap_seeds(seeds)
    assert endpoints == [ep("10.0.0.1"), ep("10.0.0.2")]


def test_seed_file_empty_rejected(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("\n# nothing\n")
    with pytest.raises(crawler.EmptySeedSetError):
        crawler.bootstrap_seeds(seeds)


@pytest.mark.parametrize(
    "content, line",
    [
        (b"10.0.0.1\n10.0.0.2:99999\n", 2),
        (b"10.0.0.1\n\n[2001:db8::1\n", 3),
        (b"\xff\n", 1),
        (b"10.0.0.1\x0c10.0.0.2\n\xff\n", 2),  # a line ends at \n only, as in grep -n
    ],
    ids=["port-range", "bracket", "not-utf8", "form-feed"],
)
def test_seed_file_errors_name_the_file_and_the_line(tmp_path, content, line):
    seeds = tmp_path / "seeds.txt"
    seeds.write_bytes(content)
    with pytest.raises(ValueError) as err:
        crawler.bootstrap_seeds(seeds)
    assert str(err.value).startswith(f"{seeds}: line {line}: ")


def test_seed_dns_resolution_collects_all_records():
    table = {"seed.example": ["10.0.0.1", "2001:db8::1"], "dead.example": OSError("nx")}

    def resolver(name):
        result = table[name]
        if isinstance(result, Exception):
            raise result
        return result

    endpoints = crawler.bootstrap_seeds(["seed.example", "dead.example"], resolver=resolver)
    assert endpoints == [ep("10.0.0.1"), ep("2001:db8::1")]


def test_seed_dns_all_unresolvable():
    def resolver(name):
        raise OSError("nx")

    with pytest.raises(crawler.UnresolvableSeedsError):
        crawler.bootstrap_seeds(["a.example", "b.example"], resolver=resolver)


# --- probe behavior ---------------------------------------------------------------


def test_probe_normal_peer_harvests_advertised_peers():
    known = tuple(ep(f"10.1.0.{i}") for i in range(10))
    profile = SimPeerProfile(ep("10.0.0.1"), known_peers=known, services=1033, start_height=700_000)
    network = simnet.build_network(topology([profile]))
    cfg = config([profile.address], getaddr_rounds=3)
    record, harvested = crawler.probe_peer(profile.address, cfg, network)
    assert record.status == STATUS_ACTIVE
    assert record.services == 1033
    assert record.start_height == 700_000
    assert record.user_agent == simnet.SIM_USER_AGENT
    assert set(harvested) == set(known)
    assert record.addr_count_returned == 30  # 3 rounds x 10 entries


def test_probe_silent_peer_is_inactive_with_empty_harvest():
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="silent")
    network = simnet.build_network(topology([profile]))
    cfg = config([profile.address], handshake_timeout_ms=500.0)
    record, harvested = crawler.probe_peer(profile.address, cfg, network)
    assert record.status == STATUS_INACTIVE
    assert harvested == []
    assert record.services is None and record.min_rtt_ms is None


def test_probe_slow_peer_beyond_handshake_timeout_is_inactive():
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="slow", slow_delay_ms=2_000.0)
    network = simnet.build_network(topology([profile]))
    cfg = config([profile.address], handshake_timeout_ms=1_000.0)
    record, _ = crawler.probe_peer(profile.address, cfg, network)
    assert record.status == STATUS_INACTIVE


def test_probe_slow_peer_within_timeout_is_active():
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="slow", slow_delay_ms=100.0, rtt_ms=10.0)
    network = simnet.build_network(topology([profile]))
    record, _ = crawler.probe_peer(profile.address, config([profile.address]), network)
    assert record.status == STATUS_ACTIVE


def test_probe_unreachable_peer_is_inactive():
    profile = SimPeerProfile(ep("10.0.0.1"), behavior="unreachable")
    network = simnet.build_network(topology([profile], seeds=()))
    record, harvested = crawler.probe_peer(profile.address, config([ep("10.0.0.1")]), network)
    assert record.status == STATUS_INACTIVE
    assert harvested == []


def test_probe_records_min_rtt_from_profile():
    profile = SimPeerProfile(ep("10.0.0.1"), rtt_ms=40.0)
    network = simnet.build_network(topology([profile]))
    record, _ = crawler.probe_peer(profile.address, config([profile.address]), network)
    assert record.min_rtt_ms == pytest.approx(40.0)


# --- measure_min_rtt ------------------------------------------------------------


class _ScriptedConnection:
    """Connection stub with a virtual clock that only answers chosen pings."""

    def __init__(self, answer: bool):
        self._answer = answer
        self._now = 0.0
        self._pending = b""

    def send(self, data):
        command, payload = wirecodec.decode_message(data, MAGIC)
        if command == "ping" and self._answer:
            self._pending += wirecodec.encode_message("pong", payload, MAGIC)

    def recv_exact(self, n, timeout):
        if len(self._pending) >= n:
            self._now += 0.025
            out, self._pending = self._pending[:n], self._pending[n:]
            return out
        self._now += timeout
        raise RecvTimeoutError("nothing scheduled")

    def close(self):
        pass

    def clock(self):
        return self._now


def test_measure_min_rtt_single_sample():
    conn = _ScriptedConnection(answer=True)
    assert crawler.measure_min_rtt(conn, MAGIC, count=1, timeout=1.0) == pytest.approx(50.0)


def test_measure_min_rtt_no_pong():
    conn = _ScriptedConnection(answer=False)
    with pytest.raises(crawler.NoPongReceivedError):
        crawler.measure_min_rtt(conn, MAGIC, count=3, timeout=0.1)


class _PingingPeer(_ScriptedConnection):
    """Scripted peer that pings the crawler in every phase of a probe.

    It pings before its version, after each pong it sends (so pings fall
    between pongs), and before each addr, and records the pongs it gets.
    """

    def __init__(self, known):
        super().__init__(answer=True)
        self._known = known
        self.pings_sent = []
        self.pongs_received = []

    def _queue(self, command, payload=b""):
        self._pending += wirecodec.encode_message(command, payload, MAGIC)

    def _ping(self):
        nonce = 7_000 + len(self.pings_sent)
        self.pings_sent.append(nonce)
        self._queue("ping", wirecodec.encode_ping(nonce))

    def send(self, data):
        command, payload = wirecodec.decode_message(data, MAGIC)
        if command == "version":
            version = wirecodec.VersionPayload(
                protocol_version=70015,
                services=9,
                timestamp=0,
                receiver=wirecodec.NULL_ADDRESS,
                sender=wirecodec.NULL_ADDRESS,
                nonce=1,
                user_agent="/pinger:0.1/",
                start_height=1,
            )
            self._ping()
            self._queue("version", wirecodec.encode_version(version))
            self._queue("verack")
        elif command == "ping":
            self._queue("pong", payload)
            self._ping()
        elif command == "pong":
            self.pongs_received.append(wirecodec.decode_pong(payload))
        elif command == "getaddr":
            self._ping()
            entries = [wirecodec.AddrEntry(0, 1, e.ip, e.port) for e in self._known]
            self._queue("addr", wirecodec.encode_addr(entries))


def test_probe_answers_peer_pings_in_every_phase():
    known = tuple(ep(f"10.2.0.{i}") for i in range(5))
    peer = _PingingPeer(known)

    class OnePeer:
        def connect(self, endpoint, timeout):
            return peer

    cfg = config([ep("10.0.0.1")], ping_count=3, getaddr_rounds=2)
    record, harvested = crawler.probe_peer(ep("10.0.0.1"), cfg, OnePeer())
    assert record.status == STATUS_ACTIVE
    assert record.user_agent == "/pinger:0.1/"
    assert harvested == list(known)
    assert record.addr_count_returned == 10
    assert record.min_rtt_ms == pytest.approx(50.0)  # 2 reads of 25 ms, no ping in between
    # 1 before version, 1 after each of 3 pongs, 1 before each of 2 addrs
    assert len(peer.pings_sent) == 6
    assert peer.pongs_received == peer.pings_sent


def _header(command, length):
    return MAGIC + command.encode().ljust(12, b"\x00") + struct.pack("<I", length) + b"\x00" * 4


class _OversizedAddrPeer(_ScriptedConnection):
    """Handshakes and answers pings, then announces a 4 MiB addr per getaddr."""

    def __init__(self):
        super().__init__(answer=True)
        self.requested = []

    def recv_exact(self, n, timeout):
        self.requested.append(n)
        return super().recv_exact(n, timeout)

    def send(self, data):
        command, payload = wirecodec.decode_message(data, MAGIC)
        if command == "version":
            self._pending += wirecodec.encode_message(
                "version", wirecodec.encode_version(_version_of("/big-addr:0.1/")), MAGIC
            )
            self._pending += wirecodec.encode_message("verack", b"", MAGIC)
        elif command == "getaddr":
            self._pending += _header("addr", 4 * 1024 * 1024)  # the payload never follows
        else:
            super().send(data)


def _version_of(user_agent):
    return wirecodec.VersionPayload(
        protocol_version=70015,
        services=1,
        timestamp=0,
        receiver=wirecodec.NULL_ADDRESS,
        sender=wirecodec.NULL_ADDRESS,
        nonce=1,
        user_agent=user_agent,
        start_height=1,
    )


def test_probe_never_buffers_an_oversized_addr_payload():
    peer = _OversizedAddrPeer()

    class OnePeer:
        def connect(self, endpoint, timeout):
            return peer

    cfg = config([ep("10.0.0.1")], ping_count=2, getaddr_rounds=2)
    record, harvested = crawler.probe_peer(ep("10.0.0.1"), cfg, OnePeer())
    assert record.status == STATUS_ACTIVE  # the failed rounds are recorded as today: no entries
    assert harvested == [] and record.addr_count_returned == 0
    assert max(peer.requested) <= 3 + 30 * wirecodec.MAX_ADDR_ENTRIES


@pytest.mark.parametrize(
    "command,limit",
    [("addr", 30_003), ("ping", 8), ("pong", 8), ("verack", 0), ("getaddr", 0)],
)
def test_frame_pump_rejects_payloads_longer_than_the_command_allows(command, limit):
    peer = _OversizedAddrPeer()
    peer._pending = _header(command, limit + 1)
    with pytest.raises(wirecodec.OversizedPayloadError):
        crawler._next_frame(peer, MAGIC, deadline=1.0)
    assert peer.requested == [wirecodec.HEADER_SIZE]


def test_frame_pump_leaves_version_and_unknown_commands_at_the_frame_limit():
    for command in ("version", "inv"):
        peer = _OversizedAddrPeer()
        peer._pending = _header(command, 40_000)
        with pytest.raises(RecvTimeoutError):  # asked for the whole payload, which never comes
            crawler._next_frame(peer, MAGIC, deadline=1.0)
        assert peer.requested == [wirecodec.HEADER_SIZE, 40_000]


def test_probe_keeps_min_rtt_absent_when_pings_ignored():
    profile = SimPeerProfile(ep("10.0.0.1"))
    network = simnet.build_network(topology([profile]))

    class NoPongNetwork:
        def connect(self, endpoint, timeout):
            conn = network.connect(endpoint, timeout)
            original = conn.send

            def send(data):
                command, _, _ = wirecodec.decode_message_prefix(data, MAGIC) or ("", b"", 0)
                if command != "ping":
                    original(data)

            conn.send = send
            return conn

    record, _ = crawler.probe_peer(profile.address, config([profile.address]), NoPongNetwork())
    assert record.status == STATUS_ACTIVE
    assert record.min_rtt_ms is None


def sends_fail_from(network, command):
    """A transport over ``network`` whose connections raise ConnectionClosedError
    on the first send of ``command`` and on every send after it."""

    class FailingSends:
        def connect(self, endpoint, timeout):
            conn = network.connect(endpoint, timeout)
            original = conn.send
            failing = False

            def send(data):
                nonlocal failing
                failing = failing or wirecodec.decode_message(data, MAGIC)[0] == command
                if failing:
                    raise ConnectionClosedError("broken pipe")
                original(data)

            conn.send = send
            return conn

    return FailingSends()


@pytest.mark.parametrize(
    "command, status, min_rtt_ms",
    [("verack", STATUS_INACTIVE, None), ("ping", STATUS_ACTIVE, None), ("getaddr", STATUS_ACTIVE, 20.0)],
    ids=["verack", "ping", "getaddr"],
)
def test_send_failures_after_the_handshake_leave_the_peer_active(command, status, min_rtt_ms):
    profile = SimPeerProfile(ep("10.0.0.1"), rtt_ms=20.0, known_peers=(ep("10.0.0.2"),))
    network = simnet.build_network(topology([profile]))
    record, harvested = crawler.probe_peer(
        profile.address, config([profile.address]), sends_fail_from(network, command)
    )
    assert record.status == status
    assert record.min_rtt_ms == pytest.approx(min_rtt_ms)
    assert record.addr_count_returned == 0
    assert harvested == []


# --- full crawls -------------------------------------------------------------------


def test_crawl_matches_reachable_oracle_on_random_topology():
    topo = simnet.random_topology(
        150, rng_seed=11, unreachable_fraction=0.3, silent_fraction=0.05, slow_fraction=0.05
    )
    network = simnet.build_network(topo)
    snapshot = crawler.crawl(config(topo.seed_ids), network)
    assert snapshot.active_addresses() == simnet.reachable_set(topo)
    assert set(snapshot.records) == simnet.discovered_set(topo)
    assert snapshot.active_count <= snapshot.total_count
    assert not snapshot.partial


def test_crawl_probes_each_endpoint_exactly_once():
    topo = simnet.random_topology(80, rng_seed=2)
    network = simnet.build_network(topo)
    snapshot = crawler.crawl(config(topo.seed_ids), network)
    assert network.connects_attempted == snapshot.total_count


def test_crawl_with_all_seeds_unreachable():
    profiles = [SimPeerProfile(ep(f"10.0.0.{i}"), behavior="unreachable") for i in range(1, 4)]
    topo = topology(profiles, seeds=[p.address for p in profiles])
    snapshot = crawler.crawl(config(topo.seed_ids), simnet.build_network(topo))
    assert set(snapshot.records) == {p.address for p in profiles}
    assert snapshot.active_count == 0


def test_crawl_is_deterministic_modulo_timestamps():
    topo = simnet.random_topology(60, rng_seed=4, unreachable_fraction=0.2)

    def run():
        snapshot = crawler.crawl(config(topo.seed_ids), simnet.build_network(topo))
        return {
            str(r.address): (r.status, r.services, r.protocol_version, r.start_height, r.min_rtt_ms)
            for r in snapshot.records.values()
        }

    assert run() == run()


def test_crawl_single_threaded_configuration_matches_parallel():
    topo = simnet.random_topology(50, rng_seed=9, silent_fraction=0.1)
    parallel = crawler.crawl(config(topo.seed_ids, max_inflight=16), simnet.build_network(topo))
    sequential = crawler.crawl(config(topo.seed_ids, max_inflight=1), simnet.build_network(topo))
    assert parallel.active_addresses() == sequential.active_addresses()
    assert set(parallel.records) == set(sequential.records)


def test_crawl_inflight_bound_is_respected():
    topo = simnet.random_topology(120, rng_seed=6)
    network = simnet.build_network(topo)
    crawler.crawl(config(topo.seed_ids, max_inflight=4), network)
    assert network.peak_connections <= 4


def test_crawl_frontier_cap_flags_partial_snapshot():
    topo = simnet.random_topology(60, rng_seed=12)
    network = simnet.build_network(topo)
    snapshot = crawler.crawl(config(topo.seed_ids, max_frontier=10), network)
    assert snapshot.partial
    assert snapshot.total_count <= 10


def test_crawl_config_validation():
    with pytest.raises(crawler.EmptySeedSetError):
        CrawlConfig(seeds=())
    with pytest.raises(ValueError):
        CrawlConfig(seeds=(ep("10.0.0.1"),), max_inflight=0)
    with pytest.raises(ValueError):
        CrawlConfig(seeds=(ep("10.0.0.1"),), connect_timeout_ms=0)


# --- TCP transport ------------------------------------------------------------------


def _tcp_peer(server: socket.socket, magic: bytes):
    """Minimal wire-speaking peer for one connection over real sockets."""
    conn, _ = server.accept()
    buffer = b""
    try:
        while True:
            try:
                parsed = wirecodec.decode_message_prefix(buffer, magic)
            except wirecodec.CodecError:
                return
            if parsed is None:
                chunk = conn.recv(4096)
                if not chunk:
                    return
                buffer += chunk
                continue
            command, payload, consumed = parsed
            buffer = buffer[consumed:]
            if command == "version":
                reply = wirecodec.VersionPayload(
                    protocol_version=70015,
                    services=5,
                    timestamp=0,
                    receiver=wirecodec.NULL_ADDRESS,
                    sender=wirecodec.NULL_ADDRESS,
                    nonce=99,
                    user_agent="/tcp-peer:0.1/",
                    start_height=750_000,
                )
                conn.sendall(
                    wirecodec.encode_message("version", wirecodec.encode_version(reply), magic)
                    + wirecodec.encode_message("verack", b"", magic)
                )
            elif command == "ping":
                conn.sendall(wirecodec.encode_message("pong", payload, magic))
            elif command == "getaddr":
                entries = [wirecodec.AddrEntry(0, 1, "10.9.9.9", 8333)]
                conn.sendall(wirecodec.encode_message("addr", wirecodec.encode_addr(entries), magic))
    finally:
        conn.close()


def test_probe_over_real_tcp_socket():
    magic = wirecodec.MAINNET_MAGIC
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    port = server.getsockname()[1]
    thread = threading.Thread(target=_tcp_peer, args=(server, magic), daemon=True)
    thread.start()
    try:
        endpoint = ep("127.0.0.1", port)
        cfg = CrawlConfig(
            seeds=(endpoint,),
            magic=magic,
            connect_timeout_ms=2000.0,
            handshake_timeout_ms=2000.0,
            getaddr_rounds=1,
            ping_count=2,
        )
        record, harvested = crawler.probe_peer(endpoint, cfg, TcpTransport())
        assert record.status == STATUS_ACTIVE
        assert record.user_agent == "/tcp-peer:0.1/"
        assert record.start_height == 750_000
        assert record.min_rtt_ms is not None and record.min_rtt_ms > 0
        assert harvested == [ep("10.9.9.9")]
    finally:
        server.close()
        thread.join(timeout=5)


def test_tcp_connect_refused_maps_to_transport_error():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here now
    with pytest.raises(crawler.TransportError):
        TcpTransport().connect(ep("127.0.0.1", port), timeout=0.5)
