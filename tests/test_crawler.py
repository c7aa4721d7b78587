"""Crawler tests: seeds, single-peer probes, full crawls, transports."""

import ast
import dataclasses
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings

from chainobs import crawler, simnet, snapshotstore, wirecodec
from chainobs.crawler import CrawlConfig, STATUS_ACTIVE, STATUS_INACTIVE
from chainobs.simnet import SimPeerProfile, SimTopology
from chainobs.transport import ConnectError, ConnectionClosedError, Endpoint, RecvTimeoutError, TcpTransport
from helpers import (
    addr_payload, addr_records, listener, loopback_network, make_record, make_snapshot, version_payload, wire_peer
)

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


class _OnePeer:
    """Transport whose every ``connect`` gives ``peer``, or raises it when it is an
    exception; its clock reads ``at`` and moves one second per connect."""

    def __init__(self, peer, at=100):
        self.peer = peer
        self.at = at

    def connect(self, endpoint, timeout):
        self.at += 1
        if isinstance(self.peer, Exception):
            raise self.peer
        return self.peer

    def now(self):
        return self.at


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
        lambda: Endpoint.parse("[2001:db8::1]18333"),
        lambda: Endpoint.parse("[::1]x"),
    ],
    ids=[
        "parse-65536", "parse-v6-70000", "parse-negative", "make-negative", "make-65536",
        "parse-v6-port-without-colon", "parse-v6-trailing-text",
    ],
)
def test_endpoint_rejects_ports_outside_16_bits(build):
    with pytest.raises(ValueError):
        build()


def test_endpoint_parse_rejects_blank_text():
    with pytest.raises(ValueError, match="empty endpoint"):
        Endpoint.parse("  ")


def test_endpoint_accepts_port_range_bounds():
    assert Endpoint.parse("1.2.3.4:0").port == 0
    assert Endpoint.parse("1.2.3.4:65535").port == 65535


def test_endpoint_str_brackets_ipv6():
    assert str(ep("2001:db8::1", 8333)) == "[2001:db8::1]:8333"
    assert str(ep("10.0.0.1", 8333)) == "10.0.0.1:8333"


@dataclasses.dataclass(frozen=True, order=True)
class _DataclassEndpoint:
    """``Endpoint`` as it was before it became a tuple, kept as the reference."""

    ip: str
    port: int

    @classmethod
    def make(cls, ip, port=8333):
        port = int(port)
        if not 0 <= port <= 0xFFFF:
            raise ValueError(f"port {port} outside 0-65535")
        return cls(wirecodec.canonical_ip(ip), port)

    @classmethod
    def parse(cls, text, default_port=8333):
        text = text.strip()
        if not text:
            raise ValueError("empty endpoint")
        if text.startswith("["):
            host, bracket, rest = text[1:].partition("]")
            if not bracket or rest[:1] not in ("", ":"):
                raise ValueError(f"expected [ipv6] or [ipv6]:port, got {text!r}")
            return cls.make(host, int(rest[1:]) if rest else default_port)
        if text.count(":") == 1:
            host, _, port_text = text.partition(":")
            return cls.make(host, int(port_text))
        return cls.make(text, default_port)


def _outcome(build):
    try:
        endpoint = build()
    except ValueError as exc:
        return "error", str(exc)
    return (endpoint.ip, endpoint.port), hash(endpoint)


@pytest.mark.parametrize(
    "text",
    [
        "10.0.0.1", "10.0.0.1:0", "10.0.0.1:65535", "10.0.0.1:0080", " 10.0.0.1:80 ", "010.0.0.1:1", "",
        "2001:db8::1", "[2001:db8::1]", "[2001:DB8:0:0::1]:18333", "::ffff:10.0.0.9", "[::ffff:10.0.0.9]:1",
        "::1.2.3.4", "fd87:d87e:eb43::1", "[fd87:d87e:eb43:f00d::1]:9050", "fe80::1%eth0", "[fe80::1%eth0]:8",
        "10.0.0.1:65536", "10.0.0.1:99999999", "[::1]:70000", "10.0.0.256", "10.0.0.1:x", "host:80",
        "[::1", "[::1]x", "[]:80", ":80", "10.0.0.1\x00:80",
        "10.0.0.1:+80", "10.0.0.1:8_333", "10.0.0.1: 80", "[::1]:\u0663\u0663", "10.0.0.1:", "[::1]:",
    ],
)
def test_endpoint_make_and_parse_match_the_dataclass_they_replaced(text):
    """The same endpoint and hash as the dataclass, or the same error; the one new
    error is a port that is not ASCII digits, which ``int()`` read or rejected."""
    old = _outcome(lambda: _DataclassEndpoint.parse(text))
    new = _outcome(lambda: Endpoint.parse(text))
    if new[0] == "error" and new[1].endswith("is not ASCII digits"):
        port_text = new[1][len("port "):-len(" is not ASCII digits")]
        assert text.strip().endswith(":" + ast.literal_eval(port_text))  # all the text after the colon
    else:
        assert new == old
    if old[0] != "error":
        assert _outcome(lambda: Endpoint.make(*old[0])) == old


def test_endpoint_is_a_tuple_that_sorts_and_hashes_as_ip_then_port():
    endpoints = [ep("10.0.0.2", 1), ep("10.0.0.10", 9), ep("10.0.0.2", 0), ep("2001:db8::1"), ep("::1", 7)]
    assert sorted(endpoints) == sorted(endpoints, key=lambda e: (e.ip, e.port))
    as_dataclasses = sorted(_DataclassEndpoint(*e) for e in endpoints)
    assert sorted(endpoints) == [(d.ip, d.port) for d in as_dataclasses]
    for endpoint in endpoints:
        assert hash(endpoint) == hash((endpoint.ip, endpoint.port)) == hash(_DataclassEndpoint(*endpoint))
        assert endpoint == (endpoint.ip, endpoint.port)
        ip, port = endpoint
        assert (ip, port) == (endpoint.ip, endpoint.port)


@pytest.mark.parametrize(
    "endpoint, text",
    [
        (ep("10.0.0.1", 8333), "10.0.0.1:8333"),
        (ep("2001:db8::1", 0), "[2001:db8::1]:0"),
        (ep("fd87:d87e:eb43::a", 9050), "[fd87:d87e:eb43::a]:9050"),  # an OnionCat onion peer
    ],
    ids=["v4", "v6", "onion"],
)
def test_endpoint_str_round_trips_through_parse(endpoint, text):
    assert str(endpoint) == text
    assert Endpoint.parse(text) == endpoint


@pytest.mark.parametrize("field", ["ip", "port"])
def test_endpoint_fields_cannot_be_assigned(field):
    endpoint = ep("10.0.0.1")
    with pytest.raises(AttributeError):
        setattr(endpoint, field, getattr(endpoint, field))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("10.0.0.1:80", ("10.0.0.1", 80)),
        ("10.0.0.1:00080", ("10.0.0.1", 80)),
        ("[::1]:33", ("::1", 33)),
        ("[::1]", ("::1", 8333)),
        ("\t10.0.0.1:65535 ", ("10.0.0.1", 65535)),  # space around the whole text is not in the port
    ],
)
def test_endpoint_parse_accepts_ports_of_ascii_digits(text, expected):
    assert Endpoint.parse(text) == expected


@pytest.mark.parametrize(
    "text, port_text",
    [
        ("10.0.0.1:+80", "+80"),
        ("10.0.0.1:-1", "-1"),
        ("10.0.0.1:8_333", "8_333"),
        ("10.0.0.1: 80", " 80"),
        ("[::1]:80 0", "80 0"),
        ("[::1]:\u0663\u0663", "\u0663\u0663"),  # Arabic-Indic digits, which int() reads as 33
        ("10.0.0.1:\u00b2", "\u00b2"),  # superscript two: str.isdigit() alone accepts it
        ("10.0.0.1:", ""),
        ("[::1]:", ""),
    ],
)
def test_endpoint_parse_rejects_ports_that_are_not_ascii_digits(text, port_text):
    with pytest.raises(ValueError) as err:
        Endpoint.parse(text)
    assert str(err.value) == f"port {port_text!r} is not ASCII digits"


def _snapshot_header_seed(path, text):
    snapshotstore.write_snapshot(make_snapshot([make_record("10.0.0.1")], seeds=[ep("10.0.0.9")]), path)
    path.write_text(path.read_text().replace("seeds:10.0.0.9:8333", f"seeds:{text}", 1))
    return snapshotstore.read_snapshot, 1


def _lines(*lines):
    def write(path, text):
        path.write_text("".join(line.format(text) + "\n" for line in lines))
        return (simnet.load_topology if path.suffix == ".topo" else crawler.bootstrap_seeds), len(lines)

    return write


@pytest.mark.parametrize(
    "name, write",
    [
        ("seeds.txt", _lines("10.0.0.1", "{}")),
        ("at-seeds.topo", _lines("@seeds {}")),
        ("peer.topo", _lines("10.0.0.1:8333 normal 9 0 20 -", "{} normal 9 0 20 -")),
        ("known.topo", _lines("10.0.0.1:8333 normal 9 0 20 {}")),
        ("header.snap.ndrec", _snapshot_header_seed),
    ],
    ids=["seed-file", "topology-seeds", "topology-peer", "topology-known-peer", "snapshot-header"],
)
@pytest.mark.parametrize("port", ["+80", "8_333", "\u0663\u0663"])
def test_readers_name_the_file_and_the_line_of_a_port_that_is_not_ascii_digits(tmp_path, name, write, port):
    path = tmp_path / name
    read, line = write(path, f"10.0.0.2:{port}")
    with pytest.raises((ValueError, snapshotstore.CorruptRecordError)) as err:
        read(path)
    assert str(err.value).startswith(f"{path}: line {line}: ")
    assert str(err.value).endswith(f"port {port!r} is not ASCII digits")


# --- seed bootstrap -------------------------------------------------------------


def test_seed_file_dedup_and_default_port(tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("10.0.0.1:8333\n10.0.0.1:8333\n::ffff:10.0.0.1\n# comment\n10.0.0.2\n")
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
        (b"# a\x0cb\n\xff\n", 2),  # a line ends at \n only, as in grep -n
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
    table = {
        "seed.example": ["10.0.0.1", "2001:db8::1"],
        "alias.example": ["10.0.0.1", "10.0.0.3"],
        "dead.example": OSError("nx"),
    }

    def resolver(name):
        result = table[name]
        if isinstance(result, Exception):
            raise result
        return result

    endpoints = crawler.bootstrap_seeds(["seed.example", "alias.example", "dead.example"], resolver=resolver)
    assert endpoints == [ep("10.0.0.1"), ep("2001:db8::1"), ep("10.0.0.3")]


@pytest.mark.parametrize("names", ["a.example, ,b.example", "a.example, b.example"])
def test_seed_name_list_skips_blank_names(names):
    resolved = []

    def resolver(name):
        resolved.append(name)
        return [f"10.0.0.{len(resolved)}"]

    endpoints = crawler.bootstrap_seeds(names, resolver=resolver)
    assert resolved == ["a.example", "b.example"]
    assert endpoints == [ep("10.0.0.1"), ep("10.0.0.2")]


def test_seed_names_all_blank_rejected():
    with pytest.raises(crawler.EmptySeedSetError, match="no seed names given"):
        crawler.bootstrap_seeds(" , ")


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
    record, harvested = crawler.probe_peer(profile.address, config([profile.address]), network)
    assert record.status == STATUS_ACTIVE
    assert record.services == 1033
    assert record.start_height == 700_000
    assert record.user_agent == simnet.SIM_USER_AGENT
    assert set(harvested) == set(known)
    assert record.addr_count_returned == 10


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

    def recv_exact(self, n, deadline):
        if len(self._pending) >= n:
            self._now += 0.025
            out, self._pending = self._pending[:n], self._pending[n:]
            return out
        self._now = max(self._now, deadline)
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
    assert crawler.measure_min_rtt(conn, MAGIC, count=3, timeout=0.1) is None


@pytest.mark.parametrize("refused", [True, False], ids=["connect-fails", "codec-error"])
def test_probe_failure_is_inactive_stamped_before_connect_and_closes_only_what_opened(refused):
    conn = _ScriptedConnection(answer=False)
    conn._pending = wirecodec.encode_message("verack", b"", wirecodec.MAINNET_MAGIC)  # the wrong network
    closes = []
    conn.close = lambda: closes.append(1)
    transport = _OnePeer(ConnectError("10.0.0.1:8333: refused") if refused else conn, at=100)
    record, harvested = crawler.probe_peer(ep("10.0.0.1"), config([ep("10.0.0.1")]), transport)
    assert (record.status, record.first_seen, record.last_seen, harvested) == (STATUS_INACTIVE, 100, 100, [])
    assert transport.now() == 101  # the clock moved at connect, after the stamp
    assert len(closes) == (0 if refused else 1)


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
            version = version_payload("/pinger:0.1/", services=9)
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
    cfg = config([ep("10.0.0.1")], ping_count=3)
    record, harvested = crawler.probe_peer(ep("10.0.0.1"), cfg, _OnePeer(peer, at=100))
    assert record.status == STATUS_ACTIVE
    assert record.first_seen == record.last_seen == 100  # an active record is stamped before connect too
    assert record.user_agent == "/pinger:0.1/"
    assert harvested == list(known)
    assert record.addr_count_returned == 5
    assert record.min_rtt_ms == pytest.approx(50.0)  # 2 reads of 25 ms, no ping in between
    # 1 before version, 1 after each of 3 pongs, 1 before the addr
    assert len(peer.pings_sent) == 5
    assert peer.pongs_received == peer.pings_sent


def _header(command, length):
    return MAGIC + command.encode().ljust(12, b"\x00") + struct.pack("<I", length) + b"\x00" * 4


class _OversizedAddrPeer(_ScriptedConnection):
    """Handshakes and answers pings, then announces a 4 MiB addr per getaddr."""

    def __init__(self):
        super().__init__(answer=True)
        self.requested = []

    def recv_exact(self, n, deadline):
        self.requested.append(n)
        return super().recv_exact(n, deadline)

    def send(self, data):
        command, payload = wirecodec.decode_message(data, MAGIC)
        if command == "version":
            self._pending += wirecodec.encode_message(
                "version", wirecodec.encode_version(version_payload("/big-addr:0.1/")), MAGIC
            )
            self._pending += wirecodec.encode_message("verack", b"", MAGIC)
        elif command == "getaddr":
            self._pending += _header("addr", 4 * 1024 * 1024)  # the payload never follows
        else:
            super().send(data)


def test_probe_never_buffers_an_oversized_addr_payload():
    peer = _OversizedAddrPeer()
    cfg = config([ep("10.0.0.1")], ping_count=2)
    record, harvested = crawler.probe_peer(ep("10.0.0.1"), cfg, _OnePeer(peer))
    assert record.status == STATUS_ACTIVE  # a failed getaddr leaves the peer active with no entries
    assert harvested == [] and record.addr_count_returned == 0
    assert max(peer.requested) <= 3 + 30 * wirecodec.MAX_ADDR_ENTRIES


@pytest.mark.parametrize(
    "command,limit",
    [("addr", 30_003), ("version", 1024), ("ping", 8), ("pong", 8), ("verack", 0), ("getaddr", 0)],
)
def test_frame_pump_rejects_payloads_longer_than_the_command_allows(command, limit):
    peer = _OversizedAddrPeer()
    peer._pending = _header(command, limit + 1)
    with pytest.raises(wirecodec.OversizedPayloadError):
        crawler._next_frame(peer, MAGIC, deadline=1.0)
    assert peer.requested == [wirecodec.HEADER_SIZE]


def test_frame_pump_leaves_unknown_commands_at_the_frame_limit():
    peer = _OversizedAddrPeer()
    peer._pending = _header("inv", 40_000)
    with pytest.raises(RecvTimeoutError):  # asked for the whole payload, which never comes
        crawler._next_frame(peer, MAGIC, deadline=1.0)
    assert peer.requested == [wirecodec.HEADER_SIZE, 40_000]


def test_frame_pump_checks_the_checksum_of_the_header_it_decoded():
    peer = _OversizedAddrPeer()
    frame = bytearray(wirecodec.encode_message("addr", wirecodec.encode_addr([]), MAGIC))
    frame[20] ^= 0xFF
    peer._pending = bytes(frame)
    with pytest.raises(wirecodec.BadChecksumError, match="^addr$"):
        crawler._next_frame(peer, MAGIC, deadline=1.0)
    assert peer.requested == [wirecodec.HEADER_SIZE, 1]  # one header read, then the payload
    peer._pending = wirecodec.encode_message("verack", b"", MAGIC)
    assert crawler._next_frame(peer, MAGIC, deadline=1.0) == ("verack", b"")


def _spoiled_header_checksum(frame):
    return frame[:20] + bytes(b ^ 0xFF for b in frame[20:24]) + frame[24:]


def _flipped_payload_byte(frame):
    return frame[:-1] + bytes([frame[-1] ^ 0x01])


@pytest.mark.parametrize(
    "command,payload,spoil",
    [
        ("ping", wirecodec.encode_ping(0xC0FFEE), _spoiled_header_checksum),
        ("ping", wirecodec.encode_ping(0xC0FFEE), _flipped_payload_byte),
        ("verack", b"", _spoiled_header_checksum),
    ],
    ids=["ping-header", "ping-payload", "verack-header"],
)
def test_a_corrupt_frame_of_the_payload_just_hashed_is_rejected(command, payload, spoil):
    def corrupt():
        return spoil(wirecodec.encode_message(command, payload, MAGIC))  # the checksum memo now holds payload

    frame = corrupt()
    header = wirecodec.decode_header(frame, MAGIC)
    with pytest.raises(wirecodec.BadChecksumError, match=f"^{command}$"):
        wirecodec.check_payload(command, frame[wirecodec.HEADER_SIZE :], header[2])
    with pytest.raises(wirecodec.BadChecksumError, match=f"^{command}$"):
        wirecodec.decode_message_prefix(corrupt(), MAGIC)
    peer = _OversizedAddrPeer()
    peer._pending = corrupt()
    with pytest.raises(wirecodec.BadChecksumError, match=f"^{command}$"):
        crawler._next_frame(peer, MAGIC, deadline=1.0)


class _MutePeer(_ScriptedConnection):
    """Completes the handshake, then never sends another byte."""

    def send(self, data):
        if wirecodec.decode_message(data, MAGIC)[0] == "version":
            self._pending += wirecodec.encode_message(
                "version", wirecodec.encode_version(version_payload("/mute:0.1/")), MAGIC
            )
            self._pending += wirecodec.encode_message("verack", b"", MAGIC)


@pytest.mark.parametrize("ping_count", [0, 1, CrawlConfig.ping_count])
def test_probe_of_a_peer_that_goes_mute_ends_within_its_phase_deadlines(ping_count):
    peer = _MutePeer(answer=False)
    cfg = config([ep("10.0.0.1")], ping_count=ping_count)
    record, harvested = crawler.probe_peer(ep("10.0.0.1"), cfg, _OnePeer(peer))
    assert record.status == STATUS_ACTIVE and record.min_rtt_ms is None
    assert harvested == [] and record.addr_count_returned == 0
    # the handshake, each ping and the getaddr wait at most one timeout each
    assert peer.clock() <= (2 + max(1, ping_count)) * cfg.handshake_timeout_ms / 1000.0


class _ChattyPeer(_PingingPeer):
    """Scripted peer that sends ``chatter`` ahead of each addr."""

    def __init__(self, known, chatter):
        super().__init__(known)
        self._chatter = chatter

    def send(self, data):
        if wirecodec.decode_message(data, MAGIC)[0] == "getaddr":
            self._queue(*self._chatter)
        super().send(data)


@pytest.mark.parametrize("chatter", [("inv", b"\x00"), ("sendheaders", b"")], ids=["inv", "sendheaders"])
def test_harvest_skips_frames_that_arrive_ahead_of_the_addr(chatter):
    known = tuple(ep(f"10.3.0.{i}") for i in range(4))
    peer = _ChattyPeer(known, chatter)
    cfg = config([ep("10.0.0.1")], ping_count=1)
    record, harvested = crawler.probe_peer(ep("10.0.0.1"), cfg, _OnePeer(peer))
    assert record.status == STATUS_ACTIVE
    assert harvested == list(known)
    assert record.addr_count_returned == 4


def test_probe_keeps_min_rtt_absent_when_pings_ignored():
    profile = SimPeerProfile(ep("10.0.0.1"))
    network = simnet.build_network(topology([profile]))

    class NoPongNetwork:
        now = network.now

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
        now = network.now

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


def test_simnet_crawls_of_one_topology_give_equal_snapshots_stamped_on_its_clock():
    topo = simnet.random_topology(60, rng_seed=4, unreachable_fraction=0.2, silent_fraction=0.1)

    def run():
        network = simnet.build_network(topo)
        snapshot = crawler.crawl(config(topo.seed_ids), network)
        assert (snapshot.started_at, snapshot.finished_at) == (simnet.BASE_TIME, int(network.now()))
        return snapshot

    first = run()
    assert first == run()  # every field, the stamps included
    assert first.finished_at > first.started_at  # silent peers cost their handshake timeouts


def test_simnet_crawl_starts_no_thread_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a simnet crawl started a thread pool")

    monkeypatch.setattr(crawler, "ThreadPoolExecutor", no_pool)
    topo = simnet.random_topology(120, rng_seed=6, silent_fraction=0.1)
    network = simnet.build_network(topo)
    snapshot = crawler.crawl(config(topo.seed_ids, max_inflight=64), network)
    assert network.peak_connections == 1
    assert snapshot.active_addresses() == simnet.reachable_set(topo)


def test_crawl_frontier_cap_flags_partial_snapshot():
    topo = simnet.random_topology(60, rng_seed=12)
    network = simnet.build_network(topo)
    snapshot = crawler.crawl(config(topo.seed_ids, max_frontier=10), network)
    assert snapshot.partial
    assert snapshot.total_count <= 10


def _recording_ip_tables(monkeypatch):
    """Patch ``crawler.probe_peer`` to keep the table each probe is handed, and its size after."""
    tables, sizes = [], []
    probe = crawler.probe_peer

    def recording_probe(endpoint, config, transport, *, _endpoints=None):
        result = probe(endpoint, config, transport, _endpoints=_endpoints)
        tables.append(_endpoints)
        sizes.append(len(_endpoints))
        return result

    monkeypatch.setattr(crawler, "probe_peer", recording_probe)
    return tables, sizes


def test_crawl_ip_table_stays_within_the_frontier_cap(monkeypatch):
    # two gossiping peers, each with one full reply: the seed gossips the second
    first = tuple(ep(f"10.1.{i // 256}.{i % 256}") for i in range(wirecodec.MAX_ADDR_ENTRIES - 1))
    second = tuple(ep(f"10.2.{i // 256}.{i % 256}") for i in range(wirecodec.MAX_ADDR_ENTRIES))
    topo = topology([
        SimPeerProfile(ep("10.0.0.1"), known_peers=(ep("10.0.0.2"), *first)),
        SimPeerProfile(ep("10.0.0.2"), known_peers=second),
    ])
    tables, sizes = _recording_ip_tables(monkeypatch)
    snapshot = crawler.crawl(config(topo.seed_ids, max_frontier=1500), simnet.build_network(topo))
    assert snapshot.partial and snapshot.total_count == 1500
    assert snapshot.records[ep("10.0.0.2")].addr_count_returned == wirecodec.MAX_ADDR_ENTRIES
    assert len({id(table) for table in tables}) == 1  # one table for the crawl
    assert sizes[0] == wirecodec.MAX_ADDR_ENTRIES  # the first reply used it; the second would overfill it
    assert max(sizes) <= 1500


def test_crawl_with_the_ip_table_equals_the_crawl_without_it(monkeypatch):
    topo = simnet.random_topology(200, rng_seed=21, unreachable_fraction=0.2, silent_fraction=0.05, max_known=60)

    def run():
        snapshot = crawler.crawl(config(topo.seed_ids), simnet.build_network(topo))
        fields = [
            (r.address, r.status, r.services, r.user_agent, r.start_height, r.min_rtt_ms, r.addr_count_returned)
            for r in snapshot.records.values()
        ]
        return snapshot.partial, fields  # in probe order

    sizes = _recording_ip_tables(monkeypatch)[1]
    with_table = run()
    assert sizes[-1] > 0
    monkeypatch.undo()
    probe = crawler.probe_peer

    def without_table(endpoint, cfg, transport, *, _endpoints=None):
        return probe(endpoint, cfg, transport)

    monkeypatch.setattr(crawler, "probe_peer", without_table)
    assert run() == with_table


def test_crawl_renders_each_gossiped_wire_key_once(monkeypatch):
    topo = simnet.random_topology(200, rng_seed=23, unreachable_fraction=0.2, max_known=60)
    keys, rendered = [], []
    addr_keys, decode_addr_key = wirecodec.addr_keys, wirecodec.decode_addr_key

    def recording_addr_keys(data):
        result = addr_keys(data)
        keys.extend(result)
        return result

    monkeypatch.setattr(wirecodec, "addr_keys", recording_addr_keys)
    monkeypatch.setattr(wirecodec, "decode_addr_key", lambda key: rendered.append(key) or decode_addr_key(key))
    snapshot = crawler.crawl(config(topo.seed_ids), simnet.build_network(topo))
    assert snapshot.active_addresses() == simnet.reachable_set(topo)
    assert len(keys) > 2 * len(set(keys))  # endpoints are gossiped again and again
    assert sorted(rendered) == sorted(set(keys))


class _AddrPeer(_ScriptedConnection):
    """Scripted peer that answers each getaddr with one fixed addr payload."""

    def __init__(self, payload):
        super().__init__(answer=True)
        self._payload = payload

    def send(self, data):
        if wirecodec.decode_message(data, MAGIC)[0] == "getaddr":
            self._pending += wirecodec.encode_message("addr", self._payload, MAGIC)


# a table kept across examples, as a crawl keeps one across probes
_CRAWL_TABLE: dict[bytes, Endpoint] = {}


@settings(max_examples=300)
@given(addr_records)
def test_harvest_with_a_cold_or_warm_table_equals_decoding_each_entry(records):
    payload = addr_payload(records)
    expected = list(dict.fromkeys(Endpoint(e.ip, e.port) for e in wirecodec.decode_addr(payload)))
    cfg = config([ep("10.0.0.1")])
    for table in ({}, _CRAWL_TABLE, _CRAWL_TABLE):  # cold; cold or warm from earlier examples; warm
        harvested, received = crawler._harvest(_AddrPeer(payload), cfg, table)
        assert harvested == expected
        assert [type(endpoint) for endpoint in harvested] == [Endpoint] * len(expected)
        assert received == len(records)
    for _, _, ip, port in records:
        assert _CRAWL_TABLE[ip + port.to_bytes(2, "big")] == (wirecodec.bytes16_to_ip(ip), port)


def test_harvest_on_threads_sharing_one_table_stays_correct_and_near_its_cap():
    # more threads than cores over overlapping keys, switching often: a torn or lost entry would show
    workers, cap = 8, 500
    payloads = [
        addr_payload([(0, 1, bytes(10) + b"\xff\xff" + (100 * w + i).to_bytes(4, "big"), 8333) for i in range(1000)])
        for w in range(workers)
    ]
    cfg, table = config([ep("10.0.0.1")], max_frontier=cap), {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(lambda payload: crawler._harvest(_AddrPeer(payload), cfg, table), payloads, timeout=60))
    finally:
        sys.setswitchinterval(switch)
    for payload, (harvested, received) in zip(payloads, results):
        assert harvested == [Endpoint(e.ip, e.port) for e in wirecodec.decode_addr(payload)] and received == 1000
    assert cap <= len(table) < cap + workers
    assert all(endpoint == Endpoint(*wirecodec.decode_addr_key(key)) for key, endpoint in table.items())


def test_crawl_config_validation():
    with pytest.raises(crawler.EmptySeedSetError):
        CrawlConfig(seeds=())
    with pytest.raises(ValueError):
        CrawlConfig(seeds=(ep("10.0.0.1"),), max_inflight=0)
    with pytest.raises(ValueError):
        CrawlConfig(seeds=(ep("10.0.0.1"),), connect_timeout_ms=0)


@pytest.mark.parametrize(
    "setting, value, message",
    [
        ("connect_timeout_ms", float("nan"), "connect_timeout_ms must be finite and positive, got nan"),
        ("connect_timeout_ms", float("inf"), "connect_timeout_ms must be finite and positive, got inf"),
        ("handshake_timeout_ms", float("nan"), "handshake_timeout_ms must be finite and positive, got nan"),
        ("handshake_timeout_ms", -1.0, "handshake_timeout_ms must be finite and positive, got -1.0"),
        ("ping_count", -4, "ping_count must be >= 0, got -4"),
        ("max_frontier", 0, "max_frontier must be >= 1, got 0"),
        ("max_inflight", 0, "max_inflight must be >= 1, got 0"),
    ],
)
def test_crawl_config_rejects_values_it_cannot_honour(setting, value, message):
    with pytest.raises(ValueError) as err:
        CrawlConfig(seeds=(ep("10.0.0.1"),), **{setting: value})
    assert str(err.value) == message


def test_zero_pings_still_probe_once():
    peer = SimPeerProfile(ep("10.0.0.1"), known_peers=(ep("10.0.0.2"),), rtt_ms=30.0)
    network = simnet.build_network(topology([peer]))
    record, harvested = crawler.probe_peer(peer.address, config([peer.address], ping_count=0), network)
    assert record.status == STATUS_ACTIVE
    assert record.min_rtt_ms == pytest.approx(30.0)  # a ping_count of 0 still sends one ping
    assert harvested == [ep("10.0.0.2")] and record.addr_count_returned == 1


def test_config_digest_is_stable():
    # snapshot headers carry these digests: a crawl series stays comparable
    # only while the same settings hash to the same value
    assert CrawlConfig(seeds=(ep("10.0.0.1"),)).digest() == "00a7722761928021"
    assert (
        CrawlConfig(
            seeds=(ep("2001:db8::1", 18333), ep("10.0.0.2", 1)),
            max_inflight=3,
            connect_timeout_ms=1.5,
            handshake_timeout_ms=250.0,
            ping_count=1,
            max_frontier=7,
            magic=b"\xfa\xce\xb0\x0c",
            user_agent="/x y:1/",
        ).digest()
        == "48a622a248a9335f"
    )


# --- TCP transport ------------------------------------------------------------------


def test_probe_over_real_tcp_socket():
    version = version_payload("/tcp-peer:0.1/", services=5, start_height=750_000, nonce=99)
    with listener(wire_peer(version, [ep("10.9.9.9")])) as endpoint:
        cfg = CrawlConfig(
            seeds=(endpoint,),
            magic=wirecodec.MAINNET_MAGIC,
            connect_timeout_ms=2000.0,
            handshake_timeout_ms=2000.0,
            ping_count=2,
        )
        record, harvested = crawler.probe_peer(endpoint, cfg, TcpTransport())
    assert record.status == STATUS_ACTIVE
    assert record.user_agent == "/tcp-peer:0.1/"
    assert record.start_height == 750_000
    assert record.min_rtt_ms is not None and record.min_rtt_ms > 0
    assert harvested == [ep("10.9.9.9")]


def test_tcp_connect_refused_maps_to_transport_error():
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here now
    with pytest.raises(crawler.TransportError):
        TcpTransport().connect(ep("127.0.0.1", port), timeout=0.5)


def test_tcp_recv_from_a_silent_peer_times_out():
    with listener(lambda conn: conn.recv(1)) as endpoint:  # silent until we hang up
        conn = TcpTransport().connect(endpoint, timeout=2.0)
        try:
            with pytest.raises(RecvTimeoutError):
                conn.recv_exact(1, conn.clock() + 0.0)
            started = time.monotonic()
            with pytest.raises(RecvTimeoutError):
                conn.recv_exact(wirecodec.HEADER_SIZE, conn.clock() + 0.2)
            assert 0.15 <= time.monotonic() - started < 2.0
        finally:
            conn.close()


_VERACK = wirecodec.encode_message("verack", b"", wirecodec.MAINNET_MAGIC)


def _verack_then_wait(conn):
    conn.sendall(_VERACK)
    conn.recv(1)  # until we hang up


def test_tcp_read_that_starts_at_or_after_its_deadline_times_out():
    with listener(_verack_then_wait) as endpoint:
        conn = TcpTransport().connect(endpoint, timeout=2.0)
        try:
            first = conn.recv_exact(1, conn.clock() + 2.0)
            for late in (0.0, 5.0):  # the rest of the frame may be waiting in the socket
                with pytest.raises(RecvTimeoutError):
                    conn.recv_exact(len(_VERACK) - 1, conn.clock() - late)
            assert conn.recv_exact(0, conn.clock() - 5.0) == b""
            assert first + conn.recv_exact(len(_VERACK) - 1, conn.clock() + 2.0) == _VERACK
        finally:
            conn.close()


def _half_a_header(conn):
    conn.sendall(wirecodec.MAINNET_MAGIC + b"ver")


def test_tcp_peer_that_hangs_up_mid_header():
    with listener(_half_a_header, _half_a_header) as endpoint:
        conn = TcpTransport().connect(endpoint, timeout=2.0)
        try:
            with pytest.raises(ConnectionClosedError):
                conn.recv_exact(wirecodec.HEADER_SIZE, conn.clock() + 2.0)
        finally:
            conn.close()
        cfg = CrawlConfig(seeds=(endpoint,), connect_timeout_ms=2000.0, handshake_timeout_ms=2000.0)
        record, harvested = crawler.probe_peer(endpoint, cfg, TcpTransport())
    assert record.status == STATUS_INACTIVE and harvested == []


def _reset(conn):
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))  # close sends RST


def test_tcp_recv_and_send_after_a_reset_fail_as_closed():
    connected = threading.Event()

    def reset_once_connected(conn):
        connected.wait(timeout=5)  # an earlier RST could fail connect() itself
        _reset(conn)

    with listener(reset_once_connected) as endpoint:
        conn = TcpTransport().connect(endpoint, timeout=2.0)
        connected.set()
        try:
            with pytest.raises(ConnectionClosedError):
                conn.recv_exact(wirecodec.HEADER_SIZE, conn.clock() + 2.0)
            with pytest.raises(ConnectionClosedError):
                conn.send(b"\x00" * 64)
        finally:
            conn.close()


class _CountingTcpTransport(TcpTransport):
    """TCP whose connections are counted while open, from any thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self.open = self.peak = 0

    def connect(self, endpoint, timeout):
        conn = super().connect(endpoint, timeout)
        with self._lock:
            self.open += 1
            self.peak = max(self.peak, self.open)
        close = conn.close

        def counted_close():
            with self._lock:
                self.open -= 1
            close()

        conn.close = counted_close
        return conn


def _tcp_crawl(endpoints, max_inflight):
    """Crawl from the first of ``endpoints``; return the peak of open connections and
    status, user agent and height per address."""
    transport = _CountingTcpTransport()
    cfg = CrawlConfig(
        seeds=(endpoints[0],),
        magic=wirecodec.MAINNET_MAGIC,
        max_inflight=max_inflight,
        connect_timeout_ms=2000.0,
        handshake_timeout_ms=2000.0,
        ping_count=1,
    )
    snapshot = crawler.crawl(cfg, transport)
    assert transport.open == 0
    records = {r.address: (r.status, r.user_agent, r.start_height) for r in snapshot.records.values()}
    return transport.peak, records


def test_crawl_single_threaded_configuration_matches_parallel():
    topo = simnet.random_topology(50, rng_seed=9, silent_fraction=0.1)
    parallel = crawler.crawl(config(topo.seed_ids, max_inflight=16), simnet.build_network(topo))
    sequential = crawler.crawl(config(topo.seed_ids, max_inflight=1), simnet.build_network(topo))
    assert parallel.active_addresses() == sequential.active_addresses()
    assert set(parallel.records) == set(sequential.records)

    # The pool runs only over TCP: a parallel loopback crawl equals a sequential one.
    with loopback_network(6, probes=2) as endpoints:  # one probe per crawl
        _, parallel = _tcp_crawl(endpoints, max_inflight=3)
        _, sequential = _tcp_crawl(endpoints, max_inflight=1)
    assert set(parallel) == set(endpoints)
    assert all(status == STATUS_ACTIVE for status, _, _ in parallel.values())
    assert parallel == sequential


def test_crawl_inflight_bound_is_respected():
    topo = simnet.random_topology(120, rng_seed=6)
    network = simnet.build_network(topo)
    crawler.crawl(config(topo.seed_ids, max_inflight=4), network)
    assert network.peak_connections <= 4

    # Over TCP the pool runs: more than one probe is in flight, never more than the bound.
    with loopback_network(6, probes=2) as endpoints:
        parallel_peak, _ = _tcp_crawl(endpoints, max_inflight=3)
        sequential_peak, _ = _tcp_crawl(endpoints, max_inflight=1)
    assert 1 < parallel_peak <= 3 and sequential_peak == 1


def test_crawl_pool_hands_every_probe_the_one_ip_table(monkeypatch):
    tables, _ = _recording_ip_tables(monkeypatch)
    decoded = []
    decode_addr_key = wirecodec.decode_addr_key
    monkeypatch.setattr(wirecodec, "decode_addr_key", lambda key: decoded.append(key) or decode_addr_key(key))
    with loopback_network(8, probes=1) as endpoints:
        peak, records = _tcp_crawl(endpoints, max_inflight=4)
    assert peak > 1 and set(records) == set(endpoints)  # the pool ran
    assert len(tables) == len(endpoints) and len({id(table) for table in tables}) == 1
    assert len(tables[0]) == len(endpoints)
    entries_received = len(endpoints) * (len(endpoints) - 1)  # each peer gossips the others
    assert len(decoded) < entries_received
