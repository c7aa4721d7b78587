"""Persistence round trips, corruption reporting, and snapshot diffs."""

import copy
import gc
import os
import pickle
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from urllib.parse import quote, unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainobs import cli, ledger, simnet, transport
from chainobs import snapshotstore as store
from chainobs.crawler import PeerRecord, STATUS_ACTIVE, STATUS_INACTIVE
from chainobs.transport import Endpoint
from helpers import BASE_TS, make_record, make_snapshot, mutate


def test_round_trip_identity_small_snapshot(tmp_path):
    snapshot = make_snapshot(
        [
            make_record("10.0.0.1", user_agent="/Sat oshi:0.17/", min_rtt_ms=12.5, addr_count=30),
            make_record("2001:db8::7", status=STATUS_INACTIVE),
            make_record("fd87:d87e:eb43::1234", services=0, min_rtt_ms=None),
        ],
        seeds=[Endpoint.make("10.0.0.1")],
    )
    path = tmp_path / f"one{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, path)
    assert store.read_snapshot(path) == snapshot


def test_crlf_copy_reads_back_equal(tmp_path):
    snapshot = make_snapshot(
        [make_record("10.0.0.1", user_agent="/a b:1/"), make_record("10.0.0.2", status=STATUS_INACTIVE)],
        seeds=[Endpoint.make("10.0.0.1")],
    )
    snapshot.partial = True
    path = tmp_path / f"crlf{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, path)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    loaded = store.read_snapshot(path)
    assert loaded.partial
    assert loaded == snapshot


def test_records_are_sorted_by_address(tmp_path):
    snapshot = make_snapshot([make_record("10.0.0.9"), make_record("10.0.0.1"), make_record("9.1.1.1")])
    path = tmp_path / f"s{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, path)
    lines = path.read_text().splitlines()[1:]
    addrs = [line.split(" ", 1)[0] for line in lines]
    assert addrs == sorted(addrs)


def test_empty_records_section_is_valid(tmp_path):
    snapshot = make_snapshot([])
    path = tmp_path / f"empty{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, path)
    loaded = store.read_snapshot(path)
    assert loaded.records == {}
    assert loaded == snapshot


def test_corrupt_record_reports_line_number(tmp_path):
    snapshot = make_snapshot([make_record(f"10.0.0.{i}") for i in range(1, 6)])
    path = tmp_path / f"bad{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, path)
    lines = path.read_text().splitlines()
    lines[4] = "addr:10.0.0.9 port:not-a-number status:active first_seen:1 last_seen:1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(store.CorruptRecordError) as err:
        store.read_snapshot(path)
    assert err.value.line_number == 5


@pytest.mark.parametrize("port", ["65536", "-1", "99999999"])
def test_port_outside_16_bits_is_corrupt(tmp_path, port):
    path = tmp_path / f"port{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1")]), path)
    lines = path.read_text().splitlines()
    lines.append(f"addr:10.0.0.2 port:{port} status:active first_seen:1 last_seen:1")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(store.CorruptRecordError) as err:
        store.read_snapshot(path)
    assert err.value.line_number == 3


def test_non_utf8_bytes_are_corrupt_with_their_line_number(tmp_path):
    path = tmp_path / f"latin{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record(f"10.0.0.{i}") for i in range(1, 4)]), path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"status:", b"ua:caf\xe9 status:")
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(store.CorruptRecordError) as err:
        store.read_snapshot(path)
    assert err.value.line_number == 3


def test_unknown_trailing_fields_ignored(tmp_path):
    snapshot = make_snapshot([make_record("10.0.0.1")])
    path = tmp_path / f"fwd{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, path, extra_fields={Endpoint.make("10.0.0.1"): {"country": "DE", "asn": "64500"}})
    assert "country:DE" in path.read_text()
    assert store.read_snapshot(path) == snapshot


@pytest.mark.parametrize("key", ["my key", "", "a:b", "tab\tkey", "caf\xe9", "del\x7f", "line\nkey"])
def test_extra_field_keys_the_reader_cannot_split_back_raise_before_writing(tmp_path, key):
    snapshot = make_snapshot([make_record("10.0.0.1")])
    path = tmp_path / f"enriched{store.SNAPSHOT_SUFFIX}"
    with pytest.raises(ValueError, match="extra field key"):
        store.write_snapshot(snapshot, path, extra_fields={Endpoint.make("10.0.0.1"): {"country": "DE", key: "x"}})
    assert list(tmp_path.iterdir()) == []
    store.write_snapshot(snapshot, path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="extra field key"):
        store.write_snapshot(snapshot, path, extra_fields={Endpoint.make("10.0.0.1"): {key: "x"}})
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_extra_field_key_may_hold_any_printable_ascii_but_space_and_colon(tmp_path):
    key = "".join(chr(c) for c in range(0x21, 0x7F) if chr(c) != ":")
    snapshot = make_snapshot([make_record("10.0.0.1")])
    path = tmp_path / f"enriched{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, path, extra_fields={Endpoint.make("10.0.0.1"): {key: "a b"}})
    assert f" {key}:a%20b" in path.read_text()
    assert store.read_snapshot(path) == snapshot


def test_extra_field_replaces_same_named_key(tmp_path):
    endpoint = Endpoint.make("10.0.0.1")
    snapshot = make_snapshot([make_record("10.0.0.1")])
    path = tmp_path / f"enriched{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, path, extra_fields={endpoint: {"net": "tor", "country": "DE"}})
    record_line = path.read_text().splitlines()[1]
    keys = [token.partition(":")[0] for token in record_line.split(" ")]
    assert keys.count("net") == 1
    assert keys.index("net") == 2  # replaced in place, not appended
    assert "net:tor" in record_line.split(" ")
    assert store.read_snapshot(path) == snapshot


def test_duplicate_key_is_corrupt(tmp_path):
    path = tmp_path / f"dup{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1")]), path)
    lines = path.read_text().splitlines()
    lines[1] += " net:ipv4"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(store.CorruptRecordError) as err:
        store.read_snapshot(path)
    assert err.value.line_number == 2


@pytest.mark.parametrize("written_shape", [True, False], ids=["written", "enriched"])
@pytest.mark.parametrize("second", ["10.0.0.1", "::ffff:10.0.0.1"])
def test_repeated_endpoint_is_corrupt(tmp_path, written_shape, second):
    path = tmp_path / f"rep{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1"), make_record("10.0.0.2")]), path)
    header, first, other = path.read_text().splitlines()
    repeat = f"addr:{second} port:8333 net:ipv4 status:discovered_inactive first_seen:1 last_seen:1 addrs:0"
    if not written_shape:
        repeat += " country:DE"  # not the whole enrich tail: read by the general tokenizer
    # blank lines do not count as records, but they do count as lines
    path.write_text("\n".join([header, "", first, other, " ", repeat]) + "\n")
    with pytest.raises(store.CorruptRecordError) as err:
        store.read_snapshot(path)
    assert err.value.line_number == 6
    assert str(err.value) == f"{path}: line 6: 10.0.0.1:8333 repeats line 3"


def _assert_header_fault_named(path, message):
    """Corrupt record and non-UTF-8 lines after the bad header in ``path``: the error still names
    the header's line, line 1, or line 2 behind a leading blank line."""
    header_and_records = path.read_bytes()
    bad_port = header_and_records.split(b"\n")[1].replace(b"port:8333", b"port:x")
    for blank, lineno in ((b"", 1), (b"\n", 2)):
        path.write_bytes(blank + header_and_records + bad_port + b"\n\xff\n")
        with pytest.raises(store.CorruptRecordError) as err:
            store.read_snapshot(path)
        assert err.value.line_number == lineno
        assert str(err.value) == f"{path}: line {lineno}: {message}"


@pytest.mark.parametrize(
    "edit, reason",
    [
        (("partial:0", "partial:yes"), "partial 'yes' is not 0 or 1"),
        (("partial:0", "partial:2"), "partial '2' is not 0 or 1"),
        (("partial:0", "partial:"), "partial '' is not 0 or 1"),
        (("seed_count:1", "seed_count:2"), "seed_count 2 but seeds lists 1"),
        (("seed_count:1", "seed_count:0"), "seed_count 0 but seeds lists 1"),
        (("seed_count:1", "seed_count:one"), "seed_count 'one' is not an integer in ASCII digits"),
        (("seed_count:1", "seed_count:+1"), "seed_count '+1' is not an integer in ASCII digits"),
        (("seed_count:1", "seed_count:\u0661"), "seed_count '\u0661' is not an integer in ASCII digits"),
        (("seeds:10.0.0.1:8333", "seeds:1.2.3.x"), "'1.2.3.x' does not appear to be an IPv4 or IPv6 address"),
    ],
)
def test_bad_partial_or_seed_count_is_corrupt(tmp_path, edit, reason):
    path = tmp_path / f"hdr{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1")], seeds=[Endpoint.make("10.0.0.1")]), path)
    path.write_text(path.read_text().replace(*edit, 1))
    _assert_header_fault_named(path, f"bad header: {reason}")


@pytest.mark.parametrize("key", ["started_at", "finished_at"])
def test_header_without_a_time_is_corrupt(tmp_path, key):
    path = tmp_path / f"hdr{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1")]), path)
    header, rest = path.read_text().split("\n", 1)
    path.write_text(" ".join(token for token in header.split(" ") if not token.startswith(f"{key}:")) + f"\n{rest}")
    _assert_header_fault_named(path, f"missing required field {key!r}")


@pytest.mark.parametrize("key", ["port", "services", "pver", "height", "first_seen", "last_seen", "addrs"])
@pytest.mark.parametrize("value", ["+5", "1_0", "\u0663", "0x5", "5.0", "--5", "-", ""])
def test_general_path_reads_record_integers_in_ascii_digits_only(tmp_path, key, value):
    path = tmp_path / f"ints{store.SNAPSHOT_SUFFIX}"
    # the note key moves the record off the fast path, onto the general tokenizer
    store.write_snapshot(make_snapshot([make_record("10.0.0.1")]), path, {Endpoint.make("10.0.0.1"): {"note": "x"}})
    lines = path.read_text().split("\n")
    lines[1] = " ".join(f"{key}:{value}" if token.startswith(f"{key}:") else token for token in lines[1].split(" "))
    path.write_text("\n".join(lines))
    with pytest.raises(store.CorruptRecordError) as err:
        store.read_snapshot(path)
    form = "ASCII digits" if key == "port" else "an integer in ASCII digits"
    assert str(err.value) == f"{path}: line 2: {key} {value!r} is not {form}"


_BAD_RTTS = ["nan", "-5", "inf", "1_0", "\u0663.5", "+2", "0", "0.0", "1e999", ".5", "5.", "1E5", "1e5", "0x5", ""]


@pytest.mark.parametrize("order", ["written", "reordered"])
@pytest.mark.parametrize("value", _BAD_RTTS)
def test_minrtt_is_a_finite_positive_ascii_decimal_on_both_paths(tmp_path, order, value):
    path = tmp_path / f"rtt{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1", min_rtt_ms=12.5)]), path)
    header, line, _ = path.read_text().split("\n")
    tokens = [f"minrtt:{value}" if token.startswith("minrtt:") else token for token in line.split(" ")]
    # the written order takes the fast path; the same keys reversed take the general tokenizer
    path.write_text(f"{header}\n{' '.join(tokens if order == 'written' else tokens[::-1])}\n")
    with pytest.raises(store.CorruptRecordError) as err:
        store.read_snapshot(path)
    assert str(err.value) == f"{path}: line 2: minrtt {value!r} is not a finite decimal > 0 in ASCII digits"


@pytest.mark.parametrize("value", ["12.5", "1e-06", "1e+16", "7", "007.50", "1.7976931348623157e+308"])
def test_minrtt_reads_each_decimal_repr_writes(tmp_path, value):
    path = tmp_path / f"rtt{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1", min_rtt_ms=12.5)]), path)
    path.write_text(path.read_text().replace("minrtt:12.5", f"minrtt:{value}"))
    [record] = store.read_snapshot(path).records.values()
    assert record.min_rtt_ms == float(value)


@pytest.mark.parametrize("key", ["started_at", "finished_at"])
@pytest.mark.parametrize("value", ["+5", "1_0", "\u0663", "5.0", "", "abc"])
def test_header_times_are_integers_in_ascii_digits(tmp_path, key, value):
    path = tmp_path / f"hdr{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1")]), path)
    lines = path.read_text().split("\n")
    lines[0] = " ".join(f"{key}:{value}" if token.startswith(f"{key}:") else token for token in lines[0].split(" "))
    path.write_text("\n".join(lines))
    _assert_header_fault_named(path, f"bad header: {key} {value!r} is not an integer in ASCII digits")


def test_negative_and_zero_padded_integers_read_on_both_paths(tmp_path):
    path = tmp_path / f"ints{store.SNAPSHOT_SUFFIX}"
    record = make_record("10.0.0.1", start_height=-7)
    snapshot = make_snapshot([record], started_at=-60)
    for extra in (None, {record.address: {"note": "x"}}):
        store.write_snapshot(snapshot, path, extra)
        path.write_text(path.read_text().replace("addrs:0", "addrs:007"))
        read = store.read_snapshot(path)
        assert read == replace(snapshot, records={record.address: replace(record, addr_count_returned=7)})


def test_header_without_partial_or_seed_count_reads_with_defaults(tmp_path):
    path = tmp_path / f"old{store.SNAPSHOT_SUFFIX}"
    path.write_text("schema:1 kind:header started_at:1 finished_at:2 seeds:10.0.0.1:8333\n")
    loaded = store.read_snapshot(path)
    assert not loaded.partial
    assert loaded.seeds == (Endpoint.make("10.0.0.1"),)


class _DiskFull:
    """File handle stub that writes half of what it is given, then fails like a full disk."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")


def _fail(monkeypatch, failing_step):
    if failing_step == "write":
        monkeypatch.setattr(transport, "open", lambda *a, **k: _DiskFull(open(*a, **k)), raising=False)
    else:
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(transport.os, "replace", refuse)


@pytest.mark.parametrize("failing_step", ["write", "replace"])
def test_failed_write_keeps_previous_file_and_leaves_no_stray_file(tmp_path, monkeypatch, failing_step):
    path = tmp_path / f"atomic{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1")]), path)
    before = path.read_bytes()
    _fail(monkeypatch, failing_step)
    bigger = make_snapshot([make_record(f"10.0.1.{i}") for i in range(1, 40)], started_at=5)
    with pytest.raises(OSError):
        store.write_snapshot(bigger, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert [s.started_at for s in store.load_series(tmp_path)] == [make_snapshot([]).started_at]


_WRITERS = {
    "ledger": lambda path, size: ledger.write_ledger(
        [ledger.LedgerTx(f"t{i}", i, i, True, (), ((f"a{i}", 50),)) for i in range(size)], path
    ),
    "topology": lambda path, size: simnet.save_topology(simnet.random_topology(size + 1, rng_seed=size), path),
    "csv": lambda path, size: cli._write_csv(path, ["n", "text"], [[i, "a,b"] for i in range(size)]),
}


@pytest.mark.parametrize("failing_step", ["write", "replace"])
@pytest.mark.parametrize("writer", list(_WRITERS))
def test_every_output_file_is_replaced_whole_or_not_at_all(tmp_path, monkeypatch, writer, failing_step):
    path = tmp_path / f"out.{writer}"
    _WRITERS[writer](path, 2)
    before = path.read_bytes()
    _fail(monkeypatch, failing_step)
    with pytest.raises(OSError):
        _WRITERS[writer](path, 40)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    if writer == "csv":
        assert before == b"n,text\r\n0,\"a,b\"\r\n1,\"a,b\"\r\n"


def test_a_replaced_file_keeps_its_permission_bits(tmp_path):
    path = tmp_path / "private.ldg"
    path.write_text("")
    path.chmod(0o600)
    ledger.write_ledger([ledger.LedgerTx("t", 1, 1, True, (), (("a", 50),))], path)
    assert path.stat().st_mode & 0o777 == 0o600
    assert path.read_text() == "t 1 1 1 - - a:50\n"


def test_a_write_through_a_symlink_replaces_the_file_it_names(tmp_path):
    target = tmp_path / "real.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    cli._write_csv(link, ["n"], [[1]])
    assert link.is_symlink() and link.resolve() == target
    assert target.read_bytes() == b"n\r\n1\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]


def test_a_write_to_a_pipe_goes_into_the_pipe(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        transport._write_text(fifo, "kind:header\n")
    finally:
        reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [b"kind:header\n"]
    assert fifo.is_fifo()
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


def test_corrupt_file_in_a_series_is_named(tmp_path):
    for start in (100, 200, 300):
        store.write_snapshot(
            make_snapshot([make_record("10.0.0.1")], started_at=start),
            tmp_path / f"{start}{store.SNAPSHOT_SUFFIX}",
        )
    bad = tmp_path / f"200{store.SNAPSHOT_SUFFIX}"
    good = bad.read_text()
    # 10.0.0.1:8333 is already in load_series' endpoint table from the file for 100
    for port in ("83x3", "65536"):
        bad.write_text(good.replace("port:8333", f"port:{port}"))
        with pytest.raises(store.CorruptRecordError) as err:
            store.load_series(tmp_path)
        assert err.value.line_number == 2
        assert str(err.value).startswith(f"{bad}: line 2: ")


def test_unsupported_schema_version(tmp_path):
    path = tmp_path / f"v2{store.SNAPSHOT_SUFFIX}"
    path.write_text("schema:2 kind:header started_at:1 finished_at:2 seed_count:0 seeds: config: partial:0\n")
    with pytest.raises(store.SchemaVersionUnsupportedError) as err:
        store.read_snapshot(path)
    assert str(err.value) == f"{path}: schema '2'"


def test_missing_header_is_corrupt(tmp_path):
    path = tmp_path / f"nohdr{store.SNAPSHOT_SUFFIX}"
    path.write_text("addr:10.0.0.1 port:8333 status:active first_seen:1 last_seen:1\n")
    with pytest.raises(store.CorruptRecordError):
        store.read_snapshot(path)


_records = st.builds(
    make_record,
    ip=st.one_of(st.ip_addresses(v=4).map(str), st.ip_addresses(v=6).map(str)),
    port=st.integers(min_value=1, max_value=65535),
    status=st.sampled_from([STATUS_ACTIVE, STATUS_INACTIVE]),
    services=st.integers(min_value=0, max_value=2**64 - 1),
    protocol_version=st.integers(min_value=0, max_value=2**31 - 1),
    user_agent=st.text(max_size=40),
    start_height=st.integers(min_value=-10, max_value=2**31 - 1),
    min_rtt_ms=st.one_of(st.none(), st.floats(min_value=0.001, max_value=1e6, allow_nan=False)),
    ts=st.integers(min_value=0, max_value=2**32),
    addr_count=st.integers(min_value=0, max_value=5000),
)


@pytest.fixture(scope="module")
def property_path(tmp_path_factory):
    return tmp_path_factory.mktemp("snapstore-prop") / f"p{store.SNAPSHOT_SUFFIX}"


@settings(max_examples=150)
@given(records=st.lists(_records, max_size=12), started=st.integers(min_value=0, max_value=2**32))
def test_round_trip_identity_property(property_path, records, started):
    unique = list({r.address: r for r in records}.values())
    snapshot = make_snapshot(unique, started_at=started)
    store.write_snapshot(snapshot, property_path)
    assert store.read_snapshot(property_path) == snapshot


# --- the escaping fast paths against plain quote/unquote on every value ----------------

# lone surrogates included: quote() cannot encode them and must still be the one to raise
_values = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(exclude_categories=())),
    st.text(alphabet=" %:~!#\x00\x1f\x7f\x80\xe9\u7bc0\ud800aF09"),
)


def _outcome(function, *args):
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _quote_every_value(value):
    return quote(value, safe=store._VALUE_SAFE)


@settings(max_examples=400)
@given(value=_values)
def test_escape_matches_quote(value):
    assert _outcome(store._escape, value) == _outcome(_quote_every_value, value)


def _parse_line_unquoting_every_value(line, lineno):
    fields = {}
    tokens = line.split(" ")
    for token in tokens:
        key, sep, value = token.partition(":")
        if not sep or not key:
            raise store.CorruptRecordError(lineno, f"token {token!r} is not key:value")
        fields[key] = unquote(value)
    if len(fields) != len(tokens):
        raise store.CorruptRecordError(lineno, "a key appears more than once")
    return fields


def _pairs(values):
    return st.lists(st.tuples(st.sampled_from(["addr", "ua", "port", "x"]), values), min_size=1, max_size=5)


_lines = st.one_of(
    _values,
    _pairs(_values).map(lambda pairs: " ".join(f"{k}:{v}" for k, v in pairs)),
    _pairs(st.text()).map(lambda pairs: " ".join(f"{k}:{_quote_every_value(v)}" for k, v in pairs)),
)


@settings(max_examples=400)
@given(line=_lines)
def test_parse_line_matches_unquoting_every_value(line):
    assert _outcome(store._parse_line, line, 7) == _outcome(_parse_line_unquoting_every_value, line, 7)


def test_write_is_byte_identical_to_quoting_every_value(tmp_path, monkeypatch):
    snapshot = make_snapshot(
        [
            make_record("10.0.0.1", user_agent="/Satoshi:0.21.0/ (linux; 100% up)"),
            make_record("10.0.0.2", user_agent="%41%zz\t\x00\x7f"),
            make_record("10.0.0.3", user_agent="/btcwire:0.5.0/caf\u00e9 \u7bc0\u9ede\U0001f600/"),
            make_record("10.0.0.4", user_agent=""),
            make_record("10.0.0.5", user_agent="/100%/"),
            make_record("2001:db8::7", status=STATUS_INACTIVE),
        ],
        seeds=[Endpoint.make("10.0.0.1"), Endpoint.make("2001:db8::7", 18333)],
        digest="d1g 100%",
    )
    extra = {Endpoint.make("10.0.0.1"): {"country": "C\u00f4te d'Ivoire", "asn": "64500"}}
    fast = tmp_path / f"fast{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, fast, extra_fields=extra)
    monkeypatch.setattr(store, "_escape", _quote_every_value)
    # an empty table of address texts, so the reference write escapes every addr itself
    # instead of taking the first write's texts
    monkeypatch.setattr(store, "_last_written", ({}, {}))
    reference = tmp_path / f"reference{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, reference, extra_fields=extra)
    assert fast.read_bytes() == reference.read_bytes()
    assert store.read_snapshot(fast) == snapshot


def test_load_series_shares_one_endpoint_per_address(tmp_path):
    seeds = [Endpoint.make("10.0.0.1"), Endpoint.make("2001:db8::7", 18333)]
    for start, records in [
        (300, [make_record("10.0.0.1"), make_record("2001:db8::7", port=18333), make_record("10.0.0.3", user_agent="/a b:1/")]),
        (100, [make_record("10.0.0.1"), make_record("2001:db8::7", port=18333, status=STATUS_INACTIVE)]),
        (200, [make_record("10.0.0.1", port=18333), make_record("10.0.0.3", status=STATUS_INACTIVE)]),
        (400, [make_record("10.0.0.1", user_agent="/a b:1/"), make_record("10.0.0.3", user_agent="/peer:1.0/")]),
    ]:
        snapshot = make_snapshot(records, started_at=start, seeds=seeds)
        store.write_snapshot(snapshot, tmp_path / f"{start}{store.SNAPSHOT_SUFFIX}")
    series = store.load_series(tmp_path)
    shared = {}
    user_agents = {}
    for snapshot in series:
        for key, record in snapshot.records.items():
            assert record.address is key
            assert shared.setdefault(key, key) is key
            if record.user_agent is not None:
                assert user_agents.setdefault(record.user_agent, record.user_agent) is record.user_agent
    assert len(shared) == 4  # 10.0.0.1 on two ports, 2001:db8::7, 10.0.0.3
    assert sorted(user_agents) == ["/a b:1/", "/peer:1.0/"]
    assert all(a is b for snapshot in series for a, b in zip(snapshot.seeds, series[0].seeds, strict=True))
    alone = [store.read_snapshot(tmp_path / f"{start}{store.SNAPSHOT_SUFFIX}") for start in (100, 200, 300, 400)]
    assert series == alone


def test_a_file_read_shares_one_int_per_integer_text(tmp_path):
    # values above 256, which CPython would not share on its own
    records = [
        make_record(f"10.0.0.{i}", services=1037, protocol_version=70016, start_height=800_000 + i // 2, addr_count=1000)
        for i in range(6)
    ]
    store.write_snapshot(make_snapshot(records), tmp_path / "a.snap.ndrec")
    read = list(store.read_snapshot(tmp_path / "a.snap.ndrec").records.values())
    assert read == records
    first = read[0]
    for record in read:
        assert record.last_seen is record.first_seen is first.first_seen
        assert record.services is first.services
        assert record.protocol_version is first.protocol_version
        assert record.addr_count_returned is first.addr_count_returned
    assert [record.start_height is read[i - i % 2].start_height for i, record in enumerate(read)] == [True] * 6
    assert read[0].start_height is not read[2].start_height


def test_a_read_record_is_slotted_and_copies_equal(tmp_path):
    written = make_record("2001:db8::7", user_agent="/a b:1%/", min_rtt_ms=12.5, addr_count=3)
    store.write_snapshot(make_snapshot([written]), tmp_path / "a.snap.ndrec")
    [record] = store.read_snapshot(tmp_path / "a.snap.ndrec").records.values()
    assert not hasattr(record, "__dict__")
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record
    assert replace(record) == record
    assert replace(record, last_seen=record.last_seen + 1) != record
    assert repr(record) == repr(written)


def test_every_read_record_holds_a_status_constant(tmp_path):
    records = [make_record("10.0.0.1"), make_record("2001:db8::7", status=STATUS_INACTIVE)]
    written = tmp_path / f"written{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot(records), written)
    # the same records with their keys in reverse order, which only the general tokenizer reads
    lines = written.read_text().splitlines()
    general = tmp_path / f"general{store.SNAPSHOT_SUFFIX}"
    general.write_text("\n".join(lines[:1] + [" ".join(reversed(line.split(" "))) for line in lines[1:]]) + "\n")
    for path in (written, general):
        read = list(store.read_snapshot(path).records.values())
        assert read == records
        assert read[0].status is STATUS_ACTIVE and read[1].status is STATUS_INACTIVE
    assert all(
        record.status is STATUS_ACTIVE or record.status is STATUS_INACTIVE
        for snapshot in store.load_series(tmp_path)
        for record in snapshot.records.values()
    )


def test_load_series_holds_a_bounded_number_of_bytes_per_record(tmp_path):
    # 12 half-hourly crawls of 250 peers that agree on services, pver and height,
    # each record seen once: first_seen == last_seen
    for slot in range(12):
        start = BASE_TS + 1800 * slot
        records = [
            make_record(
                f"10.0.0.{i}", services=1037, protocol_version=70016,
                start_height=800_000 + slot, min_rtt_ms=20.0 + i / 8, ts=start,
            )
            for i in range(250)
        ]
        store.write_snapshot(make_snapshot(records, started_at=start), tmp_path / f"{start}{store.SNAPSHOT_SUFFIX}")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = store.load_series(tmp_path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    per_record = held / sum(len(snapshot.records) for snapshot in series)
    # a slotted PeerRecord with one int per integer text per file holds 235-250 B here on
    # Python 3.10-3.13; either one alone holds >= 290 B, and neither >= 420 B
    assert per_record < 280, f"{per_record:.0f} bytes per record"


def test_load_series_sorted_by_start_time(tmp_path):
    for start in (300, 100, 200):
        store.write_snapshot(
            make_snapshot([make_record("10.0.0.1")], started_at=start),
            tmp_path / f"{start}{store.SNAPSHOT_SUFFIX}",
        )
    series = store.load_series(tmp_path)
    assert [s.started_at for s in series] == [100, 200, 300]


def test_load_series_keeps_same_second_files_in_name_order(tmp_path):
    # crawl --repeat names same-second crawls <stamp>, <stamp>_0001, ...; earlier releases
    # named them <stamp>-1, ..., which sorts before <stamp>
    stamp = "20261019T110743Z"
    names = [f"{stamp}-1", stamp, f"{stamp}_0001", f"{stamp}_0002"]
    for index in (3, 0, 2, 1):  # written out of order: only the names decide
        snapshot = make_snapshot([make_record(f"10.0.0.{index}")], started_at=1000)
        store.write_snapshot(snapshot, tmp_path / f"{names[index]}{store.SNAPSHOT_SUFFIX}")
    snapshot = make_snapshot([make_record("10.0.0.9")], started_at=999)
    store.write_snapshot(snapshot, tmp_path / f"{stamp}_0003{store.SNAPSHOT_SUFFIX}")
    second = 1_792_408_063  # 2026-10-19 11:07:43 UTC, the second of ``stamp``
    for ip in ("10.0.0.4", "10.0.0.5"):  # named as crawl --repeat names them, in crawl order
        store.write_snapshot(make_snapshot([make_record(ip)], started_at=second), store.series_path(tmp_path, second))
    assert sorted(p.name for p in tmp_path.iterdir())[-2:] == [f"{stamp}_000{i}{store.SNAPSHOT_SUFFIX}" for i in (4, 5)]
    series = store.load_series(tmp_path)
    ips = ["10.0.0.9", "10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4", "10.0.0.5"]
    assert [next(iter(s.records)).ip for s in series] == ips


# --- diff --------------------------------------------------------------------


def _snap(active_ips, inactive_ips=(), started=1000):
    records = [make_record(ip) for ip in active_ips]
    records += [make_record(ip, status=STATUS_INACTIVE) for ip in inactive_ips]
    return make_snapshot(records, started_at=started)


def test_diff_identical_snapshots():
    a = _snap(["10.0.0.1", "10.0.0.2"])
    b = _snap(["10.0.0.1", "10.0.0.2"], started=2000)
    result = store.diff(a, b)
    assert result.joined == frozenset() and result.left == frozenset()
    assert result.stayed == a.active_addresses()


def test_diff_set_algebra():
    a = _snap(["10.0.0.1", "10.0.0.2"])  # X, Y
    b = _snap(["10.0.0.2", "10.0.0.3"], started=2000)  # Y, Z
    result = store.diff(a, b)
    assert result.joined == {Endpoint.make("10.0.0.3")}
    assert result.left == {Endpoint.make("10.0.0.1")}
    assert result.stayed == {Endpoint.make("10.0.0.2")}
    assert result.joined & result.left == frozenset()


def test_diff_all_nodes_leaving():
    a = _snap(["10.0.0.1", "10.0.0.2"])
    b = _snap([], inactive_ips=["10.0.0.1"], started=2000)
    assert store.diff(a, b).left == a.active_addresses()


def test_diff_out_of_order_rejected():
    with pytest.raises(store.OutOfOrderError):
        store.diff(_snap([], started=2000), _snap([], started=1000))


@settings(max_examples=80)
@given(
    a_ips=st.sets(st.integers(min_value=1, max_value=30), max_size=15),
    b_ips=st.sets(st.integers(min_value=1, max_value=30), max_size=15),
)
def test_diff_antisymmetry_property(a_ips, b_ips):
    a = _snap([f"10.0.0.{i}" for i in a_ips], started=1)
    b = _snap([f"10.0.0.{i}" for i in b_ips], started=2)
    forward = store.diff(a, b)
    backward = store.diff(
        make_snapshot(list(b.records.values()), started_at=1),
        make_snapshot(list(a.records.values()), started_at=2),
    )
    assert forward.joined == backward.left
    assert forward.left == backward.joined


# --- fuzz: the reader raises only its declared errors --------------------------------


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("snapshot-fuzz")


def _valid_snapshot_bytes():
    snapshot = make_snapshot(
        [
            make_record("10.0.0.1", user_agent="/Sat oshi:0.17/ caf\u00e9", min_rtt_ms=12.5),
            make_record("2001:db8::7", status=STATUS_INACTIVE),
            make_record("fd87:d87e:eb43::1234", port=18333, min_rtt_ms=None),
        ],
        seeds=[Endpoint.make("10.0.0.1")],
    )
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / f"v{store.SNAPSHOT_SUFFIX}"
        store.write_snapshot(snapshot, path)
        return path.read_bytes()


_VALID_SNAPSHOT = _valid_snapshot_bytes()
_edits = st.lists(
    st.tuples(st.integers(0, len(_VALID_SNAPSHOT)), st.sampled_from(["put", "insert", "delete"]), st.binary(max_size=4)),
    min_size=1,
    max_size=6,
)


def _read_declared_errors_only(directory, data):
    path = directory / f"f{store.SNAPSHOT_SUFFIX}"
    path.write_bytes(data)
    try:
        store.read_snapshot(path)
    except store.SnapshotStoreError:
        pass


@settings(max_examples=300)
@given(data=st.binary(max_size=300))
def test_reader_raises_only_declared_errors_on_arbitrary_bytes(fuzz_dir, data):
    _read_declared_errors_only(fuzz_dir, data)


@settings(max_examples=300)
@given(edits=_edits)
def test_reader_raises_only_declared_errors_on_mutated_files(fuzz_dir, edits):
    _read_declared_errors_only(fuzz_dir, mutate(_VALID_SNAPSHOT, edits))


@pytest.fixture(scope="module")
def series_fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("series-fuzz")
    (directory / f"a{store.SNAPSHOT_SUFFIX}").write_bytes(_VALID_SNAPSHOT)
    return directory


@settings(max_examples=200)
@given(edits=_edits)
def test_series_reader_raises_only_declared_errors_on_a_mutated_copy(series_fuzz_dir, edits):
    # the good file fills load_series' endpoint table before the mutated copy is read
    (series_fuzz_dir / f"m{store.SNAPSHOT_SUFFIX}").write_bytes(mutate(_VALID_SNAPSHOT, edits))
    try:
        series = store.load_series(series_fuzz_dir)
    except store.SnapshotStoreError:
        return
    alone = [store.read_snapshot(p) for p in sorted(series_fuzz_dir.glob(f"*{store.SNAPSHOT_SUFFIX}"))]
    assert series == sorted(alone, key=lambda s: s.started_at)


# --- the written-shape fast path against the general tokenizer --------------------------


def _optional(strategy):
    return st.one_of(st.none(), strategy)


# --- the record writer against the reference it replaced ---------------------------


def _reference_fields(record):
    """A record's keys and unescaped values, as the writer once built them per record."""
    fields = {
        "addr": record.address.ip,
        "port": str(record.address.port),
        "net": store.classify_network(record.address),
        "status": record.status,
    }
    if record.services is not None:
        fields["services"] = str(record.services)
    if record.protocol_version is not None:
        fields["pver"] = str(record.protocol_version)
    if record.user_agent is not None:
        fields["ua"] = record.user_agent
    if record.start_height is not None:
        fields["height"] = str(record.start_height)
    if record.min_rtt_ms is not None:
        fields["minrtt"] = repr(record.min_rtt_ms)
    fields["first_seen"] = str(record.first_seen)
    fields["last_seen"] = str(record.last_seen)
    fields["addrs"] = str(record.addr_count_returned)
    return fields


def _reference_emit(pairs):
    return " ".join(f"{key}:{store._escape(value)}" for key, value in pairs)


def _reference_file(snapshot, extra_fields):
    """The bytes the writer once wrote: every value of every line escaped on its own."""
    header = [
        ("schema", str(store.SCHEMA_VERSION)),
        ("kind", "header"),
        ("started_at", str(snapshot.started_at)),
        ("finished_at", str(snapshot.finished_at)),
        ("seed_count", str(len(snapshot.seeds))),
        ("seeds", ",".join(str(s) for s in snapshot.seeds)),
        ("config", snapshot.crawler_config_digest),
        ("partial", "1" if snapshot.partial else "0"),
    ]
    lines = [_reference_emit(header)]
    for endpoint in sorted(snapshot.records, key=str):
        fields = _reference_fields(snapshot.records[endpoint])
        fields.update(extra_fields.get(endpoint, {}))
        lines.append(_reference_emit(fields.items()))
    return ("\n".join(lines) + "\n").encode("utf-8")


_user_agents = st.one_of(
    st.text(max_size=30),
    st.text(alphabet=" %:~/é節\U0001f600aZ09", max_size=20),
    st.just(""),
)
_written_records = st.builds(
    PeerRecord,
    address=st.builds(
        Endpoint.make,
        st.one_of(
            st.ip_addresses(v=4).map(str),
            st.ip_addresses(v=6).map(str),
            st.integers(0, 2**80 - 1).map(lambda low: f"fd87:d87e:eb43:{low >> 64:x}:{low >> 48 & 0xFFFF:x}::{low & 0xFFFF:x}"),
        ),
        st.integers(0, 65535),
    ),
    status=st.sampled_from([STATUS_ACTIVE, STATUS_INACTIVE]),
    first_seen=st.integers(-(2**40), 2**40),
    last_seen=st.integers(-(2**40), 2**40),
    services=_optional(st.integers(0, 2**64 - 1)),
    protocol_version=_optional(st.integers(-(2**31), 2**31 - 1)),
    user_agent=_optional(_user_agents),
    start_height=_optional(st.integers(-10, 2**31 - 1)),
    min_rtt_ms=_optional(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),  # as a crawl measures
    addr_count_returned=st.integers(0, 5000),
)
_enrichments = st.one_of(
    # what `chainobs enrich` appends, which the fast path reads too
    st.fixed_dictionaries({key: st.text(max_size=10) for key in ("net", "country", "asn", "org")}),
    st.dictionaries(st.sampled_from(["net", "country", "asn", "org"]), st.text(max_size=10), max_size=3),
)
# values that int() or float() may accept but the written shape never holds, and values both reject
_ODD_VALUES = [
    "+5", "1_000", "٣", " 7", "7 ", "", "-0", "007", "65536", "99999999", "-1", "1e-05", "inf", "-inf",
    "nan", "x", "1.5", "%31", "10.0.0.1%25eth0", "%zz", "9" * 5000, "up", "active", "discovered_inactive", ":",
]


# what may follow a written line: keys the reader ignores (repeated too), record and
# enrich keys out of their order, and tokens that are not key:value
_tail_tokens = st.one_of(
    st.tuples(st.sampled_from(["note", "n%20", "~", "kind"]), st.sampled_from(["x", "", "a:b", "%41", "%zz"])).map(
        ":".join
    ),
    st.tuples(
        st.sampled_from("addr port net status services pver ua height minrtt first_seen last_seen addrs".split()),
        st.sampled_from(["5", "active", "10.0.0.1", "x", ""]),
    ).map(":".join),
    st.tuples(st.sampled_from(["country", "asn", "org"]), st.text(max_size=4)).map(":".join),
    st.sampled_from(["", "novalue", ":x", "x:1\t", "\r"]),
)


@st.composite
def _record_lines(draw):
    fields = _reference_fields(draw(_written_records))
    shape = draw(st.sampled_from(["written", "enriched", "mutated", "tailed"]))
    if shape == "enriched" or (shape != "written" and draw(st.booleans())):
        fields.update(draw(_enrichments))
    pairs = [(key, store._escape(value)) for key, value in fields.items()]
    if shape == "mutated":
        for _ in range(draw(st.integers(1, 3))):
            action = draw(st.sampled_from(["value", "shuffle", "drop", "repeat", "raw"]))
            at = draw(st.integers(0, len(pairs) - 1))
            if action == "value":
                pairs[at] = (pairs[at][0], draw(st.sampled_from(_ODD_VALUES)))
            elif action == "shuffle":
                pairs = draw(st.permutations(pairs))
            elif action == "drop" and len(pairs) > 1:
                del pairs[at]
            elif action == "repeat":
                pairs.insert(at, pairs[draw(st.integers(0, len(pairs) - 1))])
            elif action == "raw":
                pairs[at] = (pairs[at][0], pairs[at][1] + draw(st.sampled_from([" ", "  x:1", "\t", "\r", "%"])))
    if shape == "tailed" and draw(st.booleans()):  # a record key after the others
        pairs.append(pairs.pop(draw(st.integers(0, len(pairs) - 1))))
    line = " ".join(f"{key}:{value}" for key, value in pairs)
    if shape == "tailed":
        line += " " + " ".join(draw(st.lists(_tail_tokens, min_size=1, max_size=4)))
    return line


def _general(line):
    return store._parse_record(store._parse_line(line, 2), 2, store._SeriesTable().endpoints)


# one table for every line, as a series read keeps one across its files, and
# one integer table, as a file's read keeps one across its lines
_SHARED_TABLE = store._SeriesTable()
_SHARED_INTS = store._Memo(int)


def _as_read(line):
    """What the snapshot reader does with a record line: the fast path, else the general one."""
    record = store._parse_written_record(line, 2, _SHARED_TABLE, _SHARED_INTS)
    return _general(line) if record is None else record


@settings(max_examples=300)
@given(line=_record_lines())
def test_fast_path_matches_the_general_tokenizer(line):
    # repr: a NaN RTT is not equal to itself
    assert repr(_outcome(_as_read, line)) == repr(_outcome(_general, line))


@settings(max_examples=100)
@given(records=st.lists(_written_records, max_size=10))
def test_every_written_record_line_takes_the_fast_path(property_path, records):
    snapshot = make_snapshot(list({r.address: r for r in records}.values()), seeds=[Endpoint.make("10.0.0.1")])
    store.write_snapshot(snapshot, property_path)
    general = store._parse_line

    tails = []

    def header_only(line, lineno):
        # a record line hands the tokenizer at most the ignored keys after the pattern
        assert lineno == 1 or line == "note:x", f"line {lineno} went through the general tokenizer: {line!r}"
        if lineno != 1:
            tails.append(line)
        return general(line, lineno)

    enriched = property_path.with_name(f"enriched{store.SNAPSHOT_SUFFIX}")
    enrich = {"net": "ipv4", "country": "DE", "asn": "64500", "org": "Example Org"}
    store.write_snapshot(snapshot, enriched, extra_fields={e: enrich for e in snapshot.records})
    noted = property_path.with_name(f"noted{store.SNAPSHOT_SUFFIX}")
    store.write_snapshot(snapshot, noted, extra_fields={e: {"note": "x"} for e in snapshot.records})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store, "_parse_line", header_only)
        assert store.read_snapshot(property_path) == snapshot
        assert store.read_snapshot(enriched) == snapshot
        assert store.read_snapshot(noted) == snapshot
    assert tails == ["note:x"] * len(snapshot.records)  # only the tail, once per record line


# keys that replace one the writer wrote, and keys it appends
_extra_fields = st.dictionaries(
    st.sampled_from(["net", "ua", "status", "country", "asn", "org", "note"]), _user_agents, max_size=4
)


@settings(max_examples=200)
@given(records=st.lists(_written_records, max_size=8), data=st.data())
def test_write_matches_the_reference_writer(property_path, records, data):
    # a few user agents shared across records, as in a crawl, so the per-file table is reused
    shared = data.draw(st.lists(st.one_of(_user_agents, st.just("/a b:1%\x00\t/é")), min_size=1, max_size=3))
    records = [
        replace(record, user_agent=data.draw(st.sampled_from(shared))) if data.draw(st.booleans()) else record
        for record in records
    ]
    snapshot = make_snapshot(
        list({r.address: r for r in records}.values()),
        seeds=data.draw(st.lists(_written_records.map(lambda r: r.address), max_size=3)),
        digest=data.draw(_user_agents),
    )
    snapshot.partial = data.draw(st.booleans())
    extra_fields = {endpoint: data.draw(_extra_fields) for endpoint in snapshot.records if data.draw(st.booleans())}
    store.write_snapshot(snapshot, property_path, extra_fields=extra_fields)
    assert property_path.read_bytes() == _reference_file(snapshot, extra_fields)


# endpoints every file of a written series shares: one IPv4 address on two ports, IPv6, OnionCat
_SERIES_SHARED = (
    Endpoint.make("10.0.0.1"),
    Endpoint.make("10.0.0.1", 18333),
    Endpoint.make("2001:db8::7"),
    Endpoint.make("fd87:d87e:eb43:1:2:3:4:5", 9000),
)


@settings(max_examples=100)
@given(files=st.integers(2, 4), data=st.data())
def test_a_series_of_writes_matches_the_reference_writer(property_path, files, data):
    # endpoints some files share, beside the ones all share and the ones a single file holds
    others = data.draw(st.lists(_written_records.map(lambda r: r.address), max_size=6))
    for index in range(files):
        # each shared endpoint flips its status from one file to the next
        statuses = [(STATUS_ACTIVE, STATUS_INACTIVE)[(index + at) % 2] for at in range(len(_SERIES_SHARED))]
        shared = [
            replace(data.draw(_written_records), address=endpoint, status=status)
            for endpoint, status in zip(_SERIES_SHARED, statuses)
        ]
        some = [replace(data.draw(_written_records), address=e) for e in others if data.draw(st.booleans())]
        records = shared + some + data.draw(st.lists(_written_records, max_size=3))
        snapshot = make_snapshot(list({r.address: r for r in records}.values()), started_at=BASE_TS + 600 * index)
        extra_fields = {endpoint: data.draw(_extra_fields) for endpoint in snapshot.records if data.draw(st.booleans())}
        # a shared endpoint's net replaced, in a different one each file
        extra_fields.setdefault(_SERIES_SHARED[index], {})["net"] = data.draw(st.sampled_from(["tor", "ipv4", "a b"]))
        store.write_snapshot(snapshot, property_path, extra_fields=extra_fields)
        assert property_path.read_bytes() == _reference_file(snapshot, extra_fields), f"file {index}"


def test_a_second_write_of_the_same_endpoints_classifies_no_address(tmp_path, monkeypatch):
    records = [
        make_record("10.0.0.1"), make_record("2001:db8::7", status=STATUS_INACTIVE), make_record("10.0.0.1", 18333)
    ]
    first = tmp_path / f"first{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot(records), first)
    classified, classify = [], store.classify_network

    def counting(address):
        classified.append(address)
        return classify(address)

    monkeypatch.setattr(store, "classify_network", counting)
    second = tmp_path / f"second{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot(records), second)
    assert classified == []
    assert second.read_bytes() == first.read_bytes()
    flipped = [replace(records[0], status=STATUS_INACTIVE), records[1], make_record("10.0.0.9")]
    store.write_snapshot(make_snapshot(flipped), tmp_path / f"third{store.SNAPSHOT_SUFFIX}")
    assert classified == [Endpoint.make("10.0.0.9")]  # only the endpoint the last write did not hold


def test_the_writer_keeps_the_address_texts_of_the_last_snapshot_only(tmp_path):
    a, b, c, d = (make_record(f"10.0.0.{i}") for i in range(1, 5))
    path = tmp_path / f"a{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([a, b, c]), path)
    store.write_snapshot(make_snapshot([c, d]), path)
    sort_texts, address_texts = store._last_written
    assert set(sort_texts) == set(address_texts) == {c.address, d.address}
    assert sort_texts[d.address] == "10.0.0.4:8333"
    assert address_texts[d.address] == "addr:10.0.0.4 port:8333 net:ipv4"


_FULL_RECORD = make_record("2001:db8::7", user_agent="/a b:1%/", min_rtt_ms=12.5, addr_count=3)
# values that fail in both paths, for trying which of two bad fields is reported
_failing_values = ["x", "", "9" * 5000, "65536"]


@pytest.mark.parametrize(
    "tail",
    [{}, {"country": "DE", "asn": "64500", "org": "Example Org"}, {"note": "x"}],
    ids=["written", "enriched", "noted"],
)
def test_fast_path_matches_the_general_tokenizer_on_every_substitution(tail):
    fields = _reference_fields(_FULL_RECORD)
    fields.update(tail)
    pairs = [(key, store._escape(value)) for key, value in fields.items()]
    lines = [" ".join(f"{key}:{value}" for key, value in pairs)]
    assert store._parse_written_record(lines[0], 2, store._SeriesTable(), store._Memo(int)) == _FULL_RECORD
    for at, (key, _) in enumerate(pairs):
        for value in _ODD_VALUES:
            lines.append(" ".join(f"{k}:{value if i == at else v}" for i, (k, v) in enumerate(pairs)))
        for later in range(at + 1, len(pairs)):
            for first in _failing_values:
                for second in _failing_values:
                    bad = {at: first, later: second}
                    lines.append(" ".join(f"{k}:{bad.get(i, v)}" for i, (k, v) in enumerate(pairs)))
    lines += [" ".join(f"{k}:{v}" for k, v in reversed(pairs)), lines[0].replace("status:active", "status:up")]
    # after the last key: unknown keys, repeated ones, a record key, tokens that are not key:value
    without_services = " ".join(f"{k}:{v}" for k, v in pairs if k != "services")
    bad_port = lines[0].replace(" port:8333 ", " port:65536 ")
    for tail in ["note:x", "note:1 note:2", "services:5", "note:x services:5", "country:DE", "x", "", "note:x :y"]:
        lines += [f"{lines[0]} {tail}", f"{without_services} {tail}", f"{bad_port} {tail}"]
    for line in lines:
        assert repr(_outcome(_as_read, line)) == repr(_outcome(_general, line)), line
