"""Persistence round trips, corruption reporting, and snapshot diffs."""

import tempfile
from pathlib import Path
from urllib.parse import quote, unquote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainobs import snapshotstore as store
from chainobs.crawler import PeerRecord, STATUS_ACTIVE, STATUS_INACTIVE
from chainobs.transport import Endpoint
from helpers import make_record, make_snapshot


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


@pytest.mark.parametrize("failing_step", ["write", "replace"])
def test_failed_write_keeps_previous_file_and_leaves_no_stray_file(tmp_path, monkeypatch, failing_step):
    path = tmp_path / f"atomic{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(make_snapshot([make_record("10.0.0.1")]), path)
    before = path.read_bytes()
    if failing_step == "write":
        monkeypatch.setattr(store, "open", lambda *a, **k: _DiskFull(open(*a, **k)), raising=False)
    else:
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(store.os, "replace", refuse)
    bigger = make_snapshot([make_record(f"10.0.1.{i}") for i in range(1, 40)], started_at=5)
    with pytest.raises(OSError):
        store.write_snapshot(bigger, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert [s.started_at for s in store.load_series(tmp_path)] == [make_snapshot([]).started_at]


def test_corrupt_file_in_a_series_is_named(tmp_path):
    for start in (100, 200, 300):
        store.write_snapshot(
            make_snapshot([make_record("10.0.0.1")], started_at=start),
            tmp_path / f"{start}{store.SNAPSHOT_SUFFIX}",
        )
    bad = tmp_path / f"200{store.SNAPSHOT_SUFFIX}"
    bad.write_text(bad.read_text().replace("port:8333", "port:83x3"))
    with pytest.raises(store.CorruptRecordError) as err:
        store.load_series(tmp_path)
    assert err.value.line_number == 2
    assert str(bad) in str(err.value)


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
    reference = tmp_path / f"reference{store.SNAPSHOT_SUFFIX}"
    store.write_snapshot(snapshot, reference, extra_fields=extra)
    assert fast.read_bytes() == reference.read_bytes()
    assert store.read_snapshot(fast) == snapshot


def test_load_series_sorted_by_start_time(tmp_path):
    for start in (300, 100, 200):
        store.write_snapshot(
            make_snapshot([make_record("10.0.0.1")], started_at=start),
            tmp_path / f"{start}{store.SNAPSHOT_SUFFIX}",
        )
    series = store.load_series(tmp_path)
    assert [s.started_at for s in series] == [100, 200, 300]


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


def _mutate(data, edits):
    out = bytearray(data)
    for where, action, chunk in edits:
        where = min(where, len(out))
        if action == "insert":
            out[where:where] = chunk
        elif action == "delete":
            del out[where : where + 1 + len(chunk)]
        else:
            out[where : where + len(chunk)] = chunk
    return bytes(out)


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
    _read_declared_errors_only(fuzz_dir, _mutate(_VALID_SNAPSHOT, edits))
