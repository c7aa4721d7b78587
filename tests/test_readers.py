"""Every input file is read as a stream of numbered lines through ``transport._lines``.

The line rule is checked against a reference built from ``bytes.split``.  Each
reader reports the first bad line in the file, whatever its fault, and closes
its file when an error stops it part-way.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainobs import crawler, enrich, ledger, simnet, snapshotstore
from chainobs.transport import _content_lines, _lines
from helpers import mutate


class _LineFault(Exception):
    """A reader's own error type, built as ``_LineFault(line number, reason)``."""


def _reference_lines(data):
    """The pieces of ``data`` between newline bytes, numbered from 1: a ``\\r`` just before a
    newline is dropped, and the empty piece after a final newline (or of an empty file) is no line."""
    *ended, last = data.split(b"\n")
    pieces = [piece.removesuffix(b"\r") for piece in ended] + ([last] if last else [])
    return list(enumerate(pieces, start=1))


def _read_all(path, error=None):
    """The lines ``_lines`` yields, and the error that stopped it, if any."""
    got = []
    try:
        for line in _lines(path, error):
            got.append(line)
    except (ValueError, _LineFault) as exc:
        return got, exc
    return got, None


_chunks = st.one_of(
    st.sampled_from([b"\n", b"\r", b"\r\n", b"\x0c", b"\xe2\x80\xa8", b"\xc3\xa9", b"\xff", b"\xc3"]),
    st.text(st.characters(max_codepoint=127), max_size=3).map(str.encode),
)


@pytest.fixture(scope="module")
def line_file(tmp_path_factory):
    return tmp_path_factory.mktemp("lines") / "lines.txt"


def _assert_lines_match_the_reference(path, data, named):
    path.write_bytes(data)
    expected, fault = [], None
    for lineno, piece in _reference_lines(data):
        try:
            expected.append((lineno, piece.decode("utf-8")))
        except UnicodeDecodeError:
            fault = lineno
            break
    got, exc = _read_all(path, _LineFault if named else None)
    assert got == expected  # every line before the bad one is yielded first
    if fault is None:
        assert exc is None
    elif named:
        assert isinstance(exc, _LineFault) and exc.args == (fault, "not UTF-8")
    else:
        assert type(exc) is ValueError and str(exc) == f"{path}: line {fault}: not UTF-8"


@settings(max_examples=400)
@given(data=st.lists(_chunks, max_size=12).map(b"".join), named=st.booleans())
def test_lines_match_a_reference_built_from_split(line_file, data, named):
    _assert_lines_match_the_reference(line_file, data, named)


@pytest.mark.parametrize("offset", [-2, -1, 0, 1])
@pytest.mark.parametrize("piece", [b"\r\n", b"\n", b"\r", b"\xc3\xa9", b"\xff", b"\n\xff", b"\xff\n"])
def test_lines_match_the_reference_across_a_64k_read(line_file, offset, piece):
    """The file is read 64 KiB at a time: a piece around the end of a read, in a long line or
    among short ones, reads as anywhere else."""
    for filler in (b"x" * 70_000, b"ab\n" * 30_000):
        head = filler[: (1 << 16) + offset]
        _assert_lines_match_the_reference(line_file, head + piece + b"tail\r\n" + filler[:100_000], named=False)


@pytest.mark.parametrize(
    "data, lines",
    [
        (b"", []),
        (b"\n", [(1, "")]),
        (b"a", [(1, "a")]),
        (b"a\r\nb\r\n", [(1, "a"), (2, "b")]),
        (b"a\r\r\n", [(1, "a\r")]),  # one carriage return goes with the newline
        (b"a\rb\n", [(1, "a\rb")]),  # a lone carriage return is text
        (b"a\nb\r", [(1, "a"), (2, "b\r")]),  # a final one with no newline after it stays
        (b"\x0c\n\xe2\x80\xa8\n", [(1, "\x0c"), (2, " ")]),  # only a newline ends a line
    ],
)
def test_lines_end_at_a_newline_only(line_file, data, lines):
    line_file.write_bytes(data)
    assert list(_lines(line_file)) == lines


def test_content_lines_drop_comments_and_blank_lines(line_file):
    line_file.write_bytes(b"# head\n  a  # note\r\n\n \t\nb#\n")
    assert list(_content_lines(line_file)) == [(2, "a"), (5, "b")]


_HEADER = b"schema:1 kind:header started_at:1600000000 finished_at:1600000060 seeds: config:cafe"


def _record(ip, port=b"8333"):
    return b"addr:%s port:%s status:discovered_inactive first_seen:1600000000 last_seen:1600000000 addrs:0" % (ip, port)


# name -> (reader, a first line, a good line, a bad line); the first line heads every file
READERS = {
    "snapshot": (snapshotstore.read_snapshot, _HEADER, _record(b"10.0.0.1"), _record(b"10.0.0.2", b"x")),
    "ledger": (ledger.read_ledger, b"cb 0 0 1 - - a:5", b"cb2 0 0 1 - - b:5", b"t1 1 2"),
    "tagmap": (ledger.PoolTagMap.from_file, b"[tags]", b"/pool/\tPool", b"no tab here"),
    "prefix-csv": (
        enrich.IpMetadataTable.from_csv, b"10.0.0.0/8,US,64500,Alpha", b"20.0.0.0/8,DE,64501,Beta", b"30.0.0.0/8,FR"
    ),
    "seeds": (crawler.bootstrap_seeds, b"10.0.0.1", b"10.0.0.3", b"10.0.0.2:99999"),
    "topology": (
        simnet.load_topology,
        b"10.0.0.1:8333 normal 9 600000 25 -",
        b"10.0.0.3:8333 normal 9 0 0 -",
        b"10.0.0.2:8333 bogus 9 0 0 -",
    ),
    "tor-exits": (enrich.load_tor_exits, b"10.0.0.1", b"10.0.0.3", b"not-an-ip"),
}
_ERRORS = (ValueError, ledger.LedgerError, snapshotstore.SnapshotStoreError)


def _write(tmp_path, first, *lines, end=b"\n", name="input.txt"):
    path = tmp_path / name
    path.write_bytes(end.join((first, *lines)) + end)
    return path


def _comparable(value):
    return vars(value) if isinstance(value, enrich.IpMetadataTable) else value


@pytest.mark.parametrize("name", READERS)
def test_each_reader_reads_a_crlf_file_as_its_lf_copy(tmp_path, name):
    read, first, good, _ = READERS[name]
    lf = read(_write(tmp_path, first, good))  # so each fault below is the only one on its line
    assert _comparable(read(_write(tmp_path, first, good, end=b"\r\n", name="crlf.txt"))) == _comparable(lf)


def test_a_quoted_prefix_csv_field_across_a_crlf_line_end_reads_as_across_lf(tmp_path):
    lf = _write(tmp_path, b'10.0.0.0/8,US,1,"Al', b'pha"')
    crlf = _write(tmp_path, b'10.0.0.0/8,US,1,"Al', b'pha"', end=b"\r\n", name="crlf.csv")
    assert enrich.IpMetadataTable.from_csv(crlf).lookup("10.1.1.1").org == "Alpha"
    assert vars(enrich.IpMetadataTable.from_csv(crlf)) == vars(enrich.IpMetadataTable.from_csv(lf))


@pytest.mark.parametrize("name", READERS)
def test_a_format_error_before_a_bad_byte_is_reported(tmp_path, name):
    read, first, good, bad = READERS[name]
    path = _write(tmp_path, first, bad, good, b"\xff")
    with pytest.raises(_ERRORS) as err:
        read(path)
    assert str(err.value).startswith(f"{path}: line 2: ")
    assert "UTF-8" not in str(err.value)


@pytest.mark.parametrize("name", READERS)
def test_a_bad_byte_before_a_format_error_is_reported_once(tmp_path, name):
    read, first, good, bad = READERS[name]
    path = _write(tmp_path, first, b"# \xff", good, bad)
    with pytest.raises(_ERRORS) as err:
        read(path)
    assert str(err.value) == f"{path}: line 2: not UTF-8"


def _open_files():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open files through /proc")
@pytest.mark.parametrize("fault", ["format", "utf8"])
@pytest.mark.parametrize("name", READERS)
def test_a_reader_stopped_by_an_error_has_closed_its_file(tmp_path, name, fault):
    read, first, good, bad = READERS[name]
    path = _write(tmp_path, first, bad if fault == "format" else b"\xff", good, good, good)
    before = _open_files()
    try:
        read(path)
    except _ERRORS:
        # the error, and every frame its traceback holds, is still alive here
        assert _open_files() == before
    else:
        pytest.fail("the reader took a bad line")


# --- fuzz: each reader raises only its declared error ---------------------------------


_DECLARED = {"snapshot": snapshotstore.SnapshotStoreError, "ledger": ledger.LedgerError, "tagmap": ledger.LedgerError}
_edits = st.lists(
    st.tuples(st.integers(0, 200), st.sampled_from(["put", "insert", "delete"]), st.binary(max_size=4)),
    min_size=1,
    max_size=6,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader-fuzz")


@settings(max_examples=60)
@pytest.mark.parametrize("name", READERS)
@given(edits=_edits)
def test_each_reader_raises_only_its_declared_error_on_a_mutated_good_file(fuzz_dir, name, edits):
    read, first, good, _ = READERS[name]
    path = fuzz_dir / name
    path.write_bytes(mutate(first + b"\n" + good + b"\n", edits))
    try:
        read(path)
    except _DECLARED.get(name, ValueError):
        pass
