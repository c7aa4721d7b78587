"""One integer rule at every reader: each column takes exactly its ASCII form.

The same tokens go to the ledger reader, both snapshot paths, the topology
reader, ``Endpoint.parse`` ports and the prefix table's ASNs.  ``int`` alone
would also take ``+5``, ``1_0`` or non-ASCII digits such as ``٣``; none of the
readers may.  Tokens hold no whitespace, since whitespace separates the
columns themselves.

One decimal rule likewise: a snapshot's ``minrtt`` and a topology's ``rtt_ms``
and ``slow:<ms>`` delay take a finite decimal in the form ``repr`` writes,
where ``float`` alone would also take ``nan``, ``-5``, ``1_0`` or ``٣.5``.
"""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainobs import enrich, ledger, simnet, snapshotstore
from chainobs.transport import Endpoint
from helpers import numbered_lines

UNSIGNED = re.compile(r"[0-9]+", re.ASCII)  # ledger heights, timestamps and values; ports
SIGNED = re.compile(r"-?[0-9]+", re.ASCII)  # snapshot and topology integers

_tokens = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.text(alphabet="0123456789-+_.xe٣²١５", max_size=6),
)
DECIMAL = re.compile(r"[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?", re.ASCII)  # minrtt and topology floats
_decimal_tokens = st.one_of(
    st.floats(allow_nan=True).map(repr),
    st.text(alphabet="0123456789-+_.eEinfa٣５", max_size=8),
)


def _value(read, token):
    """What ``read(token)`` gives, or None when the reader rejects the token with its declared error."""
    try:
        return read(token)
    except (ledger.LedgerFormatError, snapshotstore.SnapshotStoreError, ValueError):
        return None


def _ledger_height(token):
    return ledger._parse_ledger(numbered_lines(f"cb1 {token} 1600 1 - - addr1:5\n"))[0].height


def _ledger_value(token):
    return ledger._parse_ledger(numbered_lines(f"cb1 0 1600 1 - - addr1:{token}\n"))[0].outputs[0][1]


_HEADER = "schema:1 kind:header started_at:1600000000 finished_at:1600000060 seed_count:0 seeds: config:cafe partial:0"
_RECORD = (
    "addr:10.0.0.1 port:8333 net:ipv4 status:active services:9 pver:70015 ua:/peer/ height:600000 "
    "minrtt:20.0 first_seen:1600000000 last_seen:1600000060 addrs:0"
)


_RECORD_ATTRIBUTES = {  # record key -> PeerRecord field
    "services": "services",
    "pver": "protocol_version",
    "height": "start_height",
    "first_seen": "first_seen",
    "last_seen": "last_seen",
    "addrs": "addr_count_returned",
}


def _snapshot(text):
    return snapshotstore._parse_snapshot(numbered_lines(text), snapshotstore._SeriesTable())


def _record_field(key, general):
    """Read ``key:token`` in an otherwise written record line; ``general`` adds a key
    that only the general tokenizer reads, so the fast pattern cannot take the line."""

    def read(token):
        line = " ".join(f"{key}:{token}" if t.startswith(f"{key}:") else t for t in _RECORD.split(" "))
        [record] = _snapshot(f"{_HEADER}\n{line}{' note:x' if general else ''}\n").records.values()
        return record.address.port if key == "port" else getattr(record, _RECORD_ATTRIBUTES[key])

    return read


def _header_started_at(token):
    return _snapshot(_HEADER.replace("started_at:1600000000", f"started_at:{token}") + "\n").started_at


def _topology(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "t.topo")
        path.write_text(text)
        return simnet.load_topology(path)


def _topology_rng_seed(token):
    return _topology(f"@rng_seed {token}\n10.0.0.1:8333 normal 9 600000 20 -\n").rng_seed


def _topology_start_height(token):
    return _topology(f"10.0.0.1:8333 normal 9 {token} 20 -\n").peers[0].start_height


def _record_rtt(general):
    """Read ``minrtt:token`` in an otherwise written record line, on the fast or the general path."""

    def read(token):
        line = _RECORD.replace("minrtt:20.0", f"minrtt:{token}")
        [record] = _snapshot(f"{_HEADER}\n{line}{' note:x' if general else ''}\n").records.values()
        return record.min_rtt_ms

    return read


def _topology_rtt(token):
    return _topology(f"10.0.0.1:8333 normal 9 600000 {token} -\n").peers[0].rtt_ms


def _topology_slow_delay(token):
    return _topology(f"10.0.0.1:8333 slow:{token} 9 600000 20 -\n").peers[0].slow_delay_ms


def _endpoint_port(token):
    return Endpoint.parse(f"10.0.0.1:{token}").port


def _prefix_table_asn(token):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "prefixes.csv")
        path.write_text(f"10.0.0.0/8,US,{token},Org\n", encoding="utf-8")
        return enrich.IpMetadataTable.from_csv(path).lookup("10.0.0.1").asn


# reader, the form its column takes, and the range of values it keeps
_READERS = {
    "ledger height": (_ledger_height, UNSIGNED, None),
    "ledger value": (_ledger_value, UNSIGNED, None),
    **{
        f"snapshot {key} {path}": (_record_field(key, path == "general"), SIGNED, None)
        for key in _RECORD_ATTRIBUTES
        for path in ("fast", "general")
    },
    **{
        f"snapshot port {path}": (_record_field("port", path == "general"), UNSIGNED, range(0, 65536))
        for path in ("fast", "general")
    },
    "snapshot header started_at": (_header_started_at, SIGNED, None),
    "topology @rng_seed": (_topology_rng_seed, SIGNED, None),
    "topology start height": (_topology_start_height, SIGNED, range(-(2**31), 2**31)),
    "Endpoint.parse port": (_endpoint_port, UNSIGNED, range(0, 65536)),
    "prefix table asn": (_prefix_table_asn, UNSIGNED, None),
}


@pytest.mark.parametrize("reader", list(_READERS))
@settings(max_examples=150, deadline=None)
@given(token=_tokens)
@example(token="+5")
@example(token="1_0")
@example(token="٣")
@example(token="-0")
@example(token="007")
@example(token="")
def test_each_reader_takes_exactly_the_ascii_form_of_its_column(reader, token):
    read, form, kept = _READERS[reader]
    expected = None
    if form.fullmatch(token) and (kept is None or int(token) in kept):
        expected = int(token)
    assert _value(read, token) == expected


# reader and whether it keeps 0; each keeps only finite values, none negative
_DECIMAL_READERS = {
    "snapshot minrtt fast": (_record_rtt(False), False),
    "snapshot minrtt general": (_record_rtt(True), False),
    "topology rtt_ms": (_topology_rtt, True),
    "topology slow delay": (_topology_slow_delay, True),  # "slow:" is rejected, not "slow"
}


@pytest.mark.parametrize("reader", list(_DECIMAL_READERS))
@settings(max_examples=150, deadline=None)
@given(token=_decimal_tokens)
@example(token="nan")
@example(token="-5")
@example(token="inf")
@example(token="1_0")
@example(token="٣.5")
@example(token="٣٠٠")
@example(token="+2")
@example(token="0")
@example(token="1e999")
@example(token="1e-06")
@example(token="1e+16")
@example(token="")
def test_each_reader_takes_exactly_the_ascii_decimal_form(reader, token):
    read, keeps_zero = _DECIMAL_READERS[reader]
    expected = None
    if DECIMAL.fullmatch(token) and float(token) < float("inf") and (keeps_zero or float(token) > 0):
        expected = float(token)
    assert _value(read, token) == expected


@pytest.mark.parametrize(
    "line, reason",
    [
        ("10.0.0.1:8333 normal 9 0 1_0 -", "rtt_ms '1_0' is not a finite decimal in ASCII digits"),
        ("10.0.0.1:8333 normal 9 0 ٣ -", "rtt_ms '٣' is not a finite decimal in ASCII digits"),
        ("10.0.0.1:8333 normal 9 0 1e999 -", "rtt_ms '1e999' is not a finite decimal in ASCII digits"),
        ("10.0.0.1:8333 slow:٣٠٠ 9 0 20 -", "slow delay '٣٠٠' is not a finite decimal in ASCII digits"),
        ("10.0.0.1:8333 slow:+300 9 0 20 -", "slow delay '+300' is not a finite decimal in ASCII digits"),
        ("10.0.0.1:8333 slow: 9 0 20 -", "slow delay '' is not a finite decimal in ASCII digits"),
        ("10.0.0.1:8333 normal: 9 0 20 -", "only slow takes a delay parameter: 'normal:'"),
    ],
    ids=[
        "rtt-underscore", "rtt-arabic-indic", "rtt-overflow", "delay-arabic-indic", "delay-plus", "delay-empty",
        "normal-colon",
    ],
)
def test_topology_decimal_errors_name_the_file_and_the_line(tmp_path, line, reason):
    path = tmp_path / "bad.topo"
    path.write_text(f"@rng_seed 1\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        simnet.load_topology(path)
    assert str(err.value) == f"{path}: line 2: {reason}"
