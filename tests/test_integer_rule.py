"""One integer rule at every reader: each column takes exactly its ASCII form.

The same tokens go to the ledger reader, both snapshot paths, the topology
reader and ``Endpoint.parse`` ports.  ``int`` alone would also take ``+5``,
``1_0`` or non-ASCII digits such as ``٣``; none of the readers may.  Tokens
hold no whitespace, since whitespace separates the columns themselves.
"""

import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainobs import ledger, simnet, snapshotstore
from chainobs.transport import Endpoint
from helpers import numbered_lines

UNSIGNED = re.compile(r"[0-9]+", re.ASCII)  # ledger heights, timestamps and values; ports
SIGNED = re.compile(r"-?[0-9]+", re.ASCII)  # snapshot and topology integers

_tokens = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.text(alphabet="0123456789-+_.xe٣²١５", max_size=6),
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


def _endpoint_port(token):
    return Endpoint.parse(f"10.0.0.1:{token}").port


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
