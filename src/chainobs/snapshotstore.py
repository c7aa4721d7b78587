"""Snapshot persistence and snapshot-to-snapshot diffing.

Snapshots are stored as newline-delimited self-describing records
(``.snap.ndrec``): UTF-8 text, one record per line, each record a sequence
of space-separated ``key:value`` pairs.  The first line is a header record
(``kind:header``) carrying schema version, crawl timestamps, the seed list,
and the crawler config digest; every following line is one peer record,
sorted by canonical address string.  A value holding a space, ``%``, a
control character or non-ASCII text is percent-escaped, so user agents may
contain spaces; any other value is written verbatim, since escaping would
not change it.
Unknown keys are ignored on read, which is the forward-compatibility hook
the enrichment step uses to append country/AS columns without breaking older
readers.  A record holds each key at most once; a repeated key makes the
record corrupt, as do bytes that are not UTF-8 and a port outside 0-65535,
and the error names the file and its first bad line.  A snapshot holds each
endpoint once: a second record for it, in any spelling of the address, is
corrupt and names the line of the first.  In the header, ``partial`` is
``0`` or ``1`` and ``seed_count`` equals the number of seeds; either key may
be missing.  The header is judged whole when it is read, so a fault in it
is reported on its line before any record is read.  Every integer, in a
record or the header, is written ``-?[0-9]+`` in ASCII and a port in ASCII
digits; ``+5``, ``1_0`` or ``٣``, which ``int`` would take, make the line
corrupt, as does a ``minrtt`` that is not a finite decimal > 0 as ``repr``
writes one (``nan``, ``-5``, ``0``).  Writes go to a temporary file renamed
over the target, so a crash never leaves a half-written snapshot behind.

The writer builds the header and each record line as one f-string: only
the text values (``seeds`` and ``config`` in the header; ``addr``,
``status`` and ``ua`` in a record) can need escaping, and each distinct
status word and user agent is escaped once per file.  The writer keeps,
for the endpoints of the last snapshot it wrote, each one's sort text and
its ``addr port net`` text; the next write takes those and renders only
the endpoints new to it, so a series written by one process (``crawl
--repeat``) renders an address once, not once per file.  Extra fields
replace a key of the line in place or are appended after it.

A record line in the shape :func:`write_snapshot` emits (its keys in the
order below, integers in ASCII digits, no escape in ``addr``, ``minrtt``
in decimal form), optionally followed by the ``country asn org`` keys that
``chainobs enrich`` appends, is read by one precompiled pattern.  Keys after
the match are tokenized on their own and ignored, unless one of them is a
key the pattern reads.  Such a line, and any other, such as a hand-edited
record, goes through the general ``key:value`` tokenizer, with the same
result or the same error.

A series read by :func:`load_series` parses each shared value once: the
``addr`` and ``port`` text of a record becomes one :class:`Endpoint`, each
``ua`` text one unescaped string and each header seed token one
:class:`Endpoint`, and every later record or header with the same text holds
the same object.  Each table is a :class:`~chainobs.transport._Memo`, whose
builder holds no reference to the table's owner, and lives only as long as
the call.  Within one file, the reader also takes each integer of a record
in the written shape from a table of that file's integer texts, so a
``last_seen`` written equal to its ``first_seen``, or a ``services``,
``pver`` or ``height`` that many peers share, is one ``int`` object; that
table lives only as long as the file's read.  Every record read holds the
crawler's ``STATUS_ACTIVE`` or ``STATUS_INACTIVE`` string itself, not a
copy.  With :class:`~chainobs.crawler.PeerRecord` slotted, a series read
holds about 220 bytes per record on the bench's census series.

Record keys::

    addr port net status services pver ua height minrtt first_seen last_seen addrs

``net`` is derived from the address on write (ipv4/ipv6/tor) and ignored
on read.
"""

from __future__ import annotations

import math
import re
from contextlib import closing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping
from urllib.parse import quote, unquote

from .crawler import PeerRecord, Snapshot, STATUS_ACTIVE, STATUS_INACTIVE
from .enrich import classify_network
from .transport import _DECIMAL, Endpoint, _Memo, _decimal, _int, _lines, _naming_file, _port, _write_text

SCHEMA_VERSION = 1
SNAPSHOT_SUFFIX = ".snap.ndrec"


class SnapshotStoreError(Exception):
    pass


class SchemaVersionUnsupportedError(SnapshotStoreError):
    pass


class CorruptRecordError(SnapshotStoreError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


class OutOfOrderError(SnapshotStoreError):
    """diff() called with snapshots in the wrong temporal order."""


@dataclass(frozen=True)
class SnapshotDiff:
    """Churn between two snapshots, computed on active nodes only."""

    joined: frozenset[Endpoint]
    left: frozenset[Endpoint]
    stayed: frozenset[Endpoint]


# Values keep every printable ASCII character except space and the escape
# character itself; controls and non-ASCII are percent-encoded, which keeps
# one record per physical line no matter what a peer put in its user agent.
_VALUE_SAFE = "".join(chr(c) for c in range(0x21, 0x7F) if chr(c) != "%")
# Finds a character outside _VALUE_SAFE.  Almost every value (ints, IP text,
# status words, digests) has none, and quote() would return it unchanged.
_needs_escape = re.compile(r"[^\x21-\x24\x26-\x7e]").search
_is_key = re.compile(r"[\x21-\x39\x3b-\x7e]+").fullmatch  # what _parse_line reads before a ':'


def _escape(value: str) -> str:
    if _needs_escape(value) is None:
        return value
    return quote(value, safe=_VALUE_SAFE)


def _unescape(value: str) -> str:
    # unquote() returns %-free text unchanged, so only an escaped value needs it
    return unquote(value) if "%" in value else value


def _parse_line(line: str, lineno: int) -> dict[str, str]:
    fields: dict[str, str] = {}
    tokens = line.split(" ")
    for token in tokens:
        key, sep, value = token.partition(":")
        if not sep or not key:
            raise CorruptRecordError(lineno, f"token {token!r} is not key:value")
        fields[key] = _unescape(value)
    if len(fields) != len(tokens):
        raise CorruptRecordError(lineno, "a key appears more than once")
    return fields


def _record_line(record: PeerRecord, address_text: str, escaped: _Memo) -> str:
    """The record's line, keys in the order of the module docstring, after ``address_text``
    (the ``addr port net`` keys).  ``escaped`` is the file's ``_Memo(_escape)``: a crawl's
    records share two status words and a few dozen user agents."""
    line = f"{address_text} status:{escaped[record.status]}"
    if record.services is not None:
        line += f" services:{record.services}"
    if record.protocol_version is not None:
        line += f" pver:{record.protocol_version}"
    if record.user_agent is not None:
        line += f" ua:{escaped[record.user_agent]}"
    if record.start_height is not None:
        line += f" height:{record.start_height}"
    if record.min_rtt_ms is not None:
        line += f" minrtt:{record.min_rtt_ms!r}"
    return f"{line} first_seen:{record.first_seen} last_seen:{record.last_seen} addrs:{record.addr_count_returned}"


def _with_extra(line: str, extra: Mapping[str, str]) -> str:
    """``line`` with each ``extra`` key's value replaced in place, or appended for a new key."""
    # a key holds no ':', so a token's first ':' ends its key
    fields = dict(token.split(":", 1) for token in line.split(" "))
    for key, value in extra.items():
        fields[key] = _escape(value)
    return " ".join(f"{key}:{value}" for key, value in fields.items())


# For the endpoints of the last snapshot written: each one's sort text (str) and its
# ``addr port net`` text.  Successive crawls of a series hold almost the same
# endpoints, so a write takes most texts from here and builds only the new ones;
# then its own tables replace these, so they never hold more than one snapshot's
# endpoints.  Every entry is a pure function of its key (str, _escape, and
# classify_network without Tor exits), so a write that reads another thread's
# tables still writes the same bytes.
_last_written: tuple[dict[Endpoint, str], dict[Endpoint, str]] = ({}, {})


def write_snapshot(
    snapshot: Snapshot,
    path: str | Path,
    extra_fields: Mapping[Endpoint, Mapping[str, str]] | None = None,
) -> None:
    """Write a snapshot atomically; ``extra_fields`` adds or replaces record keys.  A key
    outside 0x21-0x7E or holding ``:`` raises ValueError before any file is touched."""
    global _last_written
    for key in dict.fromkeys(key for extra in (extra_fields or {}).values() for key in extra):
        if not _is_key(key):
            raise ValueError(f"extra field key {key!r} is not printable ASCII without space or ':'")
    seeds = ",".join(str(s) for s in snapshot.seeds)
    lines = [
        f"schema:{SCHEMA_VERSION} kind:header started_at:{snapshot.started_at} finished_at:{snapshot.finished_at}"
        f" seed_count:{len(snapshot.seeds)} seeds:{_escape(seeds)} config:{_escape(snapshot.crawler_config_digest)}"
        f" partial:{1 if snapshot.partial else 0}"
    ]
    last_sort_texts, last_address_texts = _last_written
    records = snapshot.records
    # str keys, not (text, endpoint) tuples: the same order as sorting by str, on sort's str fast path
    sort_texts = {endpoint: last_sort_texts.get(endpoint) or str(endpoint) for endpoint in records}
    address_texts: dict[Endpoint, str] = {}
    escaped = _Memo(_escape)
    for endpoint in sorted(records, key=sort_texts.__getitem__):
        record = records[endpoint]
        address = record.address
        text = address_texts[address] = last_address_texts.get(address) or (
            f"addr:{_escape(address.ip)} port:{address.port} net:{classify_network(address)}"
        )
        line = _record_line(record, text, escaped)
        if extra_fields and endpoint in extra_fields:
            line = _with_extra(line, extra_fields[endpoint])
        lines.append(line)
    _last_written = sort_texts, address_texts
    _write_text(path, "\n".join(lines) + "\n")


def _require(fields: Mapping[str, str], key: str, lineno: int) -> str:
    if key not in fields:
        raise CorruptRecordError(lineno, f"missing required field {key!r}")
    return fields[key]


@dataclass
class _SeriesTable:
    """Values a series shares across its files, each parsed once per series.

    ``endpoints``: ``(addr, port)`` text -> Endpoint; ``user_agents``: written
    ``ua`` text -> its unescaped text; ``seeds``: a header's seed token -> its
    Endpoint.  A value that fails to parse raises before it is stored.
    """

    endpoints: _Memo = field(default_factory=lambda: _Memo(lambda key: Endpoint.make(key[0], _port(key[1]))))
    user_agents: _Memo = field(default_factory=lambda: _Memo(_unescape))
    seeds: _Memo = field(default_factory=lambda: _Memo(Endpoint.parse))


# each status text read -> the crawler's constant, which every read record then shares
_STATUSES = {status: status for status in (STATUS_ACTIVE, STATUS_INACTIVE)}


def _parse_record(fields: Mapping[str, str], lineno: int, endpoints: _Memo) -> PeerRecord:
    try:
        endpoint = endpoints[_require(fields, "addr", lineno), _require(fields, "port", lineno)]
        status = _require(fields, "status", lineno)
        if status not in _STATUSES:
            raise CorruptRecordError(lineno, f"unknown status {status!r}")
        return PeerRecord(
            address=endpoint,
            status=_STATUSES[status],
            first_seen=_int(_require(fields, "first_seen", lineno), "first_seen"),
            last_seen=_int(_require(fields, "last_seen", lineno), "last_seen"),
            services=_int(fields["services"], "services") if "services" in fields else None,
            protocol_version=_int(fields["pver"], "pver") if "pver" in fields else None,
            user_agent=fields.get("ua"),
            start_height=_int(fields["height"], "height") if "height" in fields else None,
            min_rtt_ms=_decimal(fields["minrtt"], "minrtt", positive=True) if "minrtt" in fields else None,
            addr_count_returned=_int(fields.get("addrs", "0"), "addrs"),
        )
    except ValueError as exc:
        raise CorruptRecordError(lineno, str(exc)) from exc


# A record line exactly as _record_line writes it: keys in that order, a
# known status, integers in ASCII digits, no escape in addr, a minrtt in the
# decimal form repr writes, and optionally the country/asn/org keys that
# `chainobs enrich` appends (unknown keys, which the reader ignores).  On such
# a line _parse_line would keep every value but ua verbatim, so the line skips
# it and _parse_record; any other line goes through both.
_INT = "(-?[0-9]+)"
_WRITTEN_RECORD = re.compile(
    rf"addr:([^ %]*) port:([0-9]+) net:[^ ]* status:({STATUS_ACTIVE}|{STATUS_INACTIVE})"
    rf"(?: services:{_INT})?(?: pver:{_INT})?(?: ua:([^ ]*))?(?: height:{_INT})?(?: minrtt:({_DECIMAL}))?"
    rf" first_seen:{_INT} last_seen:{_INT} addrs:{_INT}(?: country:[^ ]* asn:[^ ]* org:[^ ]*)?"
)


# Keys _WRITTEN_RECORD reads.  One of them after the match would be read by
# _parse_record, or repeat a key, so such a line takes the general path.
_PATTERN_KEYS = frozenset(re.findall(r"([a-z_]+):", _WRITTEN_RECORD.pattern))


def _parse_written_record(line: str, lineno: int, table: _SeriesTable, ints: _Memo) -> PeerRecord | None:
    """The record of a line in the written shape, or None for any other line.  Each integer
    is taken from ``ints``, the file's ``_Memo(int)``: in a crawl's file most texts recur."""
    # match() and an end check, not fullmatch(): the pattern's first try is the
    # only one that can reach the end, and a line with other keys after addrs
    # then fails at once instead of backtracking through every value
    match = _WRITTEN_RECORD.match(line)
    if match is None:
        return None
    end = match.end()
    if end != len(line):
        # keys the reader ignores may follow; tokenized before the record is built,
        # a bad one raises what _parse_line raises on the whole line
        if line[end] != " " or not _PATTERN_KEYS.isdisjoint(_parse_line(line[end + 1 :], lineno)):
            return None
    addr, port, status, services, pver, ua, height, minrtt, first_seen, last_seen, addrs = match.groups()
    rtt = float(minrtt) if minrtt is not None else None
    if rtt is not None and not 0 < rtt < math.inf:
        return None  # 0, or past the float range: the general path reports it
    try:
        # positional, in field order: the arguments are evaluated in _parse_record's order
        return PeerRecord(
            table.endpoints[addr, port],
            _STATUSES[status],
            ints[first_seen],
            ints[last_seen],
            ints[services] if services is not None else None,
            ints[pver] if pver is not None else None,
            table.user_agents[ua] if ua is not None else None,
            ints[height] if height is not None else None,
            rtt,
            ints[addrs],
        )
    except ValueError as exc:
        raise CorruptRecordError(lineno, str(exc)) from exc


def read_snapshot(path: str | Path, *, _table: _SeriesTable | None = None) -> Snapshot:
    # _table: what load_series shares across its files
    # a series holds dozens of files: the message names the bad one
    with _naming_file(path, SnapshotStoreError), closing(_lines(path, CorruptRecordError)) as lines:
        return _parse_snapshot(lines, _SeriesTable() if _table is None else _table)


def _parse_header(lines: Iterator[tuple[int, str]], seed_table: _Memo) -> Snapshot:
    """The snapshot the first non-blank line of ``lines`` describes, with no records yet; a fault
    in that header raises on its line before any later line is read."""
    lineno, line = next(((n, text) for n, text in lines if text.strip()), (1, ""))
    if not line:
        raise CorruptRecordError(1, "empty snapshot file")
    header = _parse_line(line, lineno)
    if header.get("kind") != "header":
        raise CorruptRecordError(lineno, "first record must be the header")
    schema = header.get("schema")
    if schema != str(SCHEMA_VERSION):
        raise SchemaVersionUnsupportedError(f"schema {schema!r}")
    try:
        seeds = tuple(seed_table[token] for token in header.get("seeds", "").split(",") if token.strip())
        if "seed_count" in header and _int(header["seed_count"], "seed_count") != len(seeds):
            raise ValueError(f"seed_count {header['seed_count']} but seeds lists {len(seeds)}")
        partial = header.get("partial", "0")
        if partial not in ("0", "1"):
            raise ValueError(f"partial {partial!r} is not 0 or 1")
        return Snapshot(
            started_at=_int(_require(header, "started_at", lineno), "started_at"),
            finished_at=_int(_require(header, "finished_at", lineno), "finished_at"),
            seeds=seeds,
            records={},
            crawler_config_digest=header.get("config", ""),
            partial=partial == "1",
        )
    except ValueError as exc:
        raise CorruptRecordError(lineno, f"bad header: {exc}") from exc


def _parse_snapshot(lines: Iterable[tuple[int, str]], table: _SeriesTable) -> Snapshot:
    lines = iter(lines)
    snapshot = _parse_header(lines, table.seeds)
    records = snapshot.records
    record_lines: list[int] = []  # the line of each record, in the order of records
    ints = _Memo(int)  # one file's integer texts: bounded by its distinct values
    for lineno, line in lines:
        record = _parse_written_record(line, lineno, table, ints)
        if record is None:
            if not line.strip():
                continue
            record = _parse_record(_parse_line(line, lineno), lineno, table.endpoints)
        if records.setdefault(record.address, record) is not record:
            first = record_lines[list(records).index(record.address)]
            raise CorruptRecordError(lineno, f"{record.address} repeats line {first}")
        record_lines.append(lineno)
    return snapshot


def series_path(directory: Path, started_at: int) -> Path:
    """A free name in ``directory`` for a crawl started at ``started_at``: ``<UTC second>.snap.ndrec``,
    or after crawls of that second ``<second>_0001.snap.ndrec``, ... (:func:`load_series` order)."""
    stamp = datetime.fromtimestamp(started_at, tz=timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path, suffix = directory / f"{stamp}{SNAPSHOT_SUFFIX}", 0
    while path.exists():
        suffix += 1
        path = directory / f"{stamp}_{suffix:04d}{SNAPSHOT_SUFFIX}"
    return path


def load_series(directory: str | Path) -> list[Snapshot]:
    """Read every ``*.snap.ndrec`` under ``directory``, sorted by start time, then by file name."""
    paths = sorted(Path(directory).glob(f"*{SNAPSHOT_SUFFIX}"))
    # one table for the whole call: each address and user agent is parsed once per series
    table = _SeriesTable()
    snapshots = [read_snapshot(p, _table=table) for p in paths]
    snapshots.sort(key=lambda s: s.started_at)
    return snapshots


def diff(a: Snapshot, b: Snapshot) -> SnapshotDiff:
    """Set algebra over the active nodes of two consecutive snapshots."""
    if a.started_at > b.started_at:
        raise OutOfOrderError(f"{a.started_at} > {b.started_at}")
    active_a = a.active_addresses()
    active_b = b.active_addresses()
    return SnapshotDiff(
        joined=frozenset(active_b - active_a),
        left=frozenset(active_a - active_b),
        stayed=frozenset(active_a & active_b),
    )
