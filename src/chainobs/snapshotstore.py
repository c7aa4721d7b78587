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
and the error names the file and the line.  Writes go to a temporary file
that is renamed over the target, so a crash never leaves a half-written
snapshot behind.

Record keys::

    addr port net status services pver ua height minrtt first_seen last_seen addrs

``net`` is derived from the address on write (ipv4/ipv6/tor) and ignored
on read.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping
from urllib.parse import quote, unquote

from .crawler import PeerRecord, Snapshot, STATUS_ACTIVE, STATUS_INACTIVE
from .enrich import classify_network
from .transport import Endpoint, _naming_file, _read_text

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


def _escape(value: str) -> str:
    if _needs_escape(value) is None:
        return value
    return quote(value, safe=_VALUE_SAFE)


def _emit(pairs: Iterable[tuple[str, str]]) -> str:
    return " ".join(f"{key}:{_escape(value)}" for key, value in pairs)


def _parse_line(line: str, lineno: int) -> dict[str, str]:
    fields: dict[str, str] = {}
    tokens = line.split(" ")
    # unquote() returns %-free text unchanged, so only an escaped line needs it
    escaped = "%" in line
    for token in tokens:
        key, sep, value = token.partition(":")
        if not sep or not key:
            raise CorruptRecordError(lineno, f"token {token!r} is not key:value")
        fields[key] = unquote(value) if escaped else value
    if len(fields) != len(tokens):
        raise CorruptRecordError(lineno, "a key appears more than once")
    return fields


def _record_fields(record: PeerRecord) -> dict[str, str]:
    fields = {
        "addr": record.address.ip,
        "port": str(record.address.port),
        "net": classify_network(record.address),
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


def write_snapshot(
    snapshot: Snapshot,
    path: str | Path,
    extra_fields: Mapping[Endpoint, Mapping[str, str]] | None = None,
) -> None:
    """Write a snapshot atomically; ``extra_fields`` adds or replaces record keys."""
    lines = [
        _emit(
            [
                ("schema", str(SCHEMA_VERSION)),
                ("kind", "header"),
                ("started_at", str(snapshot.started_at)),
                ("finished_at", str(snapshot.finished_at)),
                ("seed_count", str(len(snapshot.seeds))),
                ("seeds", ",".join(str(s) for s in snapshot.seeds)),
                ("config", snapshot.crawler_config_digest),
                ("partial", "1" if snapshot.partial else "0"),
            ]
        )
    ]
    for endpoint in sorted(snapshot.records, key=str):
        fields = _record_fields(snapshot.records[endpoint])
        if extra_fields and endpoint in extra_fields:
            fields.update(extra_fields[endpoint])
        lines.append(_emit(fields.items()))
    path = Path(path)
    # the temporary name must not match *.snap.ndrec, which load_series globs
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _require(fields: Mapping[str, str], key: str, lineno: int) -> str:
    if key not in fields:
        raise CorruptRecordError(lineno, f"missing required field {key!r}")
    return fields[key]


def _parse_record(fields: Mapping[str, str], lineno: int) -> PeerRecord:
    try:
        endpoint = Endpoint.make(_require(fields, "addr", lineno), int(_require(fields, "port", lineno)))
        status = _require(fields, "status", lineno)
        if status not in (STATUS_ACTIVE, STATUS_INACTIVE):
            raise CorruptRecordError(lineno, f"unknown status {status!r}")
        return PeerRecord(
            address=endpoint,
            status=status,
            first_seen=int(_require(fields, "first_seen", lineno)),
            last_seen=int(_require(fields, "last_seen", lineno)),
            services=int(fields["services"]) if "services" in fields else None,
            protocol_version=int(fields["pver"]) if "pver" in fields else None,
            user_agent=fields.get("ua"),
            start_height=int(fields["height"]) if "height" in fields else None,
            min_rtt_ms=float(fields["minrtt"]) if "minrtt" in fields else None,
            addr_count_returned=int(fields.get("addrs", "0")),
        )
    except CorruptRecordError:
        raise
    except (ValueError, KeyError) as exc:
        raise CorruptRecordError(lineno, str(exc)) from exc


def read_snapshot(path: str | Path) -> Snapshot:
    # a series holds dozens of files: the message names the bad one
    with _naming_file(path, SnapshotStoreError):
        return _parse_snapshot(_read_text(path, CorruptRecordError))


def _parse_snapshot(text: str) -> Snapshot:
    header: dict[str, str] | None = None
    records: dict[Endpoint, PeerRecord] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        fields = _parse_line(line, lineno)
        if header is None:
            if fields.get("kind") != "header":
                raise CorruptRecordError(lineno, "first record must be the header")
            schema = fields.get("schema")
            if schema != str(SCHEMA_VERSION):
                raise SchemaVersionUnsupportedError(f"schema {schema!r}")
            header = fields
            continue
        record = _parse_record(fields, lineno)
        records[record.address] = record
    if header is None:
        raise CorruptRecordError(1, "empty snapshot file")
    try:
        seeds = tuple(
            Endpoint.parse(token)
            for token in header.get("seeds", "").split(",")
            if token.strip()
        )
        return Snapshot(
            started_at=int(header["started_at"]),
            finished_at=int(header["finished_at"]),
            seeds=seeds,
            records=records,
            crawler_config_digest=header.get("config", ""),
            partial=header.get("partial", "0") == "1",
        )
    except (ValueError, KeyError) as exc:
        raise CorruptRecordError(1, f"bad header: {exc}") from exc


def load_series(directory: str | Path) -> list[Snapshot]:
    """Read every ``*.snap.ndrec`` under ``directory``, sorted by start time."""
    paths = sorted(Path(directory).glob(f"*{SNAPSHOT_SUFFIX}"))
    snapshots = [read_snapshot(p) for p in paths]
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
