"""Endpoint classification and offline country/AS annotation.

Network classes are ``ipv4``, ``ipv6``, and ``tor``; onion peers gossip as
OnionCat-encoded IPv6 inside ``fd87:d87e:eb43::/48``, and membership in a
Tor exit list upgrades any address to ``tor``.

Country/ASN metadata comes from plain CSV mapping files with rows of
``prefix,country,asn,org`` (``#`` comments allowed, no header required).
Lookups are longest-prefix matches, deterministic by construction: within
one prefix length there is at most one entry, and when several files are
loaded the first-listed file wins conflicting prefixes while a disagreement
counter records how often the sources differed.
"""

from __future__ import annotations

import csv
import ipaddress
import logging
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Iterable

from .transport import _content_lines, _lines
from .wirecodec import V4_MAPPED_PREFIX, bytes16_to_ip, canonical_ip, ip_to_bytes16

if TYPE_CHECKING:
    from .crawler import Snapshot
    from .transport import Endpoint

log = logging.getLogger(__name__)

NET_IPV4 = "ipv4"
NET_IPV6 = "ipv6"
NET_TOR = "tor"

ONIONCAT_PREFIX = bytes.fromhex("fd87d87eeb43")  # fd87:d87e:eb43::/48, packed

UNKNOWN_BUCKET = "unknown"
TOR_BUCKET = "tor"


def classify_network(address: "str | Endpoint", tor_exits: AbstractSet[str] = frozenset()) -> str:
    """Classify a canonical address as ipv4, ipv6, or tor.

    Raises ValueError for strings that are not IP addresses; canonical
    endpoints never trip that.
    """
    packed = ip_to_bytes16(address if isinstance(address, str) else address.ip)
    if tor_exits and bytes16_to_ip(packed) in tor_exits:
        return NET_TOR
    if packed.startswith(V4_MAPPED_PREFIX):
        return NET_IPV4
    if packed.startswith(ONIONCAT_PREFIX):
        return NET_TOR
    return NET_IPV6


def load_tor_exits(path: str | Path) -> frozenset[str]:
    """Read a Tor exit list: one IP per line, ``#`` comments; kept as canonical text."""
    exits = set()
    for lineno, line in _content_lines(path):
        try:
            exits.add(canonical_ip(line))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return frozenset(exits)


@dataclass(frozen=True)
class IpMetadata:
    country: str
    asn: int
    org: str


class IpMetadataTable:
    """Longest-prefix-match table from CIDR prefixes to (country, asn, org)."""

    def __init__(self, entries: Iterable[tuple[str, str, int, str]] = ()):
        # one dict per (ip version, prefix length): masked network int -> metadata
        self._buckets: dict[tuple[int, int], dict[int, IpMetadata]] = {}
        self._lengths: dict[int, list[int]] = {4: [], 6: []}
        self.disagreements = 0
        self._size = 0
        for prefix, country, asn, org in entries:
            self.add(prefix, country, asn, org)

    def add(self, prefix: str, country: str, asn: int, org: str) -> None:
        network = ipaddress.ip_network(prefix, strict=False)
        key = (network.version, network.prefixlen)
        bucket = self._buckets.setdefault(key, {})
        if key[1] not in self._lengths[network.version]:
            self._lengths[network.version].append(key[1])
            self._lengths[network.version].sort(reverse=True)
        net_int = int(network.network_address)
        new = IpMetadata(country, int(asn), org)
        existing = bucket.get(net_int)
        if existing is not None:
            if existing != new:
                self.disagreements += 1
            return  # first loaded entry wins
        bucket[net_int] = new
        self._size += 1

    @classmethod
    def from_csv(cls, *paths: str | Path) -> "IpMetadataTable":
        table = cls()
        for path in paths:
            # fed one line at a time, csv numbers lines as _lines does
            with closing(_lines(path)) as lines:
                rows = csv.reader(text for _, text in lines)
                try:
                    for row in rows:
                        if not row or row[0].lstrip().startswith("#"):
                            continue
                        try:
                            prefix, country, asn, org = map(str.strip, row[:4])
                            if not (asn.isascii() and asn.isdigit()):
                                raise ValueError(f"asn {asn!r} is not ASCII digits")
                            table.add(prefix, country, int(asn), org)
                        except ValueError as exc:
                            raise ValueError(f"{path}: line {rows.line_num}: {exc}") from exc
                except csv.Error as exc:
                    # csv's own text for a lone \r asks the caller to open the file another way
                    line = next(text for lineno, text in _lines(path) if lineno == rows.line_num)
                    reason = "carriage return inside a row" if "\r" in line.rstrip("\r") else exc
                    raise ValueError(f"{path}: line {rows.line_num}: {reason}") from exc
        return table

    def __len__(self) -> int:
        return self._size

    def lookup(self, address: "str | Endpoint") -> IpMetadata | None:
        packed = ip_to_bytes16(address if isinstance(address, str) else address.ip)
        if packed.startswith(V4_MAPPED_PREFIX):
            version, bits, ip_int = 4, 32, int.from_bytes(packed[12:], "big")
        else:
            version, bits, ip_int = 6, 128, int.from_bytes(packed, "big")
        for prefixlen in self._lengths[version]:
            masked = ip_int >> (bits - prefixlen) << (bits - prefixlen) if prefixlen else 0
            found = self._buckets[(version, prefixlen)].get(masked)
            if found is not None:
                return found
        return None


def annotate(
    address: "str | Endpoint", table: IpMetadataTable, tor_exits: AbstractSet[str] = frozenset()
) -> tuple[str, IpMetadata | None]:
    """Network class of ``address`` and its prefix metadata; a tor-class
    address is not geolocated, so its metadata is None."""
    net = classify_network(address, tor_exits)
    return net, None if net == NET_TOR else table.lookup(address)


@dataclass(frozen=True)
class ShareReport:
    """Per-country and per-organization shares of active nodes.

    Each list is (bucket, share) sorted by descending share; tor-class
    nodes form their own bucket instead of being geolocated, and addresses
    no prefix covers land in ``unknown``.  Shares sum to 1 whenever there
    is at least one active node.
    """

    country: list[tuple[str, float]]
    org: list[tuple[str, float]]
    active_count: int


def aggregate_shares(
    snapshot: "Snapshot",
    table: IpMetadataTable,
    tor_exits: AbstractSet[str] = frozenset(),
) -> ShareReport:
    country_counts: dict[str, int] = {}
    org_counts: dict[str, int] = {}
    active = snapshot.active_records()
    for record in active:
        net, meta = annotate(record.address, table, tor_exits)
        if net == NET_TOR:
            country, org = TOR_BUCKET, TOR_BUCKET
        else:
            country = meta.country if meta else UNKNOWN_BUCKET
            org = meta.org if meta else UNKNOWN_BUCKET
        country_counts[country] = country_counts.get(country, 0) + 1
        org_counts[org] = org_counts.get(org, 0) + 1

    def shares(counts: dict[str, int]) -> list[tuple[str, float]]:
        total = len(active)
        rows = [(name, count / total) for name, count in counts.items()]
        rows.sort(key=lambda row: (-row[1], row[0]))
        return rows

    if not active:
        return ShareReport(country=[], org=[], active_count=0)
    return ShareReport(country=shares(country_counts), org=shares(org_counts), active_count=len(active))
