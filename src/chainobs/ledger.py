"""Ledger-side analytics: entity clustering, balances, concentration, miners.

The multiple-input heuristic drives clustering: all input addresses of one
transaction are assumed to be controlled by the same actor, so co-spending
merges entities.  Transactions that look like CoinJoins (many inputs plus a
burst of equal-valued outputs) break that assumption and are filtered out
before clustering; the filter is a configurable heuristic, not ground truth.

Balances are integer satoshi end to end.  The concentration statistics take
ints (``operator.index``: numpy integer arrays work, floats raise TypeError)
and sum them exactly; floats appear only in the final, correctly rounded
divisions.  Coin concentration is summarized by the Lorenz curve
(cumulative population share vs cumulative wealth share after an ascending
sort) and the Gini index computed from the sorted values:

    G = sum((2i - n - 1) * x_i) / (n * sum(x)),  i = 1..n ascending

Mined blocks are attributed to pools by matching known signature tags as
byte substrings of the coinbase script, falling back to known payout
addresses, else "Unknown".

Ledger input format: one transaction per line of whitespace-separated
columns ``txid height timestamp coinbase_flag script_hex inputs outputs``
where inputs/outputs are ``addr:value`` pairs joined by ``;`` and ``-``
stands for an empty column; height, timestamp and values are non-negative
decimal integers, and coinbase_flag is ``0`` or ``1``.  Inputs carry their
resolved previous-output addresses and values.  ``#`` starts a comment, and
the first bad line is reported, whatever its fault (``transport._lines``).

A read parses each address once: every entry of one :func:`read_ledger`
call with the same address text holds the same ``str`` object, so the dict
lookups of clustering and balances match on identity.  The table lives only
as long as the call, as in ``snapshotstore.load_series``.
"""

from __future__ import annotations

import heapq
import logging
import re
from bisect import bisect_left
from collections import Counter, defaultdict
from contextlib import closing
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import accumulate
from operator import index, itemgetter, mul
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .transport import _content_lines, _lines, _naming_file, _write_text

log = logging.getLogger(__name__)

COIN = 100_000_000  # satoshi per coin


class LedgerError(Exception):
    pass


class LedgerFormatError(LedgerError):
    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number


class NegativeBalanceError(LedgerError):
    """An entity spent more than it ever received: inconsistent input data."""

    def __init__(self, entity: str, balance: int):
        super().__init__(f"entity {entity} has balance {balance}")
        self.entity = entity
        self.balance = balance


class EmptyDistributionError(LedgerError):
    pass


class AllZeroDistributionError(LedgerError):
    pass


_value = itemgetter(1)  # the satoshi of an (address, satoshi) entry


class _LedgerTxFields(NamedTuple):
    txid: str
    height: int
    timestamp: int
    is_coinbase: bool
    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]
    coinbase_script: bytes = b""


class LedgerTx(_LedgerTxFields):
    """One transaction with inputs resolved to (address, satoshi) pairs.

    A transaction is a tuple: it equals and hashes as the plain tuple of its
    fields.  Construction rejects a coinbase with inputs and a spend whose
    outputs exceed its inputs; ``_replace``, ``copy`` and ``pickle`` build
    through the same checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        txid: str,
        height: int,
        timestamp: int,
        is_coinbase: bool,
        inputs: tuple[tuple[str, int], ...],
        outputs: tuple[tuple[str, int], ...],
        coinbase_script: bytes = b"",
    ) -> "LedgerTx":
        if is_coinbase:
            if inputs:
                raise ValueError(f"{txid}: coinbase with inputs")
        elif sum(map(_value, outputs)) > sum(map(_value, inputs)):
            raise ValueError(f"{txid}: outputs exceed inputs")
        return tuple.__new__(cls, (txid, height, timestamp, is_coinbase, inputs, outputs, coinbase_script))

    @classmethod
    def _make(cls, iterable: Iterable) -> "LedgerTx":
        return cls(*iterable)

    @property
    def input_total(self) -> int:
        return sum(map(_value, self.inputs))

    @property
    def output_total(self) -> int:
        return sum(map(_value, self.outputs))

    @property
    def fee(self) -> int:
        return 0 if self.is_coinbase else self.input_total - self.output_total


@dataclass(frozen=True)
class CoinJoinParams:
    """A transaction with at least ``min_inputs`` inputs and at least
    ``equal_output_count`` outputs of one value is taken for a CoinJoin.  A
    burst needs two equal outputs, so ``equal_output_count`` is at least 2."""

    min_inputs: int = 2
    equal_output_count: int = 3

    def __post_init__(self) -> None:
        for name, low in (("min_inputs", 1), ("equal_output_count", 2)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")


DEFAULT_COINJOIN_PARAMS = CoinJoinParams()


def is_coinjoin(tx: LedgerTx, params: CoinJoinParams = DEFAULT_COINJOIN_PARAMS) -> bool:
    """Equal-output heuristic: enough inputs plus a burst of identical outputs."""
    if tx.is_coinbase:
        raise ValueError("coinbase transactions are never CoinJoin candidates")
    if len(tx.inputs) < params.min_inputs or len(tx.outputs) < params.equal_output_count:
        return False
    value_counts = Counter(value for _, value in tx.outputs)
    return any(count >= params.equal_output_count for count in value_counts.values())


class EntityPartition:
    """Union-find forest over addresses with path compression.

    ``union`` links the larger root under the smaller one, so every root is
    the lexicographically smallest address of its tree.  ``find`` therefore
    returns the stable entity id, whatever order the unions came in; reports
    and balance maps key on it.

    The forest is *flat* when every address points straight at its root;
    the parent map is then the address -> entity id map itself.  It is flat
    when new, stays flat while addresses are added, and is flattened by the
    first ``entities``/``stable_ids`` (or balance or holder report) after a
    change.  Only a ``union`` that links two roots clears the flag.
    """

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._flat = True

    def __contains__(self, address: str) -> bool:
        return address in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def add(self, address: str) -> None:
        self._parent.setdefault(address, address)

    def find(self, address: str) -> str:
        self.add(address)
        root = address
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[address] != root:
            self._parent[address], address = root, self._parent[address]
        return root

    def union(self, a: str, b: str) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a < root_b:
            self._parent[root_b] = root_a
            self._flat = False
        elif root_b < root_a:
            self._parent[root_a] = root_b
            self._flat = False

    def _flattened(self) -> dict[str, str]:
        """The parent map, every path compressed: address -> entity id."""
        if not self._flat:
            parent, find = self._parent, self.find
            for address, up in parent.items():
                if parent[up] != up:
                    parent[address] = find(up)
            self._flat = True
        return self._parent

    def entities(self) -> dict[str, frozenset[str]]:
        """Stable entity id -> member addresses."""
        members: dict[str, list[str]] = {}
        for address, entity in self._flattened().items():
            group = members.get(entity)
            if group is None:
                members[entity] = [address]
            else:
                group.append(address)
        return dict(zip(members, map(frozenset, members.values())))

    def stable_ids(self) -> dict[str, str]:
        """Address -> stable entity id, for every address in the partition."""
        return dict(self._flattened())

    def entity_of(self, address: str) -> str:
        return self.find(address)

    @property
    def entity_count(self) -> int:
        return sum(1 for address, parent in self._parent.items() if address == parent)


def build_partition(
    txs: Iterable[LedgerTx], params: CoinJoinParams = DEFAULT_COINJOIN_PARAMS
) -> EntityPartition:
    """Cluster addresses by co-spending, skipping CoinJoin-like transactions.

    Every address seen anywhere (input or output) joins the partition, so
    addresses that never co-spend remain singleton entities.
    """
    partition = EntityPartition()
    add = partition._parent.setdefault  # a new address is its own root: the forest stays flat
    union = partition.union
    for tx in txs:
        for address, _ in tx.outputs:
            add(address, address)
        inputs = tx.inputs
        for address, _ in inputs:
            add(address, address)
        if len(inputs) < 2 or is_coinjoin(tx, params):  # one input, or none (a coinbase), links nothing
            continue
        first = inputs[0][0]
        for address, _ in inputs[1:]:
            union(first, address)
    return partition


def entity_balances(txs: Iterable[LedgerTx], partition: EntityPartition) -> dict[str, int]:
    """Satoshi balance per entity: total received minus total spent.

    Zero-balance entities stay in the map; a negative balance aborts with
    the offending entity, since it can only come from inconsistent input
    data.
    """
    stable = partition._flattened()
    balances: dict[str, int] = dict.fromkeys(stable.values(), 0)
    for tx in txs:
        for address, value in tx.outputs:
            balances[stable[address]] += value
        for address, value in tx.inputs:
            balances[stable[address]] -= value
    for name, balance in balances.items():
        if balance < 0:
            raise NegativeBalanceError(name, balance)
    return balances


# --- concentration statistics ------------------------------------------------


def _sorted_balances(balances: Iterable[int]) -> tuple[list[int], int]:
    values = sorted(map(index, balances))
    if not values:
        raise EmptyDistributionError("no balances")
    if values[0] < 0:
        raise ValueError("balances must be nonnegative")
    total = sum(values)
    if total == 0:
        raise AllZeroDistributionError("all balances are zero")
    return values, total


def gini(balances: Iterable[int]) -> float:
    """Gini index of a nonnegative distribution: 0 equality, 1 concentration."""
    values, total = _sorted_balances(balances)
    n = len(values)
    weighted = sum(map(mul, range(1, n + 1), values))
    return (2 * weighted - (n + 1) * total) / (n * total)


def lorenz_points(balances: Iterable[int]) -> list[tuple[float, float]]:
    """Lorenz curve points (population share, wealth share), from (0, 0)."""
    values, total = _sorted_balances(balances)
    n = len(values)
    points = [(0.0, 0.0)]
    points.extend((j / n, c / total) for j, c in enumerate(accumulate(values), start=1))
    return points


def holder_share(balances: Iterable[int], wealth_share: float) -> float:
    """Smallest share of nonzero-balance entities, richest first, holding at
    least ``wealth_share`` of all coins (the paper: 4.5% hold about 85%).

    The comparison is exact: integer satoshi against the exact value of
    ``wealth_share``, so no rounding moves the cut by one entity.  Raises
    EmptyDistributionError when no balance is nonzero.
    """
    if not 0 < wealth_share <= 1:
        raise ValueError("wealth_share must be in (0, 1]")
    values = sorted((value for value in map(index, balances) if value), reverse=True)
    if not values:
        raise EmptyDistributionError("no nonzero balances")
    if values[-1] < 0:
        raise ValueError("balances must be nonnegative")
    num, den = wealth_share.as_integer_ratio()
    needed = -(-num * sum(values) // den)  # ceil(wealth_share * total)
    return (bisect_left(list(accumulate(values)), needed) + 1) / len(values)


@dataclass(frozen=True)
class HolderRow:
    entity: str
    address_count: int
    balance: int
    cumulative_share: float


def top_holders(balances: Mapping[str, int], partition: EntityPartition, k: int) -> list[HolderRow]:
    """Top-k entities by balance; cumulative share is relative to all balances."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = sum(balances.values())
    sizes = Counter(partition._flattened().values())
    rows = []
    running = 0
    for entity, balance in heapq.nsmallest(k, balances.items(), key=lambda item: (-item[1], item[0])):
        running += balance
        rows.append(
            HolderRow(
                entity=entity,
                address_count=sizes.get(entity, 1),
                balance=balance,
                cumulative_share=running / total if total else 0.0,
            )
        )
    return rows


# --- miner attribution --------------------------------------------------------


UNKNOWN_MINER = "Unknown"


@dataclass(frozen=True)
class PoolTagMap:
    """Known coinbase signature tags and payout addresses per mining pool.

    File format: ``[tags]`` and ``[addresses]`` sections of tab-separated
    ``key<TAB>pool`` lines; ``#`` comments allowed.  The tags are encoded
    and compiled into one pattern once, on first use, so the maps must not
    change after that.
    """

    coinbase_tags: Mapping[str, str]
    payout_addresses: Mapping[str, str]

    def __post_init__(self) -> None:
        for tag in self.coinbase_tags:
            if not tag:
                raise ValueError("empty coinbase tag")

    @cached_property
    def _tag_pattern(self) -> tuple[re.Pattern[bytes] | None, dict[bytes, tuple[int, str]]]:
        """A pattern that captures a tag at every position where one starts, and the
        (rank, pool) of each tag's bytes; built on first use.

        Ranks follow preference, longest tag first and ties in tag order, and the
        pattern tries the tags in rank order, so the lowest rank captured
        anywhere is the preferred tag.  Tags that encode to the same bytes (lone
        surrogates become ``?``) keep the rank of the first.
        """
        ordered = sorted(self.coinbase_tags, key=lambda tag: (-len(tag), tag))
        ranked: dict[bytes, tuple[int, str]] = {}
        for tag in ordered:
            ranked.setdefault(tag.encode("utf-8", "replace"), (len(ranked), self.coinbase_tags[tag]))
        if not ranked:  # an empty alternation would match everywhere
            return None, ranked
        return re.compile(b"(?=(" + b"|".join(map(re.escape, ranked)) + b"))"), ranked

    @classmethod
    def from_file(cls, path: str | Path) -> "PoolTagMap":
        tags: dict[str, str] = {}
        addresses: dict[str, str] = {}
        section = "tags"
        with _naming_file(path, LedgerFormatError):
            for lineno, raw in _lines(path, LedgerFormatError):
                line = raw.split("#", 1)[0].rstrip()
                if line.strip() in ("", "[tags]", "[addresses]"):
                    section = line.strip()[1:-1] or section
                    continue
                key, sep, pool = line.partition("\t")
                if not sep or not key or not pool.strip():
                    raise LedgerFormatError(lineno, f"expected key<TAB>pool, got {line!r}")
                target = tags if section == "tags" else addresses
                if key in target:
                    raise LedgerFormatError(lineno, f"duplicate entry {key!r}")
                target[key] = pool.strip()
        return cls(coinbase_tags=tags, payout_addresses=addresses)


def attribute_miner(
    coinbase_script: bytes, output_addresses: Iterable[str], tagmap: PoolTagMap
) -> str:
    """Name the pool behind a coinbase, or "Unknown".

    Signature tags match as byte substrings of the script; the longest
    matching tag wins, ties broken lexicographically.  Payout addresses are
    only consulted when no tag matches.
    """
    pattern, ranked = tagmap._tag_pattern
    if pattern is not None:
        best = min((ranked[match[1]] for match in pattern.finditer(coinbase_script)), default=None)
        if best is not None:
            return best[1]
    for address in output_addresses:
        pool = tagmap.payout_addresses.get(address)
        if pool is not None:
            return pool
    return UNKNOWN_MINER


def _bucket_key(timestamp: int, bucketing: str) -> str:
    moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    if bucketing == "month":
        return f"{moment.year:04d}-{moment.month:02d}"
    if bucketing == "day":
        return moment.strftime("%Y-%m-%d")
    if bucketing == "year":
        return f"{moment.year:04d}"
    raise ValueError(f"unknown bucketing {bucketing!r}")


def mining_shares(
    coinbase_txs: Iterable[LedgerTx], tagmap: PoolTagMap, bucketing: str = "month"
) -> dict[str, dict[str, float]]:
    """Per-period share of mined blocks per pool; shares sum to 1 per bucket."""
    counts: dict[str, Counter[str]] = defaultdict(Counter)
    for tx in coinbase_txs:
        if not tx.is_coinbase:
            raise ValueError(f"{tx.txid}: not a coinbase transaction")
        pool = attribute_miner(tx.coinbase_script, (a for a, _ in tx.outputs), tagmap)
        counts[_bucket_key(tx.timestamp, bucketing)][pool] += 1
    shares: dict[str, dict[str, float]] = {}
    for bucket in sorted(counts):
        total = sum(counts[bucket].values())
        shares[bucket] = {
            pool: counts[bucket][pool] / total
            for pool in sorted(counts[bucket], key=lambda p: (-counts[bucket][p], p))
        }
    return shares


# --- ledger files ---------------------------------------------------------------


def _format_entries(entries: tuple[tuple[str, int], ...]) -> str:
    return ";".join(f"{address}:{value}" for address, value in entries) or "-"


def _parse_entries(column: str, lineno: int, names: dict[str, str]) -> tuple[tuple[str, int], ...]:
    """The ``addr:value`` entries of a column; ``names`` maps address text to the
    one ``str`` that every entry of a read holds."""
    if column == "-":
        return ()
    shared = names.setdefault
    entries = []
    for token in column.split(";"):
        address, sep, value = token.rpartition(":")
        if not sep or not address:
            raise LedgerFormatError(lineno, f"bad addr:value pair {token!r}")
        if not (value.isascii() and value.isdigit()):
            raise LedgerFormatError(lineno, f"value is not a non-negative decimal in {token!r}")
        entries.append((shared(address, address), int(value)))
    return tuple(entries)


def write_ledger(txs: Iterable[LedgerTx], path: str | Path) -> None:
    lines = []
    for tx in txs:
        script = tx.coinbase_script.hex() or "-"
        lines.append(
            f"{tx.txid} {tx.height} {tx.timestamp} {1 if tx.is_coinbase else 0} "
            f"{script} {_format_entries(tx.inputs)} {_format_entries(tx.outputs)}"
        )
    _write_text(path, "\n".join(lines) + "\n")


def read_ledger(path: str | Path) -> list[LedgerTx]:
    with _naming_file(path, LedgerFormatError), closing(_content_lines(path, LedgerFormatError)) as lines:
        return _parse_ledger(lines)


def _parse_ledger(lines: Iterable[tuple[int, str]]) -> list[LedgerTx]:
    txs = []
    names: dict[str, str] = {}  # each address text is parsed once per read
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 7:
            raise LedgerFormatError(lineno, f"expected 7 columns, got {len(fields)}")
        height, timestamp, flag = fields[1], fields[2], fields[3]
        if not (height.isascii() and height.isdigit() and timestamp.isascii() and timestamp.isdigit()):
            raise LedgerFormatError(
                lineno, f"height {height!r} or timestamp {timestamp!r} is not a non-negative decimal"
            )
        if flag not in ("0", "1"):
            raise LedgerFormatError(lineno, f"coinbase flag is not 0 or 1: {flag!r}")
        try:
            script = b"" if fields[4] == "-" else bytes.fromhex(fields[4])
            txs.append(
                LedgerTx(
                    fields[0],
                    int(height),
                    int(timestamp),
                    flag == "1",
                    _parse_entries(fields[5], lineno, names),
                    _parse_entries(fields[6], lineno, names),
                    script,
                )
            )
        except ValueError as exc:  # a LedgerFormatError is not one
            raise LedgerFormatError(lineno, str(exc)) from exc
    return txs
