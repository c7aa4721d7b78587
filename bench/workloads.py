"""The three benchmark workloads.

Each workload generates its inputs from the seed (not timed), sets the
program up (timed as ``setup_s``), and then runs jobs.  A job has two timed
stages that drive the same public calls as the matching ``chainobs``
subcommands; after each job, outside the timed region, the outputs are
checked against oracles and hashed.

============  ===============  =======================  ===========================================
workload      item             stage 1                  stage 2
============  ===============  =======================  ===========================================
``crawl``     probe            ``crawl``, sequential    ``write_snapshot``
``census``    series record    ``write_snapshot`` x S   ``load_series`` -> timelines -> churn -> bni
``ledger``    transaction      ``read_ledger``          cluster -> balances -> holders, Gini, pools
============  ===============  =======================  ===========================================
"""

from __future__ import annotations

import hashlib
import math
import random
import re
import statistics
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import inputs
from chainobs import crawler, enrich, ledger, metrics, simnet, snapshotstore
from tracing import Tracer


@dataclass(frozen=True)
class Sizes:
    crawl_peers: int = 1000
    census_endpoints: int = 800
    census_slots: int = 48
    ledger_txs: int = 40_000


@dataclass
class Checks:
    """Oracle verdicts: ``failed / attempted`` is the run's failure rate."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
        digest.update(b"\n")
    return digest.hexdigest()


# --- crawl ------------------------------------------------------------------------

# Fields filled from time.time(); the rest of a crawl snapshot is deterministic.
_CLOCK_FIELDS = re.compile(r" ?\b(?:started_at|finished_at|first_seen|last_seen):\d+")


class CrawlWorkload:
    """Sequential simnet crawl of a seeded topology, then ``write_snapshot``.

    The crawl consumes its network (peer RNGs advance), so every job needs
    a freshly built one.
    """

    name = "crawl"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.inputs = inputs.make_topology(random.Random(f"crawl:{seed}"), sizes.crawl_peers)
        self.path = workdir / f"crawl{snapshotstore.SNAPSHOT_SUFFIX}"

    def setup(self) -> simnet.SimNetwork:
        topology = simnet.SimTopology(
            peers=self.inputs.peers, seed_ids=self.inputs.seed_ids, rng_seed=self.inputs.rng_seed
        )
        return simnet.build_network(topology)

    def stage1(self, network: simnet.SimNetwork) -> crawler.Snapshot:
        config = crawler.CrawlConfig(seeds=self.inputs.seed_ids, max_inflight=1, magic=network.magic)
        return crawler.crawl(config, network)

    def stage2(self, network: simnet.SimNetwork, snapshot: crawler.Snapshot) -> crawler.Snapshot:
        snapshotstore.write_snapshot(snapshot, self.path)
        return snapshot

    def items(self, snapshot: crawler.Snapshot) -> int:
        return snapshot.total_count

    def check(self, snapshot: crawler.Snapshot, checks: Checks) -> None:
        checks.expect(snapshot.active_addresses() == self.inputs.expected_active, "crawl: active set != reachable_set")
        checks.expect(set(snapshot.records) == self.inputs.expected_discovered, "crawl: discovered set != discovered_set")
        checks.expect(not snapshot.partial, "crawl: snapshot flagged partial")

    def digest(self, snapshot: crawler.Snapshot) -> str:
        return _sha256([_CLOCK_FIELDS.sub("", self.path.read_text(encoding="utf-8")).encode()])

    def observe(self, network: simnet.SimNetwork, snapshot: crawler.Snapshot) -> dict[str, float]:
        return {
            "active_ratio": snapshot.active_count / snapshot.total_count,
            "new_endpoints": snapshot.total_count - len(snapshot.seeds),
            "peak_connections": network.peak_connections,
            "bytes_per_record": self.path.stat().st_size / snapshot.total_count,
        }


# --- census -----------------------------------------------------------------------


@dataclass
class CensusOutput:
    snapshots: list[crawler.Snapshot]
    series: metrics.TimelineSeries
    churn_rows: list[list]
    bni_rows: list[list]
    shares: enrich.ShareReport


class CensusWorkload:
    """Persist a snapshot series, then report churn and bni on it.

    Stage 1 writes one file per snapshot, named as ``crawl --repeat`` names
    them; stage 2 is what ``chainobs timeline`` and ``chainobs bni --table``
    compute, plus ``aggregate_shares`` over the latest snapshot.
    """

    name = "census"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.inputs = inputs.make_series(
            random.Random(f"census:{seed}"), sizes.census_endpoints, sizes.census_slots, workdir
        )
        self.directory = workdir / "series"
        self.directory.mkdir()
        self.record_count = sum(len(s.records) for s in self.inputs.snapshots)

    def setup(self) -> enrich.IpMetadataTable:
        return enrich.IpMetadataTable.from_csv(self.inputs.prefix_csv)

    def stage1(self, table: enrich.IpMetadataTable) -> None:
        for snapshot in self.inputs.snapshots:
            stamp = datetime.fromtimestamp(snapshot.started_at, tz=timezone.utc).strftime("%Y%m%dT%H%M%SZ")
            snapshotstore.write_snapshot(snapshot, self.directory / f"{stamp}{snapshotstore.SNAPSHOT_SUFFIX}")

    def stage2(self, table: enrich.IpMetadataTable, _: None) -> CensusOutput:
        snapshots = snapshotstore.load_series(self.directory)
        series = metrics.build_timelines(snapshots)
        churn_rows = []
        for endpoint in sorted(series.timelines, key=str):
            timeline = series.timelines[endpoint]
            sessions = timeline.sessions()
            if not sessions:
                continue
            churn_rows.append(
                [
                    str(endpoint),
                    len(sessions),
                    metrics.mean_connection_time(timeline),
                    metrics.flapping_events(timeline),
                    len(timeline.active_slots()) / len(timeline.activity),
                ]
            )
        latest = snapshots[-1]
        asn_by_address = {}
        for record in latest.active_records():
            if enrich.classify_network(record.address) == enrich.NET_TOR:
                asn_by_address[record.address] = None
            else:
                meta = table.lookup(record.address)
                asn_by_address[record.address] = meta.asn if meta else None
        stats = metrics.SnapshotStats(latest, asn_by_address)
        bni_rows = []
        for record in sorted(latest.active_records(), key=lambda r: str(r.address)):
            score = metrics.bni(
                record.address, stats, series.timelines[record.address], series.rtt_series[record.address]
            )
            bni_rows.append([str(record.address), *score.sub_metrics(), score.bni])
        shares = enrich.aggregate_shares(latest, table)
        return CensusOutput(snapshots, series, churn_rows, bni_rows, shares)

    def items(self, output: CensusOutput) -> int:
        return self.record_count

    def check(self, output: CensusOutput, checks: Checks) -> None:
        expected = self.inputs.snapshots
        checks.expect(len(output.snapshots) == len(expected), "census: snapshot count changed on read")
        for written, read in zip(expected, output.snapshots):
            same = (
                read.started_at == written.started_at
                and read.finished_at == written.finished_at
                and read.seeds == written.seeds
                and read.records == written.records
            )
            checks.expect(same, f"census: snapshot {written.started_at} did not read back equal")
        series = output.series
        active_per_slot = [0] * len(series.slot_times)
        for timeline in series.timelines.values():
            for slot, active in enumerate(timeline.activity):
                active_per_slot[slot] += active
        for snapshot in output.snapshots:
            slot = (snapshot.started_at - series.slot_times[0]) // series.interval_seconds
            checks.expect(
                active_per_slot[slot] == snapshot.active_count,
                f"census: slot {slot} has {active_per_slot[slot]} active, snapshot {snapshot.active_count}",
            )
        checks.expect(series.imputed_slots == (self.inputs.missing_slot,), "census: wrong imputed slots")
        checks.expect(len(output.bni_rows) == output.snapshots[-1].active_count, "census: bni row count")
        checks.expect(all(0.0 <= row[-1] <= 10.0 for row in output.bni_rows), "census: bni outside [0, 10]")
        for kind in (output.shares.country, output.shares.org):
            checks.expect(math.isclose(sum(s for _, s in kind), 1.0), "census: shares do not sum to 1")

    def digest(self, output: CensusOutput) -> str:
        files = [p.read_bytes() for p in sorted(self.directory.iterdir())]
        return _sha256(files + output.churn_rows + output.bni_rows + [output.shares])

    def observe(self, table: enrich.IpMetadataTable, output: CensusOutput) -> dict[str, float]:
        size = sum(p.stat().st_size for p in self.directory.iterdir())
        return {"bytes_per_record": size / self.record_count, "imputed_slots": len(output.series.imputed_slots)}


# --- ledger -----------------------------------------------------------------------

TOP_HOLDERS = 20


@dataclass
class LedgerOutput:
    txs: list[ledger.LedgerTx]
    members: dict[str, frozenset[str]]
    balances: dict[str, int]
    holders: list[ledger.HolderRow]
    gini: float
    lorenz: list[tuple[float, float]]
    pool_shares: dict[str, dict[str, float]]


class LedgerWorkload:
    """Read a ledger, cluster it, and report as ``chainobs report --tags`` does."""

    name = "ledger"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.inputs = inputs.make_ledger(random.Random(f"ledger:{seed}"), sizes.ledger_txs, workdir)

    def setup(self) -> ledger.PoolTagMap:
        return ledger.PoolTagMap.from_file(self.inputs.tags_path)

    def stage1(self, tagmap: ledger.PoolTagMap) -> list[ledger.LedgerTx]:
        return ledger.read_ledger(self.inputs.ledger_path)

    def stage2(self, tagmap: ledger.PoolTagMap, txs: list[ledger.LedgerTx]) -> LedgerOutput:
        partition = ledger.build_partition(txs, ledger.CoinJoinParams())
        balances = ledger.entity_balances(txs, partition)
        members = partition.entities()
        values = [value for value in balances.values() if value > 0]
        holders = ledger.top_holders(balances, partition, TOP_HOLDERS)
        gini = ledger.gini(values)
        lorenz = ledger.lorenz_points(values)
        coinbases = [tx for tx in txs if tx.is_coinbase]
        pool_shares = ledger.mining_shares(coinbases, tagmap, "month")
        return LedgerOutput(txs, members, balances, holders, gini, lorenz, pool_shares)

    def items(self, output: LedgerOutput) -> int:
        return len(output.txs)

    def check(self, output: LedgerOutput, checks: Checks) -> None:
        truth = self.inputs
        checks.expect(len(output.txs) == truth.tx_count, "ledger: transaction count changed on read")
        checks.expect(output.members == truth.entities, "ledger: entities != co-spend components")
        checks.expect(output.balances == truth.balances, "ledger: entity balances differ from the flows")
        checks.expect(sum(output.balances.values()) == truth.minted - truth.fees, "ledger: satoshi not conserved")
        checks.expect(
            math.isclose(output.gini, float(truth.exact_gini), rel_tol=1e-9, abs_tol=1e-12),
            f"ledger: gini {output.gini!r} != exact {float(truth.exact_gini)!r}",
        )
        checks.expect(
            output.lorenz[-1][0] == 1.0 and math.isclose(output.lorenz[-1][1], 1.0), "ledger: Lorenz curve does not end at (1, 1)"
        )
        expected_shares = {
            month: {pool: count / sum(counts.values()) for pool, count in counts.items()}
            for month, counts in truth.pool_counts.items()
        }
        checks.expect(
            output.pool_shares.keys() == expected_shares.keys()
            and all(
                output.pool_shares[m].keys() == expected_shares[m].keys()
                and all(math.isclose(output.pool_shares[m][p], s) for p, s in expected_shares[m].items())
                for m in expected_shares
            ),
            "ledger: pool shares differ from the attributed blocks",
        )
        richest = max(output.balances.values())
        checks.expect(output.holders[0].balance == richest, "ledger: top holder is not the richest entity")

    def digest(self, output: LedgerOutput) -> str:
        entities = sorted((entity, len(m), output.balances[entity]) for entity, m in output.members.items())
        return _sha256(entities + output.holders + [output.gini, output.lorenz, output.pool_shares])

    def observe(self, tagmap: ledger.PoolTagMap, output: LedgerOutput) -> dict[str, float]:
        return {}


WORKLOADS = {w.name: w for w in (CrawlWorkload, CensusWorkload, LedgerWorkload)}


# --- per-layer metrics from a traced run ---------------------------------------------


def layer_metrics(
    tracer: Tracer, jobs: int, observed: dict[str, float], time_scale: float, overhead: float, coverage: float
) -> dict:
    """Every per-layer metric; layers the workload never called report 0.

    Counts are per job.  Per-call times include the time of wrapped calls
    made inside, unless the name says ``self``, and are multiplied by
    ``time_scale``, the traced jobs' reference-loop rescaling.
    """
    stat = tracer.stat

    def per(name, unit, by="calls", own=False):
        s = stat(name)
        count = s.calls if by == "calls" else s.items
        return unit * time_scale * (s.self_s if own else s.total_s) / count if count else 0.0

    def count(name, by="calls"):
        s = stat(name)
        return (s.calls if by == "calls" else s.items) / jobs

    probe_durations = stat("crawler.probe_peer").durations or []
    if len(probe_durations) >= 2:
        cuts = statistics.quantiles(probe_durations, n=100)
        p50, p99 = cuts[49] * 1e6 * time_scale, cuts[98] * 1e6 * time_scale
    else:
        p50 = p99 = probe_durations[0] * 1e6 * time_scale if probe_durations else 0.0
    new_endpoints = observed.get("new_endpoints", 0)
    values = {
        "wirecodec.decode_addr.us_per_entry": (per("wirecodec.decode_addr", 1e6, by="items"), "us"),
        "wirecodec.decode_addr.entries": (count("wirecodec.decode_addr", by="items"), "count"),
        "wirecodec.encode_addr.us_per_entry": (per("wirecodec.encode_addr", 1e6, by="items"), "us"),
        "wirecodec.encode_message.us_per_call": (per("wirecodec.encode_message", 1e6), "us"),
        "wirecodec.decode_message.us_per_call": (per("wirecodec.decode_message", 1e6), "us"),
        "wirecodec.canonical_ip.calls": (count("wirecodec.canonical_ip"), "count"),
        "wirecodec.canonical_ip.us_per_call": (per("wirecodec.canonical_ip", 1e6), "us"),
        "wirecodec.bytes_in": (count("simnet.recv_exact", by="items"), "B"),
        "transport.endpoint_make.calls": (count("transport.endpoint_make"), "count"),
        "transport.endpoint_make.us_per_call": (per("transport.endpoint_make", 1e6), "us"),
        "simnet.send.self_us_per_call": (per("simnet.send", 1e6, own=True), "us"),
        "simnet.connects": (count("simnet.connect"), "count"),
        "simnet.peak_connections": (observed.get("peak_connections", 0), "count"),
        "simnet.virtual_s": (tracer.virtual_s / jobs, "s"),
        "crawler.probe_peer.calls": (count("crawler.probe_peer"), "count"),
        "crawler.probe_peer.self_us_per_call": (per("crawler.probe_peer", 1e6, own=True), "us"),
        "crawler.probe_peer.us_p50": (p50, "us"),
        "crawler.probe_peer.us_p99": (p99, "us"),
        "crawler.active_ratio": (observed.get("active_ratio", 0.0), "ratio"),
        "crawler.addr_entries_per_new_endpoint": (
            count("wirecodec.decode_addr", by="items") / new_endpoints if new_endpoints else 0.0,
            "ratio",
        ),
        "snapshotstore.write_snapshot.us_per_record": (per("snapshotstore.write_snapshot", 1e6, by="items"), "us"),
        "snapshotstore.read_snapshot.us_per_record": (per("snapshotstore.read_snapshot", 1e6, by="items"), "us"),
        "snapshotstore.bytes_per_record": (observed.get("bytes_per_record", 0.0), "B"),
        "snapshotstore.records_read": (count("snapshotstore.read_snapshot", by="items"), "count"),
        "enrich.classify_network.calls": (count("enrich.classify_network"), "count"),
        "enrich.classify_network.us_per_call": (per("enrich.classify_network", 1e6), "us"),
        "enrich.lookup.calls": (count("enrich.lookup"), "count"),
        "enrich.lookup.us_per_call": (per("enrich.lookup", 1e6), "us"),
        "metrics.build_timelines.cells": (count("metrics.build_timelines", by="items"), "count"),
        "metrics.build_timelines.ns_per_cell": (per("metrics.build_timelines", 1e9, by="items"), "ns"),
        "metrics.bni.nodes": (count("metrics.bni"), "count"),
        "metrics.bni.us_per_node": (per("metrics.bni", 1e6), "us"),
        "metrics.imputed_slots": (observed.get("imputed_slots", 0), "count"),
        "ledger.read_ledger.us_per_tx": (per("ledger.read_ledger", 1e6, by="items"), "us"),
        "ledger.build_partition.us_per_tx": (per("ledger.build_partition", 1e6, by="items"), "us"),
        "ledger.union.calls": (count("ledger.union"), "count"),
        "ledger.coinjoin_skipped": (count("ledger.is_coinjoin", by="items"), "count"),
        "ledger.entity_balances.us_per_tx": (per("ledger.entity_balances", 1e6, by="items"), "us"),
        "ledger.partition_walks": (count("ledger.partition_walk"), "count"),
        "ledger.partition_walk.ms_per_call": (per("ledger.partition_walk", 1e3), "ms"),
        "ledger.top_holders.ms": (per("ledger.top_holders", 1e3), "ms"),
        "ledger.mining_shares.us_per_coinbase": (per("ledger.mining_shares", 1e6, by="items"), "us"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.coverage": (coverage, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
