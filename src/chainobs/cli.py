"""Command-line entry point: census workflows wired into subcommands.

Subcommands: ``crawl``, ``enrich``, ``timeline``, ``bni``, ``cluster``,
``report``, ``sim``.  Exit status is 0 on success, 1 on usage errors, 2 on
data errors.  Set ``CHAINOBS_LOG`` to a level name (DEBUG, INFO, ...) to
control logging.  All report outputs are CSV with a header row; plotting is
left to downstream tools.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

from . import crawler, enrich, ledger, metrics, simnet, snapshotstore, wirecodec
from .transport import Endpoint, TcpTransport, TransportError

log = logging.getLogger(__name__)

USAGE_ERROR = 1
DATA_ERROR = 2

HEADLINE_WEALTH_SHARE = 0.85  # the paper: about 4.5% of entities hold 85% of the coins

_DATA_ERRORS = (
    snapshotstore.SnapshotStoreError,
    ledger.LedgerError,
    wirecodec.CodecError,
    TransportError,
    metrics.NeverActiveError,
    simnet.DuplicateAddressError,
    OSError,
    ValueError,
)


class _Parser(argparse.ArgumentParser):
    """argparse's default exit code for usage errors is 2; we reserve that
    for data errors and use 1 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _load_seeds(source: str) -> list[Endpoint]:
    """A path to a seed file, or comma-separated DNS names."""
    if Path(source).exists():
        return crawler.bootstrap_seeds(Path(source))
    return crawler.bootstrap_seeds([name for name in source.split(",") if name.strip()])


def _crawl_config(args: argparse.Namespace, seeds: list[Endpoint], magic: bytes) -> crawler.CrawlConfig:
    return crawler.CrawlConfig(
        seeds=tuple(seeds),
        max_inflight=args.max_inflight,
        connect_timeout_ms=args.connect_timeout_ms,
        handshake_timeout_ms=args.handshake_timeout_ms,
        getaddr_rounds=args.getaddr_rounds,
        ping_count=args.ping_count,
        max_frontier=args.max_frontier,
        magic=magic,
    )


def _add_crawl_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-inflight", type=int, default=512)
    parser.add_argument("--connect-timeout-ms", type=float, default=5000.0)
    parser.add_argument("--handshake-timeout-ms", type=float, default=5000.0)
    parser.add_argument("--getaddr-rounds", type=int, default=3)
    parser.add_argument("--ping-count", type=int, default=5)
    parser.add_argument("--max-frontier", type=int, default=1_000_000)


def _cmd_crawl(args: argparse.Namespace) -> int:
    seeds = _load_seeds(args.seeds)
    if args.simnet:
        topology = simnet.load_topology(args.simnet)
        transport = simnet.build_network(topology)
        magic = transport.magic
    else:
        transport = TcpTransport()
        magic = wirecodec.MAINNET_MAGIC
    config = _crawl_config(args, seeds, magic)

    if args.repeat is None:
        snapshot = crawler.crawl(config, transport)
        snapshotstore.write_snapshot(snapshot, args.out)
        print(f"{args.out}: {snapshot.active_count} active / {snapshot.total_count} discovered")
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    iteration = 0
    while True:
        snapshot = crawler.crawl(config, transport)
        stamp = datetime.fromtimestamp(snapshot.started_at, tz=timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        path = out_dir / f"{stamp}{snapshotstore.SNAPSHOT_SUFFIX}"
        suffix = 1
        while path.exists():  # sub-second crawls must not overwrite each other
            path = out_dir / f"{stamp}-{suffix}{snapshotstore.SNAPSHOT_SUFFIX}"
            suffix += 1
        snapshotstore.write_snapshot(snapshot, path)
        print(f"{path}: {snapshot.active_count} active / {snapshot.total_count} discovered")
        iteration += 1
        if args.repeat_count is not None and iteration >= args.repeat_count:
            return 0
        time.sleep(args.repeat * 60.0)


def _cmd_enrich(args: argparse.Namespace) -> int:
    snapshot = snapshotstore.read_snapshot(args.snapshot)
    table = enrich.IpMetadataTable.from_csv(*args.table)
    tor_exits = enrich.load_tor_exits(args.tor_exits) if args.tor_exits else frozenset()
    if table.disagreements:
        print(f"note: {table.disagreements} prefix disagreements; first-listed table won", file=sys.stderr)

    extras: dict[Endpoint, dict[str, str]] = {}
    for endpoint in snapshot.records:
        net, meta = enrich.annotate(endpoint, table, tor_exits)
        fields = {"net": net}
        if meta is not None:
            fields.update(country=meta.country, asn=str(meta.asn), org=meta.org)
        extras[endpoint] = fields
    snapshotstore.write_snapshot(snapshot, args.out, extra_fields=extras)

    report = enrich.aggregate_shares(snapshot, table, tor_exits)
    sizes = metrics.network_size_series([snapshot], tor_exits)[0]
    print(f"active nodes: {report.active_count} (ipv4 {sizes.ipv4}, ipv6 {sizes.ipv6}, tor {sizes.tor})")
    for label, shares in (("countries", report.country), ("orgs", report.org)):
        top = ", ".join(f"{name} {share:.1%}" for name, share in shares[:5])
        print(f"top {label}: {top if top else 'n/a'}")
    rtts = sorted(r.min_rtt_ms for r in snapshot.active_records() if r.min_rtt_ms is not None)
    if rtts:
        mid = rtts[len(rtts) // 2]
        p90 = rtts[min(len(rtts) - 1, int(len(rtts) * 0.9))]
        print(f"min RTT: median {mid:.1f} ms, p90 {p90:.1f} ms over {len(rtts)} nodes")
    if args.shares_out:
        rows = [["country", name, repr(share)] for name, share in report.country]
        rows += [["org", name, repr(share)] for name, share in report.org]
        _write_csv(args.shares_out, ["kind", "name", "share"], rows)
    return 0


def _series(args: argparse.Namespace) -> tuple[list, metrics.TimelineSeries]:
    snapshots = snapshotstore.load_series(args.snapshots)
    if not snapshots:
        raise ValueError(f"no *{snapshotstore.SNAPSHOT_SUFFIX} files under {args.snapshots}")
    series = metrics.build_timelines(snapshots, args.interval_seconds)
    return snapshots, series


def _cmd_timeline(args: argparse.Namespace) -> int:
    snapshots, series = _series(args)
    rows = []
    for endpoint in sorted(series.timelines, key=str):
        timeline = series.timelines[endpoint]
        sessions = timeline.sessions()
        if not sessions:
            continue
        rows.append(
            [
                str(endpoint),
                len(sessions),
                repr(metrics.mean_connection_time(timeline)),
                metrics.flapping_events(timeline),
                repr(len(timeline.active_slots()) / len(timeline.activity)),
            ]
        )
    _write_csv(args.out, ["address", "sessions", "mean_connection_s", "flaps", "availability"], rows)
    print(f"{args.out}: {len(rows)} ever-active nodes over {len(snapshots)} snapshots")
    if series.imputed_slots:
        print(f"note: {len(series.imputed_slots)} grid slots imputed as inactive", file=sys.stderr)
    if args.size_series_out:
        points = metrics.network_size_series(snapshots)
        _write_csv(
            args.size_series_out,
            ["started_at", "ipv4", "ipv6", "tor", "total"],
            [[p.started_at, p.ipv4, p.ipv6, p.tor, p.total] for p in points],
        )
    return 0


def _cmd_bni(args: argparse.Namespace) -> int:
    snapshots, series = _series(args)
    latest = snapshots[-1]
    tor_exits = enrich.load_tor_exits(args.tor_exits) if args.tor_exits else frozenset()
    asn_by_address: dict[Endpoint, int | None] = {}
    if args.table:
        table = enrich.IpMetadataTable.from_csv(*args.table)
        for record in latest.active_records():
            meta = enrich.annotate(record.address, table, tor_exits)[1]
            asn_by_address[record.address] = meta.asn if meta else None
    stats = metrics.SnapshotStats(latest, asn_by_address)

    rows = []
    for record in sorted(latest.active_records(), key=lambda r: str(r.address)):
        endpoint = record.address
        score = metrics.bni(
            endpoint,
            stats,
            series.timelines[endpoint],
            series.rtt_series[endpoint],
            tau=args.tau,
            alpha=args.alpha,
            height_tolerance=args.height_tolerance,
        )
        rows.append([str(endpoint)] + [repr(v) for v in score.sub_metrics()] + [repr(score.bni)])
    _write_csv(args.out, ["address", *metrics.SUB_METRIC_NAMES, "bni"], rows)
    print(f"{args.out}: scored {len(rows)} active nodes")
    return 0


def _coinjoin_params(args: argparse.Namespace) -> ledger.CoinJoinParams:
    return ledger.CoinJoinParams(
        min_inputs=args.coinjoin_min_inputs, equal_output_count=args.coinjoin_equal_outputs
    )


def _add_coinjoin_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--coinjoin-min-inputs", type=int, default=2)
    parser.add_argument("--coinjoin-equal-outputs", type=int, default=3)


def _cmd_cluster(args: argparse.Namespace) -> int:
    txs = ledger.read_ledger(args.ledger)
    partition = ledger.build_partition(txs, _coinjoin_params(args))
    balances = ledger.entity_balances(txs, partition)
    sizes = Counter(partition.stable_ids().values())
    rows = [
        [entity, sizes[entity], balances[entity]]
        for entity in sorted(balances, key=lambda e: (-balances[e], e))
    ]
    _write_csv(args.out, ["entity", "addresses", "balance_sat"], rows)
    nonzero = sum(1 for b in balances.values() if b > 0)
    print(f"{args.out}: {len(balances)} entities ({nonzero} with nonzero balance)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    txs = ledger.read_ledger(args.ledger)
    partition = ledger.build_partition(txs, _coinjoin_params(args))
    balances = ledger.entity_balances(txs, partition)
    nonzero = {entity: value for entity, value in balances.items() if value > 0}
    print(f"entities: {len(balances)} total, {len(nonzero)} with nonzero balance")

    holders = ledger.top_holders(balances, partition, args.top)
    print("entity  addresses  balance_sat  cumulative_share")
    for row in holders:
        print(f"{row.entity}  {row.address_count}  {row.balance}  {row.cumulative_share:.6f}")

    if nonzero:
        values = list(nonzero.values())
        print(f"gini (nonzero-balance entities): {ledger.gini(values):.6f}")
        share = ledger.holder_share(values, HEADLINE_WEALTH_SHARE)
        print(f"richest {share:.1%} of nonzero-balance entities hold >= {HEADLINE_WEALTH_SHARE:.0%} of coins")
        if args.lorenz_out:
            points = ledger.lorenz_points(values)
            _write_csv(
                args.lorenz_out,
                ["population_share", "wealth_share"],
                [[repr(p), repr(w)] for p, w in points],
            )
    else:
        print("gini: n/a (no nonzero balances)")

    if args.tags:
        tagmap = ledger.PoolTagMap.from_file(args.tags)
        coinbases = [tx for tx in txs if tx.is_coinbase]
        shares = ledger.mining_shares(coinbases, tagmap, args.bucket)
        for bucket, pools in shares.items():
            line = ", ".join(f"{pool} {share:.1%}" for pool, share in pools.items())
            print(f"mined {bucket}: {line}")
        if args.pool_shares_out:
            rows = [
                [bucket, pool, repr(share)]
                for bucket, pools in shares.items()
                for pool, share in pools.items()
            ]
            _write_csv(args.pool_shares_out, ["bucket", "pool", "share"], rows)
    return 0


def _cmd_sim(args: argparse.Namespace) -> int:
    topology = simnet.load_topology(args.topology)
    seeds = _load_seeds(args.seeds) if args.seeds else list(topology.seed_ids)
    if not seeds:
        raise ValueError("topology has no @seeds directive and --seeds was not given")
    network = simnet.build_network(topology)
    config = _crawl_config(args, seeds, network.magic)
    started = time.monotonic()
    snapshot = crawler.crawl(config, network)
    elapsed = time.monotonic() - started

    oracle_topology = simnet.SimTopology(topology.peers, tuple(seeds), topology.rng_seed)
    expected_active = simnet.reachable_set(oracle_topology)
    expected_discovered = simnet.discovered_set(oracle_topology)
    active = snapshot.active_addresses()
    discovered = set(snapshot.records)
    active_ok = active == expected_active
    discovered_ok = discovered == expected_discovered

    print(f"peers: {len(topology.peers)}, probed {snapshot.total_count} in {elapsed:.2f}s")
    print(f"active {len(active)} vs oracle {len(expected_active)}: {'OK' if active_ok else 'MISMATCH'}")
    print(
        f"discovered {len(discovered)} vs oracle {len(expected_discovered)}: "
        f"{'OK' if discovered_ok else 'MISMATCH'}"
    )
    if args.out:
        snapshotstore.write_snapshot(snapshot, args.out)
    return 0 if active_ok and discovered_ok else DATA_ERROR


def build_parser() -> _Parser:
    parser = _Parser(prog="chainobs", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = commands.add_parser("crawl", help="crawl the network from seeds into a snapshot file")
    p.add_argument("--seeds", required=True, help="seed file (ip[:port] per line) or DNS names")
    p.add_argument("--out", required=True, help="snapshot file, or directory with --repeat")
    p.add_argument("--simnet", help="topology file: crawl the simulated network instead of TCP")
    p.add_argument("--repeat", type=float, help="re-crawl every N minutes, one timestamped file each")
    p.add_argument("--repeat-count", type=int, help="stop after this many crawls (with --repeat)")
    _add_crawl_options(p)
    p.set_defaults(func=_cmd_crawl)

    p = commands.add_parser("enrich", help="annotate a snapshot with network type, country, AS")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--table", action="append", required=True, help="prefix,country,asn,org CSV (repeatable)")
    p.add_argument("--tor-exits", help="file of Tor exit IPs, one per line")
    p.add_argument("--out", required=True)
    p.add_argument("--shares-out", help="write country/org share CSV here")
    p.set_defaults(func=_cmd_enrich)

    p = commands.add_parser("timeline", help="churn report over a directory of snapshots")
    p.add_argument("--snapshots", required=True, help="directory of *.snap.ndrec files")
    p.add_argument("--out", required=True, help="churn CSV")
    p.add_argument("--interval-seconds", type=int, help="grid spacing (default: inferred)")
    p.add_argument("--size-series-out", help="write per-snapshot size CSV here")
    p.set_defaults(func=_cmd_timeline)

    p = commands.add_parser("bni", help="node index report for the latest snapshot of a series")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--table", action="append", default=[], help="prefix CSV for the AS sub-metric")
    p.add_argument("--tor-exits")
    p.add_argument("--interval-seconds", type=int)
    p.add_argument("--tau", type=float, default=metrics.DEFAULT_EXCURSION_THRESHOLD,
                   help="latency excursion threshold as a fraction over the moving average")
    p.add_argument("--alpha", type=float, default=metrics.DEFAULT_EWMA_ALPHA,
                   help="moving average weight for the newest sample")
    p.add_argument("--height-tolerance", type=int, default=metrics.DEFAULT_HEIGHT_TOLERANCE)
    p.set_defaults(func=_cmd_bni)

    p = commands.add_parser("cluster", help="cluster ledger addresses into entities with balances")
    p.add_argument("--ledger", required=True)
    p.add_argument("--out", required=True)
    _add_coinjoin_options(p)
    p.set_defaults(func=_cmd_cluster)

    p = commands.add_parser("report", help="top holders, Lorenz curve, Gini, and pool shares")
    p.add_argument("--ledger", required=True)
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--lorenz-out")
    p.add_argument("--tags", help="pool tag map file for mined-block shares")
    p.add_argument("--pool-shares-out")
    p.add_argument("--bucket", choices=["day", "month", "year"], default="month")
    _add_coinjoin_options(p)
    p.set_defaults(func=_cmd_report)

    p = commands.add_parser("sim", help="crawl a simulated topology and self-test against its oracle")
    p.add_argument("--topology", required=True)
    p.add_argument("--seeds", help="seed file (defaults to the topology's @seeds)")
    p.add_argument("--out", help="also write the snapshot here")
    _add_crawl_options(p)
    p.set_defaults(func=_cmd_sim)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=os.environ.get("CHAINOBS_LOG", "WARNING").upper(),
        format="[%(asctime)s] %(name)s %(levelname)s %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"chainobs: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
