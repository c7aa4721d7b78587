"""Churn metrics and the 0-10 node quality index over a snapshot series.

Builds six half-hourly snapshots of a small network whose peers flap on and
off, then derives per-node session statistics and the composite index.

Run: python3 demos/03_churn_and_node_index.py
"""

import dataclasses

from chainobs import crawler, metrics, simnet
from chainobs.enrich import IpMetadataTable, annotate

INTERVAL = 1800  # seconds between snapshots

base = simnet.random_topology(60, rng_seed=3, unreachable_fraction=0.15)
seeds = base.seed_ids
flappy = [p.address for p in base.peers if p.behavior == "normal"][:10]

print("== Taking 6 simulated snapshots, 30 minutes apart ==")
snapshots = []
for round_index in range(6):
    profiles = []
    for profile in base.peers:
        # flappy peers drop out mid-series, then come back
        if profile.address in flappy and round_index in (1, 3):
            profiles.append(dataclasses.replace(profile, behavior="unreachable"))
        else:
            profiles.append(profile)
    topo = simnet.SimTopology(tuple(profiles), seeds, rng_seed=base.rng_seed)
    network = simnet.build_network(topo)
    config = crawler.CrawlConfig(seeds=seeds, magic=network.magic, max_inflight=32)
    snapshot = crawler.crawl(config, network)
    snapshot.started_at = 1_700_000_000 + round_index * INTERVAL
    snapshots.append(snapshot)
    print(f"  snapshot {round_index}: {snapshot.active_count} active")

print("\n== Churn metrics ==")
series = metrics.build_timelines(snapshots, interval_seconds=INTERVAL)
flap_addr = flappy[0]
stable_addr = next(
    p.address for p in base.peers if p.behavior == "normal" and p.address not in flappy
)
for label, address in (("flappy", flap_addr), ("stable", stable_addr)):
    t = series.timelines[address]
    print(f"{label} node {address}")
    print(f"  activity:        {''.join('#' if a else '.' for a in t.activity)}")
    print(f"  sessions:        {t.sessions()}")
    print(f"  mean connection: {metrics.mean_connection_time(t):.0f} s")
    print(f"  flapping events: {metrics.flapping_events(t)}")

points = metrics.network_size_series(snapshots)
print("\nactive nodes per snapshot:", [p.total for p in points])

print("\n== Node index on the latest snapshot ==")
# a toy prefix table so the AS-diversity component has something to chew on
table = IpMetadataTable(
    [("10.0.0.0/28", "AA", 64500, "DenseHost"), ("10.0.0.0/8", "BB", 64501, "WideHost")]
)
latest = snapshots[-1]
asn_by_address = {}
for record in latest.active_records():
    meta = annotate(record.address, table)[1]
    asn_by_address[record.address] = meta.asn if meta else None
stats = metrics.SnapshotStats(latest, asn_by_address)

scores = [
    metrics.bni(r.address, stats, series.timelines[r.address], series.rtt_series[r.address])
    for r in latest.active_records()
]
scores.sort(key=lambda s: -s.bni)

print(f"{'address':<18} {'ver':>4} {'svc':>4} {'port':>4} {'hgt':>4} {'asn':>4} {'avail':>5}  bni")
for score in scores[:5] + scores[-3:]:
    print(
        f"{str(score.address):<18} {score.version_index:>4.2f} {score.service_index:>4.2f} "
        f"{score.port_index:>4.2f} {score.height_index:>4.2f} {score.asn_index:>4.2f} "
        f"{score.availability_index:>5.2f}  {score.bni:.2f}"
    )
print("...")
print(f"scored {len(scores)} nodes; best {scores[0].bni:.2f}, worst {scores[-1].bni:.2f}")

flappy_scores = [s.bni for s in scores if s.address in flappy]
stable_scores = [s.bni for s in scores if s.address not in flappy]
print(
    f"mean index, flappy nodes: {sum(flappy_scores) / len(flappy_scores):.2f} "
    f"vs stable nodes: {sum(stable_scores) / len(stable_scores):.2f}"
)
print("the gap comes from the uptime and availability components.")
