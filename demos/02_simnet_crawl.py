"""Crawl a simulated 300-peer network and check the result against its oracle.

The simulated network speaks the real wire protocol over virtual time, so
the full crawl below finishes in well under a second without sleeping.
The demo exits with status 1 if the crawl disagrees with the oracle or the
snapshot file does not round-trip.

Run: python3 demos/02_simnet_crawl.py
"""

import collections
import sys
import tempfile
import time
from pathlib import Path

from chainobs import crawler, simnet, snapshotstore

print("== Building a topology ==")
topo = simnet.random_topology(
    300,
    rng_seed=42,
    unreachable_fraction=0.30,  # NATed/private peers that refuse connections
    silent_fraction=0.05,       # accept, then never complete the handshake
    slow_fraction=0.05,         # extra response delay, still within timeouts
    stale_fraction=0.05,        # outdated protocol version
    empty_addr_fraction=0.05,   # answer getaddr with zero entries
)
mix = collections.Counter(p.behavior for p in topo.peers)
print(f"300 peers: {dict(mix)}")
print(f"seeds: {[str(s) for s in topo.seed_ids]}\n")

print("== Crawling ==")
network = simnet.build_network(topo)
config = crawler.CrawlConfig(seeds=topo.seed_ids, magic=network.magic)
started = time.monotonic()
snapshot = crawler.crawl(config, network)
elapsed = time.monotonic() - started
print(f"probed {snapshot.total_count} endpoints in {elapsed:.2f}s wall time")
print(f"active: {snapshot.active_count}, inactive: {snapshot.total_count - snapshot.active_count}\n")

print("== Checking against the breadth-first oracle ==")
checks = {
    "active set matches oracle": snapshot.active_addresses() == simnet.reachable_set(topo),
    "discovered set matches oracle": set(snapshot.records) == simnet.discovered_set(topo),
}
for name, ok in checks.items():
    print(f"{name + ':':31}{ok}")
print()

print("== What one active record looks like ==")
record = max(snapshot.active_records(), key=lambda r: r.addr_count_returned)
print(f"address:        {record.address}")
print(f"protocol:       {record.protocol_version}  ua: {record.user_agent}")
print(f"services:       {record.services:#x}  height: {record.start_height}")
print(f"min RTT:        {record.min_rtt_ms:.1f} ms over {config.ping_count} pings")
print(f"addrs returned: {record.addr_count_returned} in its one getaddr reply\n")

print("== Persisting and diffing snapshots ==")
with tempfile.TemporaryDirectory(prefix="chainobs-demo-") as workdir:
    first_path = Path(workdir) / f"first{snapshotstore.SNAPSHOT_SUFFIX}"
    snapshotstore.write_snapshot(snapshot, first_path)
    print(f"wrote {first_path.name} in a temporary directory")

    # Second crawl with a different rng seed: gossip samples differ, but with
    # full caches (<1000 known peers each) discovery converges to the same sets.
    second = crawler.crawl(config, simnet.build_network(simnet.SimTopology(topo.peers, topo.seed_ids, rng_seed=7)))
    churn = snapshotstore.diff(snapshot, second)
    print(f"diff vs re-crawl: joined={len(churn.joined)} left={len(churn.left)} stayed={len(churn.stayed)}")

    checks["snapshot file round-trips"] = snapshotstore.read_snapshot(first_path) == snapshot
    print(f"snapshot file round-trips: {checks['snapshot file round-trips']}")

failed = [name for name, ok in checks.items() if not ok]
if failed:
    sys.exit(f"FAILED: {', '.join(failed)}")
