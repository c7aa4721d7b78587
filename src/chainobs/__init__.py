"""chainobs: peer-to-peer network census and ledger analytics toolkit.

Discovers the reachable peer network by active wire-protocol crawling,
persists and diffs snapshots, scores node quality with a ten-part composite
index, tracks churn across snapshot series, clusters ledger addresses into
entities, and summarizes coin concentration (Lorenz curve, Gini index) and
mined-block shares per pool.  A deterministic in-process simulated network
makes the whole crawl path testable without touching the Internet.
"""

from .crawler import CrawlConfig, PeerRecord, Snapshot, bootstrap_seeds, crawl, probe_peer
from .ledger import (
    CoinJoinParams,
    EntityPartition,
    LedgerTx,
    PoolTagMap,
    attribute_miner,
    build_partition,
    entity_balances,
    gini,
    holder_share,
    is_coinjoin,
    lorenz_points,
    mining_shares,
    top_holders,
)
from .metrics import (
    ActivityTimeline,
    BniScore,
    SnapshotStats,
    bni,
    build_timelines,
    flapping_events,
    mean_connection_time,
    network_size_series,
)
from .simnet import SimPeerProfile, SimTopology, build_network, random_topology, reachable_set
from .snapshotstore import diff, read_snapshot, write_snapshot
from .transport import Endpoint, TcpTransport

__version__ = "0.1.0"

__all__ = [
    "ActivityTimeline",
    "BniScore",
    "CoinJoinParams",
    "CrawlConfig",
    "Endpoint",
    "EntityPartition",
    "LedgerTx",
    "PeerRecord",
    "PoolTagMap",
    "SimPeerProfile",
    "SimTopology",
    "Snapshot",
    "SnapshotStats",
    "TcpTransport",
    "attribute_miner",
    "bni",
    "bootstrap_seeds",
    "build_network",
    "build_partition",
    "build_timelines",
    "crawl",
    "diff",
    "entity_balances",
    "flapping_events",
    "gini",
    "holder_share",
    "is_coinjoin",
    "lorenz_points",
    "mean_connection_time",
    "mining_shares",
    "network_size_series",
    "probe_peer",
    "random_topology",
    "reachable_set",
    "read_snapshot",
    "top_holders",
    "write_snapshot",
]
