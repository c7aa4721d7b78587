"""Temporal churn metrics and the composite 0-10 node quality index (bni).

Churn metrics operate on per-endpoint activity timelines: boolean vectors
on a uniform snapshot grid.  A *session* is a maximal run of consecutive
active entries; a *flapping event* is a reactivation after inactivity, so
flaps = sessions - 1.

The node index averages ten sub-metrics, each in [0, 1], and scales the
mean to [0, 10]:

* ``version_index``  = 1/r, r the popularity rank of the node's protocol
  version among active nodes (rank 1 = modal; ties share the better rank).
* ``service_index``  = Jaccard similarity between the node's service-flag
  bits and the modal services value's bits (1 when both are empty).
* ``port_index``     = 1 iff the node listens on the default port 8333.
* ``height_index``   = max(0, 1 - |height - median| / tolerance), with a
  144-block default tolerance (about one day of blocks).
* ``asn_index``      = ln(N/n)/ln(N) for n same-AS nodes out of N active
  nodes; unknown AS scores 0.
* five latency/uptime metrics: daily and weekly latency stability, overall
  latency trend, uptime, and availability.  A latency *excursion* at a
  sample is a min-RTT above (1+tau) times the exponentially weighted moving
  average of the preceding samples (the first sample never counts).
"""

from __future__ import annotations

import logging
import math
import statistics
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .crawler import Snapshot
from .enrich import NET_IPV4, NET_IPV6, NET_TOR, classify_network
from .transport import Endpoint, _Memo
from .wirecodec import DEFAULT_PORT

log = logging.getLogger(__name__)

DEFAULT_HEIGHT_TOLERANCE = 144
DEFAULT_EXCURSION_THRESHOLD = 0.5  # tau: fractional rise over the moving average
DEFAULT_EWMA_ALPHA = 0.3

SECONDS_PER_DAY = 86_400
SECONDS_PER_WEEK = 604_800

SUB_METRIC_NAMES = (
    "version_index",
    "service_index",
    "port_index",
    "height_index",
    "asn_index",
    "daily_latency_stability",
    "weekly_latency_stability",
    "latency_trend",
    "uptime_index",
    "availability_index",
)


class NeverActiveError(ValueError):
    """The timeline has no active entries at all."""


@dataclass(frozen=True)
class ActivityTimeline:
    """Per-endpoint activity on a uniform snapshot grid."""

    address: Endpoint
    interval_seconds: int
    activity: tuple[bool, ...]

    @property
    def observation_window_seconds(self) -> int:
        return len(self.activity) * self.interval_seconds

    def sessions(self) -> list[int]:
        """Run lengths of maximal consecutive-active stretches."""
        runs: list[int] = []
        current = 0
        for active in self.activity:
            if active:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        return runs

    def active_slots(self) -> list[int]:
        return [i for i, active in enumerate(self.activity) if active]


def mean_connection_time(timeline: ActivityTimeline) -> float:
    """Mean session duration in seconds."""
    sessions = timeline.sessions()
    if not sessions:
        raise NeverActiveError(str(timeline.address))
    return sum(sessions) * timeline.interval_seconds / len(sessions)


def flapping_events(timeline: ActivityTimeline) -> int:
    """Reactivations after the first activation: sessions - 1, floored at 0."""
    return max(0, len(timeline.sessions()) - 1)


# --- series assembly --------------------------------------------------------


@dataclass(frozen=True)
class TimelineSeries:
    """Activity timelines plus aligned min-RTT samples for a snapshot series.

    ``rtt_series[endpoint]`` holds one entry per *active* slot of the
    endpoint's timeline (None when that snapshot recorded no RTT).
    ``imputed_slots`` lists grid slots no snapshot covered; those slots are
    inactive for every node.  ``timelines`` and ``rtt_series`` hold every
    endpoint of every snapshot, in the order of first appearance: snapshots
    by start time, records within a snapshot in their stored order.  An
    endpoint seen only in a snapshot that lost its grid slot to a later one
    is inactive throughout.
    """

    interval_seconds: int
    slot_times: tuple[int, ...]
    timelines: dict[Endpoint, ActivityTimeline]
    rtt_series: dict[Endpoint, tuple[float | None, ...]]
    imputed_slots: tuple[int, ...]


def infer_interval(snapshots: Sequence[Snapshot]) -> int:
    """Smallest positive gap between the sorted snapshot start times, or 1 when
    no two start times differ.

    Missing snapshots leave gaps that are multiples of the base grid, so the
    minimum recovers it; series with jittery timing should pass an explicit
    interval instead.  A series that starts in one second is one grid slot,
    filled like any other slot that two snapshots share.
    """
    starts = sorted({snapshot.started_at for snapshot in snapshots})
    return min((b - a for a, b in zip(starts, starts[1:])), default=1)


def build_timelines(snapshots: Sequence[Snapshot], interval_seconds: int | None = None) -> TimelineSeries:
    """Place a snapshot series on a uniform grid and extract per-node series."""
    if not snapshots:
        raise ValueError("no snapshots")
    ordered = sorted(snapshots, key=lambda s: s.started_at)
    if interval_seconds is None:
        interval_seconds = infer_interval(ordered)
    elif interval_seconds <= 0:
        raise ValueError(f"grid interval must be positive, not {interval_seconds}")
    t0 = ordered[0].started_at
    span = ordered[-1].started_at - t0
    slot_count = int(round(span / interval_seconds)) + 1
    slots = [int(round((snapshot.started_at - t0) / interval_seconds)) for snapshot in ordered]
    kept: dict[int, int] = {}  # grid slot -> index in ordered of the snapshot that fills it
    for index, slot in enumerate(slots):
        if slot in kept:
            log.warning("two snapshots map to grid slot %d; keeping the later one", slot)
        kept[slot] = index

    imputed = tuple(i for i in range(slot_count) if i not in kept)
    if imputed:
        log.warning("%d of %d grid slots have no snapshot; imputed as inactive", len(imputed), slot_count)

    # one pass over the records, in slot order: activity row and active-slot RTTs per endpoint
    rows = _Memo(lambda address: ([False] * slot_count, []))
    for index, (snapshot, slot) in enumerate(zip(ordered, slots)):
        on_grid = kept[slot] == index
        for address, record in snapshot.records.items():
            activity, rtts = rows[address]
            if on_grid and record.is_active:
                activity[slot] = True
                rtts.append(record.min_rtt_ms)

    timelines = {
        address: ActivityTimeline(address, interval_seconds, tuple(activity))
        for address, (activity, _) in rows.items()
    }
    rtt_series = {address: tuple(rtts) for address, (_, rtts) in rows.items()}

    slot_times = tuple(t0 + i * interval_seconds for i in range(slot_count))
    return TimelineSeries(interval_seconds, slot_times, timelines, rtt_series, imputed)


@dataclass(frozen=True)
class SizePoint:
    started_at: int
    ipv4: int
    ipv6: int
    tor: int

    @property
    def total(self) -> int:
        return self.ipv4 + self.ipv6 + self.tor


def network_size_series(snapshots: Sequence[Snapshot], tor_exits: frozenset[str] = frozenset()) -> list[SizePoint]:
    """Active-node counts split by network type, ordered by snapshot time."""
    points = []
    for snapshot in sorted(snapshots, key=lambda s: s.started_at):
        counts = {NET_IPV4: 0, NET_IPV6: 0, NET_TOR: 0}
        for record in snapshot.active_records():
            counts[classify_network(record.address, tor_exits)] += 1
        points.append(SizePoint(snapshot.started_at, counts[NET_IPV4], counts[NET_IPV6], counts[NET_TOR]))
    return points


# --- sub-metrics -------------------------------------------------------------


class SnapshotStats:
    """Network-wide aggregates of one snapshot's active nodes.

    Built once and shared across per-node index computations so scoring a
    whole snapshot stays linear in its size.
    """

    def __init__(self, snapshot: Snapshot, asn_by_address: Mapping[Endpoint, int | None] | None = None):
        self.snapshot = snapshot
        active = snapshot.active_records()
        self.active_count = len(active)

        version_counts = Counter(r.protocol_version for r in active if r.protocol_version is not None)
        self.version_rank: dict[int, int] = {}
        for version, count in version_counts.items():
            # competition ranking: ties share the best (smallest) rank
            self.version_rank[version] = 1 + sum(1 for c in version_counts.values() if c > count)

        service_counts = Counter(r.services for r in active if r.services is not None)
        if service_counts:
            best = max(service_counts.values())
            self.modal_services: int | None = min(v for v, c in service_counts.items() if c == best)
        else:
            self.modal_services = None

        heights = [r.start_height for r in active if r.start_height is not None]
        self.median_height: float | None = statistics.median(heights) if heights else None

        self.asn_by_address: Mapping[Endpoint, int | None] = asn_by_address or {}
        self.asn_counts = Counter(
            self.asn_by_address.get(r.address)
            for r in active
            if self.asn_by_address.get(r.address) is not None
        )


def version_index(protocol_version: int | None, stats: SnapshotStats) -> float:
    """1/r for the popularity rank r of the node's protocol version."""
    if protocol_version is None:
        return 0.0
    rank = stats.version_rank.get(protocol_version)
    # a version nobody active runs ranks after every observed one
    if rank is None:
        rank = len(stats.version_rank) + 1
    return 1.0 / rank


def _bits(value: int) -> frozenset[int]:
    return frozenset(i for i in range(value.bit_length()) if value >> i & 1)


def service_index(services: int | None, stats: SnapshotStats) -> float:
    """Jaccard similarity of service-flag bits against the modal services."""
    if services is None or stats.modal_services is None:
        return 0.0
    mine, modal = _bits(services), _bits(stats.modal_services)
    if not mine and not modal:
        return 1.0
    return len(mine & modal) / len(mine | modal)


def port_index(port: int) -> float:
    return 1.0 if port == DEFAULT_PORT else 0.0


def height_index(
    start_height: int | None, stats: SnapshotStats, tolerance: int = DEFAULT_HEIGHT_TOLERANCE
) -> float:
    """1 at the network's median chain tip, 0 from ``tolerance`` (> 0) blocks away."""
    if tolerance <= 0:
        raise ValueError(f"height tolerance must be positive, got {tolerance}")
    if start_height is None or stats.median_height is None:
        return 0.0
    return max(0.0, 1.0 - abs(start_height - stats.median_height) / tolerance)


def asn_index(same_as_count: int, network_size: int) -> float:
    """ln(N/n)/ln(N): 1 when alone in its AS, 0 when the AS hosts everyone.

    Computed as 1 - ln(n)/ln(N), which is the same quantity with better
    float behavior at round ratios.
    """
    if same_as_count < 1 or network_size < 2:
        return 0.0
    value = 1.0 - math.log(same_as_count) / math.log(network_size)
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class LatencyUptimeMetrics:
    daily_latency_stability: float
    weekly_latency_stability: float
    latency_trend: float
    uptime_index: float
    availability_index: float


def latency_and_uptime_metrics(
    timeline: ActivityTimeline,
    rtt_series: Sequence[float | None],
    tau: float = DEFAULT_EXCURSION_THRESHOLD,
    alpha: float = DEFAULT_EWMA_ALPHA,
) -> LatencyUptimeMetrics:
    """The five temporal sub-metrics for one node.

    ``rtt_series`` must carry one entry per active timeline slot.  With no
    RTT samples at all the three latency metrics default to 1 (no observed
    instability).  ``alpha`` must lie in (0, 1] and ``tau`` must be finite and >= 0.
    """
    if not 0 < alpha <= 1:  # also false for nan
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0 <= tau < float("inf"):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")
    active_slots = timeline.active_slots()
    if not active_slots:
        raise NeverActiveError(str(timeline.address))
    if len(rtt_series) != len(active_slots):
        raise ValueError(
            f"rtt series has {len(rtt_series)} entries for {len(active_slots)} active slots"
        )

    samples = [
        (slot, rtt) for slot, rtt in zip(active_slots, rtt_series) if rtt is not None
    ]
    excursion_slots: list[int] = []
    ewma: float | None = None
    for slot, rtt in samples:
        if ewma is not None and rtt > (1.0 + tau) * ewma:
            excursion_slots.append(slot)
        ewma = rtt if ewma is None else alpha * rtt + (1.0 - alpha) * ewma

    def stability(bucket_seconds: int) -> float:
        observed = {slot * timeline.interval_seconds // bucket_seconds for slot, _ in samples}
        if not observed:
            return 1.0
        bad = {slot * timeline.interval_seconds // bucket_seconds for slot in excursion_slots}
        return 1.0 - len(bad) / len(observed)

    latency_trend = 1.0 - (len(excursion_slots) / len(samples) if samples else 0.0)
    uptime = mean_connection_time(timeline) / timeline.observation_window_seconds
    availability = len(active_slots) / len(timeline.activity)
    return LatencyUptimeMetrics(
        daily_latency_stability=stability(SECONDS_PER_DAY),
        weekly_latency_stability=stability(SECONDS_PER_WEEK),
        latency_trend=latency_trend,
        uptime_index=uptime,
        availability_index=availability,
    )


# --- the composite index -----------------------------------------------------


@dataclass(frozen=True)
class BniScore:
    """The ten sub-metrics and their 0-10 composite for one node."""

    address: Endpoint
    version_index: float
    service_index: float
    port_index: float
    height_index: float
    asn_index: float
    daily_latency_stability: float
    weekly_latency_stability: float
    latency_trend: float
    uptime_index: float
    availability_index: float
    bni: float

    def sub_metrics(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in SUB_METRIC_NAMES)


def compose_bni(sub_metrics: Sequence[float]) -> float:
    """Scale the arithmetic mean of the ten sub-metrics to [0, 10]."""
    if len(sub_metrics) != len(SUB_METRIC_NAMES):
        raise ValueError(f"expected {len(SUB_METRIC_NAMES)} sub-metrics, got {len(sub_metrics)}")
    return 10.0 * (sum(sub_metrics) / len(sub_metrics))


def bni(
    address: Endpoint,
    stats: SnapshotStats,
    timeline: ActivityTimeline,
    rtt_series: Sequence[float | None],
    *,
    tau: float = DEFAULT_EXCURSION_THRESHOLD,
    alpha: float = DEFAULT_EWMA_ALPHA,
    height_tolerance: int = DEFAULT_HEIGHT_TOLERANCE,
) -> BniScore:
    """Score one node active in the snapshot behind ``stats``."""
    record = stats.snapshot.records.get(address)
    if record is None or not record.is_active:
        raise NeverActiveError(f"{address} is not active in the scored snapshot")

    node_asn = stats.asn_by_address.get(address)
    if node_asn is None:
        asn_value = 0.0  # unverifiable uniqueness earns no credit
    else:
        asn_value = asn_index(stats.asn_counts.get(node_asn, 1), stats.active_count)

    temporal = latency_and_uptime_metrics(timeline, rtt_series, tau=tau, alpha=alpha)
    values = (
        version_index(record.protocol_version, stats),
        service_index(record.services, stats),
        port_index(address.port),
        height_index(record.start_height, stats, height_tolerance),
        asn_value,
        temporal.daily_latency_stability,
        temporal.weekly_latency_stability,
        temporal.latency_trend,
        temporal.uptime_index,
        temporal.availability_index,
    )
    return BniScore(address, *values, bni=compose_bni(values))
