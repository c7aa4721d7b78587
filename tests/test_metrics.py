"""Churn metric and node-index tests."""

import random
from fractions import Fraction

import pytest

from chainobs import metrics
from chainobs.crawler import STATUS_ACTIVE, STATUS_INACTIVE
from chainobs.metrics import SnapshotStats
from chainobs.transport import Endpoint
from helpers import make_record, make_snapshot, timeline


# --- churn --------------------------------------------------------------------


def test_mean_connection_time_fixture():
    t = timeline([1, 1, 1, 0, 1, 1], interval=1800)
    assert t.sessions() == [3, 2]
    assert metrics.mean_connection_time(t) == 4500.0


def test_mean_connection_time_always_active():
    for n in (1, 4, 9):
        t = timeline([1] * n, interval=1800)
        assert metrics.mean_connection_time(t) == n * 1800


def test_mean_connection_time_never_active():
    with pytest.raises(metrics.NeverActiveError):
        metrics.mean_connection_time(timeline([0, 0, 0]))


def test_latency_and_uptime_metrics_never_active():
    with pytest.raises(metrics.NeverActiveError):
        metrics.latency_and_uptime_metrics(timeline([0, 0, 0]), [])


def test_mean_connection_time_is_the_exact_rational():
    rng = random.Random(5)
    for _ in range(200):
        bits = [rng.random() < 0.6 for _ in range(rng.randint(1, 50))]
        t = timeline(bits, interval=1800)
        sessions = t.sessions()
        if not sessions:
            continue
        mean = metrics.mean_connection_time(t)
        assert mean == float(Fraction(sum(sessions) * 1800, len(sessions)))


@pytest.mark.parametrize(
    "bits,expected",
    [([1, 1, 1, 0, 1, 1], 1), ([1, 1, 1], 0), ([1, 0, 1, 0, 1], 2), ([0, 0], 0), ([0, 1, 0, 1], 1)],
)
def test_flapping_events(bits, expected):
    assert metrics.flapping_events(timeline(bits)) == expected


def test_flaps_equal_sessions_minus_one_on_random_timelines():
    rng = random.Random(17)
    for _ in range(100):
        bits = [rng.random() < 0.5 for _ in range(rng.randint(1, 60))]
        t = timeline(bits)
        sessions = len(t.sessions())
        if sessions >= 1:
            assert metrics.flapping_events(t) == sessions - 1


# --- size series -----------------------------------------------------------------


def test_network_size_series_split_by_type():
    snapshot = make_snapshot(
        [
            make_record("10.0.0.1"),
            make_record("10.0.0.2"),
            make_record("fd87:d87e:eb43::1"),
            make_record("2001:db8::1", status=STATUS_INACTIVE),
        ]
    )
    (point,) = metrics.network_size_series([snapshot])
    assert (point.ipv4, point.ipv6, point.tor, point.total) == (2, 0, 1, 3)


def test_network_size_series_empty_snapshot():
    (point,) = metrics.network_size_series([make_snapshot([])])
    assert (point.ipv4, point.ipv6, point.tor, point.total) == (0, 0, 0, 0)


def test_network_size_series_totals_property():
    rng = random.Random(3)
    snapshots = []
    for start in range(5):
        records = []
        for i in range(rng.randint(0, 20)):
            ip = rng.choice([f"10.0.{start}.{i}", f"2001:db8::{start:x}:{i:x}", f"fd87:d87e:eb43::{start:x}:{i:x}"])
            records.append(make_record(ip, status=rng.choice(["active", STATUS_INACTIVE])))
        snapshots.append(make_snapshot(records, started_at=1000 + start * 60))
    for point in metrics.network_size_series(snapshots):
        assert point.total == point.ipv4 + point.ipv6 + point.tor


# --- per-snapshot sub-metrics -------------------------------------------------------


def _stats(version_counts: dict[int, int], **kwargs) -> SnapshotStats:
    records = []
    i = 0
    for version, count in version_counts.items():
        for _ in range(count):
            i += 1
            records.append(make_record(f"10.0.{i // 256}.{i % 256}", protocol_version=version))
    return SnapshotStats(make_snapshot(records), **kwargs)


def test_version_index_modal_and_ranks():
    stats = _stats({70015: 5, 70014: 3, 70012: 1})
    assert metrics.version_index(70015, stats) == 1.0
    assert metrics.version_index(70014, stats) == 0.5
    assert metrics.version_index(70012, stats) == pytest.approx(1 / 3)


def test_version_index_tie_shares_better_rank():
    stats = _stats({70015: 4, 70014: 4, 70010: 1})
    assert metrics.version_index(70015, stats) == 1.0
    assert metrics.version_index(70014, stats) == 1.0
    assert metrics.version_index(70010, stats) == pytest.approx(1 / 3)


def test_version_index_unseen_version_ranks_last():
    stats = _stats({70015: 2, 70014: 1})
    assert metrics.version_index(60001, stats) == pytest.approx(1 / 3)
    assert metrics.version_index(None, stats) == 0.0


def test_service_index_jaccard():
    records = [make_record(f"10.0.0.{i}", services=0b1011) for i in range(3)]
    records.append(make_record("10.0.1.1", services=0b0011))
    stats = SnapshotStats(make_snapshot(records))
    assert stats.modal_services == 0b1011
    assert metrics.service_index(0b1011, stats) == 1.0
    assert metrics.service_index(0b0011, stats) == pytest.approx(2 / 3)
    assert metrics.service_index(0b0100, stats) == 0.0


def test_service_index_empty_sets():
    stats = SnapshotStats(make_snapshot([make_record("10.0.0.1", services=0)]))
    assert metrics.service_index(0, stats) == 1.0


def test_service_index_without_services_or_modal_services_is_zero():
    stats = SnapshotStats(make_snapshot([make_record("10.0.0.1", services=0b1011)]))
    assert metrics.service_index(None, stats) == 0.0
    no_modal = SnapshotStats(make_snapshot([make_record("10.0.0.1", services=None)]))
    assert no_modal.modal_services is None
    assert metrics.service_index(0b1011, no_modal) == 0.0


def test_port_index():
    assert metrics.port_index(8333) == 1.0
    assert metrics.port_index(8334) == 0.0


def test_height_index():
    records = [make_record(f"10.0.0.{i}", start_height=600_000) for i in range(3)]
    stats = SnapshotStats(make_snapshot(records))
    assert metrics.height_index(600_000, stats) == 1.0
    assert metrics.height_index(600_000 - 72, stats) == 0.5
    assert metrics.height_index(600_000 + 72, stats) == 0.5
    assert metrics.height_index(600_000 - 1000, stats) == 0.0
    assert metrics.height_index(None, stats) == 0.0


@pytest.mark.parametrize("tolerance", [0, -5])
def test_height_index_rejects_a_tolerance_that_is_not_positive(tolerance):
    stats = SnapshotStats(make_snapshot([make_record("10.0.0.1", start_height=600_000)]))
    for height in (600_000, None):
        with pytest.raises(ValueError, match="height tolerance must be positive"):
            metrics.height_index(height, stats, tolerance)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"alpha": 0.0}, "alpha must lie in (0, 1], got 0.0"),
        ({"alpha": 1.5}, "alpha must lie in (0, 1], got 1.5"),
        ({"alpha": float("nan")}, "alpha must lie in (0, 1], got nan"),
        ({"tau": -0.1}, "tau must be finite and >= 0, got -0.1"),
        ({"tau": float("inf")}, "tau must be finite and >= 0, got inf"),
        ({"tau": float("nan")}, "tau must be finite and >= 0, got nan"),
    ],
)
def test_latency_metrics_reject_an_alpha_or_tau_out_of_range(options, message):
    with pytest.raises(ValueError) as err:
        metrics.latency_and_uptime_metrics(timeline([1, 1]), [10.0, 20.0], **options)
    assert str(err.value) == message


def test_latency_metrics_accept_the_ends_of_the_alpha_and_tau_ranges():
    result = metrics.latency_and_uptime_metrics(timeline([1, 1, 1]), [10.0, 10.0, 10.5], tau=0.0, alpha=1.0)
    assert result.latency_trend == pytest.approx(2 / 3)  # with tau 0, any rise is an excursion


def test_asn_index_formula():
    assert metrics.asn_index(1, 100) == 1.0
    assert metrics.asn_index(100, 100) == 0.0
    assert metrics.asn_index(10, 10_000) == 0.75  # exact


def test_asn_index_strictly_decreasing_in_same_as_count():
    for total in (2, 10, 1000):
        values = [metrics.asn_index(n, total) for n in range(1, total + 1)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_asn_index_degenerate_network():
    assert metrics.asn_index(1, 1) == 0.0
    assert metrics.asn_index(0, 100) == 0.0


# --- latency / uptime -----------------------------------------------------------


def test_constant_rtt_series_has_no_excursions():
    t = timeline([1] * 8, interval=1800)
    result = metrics.latency_and_uptime_metrics(t, [50.0] * 8)
    assert result.daily_latency_stability == 1.0
    assert result.weekly_latency_stability == 1.0
    assert result.latency_trend == 1.0


def test_always_active_node_has_full_uptime_and_availability():
    t = timeline([1] * 10, interval=1800)
    result = metrics.latency_and_uptime_metrics(t, [None] * 10)
    assert result.availability_index == 1.0
    assert result.uptime_index == 1.0
    assert result.latency_trend == 1.0  # no samples, no evidence of instability


def test_ewma_excursion_fixture():
    t = timeline([1, 1, 1, 1], interval=1800)
    result = metrics.latency_and_uptime_metrics(t, [100.0, 100.0, 100.0, 200.0], tau=0.5)
    assert result.latency_trend == 0.75
    # all four samples land in the same day, which has an excursion
    assert result.daily_latency_stability == 0.0


def test_first_sample_is_never_an_excursion():
    t = timeline([1], interval=1800)
    result = metrics.latency_and_uptime_metrics(t, [10_000.0])
    assert result.latency_trend == 1.0


def test_daily_stability_counts_days_with_excursions():
    # interval = half a day; slots 0..3 cover two days, excursion on day 1 only
    t = timeline([1, 1, 1, 1], interval=43_200)
    result = metrics.latency_and_uptime_metrics(t, [100.0, 100.0, 400.0, 100.0], tau=0.5)
    assert result.daily_latency_stability == 0.5
    assert result.weekly_latency_stability == 0.0  # single week, excursion present


def test_uptime_index_fixture():
    t = timeline([1, 1, 1, 0, 1, 1], interval=1800)
    result = metrics.latency_and_uptime_metrics(t, [None] * 5)
    assert result.uptime_index == pytest.approx(4500.0 / (6 * 1800))
    assert result.availability_index == pytest.approx(5 / 6)


def test_rtt_series_length_mismatch_rejected():
    with pytest.raises(ValueError):
        metrics.latency_and_uptime_metrics(timeline([1, 0, 1]), [10.0])


def test_excursion_threshold_is_configurable():
    t = timeline([1, 1], interval=1800)
    loose = metrics.latency_and_uptime_metrics(t, [100.0, 140.0], tau=0.5)
    tight = metrics.latency_and_uptime_metrics(t, [100.0, 140.0], tau=0.3)
    assert loose.latency_trend == 1.0
    assert tight.latency_trend == 0.5


# --- composite -------------------------------------------------------------------


def test_compose_bni_examples():
    assert metrics.compose_bni([1.0] * 10) == 10.0
    assert metrics.compose_bni([0.0] * 10) == 0.0
    assert metrics.compose_bni([1.0] * 5 + [0.0] * 5) == 5.0
    with pytest.raises(ValueError):
        metrics.compose_bni([1.0] * 9)


def _two_node_world():
    a = make_record("10.0.0.1", services=9, protocol_version=70015, start_height=600_000)
    b = make_record("10.0.0.2", services=9, protocol_version=70015, start_height=600_000)
    snapshot = make_snapshot([a, b])
    asn = {a.address: 100, b.address: 200}
    return snapshot, SnapshotStats(snapshot, asn), a.address


def test_bni_perfect_node_scores_ten():
    _, stats, address = _two_node_world()
    t = timeline([1, 1, 1], ip="10.0.0.1")
    score = metrics.bni(address, stats, t, [20.0, 20.0, 20.0])
    assert score.sub_metrics() == (1.0,) * 10
    assert score.bni == 10.0


def test_bni_equals_ten_times_mean_of_sub_metrics():
    _, stats, address = _two_node_world()
    t = timeline([1, 0, 1, 1], ip="10.0.0.1")
    score = metrics.bni(address, stats, t, [20.0, 20.0, 90.0])
    assert score.bni == metrics.compose_bni(score.sub_metrics())
    assert 0.0 <= score.bni <= 10.0


def test_bni_requires_active_node():
    snapshot = make_snapshot([make_record("10.0.0.1", status=STATUS_INACTIVE)])
    stats = SnapshotStats(snapshot)
    with pytest.raises(metrics.NeverActiveError):
        metrics.bni(Endpoint.make("10.0.0.1"), stats, timeline([1]), [None])


def test_bni_unknown_asn_scores_zero_on_that_component():
    snapshot, _, address = _two_node_world()
    stats = SnapshotStats(snapshot)  # no ASN mapping provided
    score = metrics.bni(address, stats, timeline([1], ip="10.0.0.1"), [None])
    assert score.asn_index == 0.0


def _random_world(rng, node_count=40):
    records = []
    for i in range(node_count):
        records.append(
            make_record(
                f"10.0.{i // 256}.{i % 256}",
                port=rng.choice([8333, 8334]),
                services=rng.choice([0, 1, 9, 1033]),
                protocol_version=rng.choice([70015, 70014, 70012]),
                start_height=600_000 + rng.randint(-300, 300),
            )
        )
    snapshot = make_snapshot(records)
    asn = {r.address: rng.choice([None, 1, 2, 3]) for r in records}
    return snapshot, SnapshotStats(snapshot, asn)


def test_bni_bounds_on_randomized_nodes():
    rng = random.Random(11)
    snapshot, stats = _random_world(rng)
    for record in snapshot.active_records():
        length = rng.randint(1, 30)
        bits = [rng.random() < 0.7 for _ in range(length)]
        if not any(bits):
            bits[0] = True
        t = metrics.ActivityTimeline(record.address, 1800, tuple(bits))
        rtts = [rng.choice([None, rng.uniform(5, 500)]) for _ in range(sum(bits))]
        score = metrics.bni(record.address, stats, t, rtts)
        assert 0.0 <= score.bni <= 10.0
        for value in score.sub_metrics():
            assert 0.0 <= value <= 1.0


def test_moving_to_the_modal_version_never_lowers_the_score():
    rng = random.Random(23)
    for _ in range(20):
        snapshot, stats = _random_world(rng, node_count=15)
        target = rng.choice(snapshot.active_records())
        t = metrics.ActivityTimeline(target.address, 1800, (True, True))
        rtts = [20.0, 20.0]
        before = metrics.bni(target.address, stats, t, rtts)

        modal = max(stats.version_rank, key=lambda v: -stats.version_rank[v])
        # rebuild the world with the target switched to the modal version
        records = []
        for record in snapshot.records.values():
            if record.address == target.address:
                records.append(
                    make_record(
                        record.address.ip,
                        port=record.address.port,
                        services=record.services,
                        protocol_version=modal,
                        start_height=record.start_height,
                    )
                )
            else:
                records.append(record)
        modal_stats = metrics.SnapshotStats(make_snapshot(records), stats.asn_by_address)
        after = metrics.bni(target.address, modal_stats, t, rtts)
        assert after.bni >= before.bni - 1e-12


# --- timeline assembly -------------------------------------------------------------


def _series_snapshots():
    a, b = "10.0.0.1", "10.0.0.2"
    s1 = make_snapshot([make_record(a, min_rtt_ms=10.0), make_record(b, min_rtt_ms=30.0)], started_at=1000)
    s2 = make_snapshot([make_record(a, min_rtt_ms=12.0), make_record(b, status=STATUS_INACTIVE)], started_at=1600)
    # 2200 missing entirely; imputed as inactive
    s3 = make_snapshot([make_record(a, min_rtt_ms=None)], started_at=2800)
    return [s1, s2, s3]


def test_build_timelines_grid_and_imputation():
    series = metrics.build_timelines(_series_snapshots(), interval_seconds=600)
    assert series.imputed_slots == (2,)
    a = series.timelines[Endpoint.make("10.0.0.1")]
    b = series.timelines[Endpoint.make("10.0.0.2")]
    assert a.activity == (True, True, False, True)
    assert b.activity == (True, False, False, False)
    assert series.rtt_series[Endpoint.make("10.0.0.1")] == (10.0, 12.0, None)
    assert series.rtt_series[Endpoint.make("10.0.0.2")] == (30.0,)


def test_build_timelines_infers_interval():
    series = metrics.build_timelines(_series_snapshots())
    assert series.interval_seconds == 600
    # the smallest gap between the sorted start times, whatever the input order
    shuffled = [make_snapshot([], started_at=t) for t in (1600, 1000, 2800, 2800)]
    assert metrics.infer_interval(shuffled) == 600


def test_build_timelines_rejects_empty_input():
    with pytest.raises(ValueError):
        metrics.build_timelines([])


def test_build_timelines_reads_one_start_time_as_one_slot(caplog):
    earlier, later = (make_snapshot([make_record(ip)], started_at=1000) for ip in ("10.0.0.1", "10.0.0.2"))
    with caplog.at_level("WARNING", logger="chainobs.metrics"):
        series = metrics.build_timelines([earlier, later])
    assert (series.interval_seconds, series.slot_times, series.imputed_slots) == (1, (1000,), ())
    # the later snapshot in series order fills the slot
    assert series.timelines[Endpoint.make("10.0.0.2")].activity == (True,)
    assert series.timelines[Endpoint.make("10.0.0.1")].activity == (False,)
    assert "two snapshots map to grid slot 0; keeping the later one" in caplog.text


@pytest.mark.parametrize("interval", [0, -600])
def test_build_timelines_rejects_a_grid_interval_of_zero_or_less(interval):
    with pytest.raises(ValueError, match="grid interval must be positive"):
        metrics.build_timelines(_series_snapshots(), interval_seconds=interval)


def test_build_timelines_keys_follow_first_appearance():
    a, b, c, d = (Endpoint.make(f"10.0.0.{i}") for i in (1, 2, 3, 4))
    s1 = make_snapshot([make_record("10.0.0.2"), make_record("10.0.0.1")], started_at=1000)
    displaced = make_snapshot([make_record("10.0.0.4"), make_record("10.0.0.1")], started_at=1590)
    s2 = make_snapshot([make_record("10.0.0.3"), make_record("10.0.0.1")], started_at=1600)
    series = metrics.build_timelines([s2, displaced, s1], interval_seconds=600)
    assert list(series.timelines) == list(series.rtt_series) == [b, a, d, c]
    # d lost its only snapshot's grid slot to s2
    assert series.timelines[d].activity == (False, False)
    assert series.rtt_series[d] == ()


def _build_timelines_per_address(snapshots, interval_seconds=None):
    """The reference: build_timelines as it was, one lookup per address and grid slot."""
    ordered = sorted(snapshots, key=lambda s: s.started_at)
    if interval_seconds is None:
        interval_seconds = metrics.infer_interval(ordered)
    t0 = ordered[0].started_at
    span = ordered[-1].started_at - t0
    slot_count = int(round(span / interval_seconds)) + 1
    by_slot = {}
    for snapshot in ordered:
        by_slot[int(round((snapshot.started_at - t0) / interval_seconds))] = snapshot
    imputed = tuple(i for i in range(slot_count) if i not in by_slot)
    addresses = set()
    for snapshot in ordered:
        addresses.update(snapshot.records)
    timelines = {}
    rtt_series = {}
    for address in addresses:
        activity = []
        rtts = []
        for slot in range(slot_count):
            snapshot = by_slot.get(slot)
            record = snapshot.records.get(address) if snapshot else None
            active = record is not None and record.is_active
            activity.append(active)
            if active:
                rtts.append(record.min_rtt_ms)
        timelines[address] = metrics.ActivityTimeline(address, interval_seconds, tuple(activity))
        rtt_series[address] = tuple(rtts)
    slot_times = tuple(t0 + i * interval_seconds for i in range(slot_count))
    return metrics.TimelineSeries(interval_seconds, slot_times, timelines, rtt_series, imputed)


def _random_series(rng):
    """A series with missing slots, inactive records, None RTTs, and slots filled twice,
    where the displaced snapshot may hold an address no other snapshot has.  Some
    series are one snapshot, or several that start in the same second."""
    interval = rng.choice([60, 600, 1800])
    pool = [f"10.0.{i // 256}.{i % 256}" for i in range(rng.randint(1, 30))] + ["2001:db8::1", "fd87:d87e:eb43::9"]
    snapshots = []
    ghosts = 0

    def snapshot_at(started_at, extra=()):
        records = [
            make_record(
                ip,
                port=rng.choice([8333, 18333]),
                status=rng.choice([STATUS_ACTIVE, STATUS_ACTIVE, STATUS_INACTIVE]),
                min_rtt_ms=rng.choice([None, round(rng.uniform(1, 300), 3)]),
            )
            for ip in rng.sample(pool, rng.randint(0, len(pool)))
        ]
        return make_snapshot(records + list(extra), started_at=started_at)

    if rng.random() < 0.15:
        one_second = [snapshot_at(10_000) for _ in range(rng.randint(1, 4))]
        return one_second, rng.choice([None, interval])

    slot_count = rng.randint(1, 12)
    for slot in range(slot_count):
        start = 10_000 + slot * interval
        if 0 < slot < slot_count - 1 and rng.random() < 0.2:
            continue  # a missing snapshot
        if rng.random() < 0.25:
            ghosts += 1
            ghost = make_record(f"192.0.2.{ghosts}", min_rtt_ms=rng.choice([None, 5.0]))
            # the displaced snapshot starts at or just before the one that keeps the slot
            snapshots.append(snapshot_at(start - rng.choice([0, interval // 4]), [ghost]))
        snapshots.append(snapshot_at(start))
        if rng.random() < 0.1:
            snapshots.append(snapshots[-1])  # the same snapshot twice
    rng.shuffle(snapshots)
    return snapshots, rng.choice([None, interval])


def test_build_timelines_matches_the_per_address_loop_on_random_series():
    rng = random.Random(1010)
    displaced_only = 0
    inferred_one_snapshot = inferred_one_second = 0
    for _ in range(300):
        snapshots, interval = _random_series(rng)
        if interval is None and len({s.started_at for s in snapshots}) == 1:
            if len(snapshots) == 1:
                inferred_one_snapshot += 1
            else:
                inferred_one_second += 1
        series = metrics.build_timelines(snapshots, interval)
        reference = _build_timelines_per_address(snapshots, interval)
        assert series.timelines == reference.timelines
        assert series.rtt_series == reference.rtt_series
        assert series.slot_times == reference.slot_times
        assert series.imputed_slots == reference.imputed_slots
        assert series.interval_seconds == reference.interval_seconds
        displaced_only += sum(1 for a in series.timelines if a.ip.startswith("192.0.2."))
    assert displaced_only > 50  # the generator really made the displaced-snapshot case
    assert inferred_one_snapshot > 5 and inferred_one_second > 5  # and one-slot series to infer a grid for


def test_version_rank_modal_lookup_helper():
    stats = _stats({70015: 3, 70014: 1})
    assert stats.version_rank == {70015: 1, 70014: 2}
