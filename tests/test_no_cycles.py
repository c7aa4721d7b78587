"""No run leaves a reference cycle behind.

A table that builds on a miss must not hold its owner: a builder such as a
bound method of the object that keeps the table makes the two a cycle, which
only the garbage collector frees.  Until it runs, every crawl, series or
ledger read keeps its whole heap.  So each run below goes with the collector
off, its results are dropped, and a collection must then find nothing.

The ledger run is also the condition under which ``ledger`` may pause the
collector: a read and an entity walk build with it paused, which is safe
only while what they build holds no cycle for a collection to free.
"""

import gc
import random

import pytest

from chainobs import crawler, ledger, metrics, simnet, snapshotstore, wirecodec
from chainobs.crawler import STATUS_ACTIVE, STATUS_INACTIVE
from helpers import concentrated_ledger, make_record, make_snapshot


def _garbage_cycles(run) -> int:
    """Objects in reference cycles that ``run()`` leaves unreachable once its result is dropped."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def _crawl():
    topology = simnet.random_topology(120, rng_seed=7, unreachable_fraction=0.2, silent_fraction=0.05)
    config = crawler.CrawlConfig(seeds=topology.seed_ids, magic=wirecodec.SIMNET_MAGIC, ping_count=2)
    crawler.crawl(config, simnet.build_network(topology))


@pytest.fixture
def series_directory(tmp_path):
    rng = random.Random(3)
    for slot in range(6):
        records = [
            make_record(f"10.0.0.{i}", status=rng.choice([STATUS_ACTIVE, STATUS_INACTIVE]), min_rtt_ms=5.0 + i)
            for i in range(1, 40)
        ]
        snapshot = make_snapshot(records, started_at=1_600_000_000 + 600 * slot)
        snapshotstore.write_snapshot(snapshot, snapshotstore.series_path(tmp_path, snapshot.started_at))
    return tmp_path


@pytest.fixture
def ledger_path(tmp_path):
    path = tmp_path / "cycles.ldg"
    ledger.write_ledger(concentrated_ledger()[0], path)
    return path


def test_a_simnet_crawl_leaves_no_cycle():
    assert _garbage_cycles(_crawl) == 0


def test_a_series_read_and_its_timelines_leave_no_cycle(series_directory):
    assert _garbage_cycles(lambda: metrics.build_timelines(snapshotstore.load_series(series_directory))) == 0


def test_a_ledger_read_and_its_balances_leave_no_cycle(ledger_path):
    def run():
        txs = ledger.read_ledger(ledger_path)
        partition = ledger.build_partition(txs)
        partition.entities()
        ledger.top_holders(ledger.entity_balances(txs, partition), partition, 10)

    assert _garbage_cycles(run) == 0
