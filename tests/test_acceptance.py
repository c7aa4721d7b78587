"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The fuzz iteration count defaults to the full CI size (10**6) and
can be lowered for quick local runs via CHAINOBS_FUZZ_ITERS.
"""

import math
import os
import random
import sys
import time

import numpy as np
import pytest

from chainobs import crawler, ledger, metrics, simnet, wirecodec
from chainobs.crawler import CrawlConfig
from chainobs.ledger import COIN
from chainobs.metrics import SnapshotStats
from chainobs.transport import Endpoint
from helpers import (
    components_oracle,
    concentrated_ledger,
    cospend_txs,
    make_record,
    make_snapshot,
    timeline,
    zero_fee_ledger,
)

from cryptography.hazmat.primitives import hashes as _crypto_hashes


def _verdict(number: int, text: str):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def _report_failure(number: int, text: str):
    print(f"ACCEPTANCE {number}: FAIL - {text}", file=sys.stderr)


class _criterion:
    def __init__(self, number: int, text: str):
        self.number = number
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            _verdict(self.number, self.text)
        else:
            _report_failure(self.number, self.text)
        return False


def test_criterion_1_crawl_completeness():
    with _criterion(1, "500-peer crawl marks active exactly the reachable-set oracle"):
        topo = simnet.random_topology(
            500,
            rng_seed=2024,
            unreachable_fraction=0.30,
            silent_fraction=0.05,
            slow_fraction=0.05,
        )
        network = simnet.build_network(topo)
        config = CrawlConfig(seeds=topo.seed_ids, magic=network.magic, max_inflight=64)
        started = time.monotonic()
        snapshot = crawler.crawl(config, network)
        elapsed = time.monotonic() - started

        assert snapshot.active_addresses() == simnet.reachable_set(topo)
        assert set(snapshot.records) == simnet.discovered_set(topo)
        gossiped = set(topo.seed_ids)
        for profile in topo.peers:
            if profile.address in snapshot.active_addresses() and profile.behavior != "empty-addr":
                gossiped.update(profile.known_peers)
        assert gossiped <= set(snapshot.records)  # 100% of gossiped endpoints discovered
        assert elapsed < 60.0, f"crawl took {elapsed:.1f}s"


def test_criterion_2_codec_soundness():
    iterations = int(os.environ.get("CHAINOBS_FUZZ_ITERS", "1000000"))
    with _criterion(2, f"codec round trips and {iterations} fuzzed decodes without a crash"):
        rng = random.Random(0xC0FFEE)
        magic = wirecodec.MAINNET_MAGIC

        # empty-payload checksum against an independent double-SHA-256 oracle
        digest = _crypto_hashes.Hash(_crypto_hashes.SHA256())
        digest.update(b"")
        outer = _crypto_hashes.Hash(_crypto_hashes.SHA256())
        outer.update(digest.finalize())
        assert wirecodec.encode_message("verack", b"", magic)[20:24] == outer.finalize()[:4]

        commands = ["version", "verack", "addr", "getaddr", "ping", "pong", "inv", "tx"]
        for _ in range(10_000):
            command = rng.choice(commands)
            payload = rng.randbytes(rng.randrange(0, 512))
            assert wirecodec.decode_message(wirecodec.encode_message(command, payload, magic), magic) == (
                command,
                payload,
            )

        templates = [
            wirecodec.encode_message("verack", b"", magic),
            wirecodec.encode_message("ping", wirecodec.encode_ping(7), magic),
            wirecodec.encode_message(
                "addr",
                wirecodec.encode_addr([wirecodec.AddrEntry(1, 1, "10.0.0.1", 8333)]),
                magic,
            ),
        ]
        payload_decoders = (
            wirecodec.decode_version,
            wirecodec.decode_addr,
            wirecodec.addr_keys,
            wirecodec.decode_varint,
            wirecodec.decode_ping,
        )
        for i in range(iterations):
            mode = i & 3
            if mode == 0:
                data = rng.randbytes(rng.randrange(0, 80))
            elif mode == 1:
                frame = bytearray(templates[i % len(templates)])
                frame[rng.randrange(len(frame))] ^= 1 << rng.randrange(8)
                data = bytes(frame)
            elif mode == 2:
                data = templates[i % len(templates)]
            else:
                try:
                    payload_decoders[i % len(payload_decoders)](rng.randbytes(rng.randrange(0, 120)))
                except wirecodec.CodecError:
                    pass
                continue
            try:
                decoded = wirecodec.decode_message(data, magic)
                if mode == 2:
                    assert decoded[0] in ("verack", "ping", "addr")
            except wirecodec.CodecError:
                assert mode != 2  # intact frames must decode


def test_criterion_3_clustering_oracle():
    with _criterion(3, "partition equals BFS components on 10k random txs; co-spend fixture merges"):
        txs = cospend_txs(random.Random(99), 10_000, address_pool=1500)
        partition = ledger.build_partition(txs)
        assert set(partition.entities().values()) == components_oracle(txs)

        fixture = [
            ledger.LedgerTx("cb", 0, 0, True, (), (("A", COIN), ("B", COIN), ("C", 2 * COIN), ("D", COIN)), b"x"),
            ledger.LedgerTx("t1", 1, 600, False, (("A", COIN), ("B", COIN), ("C", COIN)), (("A", 3 * COIN),)),
            ledger.LedgerTx("t2", 2, 1200, False, (("C", COIN), ("D", COIN)), (("D", 2 * COIN),)),
        ]
        assert ledger.build_partition(fixture).entities() == {"A": frozenset("ABCD")}


def test_criterion_4_gini_and_lorenz():
    with _criterion(4, "gini matches the pairwise oracle; concentration fixture reports 85%/Gini>0.9"):
        assert ledger.gini([1, 1, 1, 1]) == 0.0
        assert ledger.gini([0, 0, 0, 1]) == 0.75

        rng = np.random.default_rng(404)
        for _ in range(1000):
            n = int(rng.integers(1, 501))
            values = rng.integers(0, 10**9, size=n)
            if values.sum() == 0:
                values[0] = 1
            x = values.astype(np.float64)
            oracle = float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n * x.sum()))
            assert math.isclose(ledger.gini(values), oracle, abs_tol=1e-12)

        txs, entity_count, top_count, (top_total, grand_total) = concentrated_ledger()
        partition = ledger.build_partition(txs)
        balances = ledger.entity_balances(txs, partition)
        nonzero = {e: b for e, b in balances.items() if b > 0}
        assert len(nonzero) == entity_count
        assert top_count / entity_count == 0.045  # exactly 4.5% of entities

        rows = ledger.top_holders(nonzero, partition, k=top_count)
        assert abs(rows[-1].cumulative_share - 0.85) <= 1e-9
        assert abs(rows[-1].cumulative_share - top_total / grand_total) <= 1e-15
        assert ledger.gini(list(nonzero.values())) > 0.9


def test_criterion_5_node_index_formulas():
    with _criterion(5, "AS/version index formulas exact; index within [0,10] on 10k random nodes"):
        assert metrics.asn_index(10, 10_000) == 0.75
        assert metrics.asn_index(1, 12) == 1.0
        assert metrics.asn_index(12, 12) == 0.0

        records = []
        for i, version in enumerate([70015] * 5 + [70014] * 3 + [70012] * 2):
            records.append(make_record(f"10.1.{i // 256}.{i % 256}", protocol_version=version))
        stats = SnapshotStats(make_snapshot(records))
        assert metrics.version_index(70015, stats) == 1.0
        assert metrics.version_index(70014, stats) == 1 / 2
        assert metrics.version_index(70012, stats) == 1 / 3

        fixture = metrics.latency_and_uptime_metrics(
            timeline([1, 1, 1, 1]), [100.0, 100.0, 100.0, 200.0], tau=0.5
        )
        assert fixture.latency_trend == 0.75

        rng = random.Random(55)
        records = [
            make_record(
                f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}",
                port=rng.choice([8333, 8334, 18333]),
                services=rng.getrandbits(4),
                protocol_version=rng.choice([70015, 70014, 70013, 70011]),
                start_height=600_000 + rng.randint(-500, 500),
            )
            for i in range(10_000)
        ]
        snapshot = make_snapshot(records)
        asn_by_address = {r.address: rng.choice([None, 1, 2, 3, 4, 5]) for r in records}
        stats = SnapshotStats(snapshot, asn_by_address)
        for record in records:
            bits = [rng.random() < 0.8 for _ in range(12)]
            if not any(bits):
                bits[0] = True
            t = metrics.ActivityTimeline(record.address, 1800, tuple(bits))
            rtts = [rng.choice([None, rng.uniform(1, 400)]) for _ in range(sum(bits))]
            score = metrics.bni(record.address, stats, t, rtts)
            assert 0.0 <= score.bni <= 10.0
            assert all(0.0 <= v <= 1.0 for v in score.sub_metrics())


def test_criterion_6_churn_metrics():
    with _criterion(6, "churn fixture gives 4500s mean and 1 flap; flaps = sessions - 1"):
        fixture = timeline([1, 1, 1, 0, 1, 1], interval=1800)
        assert metrics.mean_connection_time(fixture) == 4500.0
        assert metrics.flapping_events(fixture) == 1

        rng = random.Random(66)
        for _ in range(100):
            bits = [rng.random() < 0.5 for _ in range(rng.randint(1, 80))]
            t = timeline(bits)
            sessions = len(t.sessions())
            if sessions >= 1:
                assert metrics.flapping_events(t) == sessions - 1
            else:
                assert metrics.flapping_events(t) == 0


def test_criterion_7_balance_conservation():
    with _criterion(7, "entity balances sum exactly to coinbase issuance on a zero-fee ledger"):
        txs, issued = zero_fee_ledger(random.Random(77), 10_000)
        partition = ledger.build_partition(txs)
        balances = ledger.entity_balances(txs, partition)
        assert sum(balances.values()) == issued
        assert isinstance(sum(balances.values()), int)


def test_criterion_8_mining_shares():
    with _criterion(8, "pool shares sum to 1 per bucket; untagged coinbases land in Unknown"):
        tagmap = ledger.PoolTagMap(
            coinbase_tags={"/poolA/": "PoolA", "/poolB/": "PoolB"}, payout_addresses={}
        )
        rng = random.Random(88)
        scripts = [b"/poolA/", b"/poolB/", b"", b"/mystery/"]
        txs = [
            ledger.LedgerTx(
                f"c{i}", i, 1_546_300_800 + rng.randint(0, 364) * 86_400, True, (),
                (("m", 50 * COIN),), rng.choice(scripts),
            )
            for i in range(500)
        ]
        shares = ledger.mining_shares(txs, tagmap)
        assert shares
        for pools in shares.values():
            assert abs(sum(pools.values()) - 1.0) <= 1e-12

        untagged = [t for t in txs if t.coinbase_script in (b"", b"/mystery/")]
        by_bucket_unknown = sum(
            1 for t in untagged
            if ledger.attribute_miner(t.coinbase_script, (), tagmap) == ledger.UNKNOWN_MINER
        )
        assert by_bucket_unknown == len(untagged)
