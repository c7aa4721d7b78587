"""Clustering, balances, concentration statistics, and miner attribution."""

import copy
import dataclasses
import gc
import math
import pickle
import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainobs import ledger
from chainobs.ledger import COIN, CoinJoinParams, LedgerTx, PoolTagMap
from chainobs.transport import _naming_file
from helpers import BASE_TS, components_oracle, concentrated_ledger, cospend_txs, mutate, numbered_lines, zero_fee_ledger


def tx(txid, inputs, outputs, *, coinbase=False, ts=BASE_TS, height=0, script=b""):
    return LedgerTx(
        txid=txid,
        height=height,
        timestamp=ts,
        is_coinbase=coinbase,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        coinbase_script=script,
    )


# --- CoinJoin filter -----------------------------------------------------------


def test_coinjoin_equal_output_burst():
    candidate = tx(
        "t1",
        [(a, 2 * COIN) for a in "abcde"],
        [("x", COIN), ("y", COIN), ("z", COIN), ("w", 3 * COIN // 10)],
    )
    assert ledger.is_coinjoin(candidate)


def test_coinjoin_negative_cases():
    assert not ledger.is_coinjoin(tx("t1", [("a", COIN), ("b", COIN)], [("x", COIN), ("y", 2 * COIN // 4)]))
    assert not ledger.is_coinjoin(tx("t2", [("a", 3 * COIN)], [("x", COIN), ("y", COIN), ("z", COIN)]))


def test_coinjoin_rejects_coinbase():
    with pytest.raises(ValueError):
        ledger.is_coinjoin(tx("cb", [], [("x", COIN)], coinbase=True))


def test_coinjoin_params_configurable():
    candidate = tx("t1", [("a", 2 * COIN), ("b", 2 * COIN)], [("x", COIN), ("y", COIN)])
    assert not ledger.is_coinjoin(candidate)
    assert ledger.is_coinjoin(candidate, CoinJoinParams(min_inputs=2, equal_output_count=2))


@pytest.mark.parametrize(
    "min_inputs, equal_output_count, message",
    [
        (0, 3, "min_inputs must be >= 1, got 0"),
        (-1, 3, "min_inputs must be >= 1, got -1"),
        (2, 1, "equal_output_count must be >= 2, got 1"),
        (2, 0, "equal_output_count must be >= 2, got 0"),
        (2, -1, "equal_output_count must be >= 2, got -1"),
    ],
)
def test_coinjoin_params_are_ranged(min_inputs, equal_output_count, message):
    with pytest.raises(ValueError) as err:
        CoinJoinParams(min_inputs, equal_output_count)
    assert str(err.value) == message


def test_the_smallest_coinjoin_params_still_link_a_two_input_spend():
    spend = tx("t1", [("A1", COIN), ("B1", COIN)], [("C1", COIN)])
    assert ledger.build_partition([spend], CoinJoinParams(1, 2)).entity_of("B1") == "A1"


def test_build_partition_asks_about_coinjoins_only_for_spends_with_two_inputs(monkeypatch):
    asked, unions = [], []
    is_coinjoin, union = ledger.is_coinjoin, ledger.EntityPartition.union

    def counting_is_coinjoin(candidate, params=ledger.DEFAULT_COINJOIN_PARAMS):
        asked.append(candidate.txid)
        return is_coinjoin(candidate, params)

    def counting_union(partition, a, b):
        unions.append((a, b))
        union(partition, a, b)

    # the names the bench tracer patches: the module-level function and the class attribute
    monkeypatch.setattr(ledger, "is_coinjoin", counting_is_coinjoin)
    monkeypatch.setattr(ledger.EntityPartition, "union", counting_union)
    single = tx("t3", [("A", COIN)], [("E", COIN)], height=3)
    partition = ledger.build_partition([*_fig10_fixture(), single])
    assert asked == ["t1", "t2"]
    assert unions == [("A", "B"), ("A", "C"), ("C", "D")]
    assert partition.entities() == {"A": frozenset("ABCD"), "E": frozenset("E")}


# --- clustering -------------------------------------------------------------------


def _fig10_fixture():
    funding = tx("cb", [], [("A", 10 * COIN), ("B", 10 * COIN), ("C", 20 * COIN), ("D", 10 * COIN)], coinbase=True, script=b"/gen/")
    t1 = tx("t1", [("A", 10 * COIN), ("B", 10 * COIN), ("C", 10 * COIN)], [("A", 30 * COIN)], height=1)
    t2 = tx("t2", [("C", 10 * COIN), ("D", 10 * COIN)], [("D", 20 * COIN)], height=2)
    return [funding, t1, t2]


def test_co_spending_merges_all_four_addresses():
    partition = ledger.build_partition(_fig10_fixture())
    assert partition.entities() == {"A": frozenset("ABCD")}
    assert partition.entity_count == 1
    assert partition.entity_of("D") == "A"


def test_disjoint_co_spends_stay_separate():
    txs = [
        tx("t1", [("A", COIN), ("B", COIN)], [("x", COIN)]),
        tx("t2", [("C", COIN), ("D", COIN)], [("y", COIN)]),
    ]
    entities = ledger.build_partition(txs).entities()
    assert entities["A"] == frozenset("AB")
    assert entities["C"] == frozenset("CD")
    assert entities["x"] == frozenset("x")  # output-only address stays singleton


def test_coinjoin_transactions_do_not_merge():
    join = tx(
        "cj",
        [("A", 2 * COIN), ("B", 2 * COIN)],
        [("x", COIN), ("y", COIN), ("z", COIN)],
    )
    entities = ledger.build_partition([join]).entities()
    assert entities["A"] == frozenset("A")
    assert entities["B"] == frozenset("B")


def _assert_every_address_maps_to_its_component_minimum(partition, components):
    stable = partition.stable_ids()
    for component in components:
        smallest = min(component)
        for address in component:
            assert partition.find(address) == partition.entity_of(address) == stable[address] == smallest
    assert partition.entity_count == len(components)


def test_partition_matches_component_oracle_on_random_txs():
    txs = cospend_txs(random.Random(7), 2000)
    shuffled = txs[:]
    random.Random(8).shuffle(shuffled)
    components = components_oracle(txs)
    for order in (txs, shuffled):
        partition = ledger.build_partition(order)
        assert set(partition.entities().values()) == components
        _assert_every_address_maps_to_its_component_minimum(partition, components)


def test_partition_is_order_independent():
    txs = cospend_txs(random.Random(9), 500)
    shuffled = txs[:]
    random.Random(10).shuffle(shuffled)
    assert ledger.build_partition(txs).entities() == ledger.build_partition(shuffled).entities()
    components = components_oracle(txs)
    for order in (txs, shuffled):
        _assert_every_address_maps_to_its_component_minimum(ledger.build_partition(order), components)


def _entities_reference(partition):
    """``entities`` as it grouped members before: a defaultdict of lists."""
    members = defaultdict(list)
    for address, entity in partition.stable_ids().items():
        members[entity].append(address)
    return {entity: frozenset(group) for entity, group in members.items()}


@pytest.mark.parametrize("seed", range(3))
def test_entities_keep_the_order_and_members_of_the_reference(seed):
    partition = ledger.build_partition(cospend_txs(random.Random(seed), 300))
    assert list(partition.entities().items()) == list(_entities_reference(partition).items())


def test_find_is_idempotent():
    partition = ledger.build_partition(_fig10_fixture())
    root = partition.find("B")
    assert partition.find(root) == root
    assert partition.find("B") == root


def _cluster_into(partition, txs):
    """What build_partition does, on an existing partition."""
    for t in txs:
        for address, _ in t.outputs:
            partition.add(address)
        if t.is_coinbase:
            continue
        for address, _ in t.inputs:
            partition.add(address)
        if not ledger.is_coinjoin(t):
            for address, _ in t.inputs[1:]:
                partition.union(t.inputs[0][0], address)


@pytest.mark.parametrize("seed", range(3))
def test_walks_interleaved_with_unions_match_component_oracle(seed):
    rng = random.Random(seed)
    txs = cospend_txs(rng, 1200)
    cuts = sorted(rng.sample(range(1, len(txs)), 4))
    partition = ledger.build_partition(txs[: cuts[0]])
    for start, end in zip(cuts, cuts[1:] + [len(txs)]):
        partition.stable_ids()  # flattens the forest; the unions below must undo that
        _cluster_into(partition, txs[start:end])
        components = components_oracle(txs[:end])
        assert set(partition.entities().values()) == components
        _assert_every_address_maps_to_its_component_minimum(partition, components)
        assert len(partition) == sum(len(c) for c in components)


# --- balances ---------------------------------------------------------------------


def test_entity_balances_hand_bookkeeping():
    txs = [
        tx("cb", [], [("A", 50 * COIN)], coinbase=True, script=b"/gen/"),
        tx("t1", [("A", 20 * COIN)], [("B", 20 * COIN)], height=1),
    ]
    partition = ledger.build_partition(txs)
    balances = ledger.entity_balances(txs, partition)
    assert balances["A"] == 30 * COIN
    assert balances["B"] == 20 * COIN


def test_entity_balance_zero_is_retained():
    txs = [
        tx("cb", [], [("C", 5 * COIN)], coinbase=True, script=b"/gen/"),
        tx("t1", [("C", 5 * COIN)], [("D", 5 * COIN)], height=1),
    ]
    balances = ledger.entity_balances(txs, ledger.build_partition(txs))
    assert balances["C"] == 0
    assert balances["D"] == 5 * COIN


def test_negative_balance_aborts():
    txs = [tx("t1", [("A", COIN)], [("B", COIN)])]
    with pytest.raises(ledger.NegativeBalanceError) as err:
        ledger.entity_balances(txs, ledger.build_partition(txs))
    assert err.value.entity == "A"


def test_zero_fee_conservation():
    txs, issued = zero_fee_ledger(random.Random(4), 1000)
    assert all(t.fee == 0 for t in txs)
    balances = ledger.entity_balances(txs, ledger.build_partition(txs))
    assert sum(balances.values()) == issued


# --- gini / lorenz -------------------------------------------------------------------


def test_gini_exact_cases():
    assert ledger.gini([1, 1, 1, 1]) == 0.0
    assert ledger.gini([0, 0, 0, 1]) == 0.75


def test_gini_constant_vectors():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 400)
        c = rng.randint(1, 10**9)
        assert ledger.gini([c] * n) == 0.0


def test_gini_single_holder():
    for n in (2, 5, 117):
        assert ledger.gini([0] * (n - 1) + [1]) == (n - 1) / n


def _gini_reference(values):
    """Mean absolute difference over twice the mean, in exact arithmetic."""
    return Fraction(sum(abs(a - b) for a in values for b in values), 2 * len(values) * sum(values))


def _lorenz_reference(values):
    """The float64 numpy implementation that the integer one replaced."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    wealth = np.cumsum(x) / x.sum()
    return [(0.0, 0.0)] + [(float(j) / x.size, float(w)) for j, w in zip(range(1, x.size + 1), wealth)]


# values past 2**53 are not exact as float64; past 2**62, n * x wraps in int64
_balances = st.lists(
    st.one_of(st.integers(0, 10**8), st.integers(0, 2**70), st.sampled_from([0, 1, 2**53 + 1, 2**63 - 1])),
    min_size=1,
    max_size=40,
).filter(any)
# every partial sum below 2**53, where float64 adds exactly
_float64_exact_balances = st.lists(st.integers(0, 2**47), min_size=1, max_size=40).filter(any)


@settings(max_examples=300, deadline=None)
@given(values=_balances)
@example(values=[17460140871802793, 12461354694548787, 7])  # float64 Gini: one ulp off
@example(values=[9005268892640387287, 6000877328407458273, 3])  # n * x past 2**63
def test_gini_matches_pairwise_oracle(values):
    expected = float(_gini_reference(values))
    assert ledger.gini(values) == expected
    assert ledger.gini(iter(values)) == expected
    if max(values) < 2**63:
        assert ledger.gini(np.array(values, dtype=np.int64)) == expected


def test_gini_errors():
    for statistic in (ledger.gini, ledger.lorenz_points):
        with pytest.raises(ledger.EmptyDistributionError):
            statistic([])
        with pytest.raises(ledger.AllZeroDistributionError):
            statistic([0, 0])
        with pytest.raises(ValueError):
            statistic([1, -1])
        for floats in ([1.0, 2.0], [3, 0.5], np.array([1.0, 2.0])):
            with pytest.raises(TypeError):
                statistic(floats)


def test_lorenz_equality_diagonal():
    assert ledger.lorenz_points([1, 1]) == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]


def test_lorenz_single_holder():
    assert ledger.lorenz_points([0, 1]) == [(0.0, 0.0), (0.5, 0.0), (1.0, 1.0)]


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(_float64_exact_balances, _balances))
@example(values=[2**53 - 2, 1])
def test_lorenz_points_are_exact_shares_rounded_once(values):
    n, total = len(values), sum(values)
    exact = [(0.0, 0.0)] + [
        (float(Fraction(j, n)), float(Fraction(c, total))) for j, c in enumerate(accumulate(sorted(values)), start=1)
    ]
    assert ledger.lorenz_points(values) == exact
    assert ledger.lorenz_points(iter(values)) == exact
    if max(values) < 2**63:
        assert ledger.lorenz_points(np.array(values, dtype=np.int64)) == exact
    if total < 2**53:
        assert exact == _lorenz_reference(values)


def test_lorenz_shape_properties():
    rng = np.random.default_rng(3)
    for _ in range(50):
        values = rng.integers(0, 10**6, size=int(rng.integers(1, 200)))
        if values.sum() == 0:
            values[0] = 1
        points = ledger.lorenz_points(values)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        ys = [y for _, y in points]
        assert all(b >= a - 1e-15 for a, b in zip(ys, ys[1:]))
        increments = [b - a for a, b in zip(ys, ys[1:])]
        assert all(b >= a - 1e-12 for a, b in zip(increments, increments[1:]))  # convex


def test_gini_consistent_with_lorenz_area():
    rng = np.random.default_rng(8)
    for _ in range(50):
        values = rng.integers(1, 10**6, size=int(rng.integers(2, 150)))
        points = ledger.lorenz_points(values)
        area = sum((y0 + y1) / 2 for (_, y0), (_, y1) in zip(points, points[1:])) / (len(points) - 1)
        assert math.isclose(ledger.gini(values), 1.0 - 2.0 * area, abs_tol=1e-12)


def test_scaling_leaves_concentration_unchanged():
    rng = random.Random(5)
    values = [rng.randint(1, 10**7) for _ in range(150)]
    scaled = [v * 1000 for v in values]
    assert ledger.gini(values) == ledger.gini(scaled)
    assert ledger.lorenz_points(values) == ledger.lorenz_points(scaled)


# --- top holders ------------------------------------------------------------------


def _partition_of(entities):
    partition = ledger.EntityPartition()
    for name in entities:
        partition.add(name)
    return partition


def test_top_holders_arithmetic():
    balances = {"E1": 5, "E2": 3, "E3": 2}
    rows = ledger.top_holders(balances, _partition_of(balances), k=2)
    assert [(r.entity, r.balance) for r in rows] == [("E1", 5), ("E2", 3)]
    assert rows[0].cumulative_share == pytest.approx(0.5)
    assert rows[1].cumulative_share == pytest.approx(0.8)


def test_top_holders_k_larger_than_population():
    balances = {"E1": 5, "E2": 3}
    rows = ledger.top_holders(balances, _partition_of(balances), k=10)
    assert len(rows) == 2
    assert rows[-1].cumulative_share == pytest.approx(1.0)


def test_top_holders_needs_a_positive_k():
    balances = {"E1": 5}
    with pytest.raises(ValueError, match="k must be >= 1"):
        ledger.top_holders(balances, _partition_of(balances), k=0)


def test_top_holders_tie_breaks_by_entity_id():
    balances = {"B": 5, "A": 5, "C": 1}
    rows = ledger.top_holders(balances, _partition_of(balances), k=2)
    assert [r.entity for r in rows] == ["A", "B"]


def test_top_holders_reports_address_counts():
    partition = ledger.build_partition(_fig10_fixture())
    balances = ledger.entity_balances(_fig10_fixture(), partition)
    rows = ledger.top_holders(balances, partition, k=1)
    assert rows[0].address_count == 4


def test_top_holders_order_is_scale_invariant():
    rng = random.Random(21)
    balances = {f"E{i}": rng.randint(0, 10**9) for i in range(100)}
    partition = _partition_of(balances)
    order = [r.entity for r in ledger.top_holders(balances, partition, k=100)]
    scaled = {k: v * 7 for k, v in balances.items()}
    assert [r.entity for r in ledger.top_holders(scaled, partition, k=100)] == order


def test_top_holders_address_counts_match_entity_members():
    for seed in range(4):
        txs, _ = zero_fee_ledger(random.Random(seed), 300)
        partition = ledger.build_partition(txs)
        members = partition.entities()
        balances = ledger.entity_balances(txs, partition)
        balances["not-in-partition"] = 1  # an entity the partition never saw counts one address
        rows = ledger.top_holders(balances, partition, k=len(balances))
        assert len(rows) == len(balances)
        for row in rows:
            assert row.address_count == len(members.get(row.entity, (row.entity,)))
        assert max(row.address_count for row in rows) > 1


def _top_holders_reference(balances, partition, k):
    """top_holders as a full sort over every entity's member set."""
    total = sum(balances.values())
    members = partition.entities()
    rows, running = [], 0
    for entity, balance in sorted(balances.items(), key=lambda item: (-item[1], item[0]))[:k]:
        running += balance
        share = running / total if total else 0.0
        rows.append(ledger.HolderRow(entity, len(members.get(entity, (entity,))), balance, share))
    return rows


def test_top_holders_matches_a_full_sort_with_many_equal_balances():
    rng = random.Random(31)
    for trial in range(40):
        txs = cospend_txs(rng, rng.randint(1, 300))
        partition = ledger.build_partition(txs)
        entities = list(partition.entities())
        balances = {entity: rng.choice([0, 0, 1, 2, 2, 5, 10**8]) for entity in entities}
        rng.shuffle(entities)
        balances = {entity: balances[entity] for entity in entities}  # insertion order is no tie-break
        if trial % 5 == 0:
            balances = dict.fromkeys(balances, 0)
        for k in (1, 2, 7, len(balances), len(balances) + 3):
            assert ledger.top_holders(balances, partition, k) == _top_holders_reference(balances, partition, k)


# --- concentration headline ----------------------------------------------------------


def _holder_share_reference(balances, wealth_share):
    values = sorted((b for b in balances if b > 0), reverse=True)
    total = sum(values)
    for count in range(1, len(values) + 1):
        if Fraction(sum(values[:count]), total) >= Fraction(wealth_share):
            return Fraction(count, len(values))
    raise AssertionError("unreachable: all holders hold everything")


def test_holder_share_of_the_concentration_fixture_is_exactly_the_papers_figure():
    txs, entity_count, top_count, _ = concentrated_ledger()
    balances = ledger.entity_balances(txs, ledger.build_partition(txs))
    assert ledger.holder_share(balances.values(), 0.85) == 0.045 == top_count / entity_count


def test_holder_share_matches_exact_fraction_oracle():
    rng = random.Random(41)
    for _ in range(300):
        balances = [rng.choice([0, 1, 3, 3, rng.randint(0, 10**15)]) for _ in range(rng.randint(1, 60))]
        if not any(balances):
            balances.append(1)
        for wealth_share in (1e-9, 0.5, 0.85, 0.9, 1.0, rng.random() or 1.0):
            expected = float(_holder_share_reference(balances, wealth_share))
            assert ledger.holder_share(balances, wealth_share) == expected
            assert ledger.holder_share(np.array(balances, dtype=np.int64), wealth_share) == expected


def test_holder_share_counts_the_entity_that_reaches_the_mark():
    assert ledger.holder_share([85, 15], 0.85) == 0.5
    assert ledger.holder_share([85, 10, 5, 0, 0], 0.85) == pytest.approx(1 / 3)
    assert ledger.holder_share([84, 16], 0.85) == 1.0
    assert ledger.holder_share([50, 50], 1) == 1.0
    # satoshi balances as int64: the total times the 53-bit numerator of 0.85 is past 2**63
    assert ledger.holder_share(np.array([10**8] * 19 + [10**9], dtype=np.int64), 0.85) == 0.8
    assert ledger.holder_share(np.array([2 * 10**15, 10**15, 10**14], dtype=np.int64), 0.85) == 2 / 3


def test_holder_share_errors():
    with pytest.raises(ledger.EmptyDistributionError):
        ledger.holder_share([], 0.85)
    with pytest.raises(ledger.EmptyDistributionError):
        ledger.holder_share([0, 0], 0.85)
    with pytest.raises(ValueError):
        ledger.holder_share([5, -1], 0.85)
    with pytest.raises(TypeError):
        ledger.holder_share([5, 0.5], 0.85)
    for bad in (0, -0.1, 1.5, float("nan")):
        with pytest.raises(ValueError):
            ledger.holder_share([1, 2], bad)


# --- miner attribution ----------------------------------------------------------------


def _tagmap():
    return PoolTagMap(
        coinbase_tags={"/slush/": "SlushPool", "/BTC.COM/": "BTC.com", "/BTC.C/": "BTC.C-pool"},
        payout_addresses={"1PoolPayout": "PayoutPool"},
    )


def test_attribute_by_tag_substring():
    script = bytes.fromhex("03a2c708") + b"/slush/" + b"rest"
    assert ledger.attribute_miner(script, [], _tagmap()) == "SlushPool"


def test_attribute_unknown_when_nothing_matches():
    assert ledger.attribute_miner(b"\x03anonymous", ["1Nobody"], _tagmap()) == "Unknown"


def test_attribute_longest_tag_wins():
    script = b"xx/BTC.COM/yy"  # matches both /BTC.C/ and /BTC.COM/
    assert ledger.attribute_miner(script, [], _tagmap()) == "BTC.com"


def test_attribute_payout_address_fallback():
    assert ledger.attribute_miner(b"no tags here", ["1PoolPayout"], _tagmap()) == "PayoutPool"


def test_attribute_tag_takes_priority_over_address():
    script = b"/slush/"
    assert ledger.attribute_miner(script, ["1PoolPayout"], _tagmap()) == "SlushPool"


def _attribute_miner_reference(coinbase_script, output_addresses, tagmap):
    """Collect every matching tag, then sort them by (-len, tag)."""
    matches = [tag for tag in tagmap.coinbase_tags if tag.encode("utf-8", "replace") in coinbase_script]
    if matches:
        return tagmap.coinbase_tags[sorted(matches, key=lambda tag: (-len(tag), tag))[0]]
    for address in output_addresses:
        if address in tagmap.payout_addresses:
            return tagmap.payout_addresses[address]
    return ledger.UNKNOWN_MINER


# prefixes, overlaps, equal lengths, non-ASCII and a lone surrogate (encoded as "?")
_TAG_TEXT = st.text(st.sampled_from(["/", "a", "b", "é", "\ud800", "?"]), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_attribute_miner_matches_sorting_every_match(data):
    tags = data.draw(st.dictionaries(_TAG_TEXT, st.sampled_from(["P1", "P2", "P3", "P4"]), max_size=12))
    tagmap = PoolTagMap(coinbase_tags=tags, payout_addresses={"1Pay": "PayPool"})
    pieces = st.one_of(
        st.sampled_from(sorted(tags) or ["/"]).map(lambda tag: tag.encode("utf-8", "replace")),
        st.binary(max_size=3),
    )
    for _ in range(5):
        script = b"".join(data.draw(st.lists(pieces, max_size=5)))
        outputs = data.draw(st.lists(st.sampled_from(["1Pay", "1Other"]), max_size=2))
        assert ledger.attribute_miner(script, outputs, tagmap) == _attribute_miner_reference(script, outputs, tagmap)


def _attribute_miner_loop(coinbase_script, output_addresses, tagmap):
    """The per-tag loop that one lookahead pattern replaced: an ``in`` test per tag, best first."""
    for tag in sorted(tagmap.coinbase_tags, key=lambda tag: (-len(tag), tag)):
        if tag.encode("utf-8", "replace") in coinbase_script:
            return tagmap.coinbase_tags[tag]
    for address in output_addresses:
        if address in tagmap.payout_addresses:
            return tagmap.payout_addresses[address]
    return ledger.UNKNOWN_MINER


# regex metacharacters, nesting and overlap (a, ab, aba), and two lone surrogates that both encode as "?"
_PATTERN_TAG_TEXT = st.text(
    st.sampled_from(
        ["a", "b", "é", "?", "\ud800", "\udfff", ".", "*", "+", "(", ")", "[", "]", "{", "|", "\\", "^", "$"]
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_attribute_miner_pattern_matches_the_per_tag_loop(data):
    tags = data.draw(st.dictionaries(_PATTERN_TAG_TEXT, st.sampled_from(["P1", "P2", "P3", "P4"]), max_size=16))
    tagmap = PoolTagMap(coinbase_tags=tags, payout_addresses={"1Pay": "PayPool"})
    pieces = st.one_of(
        st.sampled_from(sorted(tags) or ["a"]).map(lambda tag: tag.encode("utf-8", "replace")),
        st.sampled_from(sorted(tags) or ["a"]).map(lambda tag: tag.encode("utf-8", "replace")[1:]),
        st.binary(max_size=3),
    )
    for _ in range(5):
        script = b"".join(data.draw(st.lists(pieces, max_size=6)))
        outputs = data.draw(st.lists(st.sampled_from(["1Pay", "1Other"]), max_size=2))
        expected = _attribute_miner_loop(script, outputs, tagmap)
        assert ledger.attribute_miner(script, outputs, tagmap) == expected
        assert ledger.attribute_miner(bytearray(script), outputs, tagmap) == expected


def test_attribute_miner_builds_its_pattern_on_first_use(tmp_path):
    path = tmp_path / "pools.tags"
    path.write_text("[tags]\n/a.b/\tDotted\n/a/\tShort\n")
    tagmap = PoolTagMap.from_file(path)
    assert "_tag_pattern" not in vars(tagmap)
    assert ledger.attribute_miner(b"x/axb/ /a/", [], tagmap) == "Short"  # "." is no wildcard
    assert ledger.attribute_miner(b"/a.b/", [], tagmap) == "Dotted"
    assert "_tag_pattern" in vars(tagmap)
    assert ledger.attribute_miner(b"/a/", [], PoolTagMap(coinbase_tags={}, payout_addresses={})) == "Unknown"


def test_attribute_miner_breaks_equal_length_ties_by_tag():
    tagmap = PoolTagMap(coinbase_tags={"/b/": "B", "/a/": "A", "/a/b/": "AB"}, payout_addresses={})
    assert ledger.attribute_miner(b"/b/ /a/", [], tagmap) == "A"
    assert ledger.attribute_miner(b"/b/ /a/b/", [], tagmap) == "AB"
    surrogate = PoolTagMap(coinbase_tags={"\ud800": "S", "x": "X"}, payout_addresses={})
    assert ledger.attribute_miner(b"?x", [], surrogate) == "X"  # "x" < "\ud800"
    assert ledger.attribute_miner(b"?", [], surrogate) == "S"


def test_tagmap_file_parsing(tmp_path):
    path = tmp_path / "pools.tags"
    path.write_text(
        "# known pools\n"
        "[tags]\n"
        "/slush/\tSlushPool\n"
        "/F2Pool/\tF2Pool\n"
        "[addresses]\n"
        "1PoolPayout\tPayoutPool\n"
    )
    tagmap = PoolTagMap.from_file(path)
    assert tagmap.coinbase_tags == {"/slush/": "SlushPool", "/F2Pool/": "F2Pool"}
    assert tagmap.payout_addresses == {"1PoolPayout": "PayoutPool"}


def test_tagmap_rejects_duplicates_and_bad_lines(tmp_path):
    dup = tmp_path / "dup.tags"
    dup.write_text("[tags]\n/x/\tA\n/x/\tB\n")
    with pytest.raises(ledger.LedgerFormatError):
        PoolTagMap.from_file(dup)
    bad = tmp_path / "bad.tags"
    bad.write_text("[tags]\nno-tab-here\n")
    with pytest.raises(ledger.LedgerFormatError):
        PoolTagMap.from_file(bad)
    with pytest.raises(ValueError):
        PoolTagMap(coinbase_tags={"": "X"}, payout_addresses={})


def test_tagmap_non_utf8_bytes_are_a_format_error_with_their_line_number(tmp_path):
    path = tmp_path / "latin.tags"
    path.write_bytes(b"/caf\xe9/\tCafePool\n[addresses]\n1PoolPayout\tPayoutPool\n")
    with pytest.raises(ledger.LedgerFormatError) as err:
        PoolTagMap.from_file(path)
    assert err.value.line_number == 1


def test_tagmap_format_error_names_the_file(tmp_path):
    path = tmp_path / "pools.tags"
    path.write_text("[tags]\n/slush/\tSlushPool\nno-tab-here\n")
    with pytest.raises(ledger.LedgerFormatError) as err:
        PoolTagMap.from_file(path)
    assert err.value.line_number == 3
    assert str(path) in str(err.value)


# --- mining shares ------------------------------------------------------------------


def _coinbase(txid, ts, script):
    return tx(txid, [], [("m", 50 * COIN)], coinbase=True, ts=ts, script=script)


def test_mining_shares_fixture():
    january = 1_546_300_800  # 2019-01-01 UTC
    txs = [_coinbase(f"c{i}", january + i * 600, b"/slush/" if i < 6 else b"") for i in range(10)]
    shares = ledger.mining_shares(txs, _tagmap())
    assert shares == {"2019-01": {"SlushPool": 0.6, "Unknown": 0.4}}


def test_mining_shares_buckets_by_month():
    january = 1_546_300_800
    march = 1_551_398_400  # 2019-03-01; February has no blocks and no bucket
    txs = [_coinbase("c1", january, b"/slush/"), _coinbase("c2", march, b"")]
    shares = ledger.mining_shares(txs, _tagmap())
    assert list(shares) == ["2019-01", "2019-03"]
    assert shares["2019-03"] == {"Unknown": 1.0}


@pytest.mark.parametrize("bucketing, bucket", [("day", "2020-09-13"), ("month", "2020-09"), ("year", "2020")])
def test_mining_shares_bucketings(bucketing, bucket):
    shares = ledger.mining_shares([_coinbase("c1", 1_600_000_000, b"/slush/")], _tagmap(), bucketing)
    assert shares == {bucket: {"SlushPool": 1.0}}


def test_mining_shares_rejects_unknown_bucketing():
    with pytest.raises(ValueError, match="unknown bucketing 'week'"):
        ledger.mining_shares([_coinbase("c1", 1_600_000_000, b"")], _tagmap(), "week")


def test_mining_shares_sum_to_one_on_random_fixtures():
    rng = random.Random(6)
    scripts = [b"/slush/", b"/BTC.COM/", b"", b"/whoami/"]
    txs = [
        _coinbase(f"c{i}", 1_546_300_800 + rng.randint(0, 400) * 86_400, rng.choice(scripts))
        for i in range(300)
    ]
    shares = ledger.mining_shares(txs, _tagmap())
    for bucket, pools in shares.items():
        assert abs(sum(pools.values()) - 1.0) <= 1e-12


def test_mining_shares_rejects_non_coinbase():
    with pytest.raises(ValueError):
        ledger.mining_shares([tx("t", [("a", COIN)], [("b", COIN)])], _tagmap())


# --- ledger files ----------------------------------------------------------------------


def test_ledger_file_round_trip(tmp_path):
    txs = _fig10_fixture()
    path = tmp_path / "tiny.ldg"
    ledger.write_ledger(txs, path)
    assert ledger.read_ledger(path) == txs


def test_ledger_file_reports_corrupt_line(tmp_path):
    path = tmp_path / "bad.ldg"
    ledger.write_ledger(_fig10_fixture(), path)
    lines = path.read_text().splitlines()
    lines[1] = "only three columns here"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ledger.LedgerFormatError) as err:
        ledger.read_ledger(path)
    assert err.value.line_number == 2


def test_ledger_non_utf8_bytes_are_a_format_error_with_their_line_number(tmp_path):
    path = tmp_path / "latin.ldg"
    ledger.write_ledger(_fig10_fixture(), path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"# caf\xe9 " + lines[2]
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(ledger.LedgerFormatError) as err:
        ledger.read_ledger(path)
    assert err.value.line_number == 3


@pytest.mark.parametrize("read", [ledger.read_ledger, PoolTagMap.from_file], ids=["ledger", "tagmap"])
def test_only_a_newline_ends_a_line(tmp_path, read):
    path = tmp_path / "feed.txt"
    path.write_bytes(b"# a\x0cb\n\xff\n")  # grep -n puts the bad byte on line 2
    with pytest.raises(ledger.LedgerFormatError) as err:
        read(path)
    assert err.value.line_number == 2
    assert str(err.value) == f"{path}: line 2: not UTF-8"


def test_ledger_format_error_names_the_file(tmp_path):
    path = tmp_path / "chain.ldg"
    ledger.write_ledger(_fig10_fixture(), path)
    path.write_text(path.read_text().replace("t1 1 ", "t1 one "))
    with pytest.raises(ledger.LedgerFormatError) as err:
        ledger.read_ledger(path)
    assert err.value.line_number == 2
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "column",
    ["a:-5", "b:1_000", "c:+7", "d: 8", "e:8 ", "f:", "g:0x10", "h:1.5", "i:\u0661\u0662", "j:\u00b2", "k:1;l:-1"],
)
def test_entry_values_must_be_non_negative_decimal_integers(column):
    with pytest.raises(ledger.LedgerFormatError) as err:
        ledger._parse_entries(column, 4, {})
    assert err.value.line_number == 4


@pytest.mark.parametrize("column", ["m", ":5", "a:1;b"])
def test_entries_need_an_address_and_a_colon(column):
    with pytest.raises(ledger.LedgerFormatError, match="bad addr:value pair") as err:
        ledger._parse_entries(column, 4, {})
    assert err.value.line_number == 4


def test_entry_values_accept_plain_decimal_digits():
    assert ledger._parse_entries("a:0;b:007;c:12;d:e:5", 1, {}) == ((("a", 0), ("b", 7), ("c", 12), ("d:e", 5)), 24)
    assert ledger._parse_entries("-", 1, {}) == ((), 0)


@pytest.mark.parametrize(
    "line",
    [
        "t1 -7 +1_600 2 00 a:5;b:5 c:5",
        "t1 -7 1600 0 - a:5;b:5 c:10",
        "t1 +7 1600 0 - a:5;b:5 c:10",
        "t1 1_0 1600 0 - a:5;b:5 c:10",
        "t1 7.0 1600 0 - a:5;b:5 c:10",
        "t1 \u0667 1600 0 - a:5;b:5 c:10",
        "t1 7 -1600 0 - a:5;b:5 c:10",
        "t1 7 1e3 0 - a:5;b:5 c:10",
        "t1 7 0x10 0 - a:5;b:5 c:10",
        "t1 7 \u00b2 0 - a:5;b:5 c:10",
        "t1 7 1600 2 - a:5;b:5 c:10",
        "t1 7 1600 yes - a:5;b:5 c:10",
        "t1 7 1600 00 - a:5;b:5 c:10",
        "t1 7 1600 01 - a:5;b:5 c:10",
        "t1 7 1600 - - a:5;b:5 c:10",
    ],
)
def test_height_timestamp_and_coinbase_flag_columns_are_checked(line):
    with pytest.raises(ledger.LedgerFormatError) as err:
        ledger._parse_ledger(numbered_lines(f"cb 0 0 1 - - a:5;b:5\n{line}\n"))
    assert err.value.line_number == 2


def test_height_timestamp_and_coinbase_flag_columns_accept_decimals_and_0_or_1():
    txs = ledger._parse_ledger(numbered_lines("cb 0 1600 1 00ff - a:5;b:5\nt1 007 01601 0 - a:5;b:5 c:10\n"))
    assert [(t.height, t.timestamp, t.is_coinbase, t.coinbase_script) for t in txs] == [
        (0, 1600, True, b"\x00\xff"),
        (7, 1601, False, b""),
    ]


def test_negative_coinbase_output_is_a_format_error_on_its_line(tmp_path):
    path = tmp_path / "negative.ldg"
    ledger.write_ledger(_fig10_fixture(), path)
    path.write_text(path.read_text().replace("A:1000000000;", "A:-500;", 1))
    with pytest.raises(ledger.LedgerFormatError) as err:
        ledger.read_ledger(path)
    assert err.value.line_number == 1
    assert "A:-500" in str(err.value)


def test_ledger_tx_validation():
    with pytest.raises(ValueError):
        tx("cb", [("A", COIN)], [("B", COIN)], coinbase=True)
    with pytest.raises(ValueError):
        tx("t", [("A", COIN)], [("B", 2 * COIN)])


# --- the tuple LedgerTx and the reader against the dataclass they replaced ----------------


@dataclasses.dataclass(frozen=True, slots=True)
class _ReferenceLedgerTx:
    """LedgerTx as a frozen dataclass, as it was before it became a tuple."""

    txid: str
    height: int
    timestamp: int
    is_coinbase: bool
    inputs: tuple[tuple[str, int], ...]
    outputs: tuple[tuple[str, int], ...]
    coinbase_script: bytes = b""

    def __post_init__(self) -> None:
        if self.is_coinbase:
            if self.inputs:
                raise ValueError(f"{self.txid}: coinbase with inputs")
        elif sum(value for _, value in self.outputs) > sum(value for _, value in self.inputs):
            raise ValueError(f"{self.txid}: outputs exceed inputs")

    @property
    def input_total(self) -> int:
        return sum(value for _, value in self.inputs)

    @property
    def output_total(self) -> int:
        return sum(value for _, value in self.outputs)

    @property
    def fee(self) -> int:
        return 0 if self.is_coinbase else self.input_total - self.output_total


def _reference_parse_entries(column, lineno):
    if column == "-":
        return ()
    entries = []
    for token in column.split(";"):
        address, sep, value = token.rpartition(":")
        if not sep or not address:
            raise ledger.LedgerFormatError(lineno, f"bad addr:value pair {token!r}")
        if not (value.isascii() and value.isdigit()):
            raise ledger.LedgerFormatError(lineno, f"value is not a non-negative decimal in {token!r}")
        entries.append((address, int(value)))
    return tuple(entries)


def _reference_parse_ledger(lines):
    """The reader as it was before addresses were shared, building the dataclass, over
    ``(line number, text)`` pairs."""
    txs = []
    for lineno, line in lines:
        if "#" in line:
            line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 7:
            raise ledger.LedgerFormatError(lineno, f"expected 7 columns, got {len(fields)}")
        height, timestamp, flag = fields[1], fields[2], fields[3]
        if not (height.isascii() and height.isdigit() and timestamp.isascii() and timestamp.isdigit()):
            raise ledger.LedgerFormatError(
                lineno, f"height {height!r} or timestamp {timestamp!r} is not a non-negative decimal"
            )
        if flag not in ("0", "1"):
            raise ledger.LedgerFormatError(lineno, f"coinbase flag is not 0 or 1: {flag!r}")
        try:
            script = b"" if fields[4] == "-" else bytes.fromhex(fields[4])
            txs.append(
                _ReferenceLedgerTx(
                    txid=fields[0],
                    height=int(height),
                    timestamp=int(timestamp),
                    is_coinbase=flag == "1",
                    inputs=_reference_parse_entries(fields[5], lineno),
                    outputs=_reference_parse_entries(fields[6], lineno),
                    coinbase_script=script,
                )
            )
        except ledger.LedgerFormatError:
            raise
        except ValueError as exc:
            raise ledger.LedgerFormatError(lineno, str(exc)) from exc
    return txs


def _fields_of(reference):
    return tuple(getattr(reference, field.name) for field in dataclasses.fields(reference))


def _outcome(read, path):
    """The transactions as tuples of their fields, or the line and message of the format error."""
    try:
        return [tuple(t) if isinstance(t, tuple) else _fields_of(t) for t in read(path)]
    except ledger.LedgerFormatError as exc:
        return exc.line_number, str(exc)


def _reference_lines(path):
    """Each piece of the file between newline bytes, decoded on its own when its turn comes."""
    for lineno, piece in enumerate(path.read_bytes().split(b"\n"), start=1):
        try:
            yield lineno, piece.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ledger.LedgerFormatError(lineno, "not UTF-8") from exc


def _read_with_reference(path):
    with _naming_file(path, ledger.LedgerFormatError):
        return _reference_parse_ledger(_reference_lines(path))


def _assert_reads_like_the_reference(path, data):
    path.write_bytes(data)
    assert _outcome(ledger.read_ledger, path) == _outcome(_read_with_reference, path)


_ADDRESSES = ["1Alpha", "1Beta", "bc1q:gamma", "3Delta", "1Alpha1", ""]
_DIGITS = st.one_of(
    st.integers(0, 10**6).map(str), st.sampled_from(["007", "-1", "+7", "1_0", "\u0663", "", "x", "1.5"])
)
_entry_columns = st.one_of(
    st.just("-"),
    st.lists(st.tuples(st.sampled_from(_ADDRESSES), _DIGITS).map(":".join), min_size=1, max_size=4).map(";".join),
    st.sampled_from(["", ";", "-;-", "a1", ":5"]),
)
_odd_lines = st.one_of(
    st.tuples(
        st.sampled_from(["t1", "t2", "cb", "t#1"]),
        _DIGITS,
        _DIGITS,
        st.sampled_from(["0", "1", "2", "01", ""]),
        st.sampled_from(["-", "00ff", "2f70", "0", "zz", ""]),
        _entry_columns,
        _entry_columns,
    ).map(" ".join),
    st.sampled_from(["", "   ", "# a comment", "\t", "t1 1 2"]),
)
_entries = st.lists(st.tuples(st.sampled_from(_ADDRESSES[:-1]), st.integers(0, 10**6)), min_size=1, max_size=4)


def _column(entries):
    return ";".join(f"{address}:{value}" for address, value in entries) or "-"


_valid_lines = st.one_of(
    st.builds(
        lambda outputs, script: f"cb 0 1600 1 {script} - {_column(outputs)}", _entries, st.sampled_from(["-", "2f70"])
    ),
    # a spend pays half of each input to some address: outputs never exceed inputs
    st.builds(
        lambda inputs, payees: f"t1 7 1601 0 - {_column(inputs)} {_column(zip(payees, (v // 2 for _, v in inputs)))}",
        _entries,
        st.lists(st.sampled_from(_ADDRESSES[:-1]), max_size=4),
    ),
    # well formed, but each breaks one transaction rule, so the reader's own check of the
    # totals it parsed meets the dataclass's __post_init__: a coinbase that lists an input,
    # and a spend that pays one satoshi more than its inputs
    st.builds(lambda inputs, outputs: f"cb 0 1600 1 - {_column(inputs[:1])} {_column(outputs)}", _entries, _entries),
    st.builds(
        lambda inputs, payee: f"t2 7 1601 0 - {_column(inputs)} {payee}:{sum(v for _, v in inputs) + 1}",
        _entries,
        st.sampled_from(_ADDRESSES[:-1]),
    ),
)
# mostly well-formed lines, so that whole ledgers read and the shared addresses are compared too
_ledger_lines = st.one_of(_valid_lines, _valid_lines, _valid_lines, _odd_lines)


@pytest.fixture(scope="module")
def cospend_ledger_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ledger-cospend") / "cospend.ldg"
    funding = [tx(f"cb{i}", [], [(f"a{i:05d}", 50 * COIN)], coinbase=True, script=b"/p/") for i in range(3)]
    ledger.write_ledger(funding + cospend_txs(random.Random(7), 30, address_pool=12), path)
    return path.read_bytes()


@settings(max_examples=300)
@given(lines=st.lists(_ledger_lines, max_size=8), end=st.sampled_from(["\n", "\r\n"]))
def test_reader_matches_the_reference_on_generated_ledgers(fuzz_path, lines, end):
    _assert_reads_like_the_reference(fuzz_path, end.join(lines).encode())


@settings(max_examples=300)
@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, 2_000),
            st.sampled_from(["put", "insert", "delete"]),
            st.one_of(st.binary(max_size=4), st.sampled_from([b"+", b"_", b"-", b":", b";", b" ", b"#", b"\n", b"A"])),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_reader_matches_the_reference_on_mutated_ledgers(cospend_ledger_bytes, fuzz_path, edits):
    _assert_reads_like_the_reference(fuzz_path, mutate(cospend_ledger_bytes, edits))


def test_each_distinct_address_is_one_str_across_a_read(tmp_path):
    txs = concentrated_ledger()[0]
    path = tmp_path / "concentrated.ldg"
    ledger.write_ledger(txs, path)
    shared: dict[str, str] = {}
    entries = 0
    for read in ledger.read_ledger(path):
        for address, _ in read.inputs + read.outputs:
            assert shared.setdefault(address, address) is address
            entries += 1
    assert len(shared) == len({a for t in txs for a, _ in t.inputs + t.outputs})
    assert entries > len(shared)  # some addresses repeat, so sharing was tested


def test_parse_entries_shares_addresses_through_the_table_it_is_given():
    names = {}
    first, first_total = ledger._parse_entries("address1:5", 1, names)
    second, second_total = ledger._parse_entries("other:1;address1:7", 2, names)
    assert first[0][0] is second[1][0]
    assert (first_total, second_total) == (5, 8)
    assert names == {"address1": "address1", "other": "other"}
    assert ledger._parse_entries("address1:5", 1, {}) == ((("address1", 5),), 5)  # a fresh table reads the same


# --- the cyclic collector around a read and an entity walk ------------------------------


def _chain(count):
    """A coinbase, then ``count`` spends that each pass the coin on to a new address."""
    txs = [tx("cb", [], [("a0", 50)], coinbase=True)]
    txs += [tx(f"t{i}", [(f"a{i - 1}", 50)], [(f"a{i}", 50)], height=i) for i in range(1, count + 1)]
    return txs


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched on or off for the test, and back as it was after it."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_a_read_and_an_entity_walk_leave_the_collector_as_they_found_it(tmp_path, collector):
    path = tmp_path / "chain.ldg"
    ledger.write_ledger(_chain(50), path)
    txs = ledger.read_ledger(path)
    assert gc.isenabled() is collector
    assert len(ledger.build_partition(txs).entities()) == 51
    assert gc.isenabled() is collector


@pytest.mark.parametrize(
    "last_line, reason",
    [(b"t51 51 0 0 - a50:50", "expected 7 columns, got 6"), (b"t51 51 0 0 - a50:50 \xff:50", "not UTF-8")],
    ids=["format", "utf-8"],
)
def test_a_read_that_fails_on_a_late_line_leaves_the_collector_as_it_found_it(tmp_path, collector, last_line, reason):
    path = tmp_path / "chain.ldg"
    ledger.write_ledger(_chain(50), path)
    path.write_bytes(path.read_bytes() + last_line + b"\n")
    with pytest.raises(ledger.LedgerFormatError, match=reason) as err:
        ledger.read_ledger(path)
    assert err.value.line_number == 52
    assert gc.isenabled() is collector


def test_a_read_and_an_entity_walk_run_no_collection_while_they_build(tmp_path, collector):
    path = tmp_path / "chain.ldg"
    ledger.write_ledger(_chain(5_000), path)  # tens of thousands of containers: many collections if unpaused
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()  # no allocation count left over from earlier tests
    gc.callbacks.append(count)
    try:
        entities = ledger.build_partition(ledger.read_ledger(path)).entities()
    finally:
        gc.callbacks.remove(count)
    assert len(entities) == 5_001
    # one collection is allowed after each build: the one its allocations call for once the collector is back
    assert len(generations) <= (2 if collector else 0)


_TX_VALUES = [
    ("t7", 7, 1600, False, (("1Alpha", 5), ("1Beta", 6)), (("1Gamma", 9),)),
    ("cb", 0, 1600, True, (), (("1Alpha", 50),), b"/pool/"),
    ("t8", 8, 1601, False, (), ()),
]


def test_ledger_tx_has_the_fields_and_defaults_of_the_dataclass():
    fields = dataclasses.fields(_ReferenceLedgerTx)
    assert LedgerTx._fields == tuple(field.name for field in fields)
    assert LedgerTx._field_defaults == {f.name: f.default for f in fields if f.default is not dataclasses.MISSING}
    assert LedgerTx("t", 1, 2, False, (), ()).coinbase_script == b""


@pytest.mark.parametrize("values", _TX_VALUES, ids=["spend", "coinbase", "empty"])
def test_ledger_tx_equality_hash_and_repr_match_the_dataclass(values):
    built, reference = LedgerTx(*values), _ReferenceLedgerTx(*values)
    assert tuple(built) == _fields_of(reference)
    assert hash(built) == hash(reference)
    assert repr(built) == repr(reference).replace("_ReferenceLedgerTx", "LedgerTx")
    assert (built.input_total, built.output_total, built.fee) == (
        reference.input_total,
        reference.output_total,
        reference.fee,
    )
    assert built == LedgerTx(**dict(zip(LedgerTx._fields, values)))
    assert built == tuple(built)  # a transaction equals the plain tuple of its fields
    assert built != LedgerTx(values[0] + "x", *values[1:])


@pytest.mark.parametrize(
    "values, message",
    [
        (("cb", 0, 0, True, (("A1", 1),), ()), "cb: coinbase with inputs"),
        (("t9", 0, 0, False, (("A1", 1),), (("B1", 2),)), "t9: outputs exceed inputs"),
    ],
)
def test_ledger_tx_rejects_what_the_dataclass_rejects(values, message):
    for cls in (LedgerTx, _ReferenceLedgerTx):
        with pytest.raises(ValueError) as err:
            cls(*values)
        assert str(err.value) == message


def test_ledger_tx_fields_are_read_only():
    built, reference = LedgerTx(*_TX_VALUES[0]), _ReferenceLedgerTx(*_TX_VALUES[0])
    for name in LedgerTx._fields:
        for obj in (built, reference):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
    with pytest.raises(AttributeError):
        built.note = "x"
    assert tuple(built) == _TX_VALUES[0] + (b"",)


def test_copy_pickle_and_replace_build_through_the_checks():
    good = LedgerTx(*_TX_VALUES[1])
    for rebuilt in (copy.copy(good), copy.deepcopy(good), pickle.loads(pickle.dumps(good))):
        assert type(rebuilt) is LedgerTx and rebuilt == good
    assert good._replace(height=9) == LedgerTx("cb", 9, 1600, True, (), (("1Alpha", 50),), b"/pool/")
    bad = tuple.__new__(LedgerTx, ("cb", 0, 0, True, (("A1", 1),), (), b""))  # skips the checks
    for rebuild in (copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t)), lambda t: t._replace(height=1)):
        with pytest.raises(ValueError, match="cb: coinbase with inputs"):
            rebuild(bad)
    with pytest.raises(ValueError, match="t7: outputs exceed inputs"):
        LedgerTx(*_TX_VALUES[0])._replace(outputs=(("1Gamma", 12),))


# --- fuzz: the reader raises only its declared errors ----------------------------------


@pytest.fixture(scope="module")
def valid_ledger_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ledger-valid") / "valid.ldg"
    ledger.write_ledger(_fig10_fixture(), path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ledger-fuzz") / "fuzz.ldg"


def _read_declared_errors_only(path, data):
    path.write_bytes(data)
    try:
        ledger.read_ledger(path)
    except ledger.LedgerFormatError:
        pass


@settings(max_examples=300)
@given(data=st.binary(max_size=300))
def test_ledger_reader_raises_only_declared_errors_on_arbitrary_bytes(fuzz_path, data):
    _read_declared_errors_only(fuzz_path, data)


@settings(max_examples=300)
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 2_000), st.sampled_from(["put", "insert", "delete"]), st.binary(max_size=4)),
        min_size=1,
        max_size=6,
    )
)
def test_ledger_reader_raises_only_declared_errors_on_mutated_files(valid_ledger_bytes, fuzz_path, edits):
    _read_declared_errors_only(fuzz_path, mutate(valid_ledger_bytes, edits))
