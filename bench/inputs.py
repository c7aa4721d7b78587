"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random``, a size and, when it writes
files, a directory for them, so one seed always yields the same inputs.
They build their data directly (no ``random_topology``, no test helpers),
which keeps each workload fixed while the program's own generators change.

Alongside the inputs, each generator returns the ground truth its
workload's oracles need.  The series and ledger truths are computed here
without calling the code under test; the topology's come from the simnet's
own oracles.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from chainobs import crawler, simnet, wirecodec
from chainobs.transport import Endpoint

DEFAULT_PORT = wirecodec.DEFAULT_PORT
ONIONCAT_PREFIX = "fd87:d87e:eb43"


# --- addresses -----------------------------------------------------------------


def _ipv4(rng: random.Random) -> str:
    first = rng.choice([o for o in range(1, 224) if o not in (10, 127, 169, 172, 192)])
    return f"{first}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}"


def _ipv6(rng: random.Random, prefix: str = "2001") -> str:
    groups = [prefix] + [f"{rng.randrange(0x10000):x}" for _ in range(7 - prefix.count(":"))]
    return ":".join(groups)


def _onion(rng: random.Random) -> str:
    return ONIONCAT_PREFIX + ":" + ":".join(f"{rng.randrange(0x10000):x}" for _ in range(5))


def _port(rng: random.Random) -> int:
    return DEFAULT_PORT if rng.random() < 0.9 else rng.randrange(1024, 65536)


def _shuffled(rng: random.Random, size: int, shares: list[tuple[object, float]]) -> list:
    """Exactly ``round(size * share)`` of each value (the first takes the rest), shuffled.

    Exact counts keep the work per item the same from seed to seed; only
    the arrangement changes.
    """
    values = [value for value, share in shares[1:] for _ in range(int(round(size * share)))]
    values += [shares[0][0]] * (size - len(values))
    rng.shuffle(values)
    return values


# --- crawl: a simnet topology ------------------------------------------------------


@dataclass
class CrawlInputs:
    peers: tuple[simnet.SimPeerProfile, ...]
    seed_ids: tuple[Endpoint, ...]
    rng_seed: int
    expected_active: set[Endpoint]
    expected_discovered: set[Endpoint]


def make_topology(rng: random.Random, size: int) -> CrawlInputs:
    """A gossip topology of ``size`` peers in O(size * known peers).

    Behaviour mix: 30% unreachable, 5% silent, 2% slow (still inside the
    handshake timeout), 2% stale, 1% empty-addr, the rest normal.  Each peer
    knows 8-40 others, drawn by index so no per-peer copy of the address list
    is made.
    """
    make_ip = {
        "ipv4": _ipv4,
        "ipv6": lambda r: _ipv6(r, r.choice(["2001", "2a01", "2600", "2804"])),
        "onion": _onion,
    }
    families = _shuffled(rng, size, [("ipv4", 0.80), ("ipv6", 0.15), ("onion", 0.05)])
    default_port = _shuffled(rng, size, [(True, 0.9), (False, 0.1)])
    addresses: list[Endpoint] = []
    seen: set[Endpoint] = set()
    for family, default in zip(families, default_port):
        while True:
            port = DEFAULT_PORT if default else rng.randrange(1024, 65536)
            endpoint = Endpoint.make(make_ip[family](rng), port)
            if endpoint not in seen:
                break
        seen.add(endpoint)
        addresses.append(endpoint)

    behaviors = _shuffled(
        rng,
        size,
        [("normal", 0), ("unreachable", 0.30), ("silent", 0.05), ("slow", 0.02), ("stale", 0.02), ("empty-addr", 0.01)],
    )
    # 8-40 known peers each, every count equally often
    known_counts = [8 + i % 33 for i in range(size)]
    rng.shuffle(known_counts)

    services_choices = (
        wirecodec.NODE_NETWORK | wirecodec.NODE_WITNESS,
        wirecodec.NODE_NETWORK | wirecodec.NODE_WITNESS | wirecodec.NODE_BLOOM,
        wirecodec.NODE_NETWORK_LIMITED | wirecodec.NODE_WITNESS,
    )
    peers = []
    for index, (address, behavior, k) in enumerate(zip(addresses, behaviors, known_counts)):
        k = min(size - 1, k)
        # sample from the other size-1 indices, then step over our own
        picks = rng.sample(range(size - 1), k)
        known = tuple(addresses[i + 1 if i >= index else i] for i in picks)
        peers.append(
            simnet.SimPeerProfile(
                address=address,
                behavior=behavior,
                services=rng.choice(services_choices),
                start_height=600_000 + rng.randint(-10, 10),
                rtt_ms=round(rng.uniform(5.0, 120.0), 1),
                known_peers=known,
                slow_delay_ms=float(rng.choice((150, 400, 900))),
            )
        )
    normal = [p.address for p in peers if p.behavior == "normal"]
    seed_ids = tuple(rng.sample(normal, min(3, len(normal))))
    rng_seed = rng.randrange(2**31)
    oracle_topology = simnet.SimTopology(peers=tuple(peers), seed_ids=seed_ids, rng_seed=rng_seed)
    return CrawlInputs(
        peers=tuple(peers),
        seed_ids=seed_ids,
        rng_seed=rng_seed,
        expected_active=simnet.reachable_set(oracle_topology),
        expected_discovered=simnet.discovered_set(oracle_topology),
    )


# --- census: a snapshot series and its prefix table -------------------------------

USER_AGENTS = (
    "/Satoshi:0.21.1/",
    "/Satoshi:22.0.0/",
    "/Satoshi:23.0.0/",
    "/Satoshi:24.0.1/",
    "/Satoshi:25.0.0/",
    "/btcd:0.23.3/",
    "/Satoshi:0.20.1(bitcore sl)/",
    "/Satoshi:22.0.0/Knots:20211108/",
    "/bitcoinj:0.16 50%/",
    "/Satoshi:0.18.0(é test)/",
)
PROTOCOL_VERSIONS = (70016, 70016, 70016, 70015, 70015, 70014, 70001)
SERVICES = (1033, 1033, 1037, 1032, 9, 1)

SLOT_SECONDS = 3600
SERIES_T0 = 1_600_000_000 - 1_600_000_000 % SLOT_SECONDS


@dataclass
class CensusInputs:
    snapshots: list[crawler.Snapshot]
    slot_count: int
    missing_slot: int
    prefix_csv: Path


def _prefix_table(rng: random.Random, as_count: int) -> tuple[list[tuple[str, str, int, str]], list[list[str]]]:
    """Prefix rows plus, per AS, the IPv4/IPv6 networks its addresses come from."""
    countries = ["US", "DE", "FR", "NL", "CA", "GB", "SG", "JP", "RU", "CN", "FI", "CH", "BR", "AU"]
    rows: list[tuple[str, str, int, str]] = []
    pools: list[list[str]] = []
    used: set[str] = set()
    for index in range(as_count):
        asn = 1000 + index * 7
        org = f"Org {index} Hosting"
        country = rng.choice(countries)
        networks: list[str] = []
        for _ in range(rng.randint(1, 8)):
            length = rng.choice((16, 18, 20, 22, 24))
            a, b, c = rng.choice([o for o in range(11, 224) if o not in (127, 169, 172, 192)]), rng.randrange(256), rng.randrange(256)
            value = (a << 24 | b << 16 | c << 8) >> (32 - length) << (32 - length)
            prefix = f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}/{length}"
            if prefix in used:
                continue
            used.add(prefix)
            rows.append((prefix, country, asn, org))
            networks.append(prefix)
            if length <= 20 and rng.random() < 0.3:
                # a more specific prefix inside it, owned by a customer AS
                sub = value | rng.randrange(1 << (24 - length)) << 8
                sub_prefix = f"{sub >> 24 & 255}.{sub >> 16 & 255}.{sub >> 8 & 255}.0/24"
                if sub_prefix not in used:
                    used.add(sub_prefix)
                    rows.append((sub_prefix, rng.choice(countries), asn + 3, f"Org {index} Customer"))
        if rng.random() < 0.5:
            v6 = f"2a0{rng.randrange(10)}:{rng.randrange(0x10000):x}::/32"
            if v6 not in used:
                used.add(v6)
                rows.append((v6, country, asn, org))
                networks.append(v6)
        pools.append(networks)
    return rows, pools


def _address_in(rng: random.Random, network: str) -> str:
    base, _, length_text = network.partition("/")
    length = int(length_text)
    if ":" in base:
        head = base.rstrip(":")
        return head + ":" + ":".join(f"{rng.randrange(0x10000):x}" for _ in range(6))
    a, b, c, d = (int(x) for x in base.split("."))
    value = (a << 24 | b << 16 | c << 8 | d) | rng.randrange(1, 1 << (32 - length))
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def make_series(rng: random.Random, endpoints: int, slots: int, workdir: Path) -> CensusInputs:
    """A churning snapshot series of ``slots`` grid slots, one of them missing.

    About ``endpoints`` records per snapshot; nodes join and leave over the
    series and flap on and off inside their lifetime.  Addresses are IPv4,
    IPv6 and OnionCat, a tenth on non-default ports; about 5% of active
    records carry no RTT.  The prefix table covers most clearnet addresses,
    with nested prefixes so lookups need longest-prefix matching.
    """
    rows, pools = _prefix_table(rng, max(20, endpoints // 8))
    pools = [networks for networks in pools if networks]
    weights = [1.0 / (rank + 1) for rank in range(len(pools))]  # a few ASes host many nodes
    population = int(endpoints * 1.2)
    kinds = _shuffled(rng, population, [("covered", 0), ("onion", 0.05), ("uncovered", 0.07)])
    nodes: list[Endpoint] = []
    seen: set[Endpoint] = set()
    for kind in kinds:
        while True:
            if kind == "onion":
                ip = _onion(rng)
            elif kind == "uncovered":
                ip = _ipv4(rng)  # outside every prefix: lands in "unknown"
            else:
                ip = _address_in(rng, rng.choice(rng.choices(pools, weights)[0]))
            endpoint = Endpoint.make(ip, _port(rng))
            if endpoint not in seen:
                break
        seen.add(endpoint)
        nodes.append(endpoint)

    missing_slot = rng.randrange(1, slots - 1)
    profiles = []
    for endpoint in nodes:
        if rng.random() < 0.7:
            start, end = 0, slots
        else:
            start = rng.randrange(slots)
            end = rng.randrange(start + 1, slots + 1)
        profiles.append(
            {
                "endpoint": endpoint,
                "span": (start, end),
                "p_on": rng.choice((0.97, 0.9, 0.7)),  # chance to stay up
                "p_back": rng.choice((0.5, 0.2)),  # chance to come back
                "rtt": rng.uniform(10.0, 300.0),
                "ua": rng.choice(USER_AGENTS),
                "pver": rng.choice(PROTOCOL_VERSIONS),
                "services": rng.choice(SERVICES),
                "lag": 0 if rng.random() < 0.9 else rng.randint(1, 400),
                "up": rng.random() < 0.8,
            }
        )

    snapshots = []
    seeds = tuple(nodes[:3])
    for slot in range(slots):
        started_at = SERIES_T0 + slot * SLOT_SECONDS
        records = {}
        for profile in profiles:
            start, end = profile["span"]
            if not start <= slot < end:
                continue
            up = profile["up"]
            profile["up"] = rng.random() < (profile["p_on"] if up else profile["p_back"])
            if slot == missing_slot:
                continue
            endpoint = profile["endpoint"]
            seen_at = started_at + rng.randrange(600)
            if up:
                rtt = None
                if rng.random() >= 0.05:
                    spike = 3.0 if rng.random() < 0.03 else 1.0
                    rtt = round(profile["rtt"] * spike * rng.uniform(0.9, 1.2), 3)
                record = crawler.PeerRecord(
                    address=endpoint,
                    status=crawler.STATUS_ACTIVE,
                    first_seen=seen_at,
                    last_seen=seen_at,
                    services=profile["services"],
                    protocol_version=profile["pver"],
                    user_agent=profile["ua"],
                    start_height=650_000 + slot * 6 - profile["lag"],
                    min_rtt_ms=rtt,
                    addr_count_returned=rng.randrange(3000),
                )
            else:
                record = crawler.PeerRecord(
                    address=endpoint, status=crawler.STATUS_INACTIVE, first_seen=seen_at, last_seen=seen_at
                )
            records[endpoint] = record
        if slot == missing_slot:
            continue
        snapshots.append(
            crawler.Snapshot(
                started_at=started_at,
                finished_at=started_at + 600,
                seeds=seeds,
                records=records,
                crawler_config_digest="0123456789abcdef",
            )
        )

    prefix_csv = workdir / "prefixes.csv"
    lines = ["# prefix,country,asn,org"]
    lines += [f"{prefix},{country},{asn},{org}" for prefix, country, asn, org in rows]
    prefix_csv.write_text("\n".join(lines) + "\n")
    return CensusInputs(snapshots=snapshots, slot_count=slots, missing_slot=missing_slot, prefix_csv=prefix_csv)


# --- ledger: transactions, pool tags and the ground truth ---------------------------------

BLOCK_SUBSIDY = 625_000_000
LEDGER_T0 = 1_577_836_800  # 2020-01-01T00:00:00Z
TXS_PER_BLOCK = 20  # one coinbase plus 19 spends


@dataclass
class LedgerInputs:
    ledger_path: Path
    tags_path: Path
    tx_count: int
    entities: dict[str, frozenset[str]]
    balances: dict[str, int]
    exact_gini: Fraction
    minted: int
    fees: int
    pool_counts: dict[str, dict[str, int]]


class _Wallet:
    __slots__ = ("addresses", "utxos")

    def __init__(self) -> None:
        self.addresses: list[str] = []
        self.utxos: list[tuple[str, int]] = []


def _pool_tags(rng: random.Random, pool_count: int, new_address) -> tuple[list[tuple[str, str | None, list[str]]], str]:
    """Pools as (name, tag or None, payout addresses), plus the tag file text."""
    pools = []
    tag_lines = ["# pool signature tags", "[tags]"]
    address_lines = ["[addresses]"]
    for index in range(pool_count):
        name = f"Pool {index:03d}"
        tag = f"/P{index:03d}pool/" if rng.random() < 0.8 else None
        payouts = [new_address() for _ in range(rng.randint(1, 12))]
        pools.append((name, tag, payouts))
        if tag is not None:
            tag_lines.append(f"{tag}\t{name}")
        address_lines += [f"{address}\t{name}" for address in payouts]
    return pools, "\n".join(tag_lines + address_lines) + "\n"


def _month(timestamp: int) -> str:
    moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    return f"{moment.year:04d}-{moment.month:02d}"


def make_ledger(rng: random.Random, tx_count: int, workdir: Path) -> LedgerInputs:
    """A consistent ledger of ``tx_count`` transactions.

    Every input spends an earlier output of its owner at its exact value.
    One block in 20 transactions is a coinbase: most carry a pool tag, some
    only pay a known pool address, a few are solo miners.  Spends reuse
    addresses, exchanges consolidate dozens of inputs at once (the large
    co-spending entities), and about 1% are 5-party CoinJoins, which the
    clustering must skip.
    """
    counter = 0

    def new_address() -> str:
        nonlocal counter
        counter += 1
        return f"1{rng.getrandbits(128):032x}{counter:x}"

    pools, tags_text = _pool_tags(rng, 120, new_address)
    solo_payouts = [new_address() for _ in range(30)]
    pool_weights = [1.0 / (rank + 2) for rank in range(len(pools))]

    wallet_count = max(50, tx_count // 4)
    wallets = [_Wallet() for _ in range(wallet_count)]
    exchange_list = rng.sample(range(len(pools), wallet_count), 6)
    exchanges = set(exchange_list)
    funded: list[int] = []
    funded_pos: dict[int, int] = {}

    def fund(wid: int, address: str, value: int) -> None:
        wallet = wallets[wid]
        wallet.utxos.append((address, value))
        if wid not in funded_pos:
            funded_pos[wid] = len(funded)
            funded.append(wid)

    def take(wid: int, count: int) -> list[tuple[str, int]]:
        wallet = wallets[wid]
        picked = []
        for _ in range(min(count, len(wallet.utxos))):
            i = rng.randrange(len(wallet.utxos))
            wallet.utxos[i], wallet.utxos[-1] = wallet.utxos[-1], wallet.utxos[i]
            picked.append(wallet.utxos.pop())
        if not wallet.utxos:
            pos = funded_pos.pop(wid)
            last = funded.pop()
            if last != wid:
                funded[pos] = last
                funded_pos[last] = pos
        return picked

    def receive_address(wid: int) -> str:
        wallet = wallets[wid]
        if wallet.addresses and rng.random() < 0.3:
            return rng.choice(wallet.addresses)  # address reuse
        address = new_address()
        wallet.addresses.append(address)
        return address

    payout_owner = {}
    for p, (_, _, payouts) in enumerate(pools):
        wid = p  # the first wallets belong to the pools
        wallets[wid].addresses.extend(payouts)
        for address in payouts:
            payout_owner[address] = wid
    for address in solo_payouts:
        wid = rng.randrange(len(pools), wallet_count)
        wallets[wid].addresses.append(address)
        payout_owner[address] = wid

    flows: dict[str, int] = defaultdict(int)
    cospends: list[tuple[str, ...]] = []
    addresses_seen: set[str] = set()
    pool_counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    minted = fees = 0
    ledger_path = workdir / "chain.ldg"
    handle = ledger_path.open("w")

    def emit(txid: str, height: int, timestamp: int, coinbase: bool, script: str, inputs, outputs) -> None:
        for address, value in outputs:
            flows[address] += value
            addresses_seen.add(address)
        for address, value in inputs:
            flows[address] -= value
            addresses_seen.add(address)
        ins = ";".join(f"{a}:{v}" for a, v in inputs) or "-"
        outs = ";".join(f"{a}:{v}" for a, v in outputs) or "-"
        handle.write(f"{txid} {height} {timestamp} {1 if coinbase else 0} {script} {ins} {outs}\n")

    height = 700_000
    written = 0
    while written < tx_count:
        timestamp = LEDGER_T0 + (height - 700_000) * 600 + rng.randrange(-300, 300)
        # coinbase: a pool found by its tag or, untagged, by its payout address; or a solo miner
        script = rng.randbytes(10)
        if rng.random() < 0.93:
            winner, tag, payouts = rng.choices(pools, pool_weights)[0]
            address = rng.choice(payouts)
            if tag is not None and rng.random() < 0.9:
                script = script[:6] + tag.encode() + script[6:]
        else:
            winner, address = "Unknown", rng.choice(solo_payouts)
        reward = BLOCK_SUBSIDY + rng.randrange(0, 50_000_000)
        minted += reward
        pool_counts[_month(timestamp)][winner] += 1
        emit(f"{rng.getrandbits(256):064x}", height, timestamp, True, script.hex(), (), ((address, reward),))
        fund(payout_owner[address], address, reward)
        written += 1

        for _ in range(TXS_PER_BLOCK - 1):
            if written >= tx_count or not funded:
                break
            kind = rng.random()
            if kind < 0.01 and len(funded) >= 5:
                # CoinJoin: five owners, one input each, five equal outputs plus change
                owners = rng.sample(funded, 5)
                inputs = [take(w, 1)[0] for w in owners]
                denomination = min(v for _, v in inputs) // 2
                outputs = []
                for w, (_, value) in zip(owners, inputs):
                    paid = [(receive_address(w), denomination)]
                    if value - denomination - 500 > 0:
                        paid.append((receive_address(w), value - denomination - 500))
                    for out in paid:
                        fund(w, *out)
                    outputs += paid
                fee = sum(v for _, v in inputs) - sum(v for _, v in outputs)
            else:
                busy = [w for w in exchange_list if w in funded_pos]
                sender = rng.choice(busy) if busy and rng.random() < 0.1 else rng.choice(funded)
                if sender in exchanges or sender < len(pools):
                    count = rng.randint(5, 40) if rng.random() < 0.3 else rng.randint(1, 3)
                else:
                    count = rng.choice((1, 1, 1, 2, 2, 3))
                inputs = take(sender, count)
                total = sum(v for _, v in inputs)
                if sender < len(pools) and total > 100_000:
                    # pool payout to miners: distinct values, so never CoinJoin-like
                    receivers = rng.sample(range(len(pools), wallet_count), rng.randint(3, 12))
                    share = total // (len(receivers) + 1)
                    outputs = [(receive_address(r), share - i) for i, r in enumerate(receivers)]
                    fee = min(1_000, total - sum(v for _, v in outputs))
                    outputs.append((receive_address(sender), total - sum(v for _, v in outputs) - fee))
                    for r, out in zip(receivers, outputs):
                        fund(r, *out)
                    fund(sender, *outputs[-1])
                else:
                    receiver = rng.choice(exchange_list) if rng.random() < 0.2 else rng.randrange(wallet_count)
                    fee = min(total // 200, 2_000)
                    if total - fee < 2 or rng.random() < 0.15:
                        outputs = [(receive_address(receiver), total - fee)]  # sweep
                        fund(receiver, *outputs[0])
                    else:
                        pay = rng.randint(1, total - fee - 1)
                        change_address = rng.choice(inputs)[0] if rng.random() < 0.4 else receive_address(sender)
                        outputs = [(receive_address(receiver), pay), (change_address, total - fee - pay)]
                        fund(receiver, *outputs[0])
                        fund(sender, *outputs[1])
                cospends.append(tuple(a for a, _ in inputs))
            fees += fee
            emit(f"{rng.getrandbits(256):064x}", height, timestamp, False, "-", inputs, outputs)
            written += 1
        height += 1

    handle.close()
    tags_path = workdir / "pools.tags"
    tags_path.write_text(tags_text)

    entities = _components(addresses_seen, cospends)
    balances = {entity: sum(flows[a] for a in members) for entity, members in entities.items()}
    return LedgerInputs(
        ledger_path=ledger_path,
        tags_path=tags_path,
        tx_count=written,
        entities=entities,
        balances=balances,
        exact_gini=exact_gini([b for b in balances.values() if b > 0]),
        minted=minted,
        fees=fees,
        pool_counts={month: dict(counts) for month, counts in pool_counts.items()},
    )


def _components(addresses: set[str], cospends: list[tuple[str, ...]]) -> dict[str, frozenset[str]]:
    """Connected components of the co-spend graph by breadth-first search.

    CoinJoins never reach ``cospends``: the generator knows which spends
    were joint.  Entity ids are the smallest member address.
    """
    neighbors: dict[str, list[str]] = defaultdict(list)
    for group in cospends:
        for other in group[1:]:
            neighbors[group[0]].append(other)
            neighbors[other].append(group[0])
    entities = {}
    unvisited = set(addresses)
    while unvisited:
        start = unvisited.pop()
        members = [start]
        queue = deque([start])
        while queue:
            for nxt in neighbors.get(queue.popleft(), ()):
                if nxt in unvisited:
                    unvisited.remove(nxt)
                    members.append(nxt)
                    queue.append(nxt)
        entities[min(members)] = frozenset(members)
    return entities


def exact_gini(values: list[int]) -> Fraction:
    """G = sum((2i - n - 1) x_i) / (n sum x) over ascending x, in exact arithmetic."""
    ordered = sorted(values)
    n = len(ordered)
    numerator = sum((2 * i - n - 1) * x for i, x in enumerate(ordered, start=1))
    return Fraction(numerator, n * sum(ordered))
