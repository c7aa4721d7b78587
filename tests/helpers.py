"""Shared fixture builders: snapshots, timelines, synthetic ledgers, gossip and loopback wire peers."""

from __future__ import annotations

import random
import socket
import threading
import time
from collections import defaultdict, deque
from contextlib import ExitStack, contextmanager

from hypothesis import strategies as st

from chainobs import wirecodec
from chainobs.crawler import PeerRecord, Snapshot, STATUS_ACTIVE, STATUS_INACTIVE
from chainobs.ledger import COIN, CoinJoinParams, DEFAULT_COINJOIN_PARAMS, LedgerTx, is_coinjoin
from chainobs.metrics import ActivityTimeline
from chainobs.transport import Endpoint

BASE_TS = 1_600_000_000


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """The ``(line number, text)`` pairs that ``transport._lines`` yields for a file holding
    ``text`` (without a carriage return): no pair for the empty piece after a final newline."""
    pieces = text.split("\n")
    if pieces[-1] == "":
        pieces.pop()
    return list(enumerate(pieces, start=1))


def make_record(
    ip: str,
    port: int = 8333,
    status: str = STATUS_ACTIVE,
    services: int | None = 9,
    protocol_version: int | None = 70015,
    user_agent: str | None = "/peer:1.0/",
    start_height: int | None = 600_000,
    min_rtt_ms: float | None = 20.0,
    ts: int = BASE_TS,
    addr_count: int = 0,
) -> PeerRecord:
    if status == STATUS_INACTIVE:
        services = protocol_version = user_agent = start_height = min_rtt_ms = None
    return PeerRecord(
        address=Endpoint.make(ip, port),
        status=status,
        first_seen=ts,
        last_seen=ts,
        services=services,
        protocol_version=protocol_version,
        user_agent=user_agent,
        start_height=start_height,
        min_rtt_ms=min_rtt_ms,
        addr_count_returned=addr_count,
    )


def make_snapshot(records, started_at: int = BASE_TS, seeds=(), digest: str = "cafe") -> Snapshot:
    return Snapshot(
        started_at=started_at,
        finished_at=started_at + 60,
        seeds=tuple(seeds),
        records={r.address: r for r in records},
        crawler_config_digest=digest,
    )


def timeline(bits, interval: int = 1800, ip: str = "10.0.0.1") -> ActivityTimeline:
    return ActivityTimeline(Endpoint.make(ip), interval, tuple(bool(b) for b in bits))


# --- synthetic ledgers ------------------------------------------------------


def cospend_txs(rng: random.Random, count: int, address_pool: int = 400, coinjoin_share: float = 0.15):
    """Random co-spend patterns for clustering tests, some shaped like CoinJoins.

    Values satisfy the per-transaction input >= output rule but carry no
    cross-transaction bookkeeping; these are for partition tests only.
    """
    addresses = [f"a{i:05d}" for i in range(address_pool)]
    txs = []
    for i in range(count):
        n_in = rng.randint(1, 5)
        ins = tuple((a, 10 * COIN) for a in rng.sample(addresses, n_in))
        total_in = sum(v for _, v in ins)
        if rng.random() < coinjoin_share and n_in >= 2:
            equal = rng.randint(3, 5)
            value = total_in // (equal + 1)
            outs = tuple((a, value) for a in rng.sample(addresses, equal))
        else:
            n_out = rng.randint(1, 3)
            value = total_in // (n_out + 1)
            outs = tuple((a, value) for a in rng.sample(addresses, n_out))
        txs.append(
            LedgerTx(
                txid=f"t{i:06d}",
                height=i,
                timestamp=BASE_TS + i * 600,
                is_coinbase=False,
                inputs=ins,
                outputs=outs,
            )
        )
    return txs


def components_oracle(txs, params: CoinJoinParams = DEFAULT_COINJOIN_PARAMS) -> set[frozenset[str]]:
    """Connected components of the co-input graph, by breadth-first search."""
    adjacency: dict[str, set[str]] = defaultdict(set)
    nodes: set[str] = set()
    for tx in txs:
        nodes.update(a for a, _ in tx.outputs)
        if tx.is_coinbase:
            continue
        ins = [a for a, _ in tx.inputs]
        nodes.update(ins)
        if is_coinjoin(tx, params):
            continue
        for other in ins[1:]:
            adjacency[ins[0]].add(other)
            adjacency[other].add(ins[0])
    components: set[frozenset[str]] = set()
    seen: set[str] = set()
    for start in nodes:
        if start in seen:
            continue
        group = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            for neighbor in adjacency[queue.popleft()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    group.add(neighbor)
                    queue.append(neighbor)
        components.add(frozenset(group))
    return components


def zero_fee_ledger(rng: random.Random, tx_count: int):
    """A bookkeeping-consistent ledger where every transaction has zero fee.

    Returns (txs, total_issued).  Spends always consume the full current
    balance of the chosen input addresses.
    """
    txs = []
    balances: dict[str, int] = {}
    issued = 0
    counter = 0

    def new_address() -> str:
        nonlocal counter
        counter += 1
        return f"w{counter:06d}"

    def split(total: int, parts: int) -> list[int]:
        if parts == 1 or total < 2:
            return [total]
        cuts = sorted(rng.randint(1, total - 1) for _ in range(parts - 1))
        values = []
        last = 0
        for cut in cuts + [total]:
            values.append(cut - last)
            last = cut
        return [v for v in values if v > 0] or [total]

    for i in range(tx_count):
        funded = [a for a, b in balances.items() if b > 0]
        if i % 10 == 0 or len(funded) < 2:
            reward = 50 * COIN
            outs = []
            for value in split(reward, rng.randint(1, 3)):
                address = new_address()
                outs.append((address, value))
                balances[address] = balances.get(address, 0) + value
            issued += reward
            txs.append(
                LedgerTx(
                    txid=f"c{i:06d}",
                    height=i,
                    timestamp=BASE_TS + i * 600,
                    is_coinbase=True,
                    inputs=(),
                    outputs=tuple(outs),
                    coinbase_script=b"/gen/",
                )
            )
            continue
        spenders = rng.sample(funded, rng.randint(1, min(4, len(funded))))
        ins = tuple((a, balances[a]) for a in spenders)
        total = sum(v for _, v in ins)
        outs = []
        for value in split(total, rng.randint(1, 3)):
            address = new_address() if rng.random() < 0.5 else rng.choice(spenders)
            outs.append((address, value))
        for a, v in ins:
            balances[a] -= v
        for a, v in outs:
            balances[a] = balances.get(a, 0) + v
        txs.append(
            LedgerTx(
                txid=f"t{i:06d}",
                height=i,
                timestamp=BASE_TS + i * 600,
                is_coinbase=False,
                inputs=ins,
                outputs=tuple(outs),
            )
        )
    return txs, issued


# Entity balance profile where the richest 4.5% of 2000 entities hold exactly
# 85% of all coins (292_230_000 of 343_800_000 sat) with heavy skew below,
# pushing the Gini index above 0.9.
CONCENTRATED_PROFILE = (
    (1719, 1_000),
    (191, 261_000),
    (90, 3_247_000),
)


def concentrated_ledger():
    """Materialize CONCENTRATED_PROFILE as transactions.

    Every 20th entity gets three addresses merged by a co-spend so the
    pipeline exercises real clustering; fees are zero throughout.
    Returns (txs, entity_count, top_count, expected_top_share_num_den).
    """
    txs = []
    height = 0
    entity_index = 0
    pending_outputs: list[tuple[str, int]] = []
    merges: list[tuple[tuple[str, ...], int]] = []

    for count, balance in CONCENTRATED_PROFILE:
        for _ in range(count):
            entity_index += 1
            base = f"e{entity_index:05d}"
            if entity_index % 20 == 0 and balance >= 3:
                addresses = (f"{base}x", f"{base}y", f"{base}z")
                pending_outputs += [(addresses[0], balance - 2), (addresses[1], 1), (addresses[2], 1)]
                merges.append((addresses, balance))
            else:
                pending_outputs.append((base, balance))

    for start in range(0, len(pending_outputs), 50):
        chunk = tuple(pending_outputs[start : start + 50])
        txs.append(
            LedgerTx(
                txid=f"cb{height:05d}",
                height=height,
                timestamp=BASE_TS + height * 600,
                is_coinbase=True,
                inputs=(),
                outputs=chunk,
                coinbase_script=b"/gen/",
            )
        )
        height += 1

    for addresses, balance in merges:
        txs.append(
            LedgerTx(
                txid=f"mg{height:05d}",
                height=height,
                timestamp=BASE_TS + height * 600,
                is_coinbase=False,
                inputs=((addresses[0], balance - 2), (addresses[1], 1), (addresses[2], 1)),
                outputs=((addresses[0], balance),),
            )
        )
        height += 1

    entity_count = sum(count for count, _ in CONCENTRATED_PROFILE)
    top_count = CONCENTRATED_PROFILE[-1][0]
    top_total = CONCENTRATED_PROFILE[-1][0] * CONCENTRATED_PROFILE[-1][1]
    grand_total = sum(count * value for count, value in CONCENTRATED_PROFILE)
    return txs, entity_count, top_count, (top_total, grand_total)


four_bytes = st.binary(min_size=4, max_size=4)
packed_ips = st.one_of(
    st.binary(min_size=16, max_size=16),
    four_bytes.map(lambda b: b"\x00" * 10 + b"\xff\xff" + b),  # IPv4-mapped
    four_bytes.map(lambda b: b"\x00" * 12 + b),  # IPv4-compatible ::/96
)
gossiped_ips = st.one_of(
    packed_ips,
    st.binary(min_size=10, max_size=10).map(lambda b: bytes.fromhex("fd87d87eeb43") + b),  # OnionCat
    st.sampled_from([bytes(16), bytes(15) + b"\x01"]),  # :: and ::1
)
# (last_seen, services, 16-byte ip, port) of each entry of one addr message; repeats allowed
addr_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**64 - 1),
        gossiped_ips,
        st.integers(min_value=0, max_value=65535),
    ),
    max_size=40,
)


def addr_payload(records) -> bytes:
    """The ``addr`` payload of ``(last_seen, services, 16-byte ip, port)`` records."""
    return wirecodec.encode_addr_records(
        [
            wirecodec._ADDR_ENTRY.pack(last_seen, services, ip + port.to_bytes(2, "big"))
            for last_seen, services, ip, port in records
        ]
    )


def version_payload(user_agent: str, services: int = 1, start_height: int = 1, nonce: int = 1):
    """The ``version`` a test peer advertises: protocol 70015, null addresses, timestamp 0."""
    return wirecodec.VersionPayload(
        protocol_version=wirecodec.PROTOCOL_VERSION,
        services=services,
        timestamp=0,
        receiver=wirecodec.NULL_ADDRESS,
        sender=wirecodec.NULL_ADDRESS,
        nonce=nonce,
        user_agent=user_agent,
        start_height=start_height,
    )


def wire_peer(version, gossip=(), version_delay: float = 0.0):
    """A :func:`listener` handler that speaks the wire on mainnet magic until the prober hangs up.

    It answers version with ``version`` and a verack, ``version_delay`` seconds late; each
    ping with its pong; and getaddr with one addr entry per endpoint of ``gossip``, read at
    the getaddr, so the list may be filled once the listeners are bound.
    """
    magic = wirecodec.MAINNET_MAGIC
    handshake = wirecodec.encode_message("version", wirecodec.encode_version(version), magic)
    handshake += wirecodec.encode_message("verack", b"", magic)

    def handle(conn: socket.socket) -> None:
        buffer = b""
        while chunk := conn.recv(4096):
            buffer += chunk
            while frame := wirecodec.decode_message_prefix(buffer, magic):
                command, payload, consumed = frame
                buffer = buffer[consumed:]
                if command == "version":
                    time.sleep(version_delay)
                    conn.sendall(handshake)
                elif command == "ping":
                    conn.sendall(wirecodec.encode_message("pong", payload, magic))
                elif command == "getaddr":
                    entries = [wirecodec.AddrEntry(0, 1, e.ip, e.port) for e in gossip]
                    conn.sendall(wirecodec.encode_message("addr", wirecodec.encode_addr(entries), magic))

    return handle


@contextmanager
def listener(*handlers):
    """Loopback listener whose thread hands its n-th accepted connection to ``handlers[n]``;
    yields its endpoint, then joins the thread and closes."""
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(len(handlers))
    server.settimeout(5)

    def serve():
        for handler in handlers:
            conn, _ = server.accept()
            with conn:
                conn.settimeout(5)
                handler(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield Endpoint.make("127.0.0.1", server.getsockname()[1])
    finally:
        thread.join(timeout=10)
        server.close()
    assert not thread.is_alive()


@contextmanager
def loopback_network(peers: int, probes: int):
    """Yield the endpoints of ``peers`` loopback wire peers, each serving ``probes`` connections
    with its version 50 ms late and gossiping all the others."""
    gossips = [[] for _ in range(peers)]
    with ExitStack() as stack:
        endpoints = []
        for index, gossip in enumerate(gossips):
            version = version_payload(f"/tcp-peer-{index}:0.1/", 5, 750_000 + index, nonce=index)
            handler = wire_peer(version, gossip, version_delay=0.05)
            endpoints.append(stack.enter_context(listener(*[handler] * probes)))
        for index, gossip in enumerate(gossips):
            gossip.extend(endpoints[:index] + endpoints[index + 1:])
        yield endpoints
