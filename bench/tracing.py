"""Timing wrappers installed around the program's public functions.

The benchmark measures each layer from outside: ``Tracer.install`` replaces
module and class attributes with wrappers that time every call, and
``uninstall`` puts the originals back.  Each wrapped call pushes a frame on
one stack, so a call's self time is its duration minus the time of the
wrapped calls made inside it.  Calls made very often (``Endpoint.make``,
``classify_network``, union-find steps) are only aggregated; the others are
also kept as spans (name, start, end, parent) for the first traced job.

Names bound by ``from module import name`` are looked up in the importing
module, so those are wrapped where they are used as well: ``classify_network``
in ``snapshotstore`` and ``metrics``, ``canonical_ip`` in ``transport``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from chainobs import crawler, enrich, ledger, metrics, simnet, snapshotstore, transport, wirecodec


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0  # what the call worked on: entries, records, bytes, hits
    durations: list[float] | None = None


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    spans: list[list] = field(default_factory=list)
    keep_spans: bool = True
    top_level_s: float = 0.0  # time inside wrapped calls made by the benchmark itself
    virtual_s: float = 0.0
    _stack: list[list] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def timed(
        self,
        name: str,
        fn: Callable,
        *,
        span: bool = False,
        items: Callable[[tuple, Any], int] | None = None,
        keep_durations: bool = False,
    ) -> Callable:
        """Wrap ``fn`` so each call is timed under ``name``."""
        stat = self.stat(name)
        if keep_durations and stat.durations is None:
            stat.durations = []
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = parent
            if span and self.keep_spans:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += duration - frame[0]
                if stat.durations is not None:
                    stat.durations.append(duration)
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_s += duration
                if index != parent:
                    spans[index][1] = start
                    spans[index][2] = end
            if items is not None:
                stat.items += items(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: Any, attr: str, name: str, **options) -> None:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.timed(name, original.__func__, **options))
        elif isinstance(original, property):
            replacement = property(self.timed(name, original.fget, **options))
        else:
            replacement = self.timed(name, original, **options)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        patch = self._patch
        # wirecodec, including the name transport imported
        patch(wirecodec, "decode_addr", "wirecodec.decode_addr", span=True, items=lambda a, r: len(r))
        patch(wirecodec, "encode_message", "wirecodec.encode_message")
        patch(wirecodec, "encode_addr", "wirecodec.encode_addr", items=lambda a, r: len(a[0]))
        patch(wirecodec, "decode_message", "wirecodec.decode_message")
        patch(wirecodec, "decode_message_prefix", "wirecodec.decode_message_prefix")
        patch(wirecodec, "canonical_ip", "wirecodec.canonical_ip")
        patch(transport, "canonical_ip", "wirecodec.canonical_ip")
        # transport
        patch(transport.Endpoint, "make", "transport.endpoint_make")
        # simnet: connect returns a proxy that times the peer side
        original_connect = vars(simnet.SimNetwork)["connect"]
        tracer = self

        def connect(network, endpoint, timeout):
            return _TimedConnection(original_connect(network, endpoint, timeout), tracer)

        connect.__wrapped__ = original_connect
        self._saved.append((simnet.SimNetwork, "connect", original_connect))
        simnet.SimNetwork.connect = self.timed("simnet.connect", connect)
        # crawler
        patch(crawler, "probe_peer", "crawler.probe_peer", span=True, keep_durations=True)
        # snapshotstore
        patch(
            snapshotstore, "write_snapshot", "snapshotstore.write_snapshot", span=True,
            items=lambda a, r: len(a[0].records),
        )
        patch(
            snapshotstore, "read_snapshot", "snapshotstore.read_snapshot", span=True,
            items=lambda a, r: len(r.records),
        )
        # enrich, including the names snapshotstore and metrics imported
        for module in (enrich, snapshotstore, metrics):
            patch(module, "classify_network", "enrich.classify_network")
        patch(enrich.IpMetadataTable, "lookup", "enrich.lookup")
        patch(enrich, "aggregate_shares", "enrich.aggregate_shares", span=True)
        # metrics
        patch(
            metrics, "build_timelines", "metrics.build_timelines", span=True,
            items=lambda a, r: len(r.timelines) * len(r.slot_times),
        )
        patch(metrics.SnapshotStats, "__init__", "metrics.snapshot_stats", span=True)
        patch(metrics, "bni", "metrics.bni")
        patch(metrics, "mean_connection_time", "metrics.mean_connection_time")
        patch(metrics, "flapping_events", "metrics.flapping_events")
        patch(metrics.ActivityTimeline, "sessions", "metrics.sessions")
        patch(metrics.ActivityTimeline, "active_slots", "metrics.active_slots")
        # ledger
        patch(ledger, "read_ledger", "ledger.read_ledger", span=True, items=lambda a, r: len(r))
        patch(ledger, "build_partition", "ledger.build_partition", span=True, items=lambda a, r: len(a[0]))
        patch(ledger, "is_coinjoin", "ledger.is_coinjoin", items=lambda a, r: int(r))
        patch(ledger.EntityPartition, "union", "ledger.union")
        patch(ledger, "entity_balances", "ledger.entity_balances", span=True, items=lambda a, r: len(a[0]))
        for walk in ("entities", "stable_ids", "entity_of", "entity_count"):
            patch(ledger.EntityPartition, walk, "ledger.partition_walk", span=True)
        patch(ledger, "top_holders", "ledger.top_holders", span=True)
        patch(ledger, "gini", "ledger.gini", span=True)
        patch(ledger, "lorenz_points", "ledger.lorenz_points", span=True)
        patch(
            ledger, "mining_shares", "ledger.mining_shares", span=True,
            items=lambda a, r: len(a[0]),
        )

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _TimedConnection:
    """Simnet connection proxy: times the peer side and sums virtual time."""

    def __init__(self, conn, tracer: Tracer):
        self._conn = conn
        self._tracer = tracer
        self._closed = False
        self.send = tracer.timed("simnet.send", conn.send)
        self.recv_exact = tracer.timed("simnet.recv_exact", conn.recv_exact, items=lambda a, r: len(r))
        self.clock = conn.clock

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._tracer.virtual_s += self._conn.clock()
        self._conn.close()
