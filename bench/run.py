"""chainobs benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload crawl|census|ledger --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory, never from an installed copy.  Inputs are generated from
the seed, then whole jobs run until ``--seconds`` have passed, each after
three timed set-ups of the program (``setup_s`` is the median of them all).
The first job's outputs are checked against oracles; every job's outputs
are hashed, and all the hashes must agree.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (oracle
checks) and ``metrics``.  With ``--trace 0`` those are the end-to-end
metrics, medians over jobs; with ``--trace 1`` traced and untraced jobs
alternate, and the metrics are the per-layer ones from the traced jobs.
Spans of the first traced job go to ``.bench_out/``.  See ``DESIGN.md`` for
the choices behind the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3  # before every job; the crawl consumes its network
WORKLOAD_NAMES = ("crawl", "census", "ledger")

# On a shared machine the speed of one process can drift by a third within
# minutes.  So every timing is rescaled by a fixed reference loop run just
# before and just after it (before set-up, between the stages, after the
# job): a time t measured while the loop took r seconds (the mean of the
# two) is reported as t * REFERENCE_NOMINAL_S / r, the time on a machine
# where the loop takes 0.1 s.  The loop is the benchmark's own
# code, so no program change moves it.  DESIGN.md has the measurements.
REFERENCE_NOMINAL_S = 0.1
_REFERENCE_KEYS = [f"addr{i:07d}" for i in range(100_000)]
_REFERENCE_ORDER = random.Random(0).sample(range(100_000), 100_000)


def reference_s() -> float:
    """Seconds the reference loop takes now.

    Half of it walks a 60k-entry dict in shuffled order (memory-bound, like
    the ledger and snapshot readers); half formats strings and hashes tuples
    (interpreter-bound, like the codec).  The garbage collector is off so
    that the size of the program's heap does not change the loop's cost.
    """
    keys, order = _REFERENCE_KEYS, _REFERENCE_ORDER
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in order[:60_000]:
            table[keys[i]] = (i, len(keys[i]))
        total = 0
        for i in order[30_000:90_000]:
            hit = table.get(keys[i])
            if hit is not None:
                total += hit[0]
        sorted(table)
        counts: dict[str, int] = {}
        for i in range(60_000):
            key = f"k{i % 5000}"
            counts[key] = counts.get(key, 0) + len(key)
            hash((i, key, i * 3))
        sorted(counts.items())
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def import_program(root: Path) -> None:
    """Put ``root/src`` first on the import path and check it is what loads."""
    src = root / "src"
    if not (src / "chainobs" / "__init__.py").is_file():
        raise SystemExit(f"bench: no chainobs sources under {src}")
    sys.path.insert(0, str(src))
    import chainobs

    if Path(chainobs.__file__).resolve().parent != (src / "chainobs").resolve():
        raise SystemExit(f"bench: chainobs loaded from {chainobs.__file__}, not {src}")


def run(workload_name: str, seed: int, seconds: float, trace: bool, scratch: Path, sizes=None) -> tuple[dict, str]:
    """Run one workload; return the result object and the output digest."""
    import workloads
    from tracing import Tracer

    workdir = scratch / f"work-{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[workload_name](seed, sizes or workloads.Sizes(), workdir)
        checks = workloads.Checks()
        setup_s: list[float] = []
        after = reference_s()
        tracer = Tracer() if trace else None
        plain: list[tuple[float, float, int]] = []  # normalised (stage 1 s, stage 2 s, items) per job
        traced: list[tuple[float, float, int]] = []
        raw_items_per_s: list[float] = []
        traced_raw_s = 0.0
        digests: set[str] = set()
        observed: dict[str, float] = {}
        deadline = time.perf_counter() + seconds
        while True:
            before = after
            tracing = trace and len(plain) > len(traced)
            setup_raw = []
            for _ in range(SETUP_REPS):
                start = time.perf_counter()
                state = workload.setup()
                setup_raw.append(time.perf_counter() - start)
            if tracing:
                tracer.install()
            try:
                start = time.perf_counter()
                middle = workload.stage1(state)
                stage1_s = time.perf_counter() - start
                between = reference_s()
                start = time.perf_counter()
                output = workload.stage2(state, middle)
                stage2_s = time.perf_counter() - start
            finally:
                if tracing:
                    tracer.uninstall()
            after = reference_s()
            scale1 = 2 * REFERENCE_NOMINAL_S / (before + between)
            scale2 = 2 * REFERENCE_NOMINAL_S / (between + after)
            setup_s += [t * scale1 for t in setup_raw]
            items = workload.items(output)
            (traced if tracing else plain).append((stage1_s * scale1, stage2_s * scale2, items))
            if not tracing:
                raw_items_per_s.append(items / (stage1_s + stage2_s))
            if tracing:
                traced_raw_s += stage1_s + stage2_s
                tracer.keep_spans = False
                observed = workload.observe(state, output)
            if not digests:
                # later jobs are held to the same verdicts by the digest check below
                workload.check(output, checks)
            digests.add(workload.digest(output))
            del middle, output
            if time.perf_counter() >= deadline and (traced or not trace):
                break
        checks.expect(len(digests) == 1, f"{workload_name}: outputs differ between jobs")
        print(
            f"{len(plain) + len(traced)} jobs; unnormalised items_per_s median {statistics.median(raw_items_per_s):.6g}; "
            f"reference loop {after:.4f} s at the end",
            file=sys.stderr,
        )

        if trace:
            untraced_s = statistics.median(a + b for a, b, _ in plain)
            traced_s = statistics.median(a + b for a, b, _ in traced)
            metrics = workloads.layer_metrics(
                tracer,
                len(traced),
                observed,
                time_scale=sum(a + b for a, b, _ in traced) / traced_raw_s,
                overhead=traced_s / untraced_s,
                coverage=tracer.top_level_s / traced_raw_s,
            )
            _write_spans(tracer, scratch / f"spans-{workload_name}-seed{seed}.json")
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "items_per_s": {"value": statistics.median(n / (a + b) for a, b, n in plain), "unit": "1/s"},
                "stage1_items_per_s": {"value": statistics.median(n / a for a, _, n in plain), "unit": "1/s"},
                "stage2_items_per_s": {"value": statistics.median(n / b for _, b, n in plain), "unit": "1/s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        for failure in checks.failures[:20]:
            print(f"check failed: {failure}", file=sys.stderr)
        result = {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": metrics,
        }
        return result, digests.pop() if len(digests) == 1 else "inconsistent"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _write_spans(tracer, path: Path) -> None:
    """Spans of the first traced job: name, start and end in s from its first span, parent index."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [[name, start - origin, end - origin, parent] for name, start, end, parent in tracer.spans]
    path.write_text(json.dumps({"columns": ["name", "start_s", "end_s", "parent"], "spans": rows}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program(ROOT)
    result, digest = run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_out")
    print(f"digest {args.workload} seed={args.seed}: {digest}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
