"""Self-test of the benchmark at a tiny size.

Not part of the project's test suite; run it with

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program(run.ROOT)

import workloads  # noqa: E402  (needs the program on the import path)

TINY = workloads.Sizes(crawl_peers=150, census_endpoints=60, census_slots=8, ledger_txs=2_000)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path: Path, workload: str, seed: int, trace: bool = False):
    return run.run(workload, seed, 0, trace, tmp_path, TINY)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_same_digest_and_every_oracle_passes(tmp_path, workload):
    first, digest = _run(tmp_path, workload, 1)
    second, again = _run(tmp_path, workload, 1)
    assert digest == again
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    other, other_digest = _run(tmp_path, workload, 2)
    assert other["correct"] and other["failed"] == 0
    assert other_digest != digest


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(tmp_path, workload):
    result, _ = _run(tmp_path, workload, 3)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    result, _ = _run(tmp_path, workload, 3, trace=True)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"]
    assert 0 < result["metrics"]["trace.coverage"]["value"] <= 1
    assert (tmp_path / f"spans-{workload}-seed3.json").is_file()


def test_tracing_leaves_the_program_unpatched(tmp_path):
    from chainobs import crawler, ledger, transport

    before = (crawler.probe_peer, vars(transport.Endpoint)["make"], vars(ledger.EntityPartition)["entity_count"])
    _run(tmp_path, "crawl", 4, trace=True)
    _run(tmp_path, "ledger", 4, trace=True)
    after = (crawler.probe_peer, vars(transport.Endpoint)["make"], vars(ledger.EntityPartition)["entity_count"])
    assert before == after


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ledger", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
