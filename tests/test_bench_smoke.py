"""Smoke test of the benchmark harness at a tiny size.

Runs one traced job of each workload against the chainobs this test session
imports.  The tracer patches program functions by name, so a refactor that
renames one of them fails here rather than in a later benchmark run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402  (bench/run.py)
import workloads  # noqa: E402  (bench/workloads.py)

TINY = workloads.Sizes(crawl_peers=150, census_endpoints=60, census_slots=8, ledger_txs=2_000)
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_tiny_run_is_correct_and_reports_every_layer(tmp_path, workload):
    result, digest = run.run(workload, 1, 0, True, tmp_path, TINY)
    assert result["correct"] and result["failed"] == 0
    assert digest != "inconsistent"
    assert PER_LAYER <= set(result["metrics"])
    if workload == "census":
        # load_series reads through the traced read_snapshot and builds each Endpoint once per series
        value = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert value["snapshotstore.records_read"] > 0
        assert value["transport.endpoint_make.calls"] < value["snapshotstore.records_read"]
