"""End-to-end subcommand tests against simulated inputs."""

import csv
import dataclasses
import os
import random
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from chainobs import cli, crawler, ledger, metrics, simnet, snapshotstore
from chainobs.crawler import CrawlConfig
from chainobs.ledger import COIN, DEFAULT_COINJOIN_PARAMS, LedgerTx
from chainobs.transport import Endpoint
from helpers import (
    BASE_TS, concentrated_ledger, listener, make_record, make_snapshot, version_payload, wire_peer, zero_fee_ledger
)


@pytest.fixture
def topo_file(tmp_path):
    topo = simnet.random_topology(
        40, rng_seed=19, unreachable_fraction=0.2, silent_fraction=0.1, slow_fraction=0.05
    )
    path = tmp_path / "net.topo"
    simnet.save_topology(topo, path)
    return path, topo


@pytest.fixture
def seeds_file(tmp_path, topo_file):
    _, topo = topo_file
    path = tmp_path / "seeds.txt"
    path.write_text("\n".join(str(s) for s in topo.seed_ids) + "\n")
    return path


def fig10_ledger(tmp_path):
    txs = [
        LedgerTx("cb", 0, BASE_TS, True, (), (("A", 10 * COIN), ("B", 10 * COIN), ("C", 20 * COIN), ("D", 10 * COIN)), b"/slush/"),
        LedgerTx("t1", 1, BASE_TS + 600, False, (("A", 10 * COIN), ("B", 10 * COIN), ("C", 10 * COIN)), (("A", 30 * COIN),)),
        LedgerTx("t2", 2, BASE_TS + 1200, False, (("C", 10 * COIN), ("D", 10 * COIN)), (("D", 20 * COIN),)),
    ]
    path = tmp_path / "tiny.ldg"
    ledger.write_ledger(txs, path)
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_crawl_subcommand_writes_parseable_snapshot(tmp_path, topo_file, seeds_file):
    topo_path, topo = topo_file
    out = tmp_path / f"s{snapshotstore.SNAPSHOT_SUFFIX}"
    code = cli.main(["crawl", "--seeds", str(seeds_file), "--out", str(out), "--simnet", str(topo_path)])
    assert code == 0
    snapshot = snapshotstore.read_snapshot(out)
    assert snapshot.active_addresses() == simnet.reachable_set(topo)


@pytest.mark.parametrize("max_inflight", ["1", "4"])
def test_crawl_without_simnet_probes_real_sockets(tmp_path, capsys, max_inflight):
    seeds = tmp_path / "seeds.txt"
    out = tmp_path / f"tcp{snapshotstore.SNAPSHOT_SUFFIX}"
    with listener(wire_peer(version_payload("/loopback:0.1/"))) as peer:
        seeds.write_text(f"{peer}\n")  # a bare --seeds host:port would be read as a DNS name
        assert cli.main(["crawl", "--seeds", str(seeds), "--out", str(out), "--max-inflight", max_inflight]) == 0
    snapshot = snapshotstore.read_snapshot(out)
    assert list(snapshot.records) == [peer] and snapshot.active_addresses() == {peer}
    assert snapshot.records[peer].user_agent == "/loopback:0.1/"
    assert f"{out}: 1 active / 1 discovered" in capsys.readouterr().out


def _repeat_crawl(out_dir, topo_path, seeds_file, repeat, count):
    """Run ``crawl --simnet --repeat`` into ``out_dir``; the snapshots it wrote, in crawl order."""
    argv = ["crawl", "--seeds", str(seeds_file), "--out", str(out_dir), "--simnet", str(topo_path)]
    assert cli.main([*argv, "--repeat", repeat, "--repeat-count", str(count)]) == 0
    return snapshotstore.load_series(out_dir)


def test_crawl_repeat_writes_timestamped_files(tmp_path, topo_file, seeds_file):
    topo_path, _ = topo_file
    out_dir = tmp_path / "series"
    first, second = _repeat_crawl(out_dir, topo_path, seeds_file, "0", 2)
    assert len(list(out_dir.glob(f"*{snapshotstore.SNAPSHOT_SUFFIX}"))) == 2
    # back to back on the network's clock: the second crawl starts as the first ends
    assert first.started_at == simnet.BASE_TIME < first.finished_at <= second.started_at <= first.finished_at + 1


def test_crawl_repeat_starts_each_crawl_on_its_grid(tmp_path, topo_file, seeds_file):
    topo_path, _ = topo_file
    snapshots = _repeat_crawl(tmp_path / "series", topo_path, seeds_file, "10", 6)
    t0 = snapshots[0].started_at
    assert [s.started_at for s in snapshots] == [t0 + k * 600 for k in range(6)]
    assert snapshots[0].finished_at > t0  # the crawl took time, and the schedule absorbed it
    assert metrics.build_timelines(snapshots).imputed_slots == ()


def test_crawl_repeat_shorter_than_a_crawl_skips_the_slots_it_overran(tmp_path, topo_file, seeds_file):
    topo_path, _ = topo_file
    snapshots = _repeat_crawl(tmp_path / "series", topo_path, seeds_file, "0.25", 4)  # 15 s slots
    t0 = snapshots[0].started_at
    slots = [(s.started_at - t0) / 15 for s in snapshots]
    assert all(slot.is_integer() for slot in slots)  # every start on the grid
    assert all(s.finished_at - s.started_at > 15 for s in snapshots)  # every crawl overran its slot
    assert all(b > a + 1 for a, b in zip(slots, slots[1:]))  # so the next start skipped a slot
    skipped = tuple(i for i in range(int(slots[-1])) if i not in slots)
    assert metrics.build_timelines(snapshots, interval_seconds=15).imputed_slots == skipped


def test_crawl_repeat_does_not_overwrite_same_second_snapshots(tmp_path, topo_file, seeds_file, monkeypatch, capsys):
    topo_path, _ = topo_file
    out_dir = tmp_path / "series"
    monkeypatch.setattr(simnet.SimNetwork, "now", lambda network: BASE_TS)  # the network's clock frozen
    code = cli.main(
        [
            "crawl",
            "--seeds", str(seeds_file),
            "--out", str(out_dir),
            "--simnet", str(topo_path),
            "--repeat", "0",
            "--repeat-count", "3",
        ]
    )
    assert code == 0
    # each crawl prints its file after writing it; the names sort in that order
    written = [Path(line.split(": ")[0]).name for line in capsys.readouterr().out.splitlines()]
    stamp = written[0].removesuffix(snapshotstore.SNAPSHOT_SUFFIX)
    assert written == [f"{stamp}{tag}{snapshotstore.SNAPSHOT_SUFFIX}" for tag in ("", "_0001", "_0002")]
    assert sorted(p.name for p in out_dir.glob(f"*{snapshotstore.SNAPSHOT_SUFFIX}")) == written
    # a series that starts in one second is one grid slot
    assert cli.main(["timeline", "--snapshots", str(out_dir), "--out", str(tmp_path / "churn.csv")]) == 0
    assert cli.main(["bni", "--snapshots", str(out_dir), "--out", str(tmp_path / "bni.csv")]) == 0
    assert len(read_csv(tmp_path / "bni.csv")) > 1


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--repeat", "-1"], "--repeat: not a finite number >= 0: '-1'"),
        (["--repeat", "inf"], "--repeat: not a finite number >= 0: 'inf'"),
        (["--repeat", "nan"], "--repeat: not a finite number >= 0: 'nan'"),
        (["--repeat", "soon"], "--repeat: invalid float value: 'soon'"),
        (["--repeat", "0", "--repeat-count", "0"], "--repeat-count: not a finite number >= 1: '0'"),
        (["--repeat", "0", "--repeat-count", "-2"], "--repeat-count: not a finite number >= 1: '-2'"),
        (["--repeat-count", "2"], "--repeat-count: needs --repeat"),
    ],
    ids=["negative", "inf", "nan", "not-a-number", "count-0", "count-negative", "count-without-repeat"],
)
def test_crawl_rejects_bad_repeat_flags_before_crawling(tmp_path, topo_file, seeds_file, flags, reason, capsys):
    topo_path, _ = topo_file
    out = tmp_path / "series"
    with pytest.raises(SystemExit) as err:
        cli.main(["crawl", "--seeds", str(seeds_file), "--out", str(out), "--simnet", str(topo_path), *flags])
    assert err.value.code == 1
    assert f"error: argument {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["crawl", "--seeds", "x", "--out", "y", "--bogus"])
    assert err.value.code == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["sim", "--topology", "missing.topo", "--getaddr-rounds", "1"],
        ["crawl", "--seeds", "missing.seeds", "--simnet", "missing.topo", "--out", "o", "--bogus", "1"],
    ],
    ids=["sim", "crawl"],
)
def test_unknown_flag_is_reported_under_the_usage_of_its_subcommand(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # the inputs do not exist: reading them would exit 2
    monkeypatch.setattr(crawler, "bootstrap_seeds", lambda *args: pytest.fail("looked up the seeds"))
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 1
    err_text = capsys.readouterr().err
    assert err_text.startswith(f"usage: chainobs {argv[0]} [-h]")
    assert err_text.endswith(f"chainobs {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}\n")
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_without_a_subcommand_is_reported_under_the_top_level_usage(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["--bogus"])
    assert err.value.code == 1
    assert capsys.readouterr().err.startswith("usage: chainobs [-h] {crawl,")


def test_unknown_flag_before_the_subcommand_is_reported_under_the_top_level_usage(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(["--bogus", "sim", "--topology", "missing.topo"])
    assert err.value.code == 1
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage: chainobs [-h] {crawl,")
    assert err_text.endswith("chainobs: error: unrecognized arguments: --bogus\n")
    assert list(tmp_path.iterdir()) == []


def _parsed(argv):
    """The parsed namespace of ``argv`` and the type of each option of its subcommand."""
    args = cli.build_parser().parse_args(argv)
    return args, {action.dest: action.type for action in args.parser._actions}


@pytest.mark.parametrize(
    "argv", [["crawl", "--seeds", "s", "--out", "o"], ["sim", "--topology", "t"]], ids=["crawl", "sim"]
)
def test_crawl_flags_default_to_the_crawl_config_fields(argv):
    args, types = _parsed(argv)
    hints = typing.get_type_hints(CrawlConfig)
    defaults = {field.name: field.default for field in dataclasses.fields(CrawlConfig)}
    for name in (
        "max_inflight",
        "connect_timeout_ms",
        "handshake_timeout_ms",
        "ping_count",
        "max_frontier",
    ):
        assert getattr(args, name) == defaults[name]
        assert types[name] is hints[name]
    assert not hasattr(args, "magic") and not hasattr(args, "user_agent")


@pytest.mark.parametrize(
    "argv", [["cluster", "--ledger", "l", "--out", "o"], ["report", "--ledger", "l"]], ids=["cluster", "report"]
)
def test_coinjoin_flags_default_to_the_default_params(argv):
    args, types = _parsed(argv)
    assert args.coinjoin_min_inputs == DEFAULT_COINJOIN_PARAMS.min_inputs
    assert args.coinjoin_equal_outputs == DEFAULT_COINJOIN_PARAMS.equal_output_count
    assert types["coinjoin_min_inputs"] is types["coinjoin_equal_outputs"] is int


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 1


def test_data_error_exits_two(tmp_path, capsys):
    code = cli.main(["cluster", "--ledger", str(tmp_path / "absent.ldg"), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "chainobs:" in capsys.readouterr().err


def test_sim_subcommand_self_test(topo_file, capsys):
    topo_path, _ = topo_file
    assert cli.main(["sim", "--topology", str(topo_path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "MISMATCH" not in out


def test_sim_out_writes_the_snapshot(tmp_path, topo_file):
    topo_path, topo = topo_file
    out = tmp_path / f"sim{snapshotstore.SNAPSHOT_SUFFIX}"
    assert cli.main(["sim", "--topology", str(topo_path), "--out", str(out)]) == 0
    assert snapshotstore.read_snapshot(out).active_addresses() == simnet.reachable_set(topo)


def test_sim_on_a_topology_without_peers_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.topo"
    path.write_text("@rng_seed 1\n")
    assert cli.main(["sim", "--topology", str(path)]) == 2
    assert "topology has no @seeds directive" in capsys.readouterr().err


def test_sim_seeds_from_the_first_peer_without_a_seeds_directive(tmp_path, capsys):
    path = tmp_path / "unseeded.topo"
    path.write_text(
        "10.0.0.1:8333 normal 9 600000 20 10.0.0.2:8333\n"
        "10.0.0.2:8333 normal 9 600000 20 -\n"
        "10.0.0.3:8333 normal 9 600000 20 10.0.0.1:8333\n"
    )
    out = tmp_path / f"sim{snapshotstore.SNAPSHOT_SUFFIX}"
    assert cli.main(["sim", "--topology", str(path), "--out", str(out)]) == 0
    assert "MISMATCH" not in capsys.readouterr().out
    snapshot = snapshotstore.read_snapshot(out)
    assert snapshot.seeds == (Endpoint.make("10.0.0.1"),)
    assert snapshot.active_addresses() == {Endpoint.make("10.0.0.1"), Endpoint.make("10.0.0.2")}


def test_sim_checks_its_seeds_against_the_topology_before_crawling(tmp_path, topo_file, monkeypatch, capsys):
    topo_path, topo = topo_file
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(f"{topo.seed_ids[0]}\n10.9.9.9\n")
    monkeypatch.setattr(crawler, "crawl", lambda *args: pytest.fail("crawled before checking the seeds"))
    out = tmp_path / f"sim{snapshotstore.SNAPSHOT_SUFFIX}"
    assert cli.main(["sim", "--topology", str(topo_path), "--seeds", str(seeds), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "chainobs: seeds not in topology: 10.9.9.9:8333\n"
    assert not out.exists()


def test_sim_names_the_topology_line_that_the_wire_cannot_carry(tmp_path, capsys):
    path = tmp_path / "bad.topo"
    path.write_text("10.0.0.1:8333 normal 9 600000 20 -\n10.0.0.2:8333 normal -1 600000 20 -\n")
    assert cli.main(["sim", "--topology", str(path)]) == 2
    assert capsys.readouterr().err == f"chainobs: {path}: line 2: services -1 not in 0..2^64-1\n"


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--ping-count", "-4", "ping_count must be >= 0, got -4"),
        ("--max-frontier", "0", "max_frontier must be >= 1, got 0"),
        ("--max-inflight", "0", "max_inflight must be >= 1, got 0"),
        ("--handshake-timeout-ms", "nan", "handshake_timeout_ms must be finite and positive, got nan"),
        ("--connect-timeout-ms", "inf", "connect_timeout_ms must be finite and positive, got inf"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["sim", "--topology", "missing.topo"], ["crawl", "--seeds", "missing.seeds", "--simnet", "missing.topo", "--out", "o"]],
    ids=["sim", "crawl"],
)
def test_crawl_and_sim_reject_a_crawl_setting_before_reading(tmp_path, capsys, monkeypatch, argv, flag, value, message):
    monkeypatch.chdir(tmp_path)  # the inputs do not exist: reading them would exit 2
    monkeypatch.setattr(crawler, "bootstrap_seeds", lambda *args: pytest.fail("looked up the seeds"))
    with pytest.raises(SystemExit) as err:
        cli.main([*argv, flag, value])
    assert err.value.code == 1
    err_text = capsys.readouterr().err
    assert err_text.startswith(f"usage: chainobs {argv[0]} [-h]")
    assert err_text.endswith(f"chainobs {argv[0]}: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_repeat_count_without_repeat_is_reported_under_the_crawl_usage(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(["crawl", "--seeds", "missing.seeds", "--out", "o", "--repeat-count", "2"])
    assert err.value.code == 1
    err_text = capsys.readouterr().err
    assert err_text.startswith("usage: chainobs crawl [-h]")
    assert err_text.endswith("chainobs crawl: error: argument --repeat-count: needs --repeat\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--coinjoin-min-inputs", "0", "min_inputs must be >= 1, got 0"),
        ("--coinjoin-min-inputs", "-3", "min_inputs must be >= 1, got -3"),
        ("--coinjoin-equal-outputs", "1", "equal_output_count must be >= 2, got 1"),
        ("--coinjoin-equal-outputs", "0", "equal_output_count must be >= 2, got 0"),
        ("--coinjoin-equal-outputs", "-1", "equal_output_count must be >= 2, got -1"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--ledger", "missing.ldg", "--out", "o.csv"],
        ["report", "--ledger", "missing.ldg", "--lorenz-out", "l.csv"],
    ],
    ids=["cluster", "report"],
)
def test_cluster_and_report_reject_a_coinjoin_setting_before_reading(
    tmp_path, capsys, monkeypatch, argv, flag, value, message
):
    monkeypatch.chdir(tmp_path)  # the ledger does not exist: reading it would exit 2
    monkeypatch.setattr(ledger, "read_ledger", lambda *args: pytest.fail("read the ledger"))
    with pytest.raises(SystemExit) as err:
        cli.main([*argv, flag, value])
    assert err.value.code == 1
    err_text = capsys.readouterr().err
    assert err_text.startswith(f"usage: chainobs {argv[0]} [-h]")
    assert err_text.endswith(f"chainobs {argv[0]}: error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_cluster_with_the_smallest_coinjoin_settings_still_merges_a_two_input_spend(tmp_path):
    ledger_path, out = tmp_path / "l.ldg", tmp_path / "o.csv"
    ledger.write_ledger(
        [
            LedgerTx("cb", 0, BASE_TS, True, (), (("A1", 10), ("B1", 10))),
            LedgerTx("t1", 1, BASE_TS, False, (("A1", 10), ("B1", 10)), (("C1", 20),)),
        ],
        ledger_path,
    )
    argv = ["cluster", "--ledger", str(ledger_path), "--out", str(out)]
    assert cli.main([*argv, "--coinjoin-min-inputs", "1", "--coinjoin-equal-outputs", "2"]) == 0
    assert out.read_text().splitlines()[1:] == ["C1,1,20", "A1,2,0"]


_BNI = ["bni", "--snapshots", "s", "--out", "o", "--height-tolerance"]
_REPORT = ["report", "--ledger", "l", "--top"]
_GRID = ["--snapshots", "s", "--out", "o", "--interval-seconds"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        ([*_BNI, "0"], "--height-tolerance: not a finite number >= 1: '0'"),
        ([*_BNI, "-5"], "--height-tolerance: not a finite number >= 1: '-5'"),
        ([*_BNI, "1.5"], "--height-tolerance: invalid int value: '1.5'"),
        ([*_REPORT, "0"], "--top: not a finite number >= 1: '0'"),
        ([*_REPORT, "-3"], "--top: not a finite number >= 1: '-3'"),
        ([*_REPORT, "all"], "--top: invalid int value: 'all'"),
        (["bni", *_GRID, "0"], "--interval-seconds: not a finite number >= 1: '0'"),
        (["bni", *_GRID, "-5"], "--interval-seconds: not a finite number >= 1: '-5'"),
        (["bni", *_GRID, "1.5"], "--interval-seconds: invalid int value: '1.5'"),
        (["timeline", *_GRID, "0"], "--interval-seconds: not a finite number >= 1: '0'"),
        (["timeline", *_GRID, "-5"], "--interval-seconds: not a finite number >= 1: '-5'"),
        (["timeline", *_GRID, "1.5"], "--interval-seconds: invalid int value: '1.5'"),
    ],
    ids=[
        "tolerance-0", "tolerance-negative", "tolerance-not-int", "top-0", "top-negative", "top-not-int",
        "bni-interval-0", "bni-interval-negative", "bni-interval-not-int",
        "timeline-interval-0", "timeline-interval-negative", "timeline-interval-not-int",
    ],
)
def test_bni_and_report_reject_counts_below_one_before_reading(tmp_path, argv, reason, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the inputs do not exist: reading them would exit 2
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 1
    assert f"error: argument {reason}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--alpha", "0", "not a number in (0, 1]: '0'"),
        ("--alpha", "1.01", "not a number in (0, 1]: '1.01'"),
        ("--alpha", "nan", "not a number in (0, 1]: 'nan'"),
        ("--alpha", "half", "invalid float value: 'half'"),
        ("--tau", "-1", "not a finite number >= 0: '-1'"),
        ("--tau", "inf", "not a finite number >= 0: 'inf'"),
        ("--tau", "nan", "not a finite number >= 0: 'nan'"),
    ],
)
def test_bni_rejects_an_alpha_or_tau_out_of_range_before_reading(tmp_path, monkeypatch, capsys, flag, value, reason):
    monkeypatch.chdir(tmp_path)  # the inputs do not exist: reading them would exit 2
    with pytest.raises(SystemExit) as err:
        cli.main(["bni", "--snapshots", "s", "--out", "o", flag, value])
    assert err.value.code == 1
    assert f"error: argument {flag}: {reason}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["1", "0.25", "1e-3"])
def test_bni_accepts_an_alpha_in_range(value):
    assert _parsed(["bni", "--snapshots", "s", "--out", "o", "--alpha", value])[0].alpha == float(value)


def test_report_reads_the_tag_map_before_writing_anything(tmp_path, capsys):
    tags = tmp_path / "bad.tags"
    tags.write_text("[tags]\n/slush/ without a tab\n")
    lorenz = tmp_path / "lorenz.csv"
    argv = ["report", "--ledger", str(fig10_ledger(tmp_path)), "--lorenz-out", str(lorenz), "--tags", str(tags)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"chainobs: {tags}: line 2: ")
    assert captured.out == ""
    assert not lorenz.exists()


def test_timeline_on_a_directory_without_snapshots_exits_two(tmp_path, capsys):
    directory = tmp_path / "nothing"
    directory.mkdir()
    code = cli.main(["timeline", "--snapshots", str(directory), "--out", str(tmp_path / "churn.csv")])
    assert code == 2
    assert f"no *{snapshotstore.SNAPSHOT_SUFFIX} files under {directory}" in capsys.readouterr().err


def _write_snapshot_series(tmp_path):
    directory = tmp_path / "snaps"
    directory.mkdir()
    a, b, tor = "10.0.0.1", "20.0.0.2", "fd87:d87e:eb43::1"
    points = [
        (1000, [make_record(a, min_rtt_ms=20.0), make_record(b, min_rtt_ms=50.0), make_record(tor)]),
        (2800, [make_record(a, min_rtt_ms=22.0), make_record(b, status="discovered_inactive"), make_record(tor)]),
        (4600, [make_record(a, min_rtt_ms=21.0), make_record(b, min_rtt_ms=55.0), make_record(tor)]),
    ]
    for start, records in points:
        snapshotstore.write_snapshot(
            make_snapshot(records, started_at=start),
            directory / f"{start}{snapshotstore.SNAPSHOT_SUFFIX}",
        )
    return directory


def _geo_csv(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("10.0.0.0/8,US,64500,Alpha\n20.0.0.0/8,DE,64501,Beta\n")
    return path


_GOOD_INPUTS = {"table": "10.0.0.0/8,US,64500,Alpha\n", "tor": "10.0.0.9\n"}
# each secondary input with a bad second line: (subcommand, the flag that names it, its text)
_BAD_SECOND_INPUTS = {
    "enrich --table": ("enrich", "--table", "10.0.0.0/8,US,64500,Alpha\nnot-a-prefix,US,1,X\n"),
    "enrich --tor-exits": ("enrich", "--tor-exits", "10.0.0.9\nnot-an-ip\n"),
    "bni --table": ("bni", "--table", "10.0.0.0/8,US,64500,Alpha\n20.0.0.0/8,DE,many,Beta\n"),
    "bni --tor-exits": ("bni", "--tor-exits", "10.0.0.9\n10.0.0.300\n"),
    "crawl --simnet": ("crawl", "--simnet", "@rng_seed 1\n10.0.0.1:8333 normal 9 600000\n"),
    "sim --seeds": ("sim", "--seeds", "10.0.0.1\nnot an endpoint\n"),
}


def _tree(directory):
    return sorted(path.relative_to(directory) for path in directory.rglob("*"))


@pytest.mark.parametrize("case", list(_BAD_SECOND_INPUTS))
def test_every_subcommand_reads_all_its_inputs_before_its_first_write(tmp_path, topo_file, seeds_file, capsys, case):
    command, flag, text = _BAD_SECOND_INPUTS[case]
    series = _write_snapshot_series(tmp_path)
    inputs = {"--table": tmp_path / "geo.csv", "--tor-exits": tmp_path / "exits.txt"}
    inputs["--table"].write_text(_GOOD_INPUTS["table"])
    inputs["--tor-exits"].write_text(_GOOD_INPUTS["tor"])
    bad = tmp_path / "bad.input"
    bad.write_text(text)
    out, extra_out = tmp_path / "out" / "o.file", tmp_path / "out" / "extra.csv"
    if command in ("enrich", "bni"):
        inputs[flag] = bad
        argv = [command, "--out", str(out)]
        argv += ["--table", str(inputs["--table"]), "--tor-exits", str(inputs["--tor-exits"])]
        if command == "enrich":
            argv += ["--snapshot", str(sorted(series.iterdir())[-1]), "--shares-out", str(extra_out)]
        else:
            argv += ["--snapshots", str(series)]
    elif command == "crawl":
        argv = ["crawl", "--seeds", str(seeds_file), "--simnet", str(bad), "--out", str(out)]
    else:
        argv = ["sim", "--topology", str(topo_file[0]), "--seeds", str(bad), "--out", str(out)]
    before = _tree(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert f"{bad}: line 2" in captured.err
    assert captured.out == ""
    assert _tree(tmp_path) == before  # no output, and no temporary file either


def test_enrich_subcommand(tmp_path, capsys):
    directory = _write_snapshot_series(tmp_path)
    snapshot_path = next(iter(sorted(directory.glob("*"))))
    out = tmp_path / f"enriched{snapshotstore.SNAPSHOT_SUFFIX}"
    shares = tmp_path / "shares.csv"
    code = cli.main(
        [
            "enrich",
            "--snapshot", str(snapshot_path),
            "--table", str(_geo_csv(tmp_path)),
            "--out", str(out),
            "--shares-out", str(shares),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert "country:US" in text and "org:Beta" in text and "net:tor" in text
    rows = read_csv(shares)
    assert rows[0] == ["kind", "name", "share"]
    country_total = sum(float(r[2]) for r in rows[1:] if r[0] == "country")
    assert abs(country_total - 1.0) < 1e-12
    stdout = capsys.readouterr().out
    assert "active nodes: 3" in stdout
    # enriched file still reads back as a plain snapshot
    assert snapshotstore.read_snapshot(out).active_count == 3


def test_enrich_notes_tables_that_disagree_on_a_prefix(tmp_path, capsys):
    directory = _write_snapshot_series(tmp_path)
    snapshot_path = next(iter(sorted(directory.glob("*"))))
    other = tmp_path / "other.csv"
    other.write_text("10.0.0.0/8,FR,64999,Gamma\n")
    out = tmp_path / f"enriched{snapshotstore.SNAPSHOT_SUFFIX}"
    argv = ["enrich", "--snapshot", str(snapshot_path), "--out", str(out)]
    assert cli.main(argv + ["--table", str(_geo_csv(tmp_path)), "--table", str(other)]) == 0
    assert "note: 1 prefix disagreements; first-listed table won" in capsys.readouterr().err
    assert "country:US" in out.read_text() and "country:FR" not in out.read_text()


def test_timeline_subcommand(tmp_path):
    directory = _write_snapshot_series(tmp_path)
    out = tmp_path / "churn.csv"
    sizes = tmp_path / "sizes.csv"
    code = cli.main(
        ["timeline", "--snapshots", str(directory), "--out", str(out), "--size-series-out", str(sizes)]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["address", "sessions", "mean_connection_s", "flaps", "availability"]
    by_addr = {r[0]: r for r in rows[1:]}
    flapper = by_addr["20.0.0.2:8333"]
    assert (flapper[1], flapper[3]) == ("2", "1")  # two sessions, one flap
    always = by_addr["10.0.0.1:8333"]
    assert float(always[4]) == 1.0
    size_rows = read_csv(sizes)
    assert size_rows[0] == ["started_at", "ipv4", "ipv6", "tor", "total"]
    assert size_rows[1] == ["1000", "2", "0", "1", "3"]
    assert size_rows[2] == ["2800", "1", "0", "1", "2"]


def test_timeline_names_the_corrupt_snapshot_file(tmp_path, capsys):
    directory = _write_snapshot_series(tmp_path)
    bad = directory / f"2800{snapshotstore.SNAPSHOT_SUFFIX}"
    bad.write_text(bad.read_text().replace("port:8333", "port:83x3", 1))
    code = cli.main(["timeline", "--snapshots", str(directory), "--out", str(tmp_path / "churn.csv")])
    assert code == 2
    assert bad.name in capsys.readouterr().err


def test_bni_subcommand(tmp_path):
    directory = _write_snapshot_series(tmp_path)
    out = tmp_path / "bni.csv"
    code = cli.main(
        ["bni", "--snapshots", str(directory), "--out", str(out), "--table", str(_geo_csv(tmp_path))]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0][0] == "address" and rows[0][-1] == "bni"
    assert len(rows[0]) == 12
    assert len(rows) == 4  # three active nodes in the latest snapshot
    for row in rows[1:]:
        values = [float(v) for v in row[1:]]
        assert all(0.0 <= v <= 1.0 for v in values[:-1])
        assert 0.0 <= values[-1] <= 10.0


def test_cluster_subcommand(tmp_path):
    path = fig10_ledger(tmp_path)
    out = tmp_path / "entities.csv"
    assert cli.main(["cluster", "--ledger", str(path), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert rows[0] == ["entity", "addresses", "balance_sat"]
    assert rows[1] == ["A", "4", str(50 * COIN)]
    assert len(rows) == 2


def _entities_csv_reference(ledger_path, out):
    """entities.csv with each entity's size taken from its member set."""
    txs = ledger.read_ledger(ledger_path)
    partition = ledger.build_partition(txs)
    balances = ledger.entity_balances(txs, partition)
    members = partition.entities()
    with open(out, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["entity", "addresses", "balance_sat"])
        for entity in sorted(balances, key=lambda e: (-balances[e], e)):
            writer.writerow([entity, len(members[entity]), balances[entity]])


def test_cluster_csv_matches_member_set_reference(tmp_path):
    paths = [fig10_ledger(tmp_path)]
    for seed in range(3):
        txs, _ = zero_fee_ledger(random.Random(seed), 400)
        paths.append(tmp_path / f"random{seed}.ldg")
        ledger.write_ledger(txs, paths[-1])
    for path in paths:
        out, reference = tmp_path / "entities.csv", tmp_path / "reference.csv"
        assert cli.main(["cluster", "--ledger", str(path), "--out", str(out)]) == 0
        _entities_csv_reference(path, reference)
        assert out.read_bytes() == reference.read_bytes()
    assert max(int(row[1]) for row in read_csv(out)[1:]) > 1


def test_report_states_the_headline_concentration(tmp_path, capsys):
    txs, _, _, _ = concentrated_ledger()
    path = tmp_path / "concentrated.ldg"
    ledger.write_ledger(txs, path)
    assert cli.main(["report", "--ledger", str(path)]) == 0
    assert "richest 4.5% of nonzero-balance entities hold >= 85% of coins" in capsys.readouterr().out


def test_report_subcommand_fig10_fixture(tmp_path, capsys):
    path = fig10_ledger(tmp_path)
    tags = tmp_path / "pools.tags"
    tags.write_text("[tags]\n/slush/\tSlushPool\n")
    lorenz = tmp_path / "lorenz.csv"
    pool_shares = tmp_path / "pools.csv"
    code = cli.main(
        [
            "report",
            "--ledger", str(path),
            "--lorenz-out", str(lorenz),
            "--tags", str(tags),
            "--pool-shares-out", str(pool_shares),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "entities: 1 total, 1 with nonzero balance" in out
    assert "A  4  5000000000  1.000000" in out
    assert "gini" in out
    assert "richest 100.0% of nonzero-balance entities hold >= 85% of coins" in out
    assert "SlushPool 100.0%" in out
    assert read_csv(lorenz)[0] == ["population_share", "wealth_share"]
    shares_rows = read_csv(pool_shares)
    assert shares_rows[1][1:] == ["SlushPool", "1.0"]


def test_report_without_optional_flags(tmp_path, capsys):
    assert cli.main(["report", "--ledger", str(fig10_ledger(tmp_path))]) == 0
    assert "gini" in capsys.readouterr().out


def test_report_on_a_ledger_without_balances_has_no_gini(tmp_path, capsys):
    txs = [
        LedgerTx("cb", 0, BASE_TS, True, (), (("A", 10 * COIN),)),
        LedgerTx("t1", 1, BASE_TS + 600, False, (("A", 10 * COIN),), ()),  # all of it as fee
    ]
    path = tmp_path / "spent.ldg"
    ledger.write_ledger(txs, path)
    assert cli.main(["report", "--ledger", str(path)]) == 0
    out = capsys.readouterr().out
    assert "entities: 1 total, 0 with nonzero balance" in out
    assert "gini: n/a (no nonzero balances)" in out


def test_importing_the_cli_loads_no_numpy():
    # numpy is in the dev extra for the tests' oracles; the package needs only the standard library
    code = "import sys, chainobs.cli; print(sorted(name for name in sys.modules if name.split('.')[0] == 'numpy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    assert result.stdout == "[]\n"
