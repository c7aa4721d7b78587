"""Golden outputs: the bytes every subcommand writes on fixed inputs.

Small seeded inputs come from the benchmark's generators (``bench/inputs.py``).
Each subcommand runs in-process; the sha256 of each file it writes and of
its standard output is compared with a pinned value.  A change that alters
one of these bytes on purpose updates the pin and says why.  One subprocess
run under a fixed ``PYTHONHASHSEED`` checks that the bytes do not depend on
the hash seed of the process.

``sim`` and ``crawl --simnet`` stamp snapshots on the simulated network's
virtual clock, so their outputs are pinned whole, clock fields included, as
is a ``crawl --simnet --repeat`` series read back by ``timeline`` and ``bni``.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chainobs import cli, simnet, snapshotstore

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import inputs  # noqa: E402  (bench/inputs.py)

CENSUS_ENDPOINTS, CENSUS_SLOTS, LEDGER_TXS = 120, 10, 1_500

# (command line, files it writes); paths are relative to the working directory
COMMANDS = {
    "timeline": (
        ["timeline", "--snapshots", "series", "--out", "timeline.csv", "--size-series-out", "sizes.csv"],
        ["timeline.csv", "sizes.csv"],
    ),
    "bni": (["bni", "--snapshots", "series", "--out", "bni.csv", "--table", "prefixes.csv"], ["bni.csv"]),
    "enrich": (
        [
            "enrich", "--snapshot", "latest.snap.ndrec", "--table", "prefixes.csv",
            "--out", "enriched.snap.ndrec", "--shares-out", "shares.csv",
        ],
        ["enriched.snap.ndrec", "shares.csv"],
    ),
    # records of an enriched series carry the country/asn/org keys that enrich appends
    "timeline-enriched": (
        ["timeline", "--snapshots", "enriched", "--out", "timeline-enriched.csv"],
        ["timeline-enriched.csv"],
    ),
    "cluster": (["cluster", "--ledger", "chain.ldg", "--out", "clusters.csv"], ["clusters.csv"]),
    "report": (
        [
            "report", "--ledger", "chain.ldg", "--tags", "pools.tags",
            "--lorenz-out", "lorenz.csv", "--pool-shares-out", "pool-shares.csv",
        ],
        ["lorenz.csv", "pool-shares.csv"],
    ),
}

# pinned on the commit before the fast snapshot record reader
GOLDEN = {
    "timeline:stdout": "25935bbd09b916b9ff4beed4bf2d87d7b80c901c51cb95ec16c939d7f84c581c",
    "timeline:timeline.csv": "d832d8870bbfa60895ff77644c9a2805f0bcdb08deccee08cb90ace2747ad5c9",
    "timeline:sizes.csv": "3d73b44425ea7b15296261e728eb7bf5e859991735584c4ddba106c180eb7a10",
    "bni:stdout": "4aaefe06b0075cc002e19f1eb41bcdc218c6270fa3b57af6ee67f53d3e1f11a6",
    "bni:bni.csv": "d9f40a468d413a7502a2414848ad8766aeef7ac2a3f884cab86b2a620d0b3f2f",
    "enrich:stdout": "ac4676f1239cc8869b050a39adc1ddffe6f62b7cfa237fed6429777f0f7b95bd",
    "enrich:enriched.snap.ndrec": "60d786242ba23aedeb31cbb4885683834c5f1deec7268d953d780d2907743e13",
    "enrich:shares.csv": "2fc8500b826dac551a401c4642076fd4850bde637b05276fcbe548f988d19cbf",
    "timeline-enriched:stdout": "9570705e0c9f09944b60fcc825efaa227d420e070f1a66d3eec2ccab361fd51f",
    "timeline-enriched:timeline-enriched.csv": "d832d8870bbfa60895ff77644c9a2805f0bcdb08deccee08cb90ace2747ad5c9",
    "cluster:stdout": "34365e783447e3718ba82358f6e7236c5af9be8fe8d54a39aa2a0e9d75ced273",
    "cluster:clusters.csv": "4566adceb936ea37ce033d12175010a7cd11fb2a279a4e232bc2ecb5e30536d9",
    "report:stdout": "e241eb9eebd4bd2987ba30c8bcf0c51b93ccf3b8d02f13c540d7d50eeeffaf01",
    "report:lorenz.csv": "df26231fc000efcb1ebc774bb0b910f332e9f3d20a5144ec6e08ba0c7b62cf84",
    "report:pool-shares.csv": "55c2103aae2ef0d499a08e71faf955565982ba1fb5c957ae0594b894f3650844",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_inputs(workdir: Path) -> None:
    """Write the census series, its prefix table, an enriched copy and the ledger under ``workdir``."""
    census = inputs.make_series(random.Random("golden:census"), CENSUS_ENDPOINTS, CENSUS_SLOTS, workdir)
    series, enriched = workdir / "series", workdir / "enriched"
    series.mkdir()
    enriched.mkdir()
    for snapshot in census.snapshots:
        name = f"{snapshot.started_at}{snapshotstore.SNAPSHOT_SUFFIX}"
        snapshotstore.write_snapshot(snapshot, series / name)
        args = ["enrich", "--snapshot", str(series / name), "--table", str(census.prefix_csv), "--out", str(enriched / name)]
        if cli.main(args) != 0:
            raise RuntimeError(f"enrich failed on {name}")
    (workdir / "latest.snap.ndrec").write_bytes((series / name).read_bytes())
    inputs.make_ledger(random.Random("golden:ledger"), LEDGER_TXS, workdir)


def run_commands(workdir: Path, capsys, commands=COMMANDS) -> dict[str, str]:
    """Run every command of ``commands`` in ``workdir``; the digest of each output by ``command:file``."""
    digests = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, (argv, files) in commands.items():
            capsys.readouterr()
            if cli.main(argv) != 0:
                raise RuntimeError(f"chainobs {name} failed")
            digests[f"{name}:stdout"] = _sha256(capsys.readouterr().out.encode())
            for file in files:
                digests[f"{name}:{file}"] = _sha256(Path(file).read_bytes())
    finally:
        os.chdir(previous)
    return digests


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    make_inputs(directory)
    return directory


def test_report_outputs_match_their_pins(workdir, capsys):
    assert run_commands(workdir, capsys) == GOLDEN


def test_bni_output_does_not_depend_on_the_hash_seed(workdir, tmp_path):
    argv, (file,) = COMMANDS["bni"]
    argv = [arg.replace(file, str(tmp_path / file)) for arg in argv]
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "chainobs.cli", *argv], cwd=workdir, env=env, check=True, capture_output=True)
    assert _sha256((tmp_path / file).read_bytes()) == GOLDEN[f"bni:{file}"]


CRAWL_COMMANDS = {
    "sim": (["sim", "--topology", "net.topo", "--out", "sim.snap.ndrec"], ["sim.snap.ndrec"]),
    # a short handshake timeout leaves the slow peers inactive
    "crawl": (
        [
            "crawl", "--simnet", "net.topo", "--seeds", "seeds.txt", "--out", "crawl.snap.ndrec",
            "--handshake-timeout-ms", "200", "--ping-count", "2",
        ],
        ["crawl.snap.ndrec"],
    ),
}

# pinned on the commit that stamped simnet crawls with the network's virtual clock, where they
# equalled the earlier pins with the clock fields stripped; crawl:stdout is the earlier pin
CRAWL_GOLDEN = {
    "sim:stdout": "721a38d2d4c8148743f33e69d584f3a87997d035dd7ce0831aafa681c865f1a4",
    "sim:sim.snap.ndrec": "b8042a4c9ebd8bb9505c66f441ddd90b4edc26f2c7b0f9bdc6490686eea1cf1d",
    "crawl:stdout": "5a6f65e97af98df71805d4dfaca54a904df2e0b00fc2e9b8d1ef08f53bc9033d",
    "crawl:crawl.snap.ndrec": "68b056304148d35fd3609e4fed5815c4b5dc1d0d0ab782a441c02184566b30f6",
}

# four crawls 10 minutes apart on the network's clock, from its start at BASE_TIME
SERIES_FILES = [f"series/20170714T{hhmm}00Z.snap.ndrec" for hhmm in ("0240", "0250", "0300", "0310")]
SERIES_COMMANDS = {
    "crawl": (
        [
            "crawl", "--simnet", "net.topo", "--seeds", "seeds.txt", "--out", "series",
            "--repeat", "10", "--repeat-count", "4",
        ],
        SERIES_FILES,
    ),
    "timeline": (
        ["timeline", "--snapshots", "series", "--out", "timeline.csv", "--size-series-out", "sizes.csv"],
        ["timeline.csv", "sizes.csv"],
    ),
    "bni": (["bni", "--snapshots", "series", "--out", "bni.csv", "--table", "prefixes.csv"], ["bni.csv"]),
}

# pinned on the commit that stamped simnet crawls with the network's virtual clock; the first
# crawl of the series writes the bytes of "sim:sim.snap.ndrec"
SERIES_GOLDEN = {
    "crawl:stdout": "fb6d7b85b69b01833c15904f6ce3454a03aeca79b267e5d1912ab0a9ea4b95bc",
    "crawl:series/20170714T024000Z.snap.ndrec": "b8042a4c9ebd8bb9505c66f441ddd90b4edc26f2c7b0f9bdc6490686eea1cf1d",
    "crawl:series/20170714T025000Z.snap.ndrec": "2a3cd7cc3f48f48abaac6d197289ae74a67bc84fd44cdd9bb4a9ea87bcb5667f",
    "crawl:series/20170714T030000Z.snap.ndrec": "474d931302c447d32159c4545091df51ee439ca1a6835f245a530b033301371c",
    "crawl:series/20170714T031000Z.snap.ndrec": "2d4cc3066d9595fe86252a09905e459adc5079961e760ee031003d482131d848",
    "timeline:stdout": "86a3a5ddcec8714d3789f7d932db862aff366cfda877edcb607b15a41460544b",
    "timeline:timeline.csv": "6c12ef347d404c7dd6c00b04162ca30d799d3e8adce0bf6b733b5c3f590ff044",
    "timeline:sizes.csv": "1d3e625b05a6dfb48d7d47756eb651857eb9203d22a6a08f4a4c17f9b740e799",
    "bni:stdout": "c69de3ec9effe87f7e4fdf969d3d38ba537fab86e91a5f334540409f3b4a04dc",
    "bni:bni.csv": "ae3650a2675166706049c12ff65b811ddb4b6882bacd2325909776c473591c2b",
}


@pytest.fixture
def simnet_workdir(tmp_path):
    """A seeded 200-peer topology, its seeds and a two-AS prefix table under ``tmp_path``."""
    topology = simnet.random_topology(
        200, rng_seed=14, unreachable_fraction=0.1, silent_fraction=0.05, slow_fraction=0.1,
        stale_fraction=0.05, empty_addr_fraction=0.05,
    )
    simnet.save_topology(topology, tmp_path / "net.topo")
    (tmp_path / "seeds.txt").write_text("".join(f"{seed}\n" for seed in topology.seed_ids))
    (tmp_path / "prefixes.csv").write_text("10.0.0.0/25,DE,64500,Alpha\n10.0.0.128/25,US,64501,Beta\n")
    return tmp_path


def test_simnet_crawl_outputs_match_their_pins(simnet_workdir, capsys):
    assert run_commands(simnet_workdir, capsys, CRAWL_COMMANDS) == CRAWL_GOLDEN


def test_a_repeated_simnet_crawl_and_its_census_match_their_pins(simnet_workdir, capsys):
    assert run_commands(simnet_workdir, capsys, SERIES_COMMANDS) == SERIES_GOLDEN
