"""Golden outputs: the bytes every subcommand writes on fixed inputs.

Small seeded inputs come from the benchmark's generators (``bench/inputs.py``).
Each subcommand runs in-process; the sha256 of each file it writes and of
its standard output is compared with a pinned value.  A change that alters
one of these bytes on purpose updates the pin and says why.  One subprocess
run under a fixed ``PYTHONHASHSEED`` checks that the bytes do not depend on
the hash seed of the process.

``sim`` and ``crawl --simnet`` stamp snapshots with the wall clock, so their
outputs are pinned with the clock fields stripped (the pattern of the
benchmark's ``_CLOCK_FIELDS``) and ``sim``'s stdout without its run time.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
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


def run_commands(workdir: Path, capsys) -> dict[str, str]:
    """Run every command of COMMANDS in ``workdir``; the digest of each output by ``command:file``."""
    digests = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, (argv, files) in COMMANDS.items():
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


# the clock fields of bench/workloads.py's _CLOCK_FIELDS, and sim's "in X.XXs"
CLOCK_FIELDS = re.compile(r" ?\b(?:started_at|finished_at|first_seen|last_seen):\d+")
RUN_TIME = re.compile(r" in \d+\.\d+s")

CRAWL_COMMANDS = {
    "sim": ["sim", "--topology", "net.topo", "--out", "sim.snap.ndrec"],
    # a short handshake timeout leaves the slow peers inactive
    "crawl": [
        "crawl", "--simnet", "net.topo", "--seeds", "seeds.txt", "--out", "crawl.snap.ndrec",
        "--handshake-timeout-ms", "200", "--ping-count", "2",
    ],
}

# stdout pinned on the commit before simnet crawls left the thread pool; the snapshots
# on the one that made every probe send one getaddr (their config digest lost a field)
CRAWL_GOLDEN = {
    "sim:stdout": "2304b78b5fa11e2f4b6f031331657557fc4f80783bd38ca543af71d951905785",
    "sim:sim.snap.ndrec": "bd04ab5566a3ad5ffb034caaf5364996b00d0d1a1de77598b2b750f6c8eddd1a",
    "crawl:stdout": "5a6f65e97af98df71805d4dfaca54a904df2e0b00fc2e9b8d1ef08f53bc9033d",
    "crawl:crawl.snap.ndrec": "3f89e30f8b37132a85658a43db8033afd21ccceb18859da6fe296776d1739da7",
}


def test_simnet_crawl_outputs_match_their_pins(tmp_path, capsys, monkeypatch):
    topology = simnet.random_topology(
        200, rng_seed=14, unreachable_fraction=0.1, silent_fraction=0.05, slow_fraction=0.1,
        stale_fraction=0.05, empty_addr_fraction=0.05,
    )
    simnet.save_topology(topology, tmp_path / "net.topo")
    (tmp_path / "seeds.txt").write_text("".join(f"{seed}\n" for seed in topology.seed_ids))
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, argv in CRAWL_COMMANDS.items():
        capsys.readouterr()
        assert cli.main(argv) == 0, name
        digests[f"{name}:stdout"] = _sha256(RUN_TIME.sub("", capsys.readouterr().out).encode())
        out = argv[argv.index("--out") + 1]
        digests[f"{name}:{out}"] = _sha256(CLOCK_FIELDS.sub("", Path(out).read_text(encoding="utf-8")).encode())
    assert digests == CRAWL_GOLDEN
