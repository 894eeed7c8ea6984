"""Self-tests of the benchmark's failure accounting and tracing.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

ZN_SMALL = ("zn-n3-r8", ["zn", "--n", "3", "--rmax", "8"])

# touches every traced layer in a few seconds
MIXED = [
    ("curve-tower-r3", ["curve", "--spec", "{spec:tower_g1_g2}", "--rmax", "3"]),
    ("crosscheck-tower-r2", ["crosscheck", "--spec", "{spec:tower_g1_g2}", "--r", "2", "--seed", "{seed}"]),
    ("zn-n3-r4", ["zn", "--n", "3", "--rmax", "4"]),
    ("bigpowers-k3", ["bigpowers", "--u", "g1", "--g", "g1 g1 g1 g2 G1 G1", "--g", "g2 g2", "--g", "G2", "--seed", "{seed}"]),
]


@pytest.fixture(autouse=True)
def results_dir():
    os.makedirs(bench.RESULTS, exist_ok=True)


def test_forced_collision_counts_as_failed_operation():
    # p = 1 does not discriminate the radius-2 ball over u = g1: the CLI exits 1
    forced = ("crosscheck-forced-p1", ["crosscheck", "--spec", "{spec:u_g1_rank1}", "--r", "2", "--force-p", "1"])
    good = ("curve-g1-rank2-r5", ["curve", "--spec", "{spec:u_g1_rank2}", "--rmax", "5"])
    record = bench.run("curve-single", 3, 0, trace=False, commands=[forced, good])
    assert record["ops"] == 2 and record["failed_ops"] == 1
    [failure] = record["failures"]
    assert failure["label"] == "crosscheck-forced-p1"
    assert failure["failure"].startswith("exit code 1")


def test_tampered_reference_row_is_caught(monkeypatch):
    reference = bench.load_reference("zn")
    assert bench.run("zn", 0, 0, trace=False, commands=[ZN_SMALL])["failed_ops"] == 0

    tampered = json.loads(json.dumps(reference))
    tampered["zn-n3-r8"][-1][4] = str(int(tampered["zn-n3-r8"][-1][4]) + 1)  # exact_min at R=8
    monkeypatch.setattr(bench, "load_reference", lambda workload: tampered)
    record = bench.run("zn", 0, 0, trace=False, commands=[ZN_SMALL])
    assert record["ops"] == 1 and record["failed_ops"] == 1
    assert record["failures"][0]["failure"] == "data rows differ from the reference"


def test_traced_counts_repeat_and_outputs_unchanged():
    runs = [bench.spawn("tower", 5, trace=True, commands=MIXED) for _ in range(2)]
    plain = bench.spawn("tower", 5, commands=MIXED)
    traces = [r["result"]["trace"] for r in runs]
    assert traces[0]["missing"] == []
    counts = [{k: v for k, (v, unit) in t["layers"].items() if unit == "count"} for t in traces]
    assert counts[0] == counts[1]
    for name in (
        "freewords.strip_calls", "freewords.mul_calls", "freewords.pow_calls",
        "freewords.membership_calls", "eocgroup.normalize_calls", "eocgroup.ball_elements",
        "eocgroup.strip_lookups", "eocgroup.groups_built", "retraction.p_tried",
        "retraction.apply_theta_calls", "retraction.apply_chain_calls",
        "retraction.subtower_builds", "zdiscrim.shell_candidates", "zdiscrim.matmul_cells",
        "bigpowers.sweep_tuples", "bigpowers.padded_words",
    ):
        assert counts[0][name] > 0, name
    assert counts[0]["cli.commands"] == len(MIXED)
    # tracing must not change what the CLI prints
    rows = [[bench.data_rows(op["stdout"]) for op in r["result"]["ops"]] for r in (runs[0], plain)]
    assert rows[0] == rows[1]
    assert all(op["rc"] == 0 for op in plain["result"]["ops"])


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
