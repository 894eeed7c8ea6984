"""End-to-end and per-layer benchmark for the discrimlab CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: curve-single, tower, zn, bigpowers (see workloads.py and
README.md).  The loop is closed with one client: each timed pass is a fresh
child process (``child.py``) that issues the workload's CLI commands one
after another through ``discrimlab.cli.main`` with no threads, so caches
start cold as they do for a CLI user.  Passes repeat until S seconds of
passes have run.  Every data row of every command is checked against the
frozen reference rows in ``reference/`` (``wall_ms`` removed, ``#`` lines
ignored); a non-zero exit code, an exception or a differing row fails the
command.

--trace 0 reports the end-to-end metrics (medians over the run's children):
  setup_s      child start until discrimlab.cli is imported and inputs are
               ready, rescaled like wall_ref_s by a probe that runs during
               the child's set-up (raw setup_raw_s is recorded); measured
               on every child of the run, including the set-up-only
               children run between passes
  wall_ref_s   wall_s (ready until the last command is done, checks
               excluded) rescaled to a reference CPU speed by a probe run
               in the child (see child.py); raw wall_s, which moves by up
               to 40 % between runs on a shared host, is printed and
               recorded beside it
  peak_rss_mb  peak resident set of the pass's child, from wait4's rusage
--trace 1 runs one traced pass first, then untraced passes, and reports the
per-layer metrics of the traced pass, the child CPU time and the tracing
overhead (traced wall_s minus the untraced median).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is fail_frac.  A run
record with the raw samples is written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

# after each pass, one set-up-only child per this many seconds of the pass,
# so set-up is sampled across the run as the passes are
SETUP_EVERY_S = 1.0
# no pass is started that would, at the last pass's pace, end later than this
RUN_TIME_LIMIT_S = 150


class SetupFailed(RuntimeError):
    """A child could not import the program or build its inputs."""


def spawn(workload, seed, *, trace=False, setup_only=False, commands=None) -> dict:
    """Run one child; return its parsed result with set-up time and rusage."""
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--tmp", tmp]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if commands is not None:
        cmd += ["--commands", json.dumps(commands)]
    # one OpenBLAS thread: no workload calls BLAS (the Z^n matmul is int64),
    # and starting the default thread pool made numpy's import, most of
    # set-up, twice as variable
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT, env=env)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    duration = time.monotonic() - started
    lines = out.decode(errors="replace").strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    setup_raw = result["ready"] - started if result else None
    return {
        "result": result,
        "rc": proc.returncode,
        "setup_raw_s": setup_raw,
        # rescaled like wall_ref_s; the probes' own time is taken out first
        "setup_s": (setup_raw - result["setup_probe_s"]) * result["setup_speed"] if result else None,
        "duration_s": duration,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def data_rows(text: str) -> list[list[str]]:
    """CSV rows (header included) without ``#`` lines and the wall_ms column."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    drop = header.index("wall_ms") if "wall_ms" in header else None
    rows = []
    for line in lines:
        cells = line.split(",")
        if drop is not None and len(cells) == len(header):
            del cells[drop]
        rows.append(cells)
    return rows


def check_op(op: dict, reference: dict) -> str | None:
    """Why the command failed, or None if it succeeded with the reference rows."""
    if op["exception"]:
        return "exception: " + op["exception"].strip().splitlines()[-1]
    if op["rc"] != 0:
        return f"exit code {op['rc']}: {op['stderr'].strip()}"
    if op["label"] not in reference:
        return "no reference rows"
    if data_rows(op["stdout"]) != reference[op["label"]]:
        return "data rows differ from the reference"
    return None


def check_pass(child: dict, labels: list[str], reference: dict) -> list[dict]:
    """One verdict per command of the pass; a child without a result fails all."""
    if child["result"] is None:
        return [{"label": l, "failure": f"child exited {child['rc']} without a result"} for l in labels]
    return [{"label": op["label"], "failure": check_op(op, reference)} for op in child["result"]["ops"]]


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE, f"{workload}.json")) as f:
        return json.load(f)


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return out.stdout.strip() or "unknown"


def quartiles(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, commands=None) -> dict:
    """Run the benchmark; return the run record (metrics, samples, failures)."""
    t_start = time.monotonic()
    reference = load_reference(workload)
    labels = [l for l, _ in (commands if commands is not None else WORKLOADS[workload]["commands"])]
    os.makedirs(RESULTS, exist_ok=True)

    warm = spawn(workload, seed, setup_only=True, commands=commands)  # compiles bytecode
    if warm["result"] is None:
        raise SetupFailed(f"child set-up exited {warm['rc']}")

    setup = []
    verdicts = []
    traced = None
    if trace:
        traced = spawn(workload, seed, trace=True, commands=commands)
        verdicts += check_pass(traced, labels, reference)
        setup.append(traced)

    passes = []
    measure_start = time.monotonic()
    while True:
        child = spawn(workload, seed, commands=commands)
        passes.append(child)
        verdicts += check_pass(child, labels, reference)
        for _ in range(max(1, round(child["duration_s"] / SETUP_EVERY_S))):
            setup.append(spawn(workload, seed, setup_only=True, commands=commands))
        now = time.monotonic()
        if now - measure_start >= seconds or now - t_start + child["duration_s"] > RUN_TIME_LIMIT_S:
            break
    setup += passes

    ok_passes = [c for c in passes if c["result"] is not None]
    walls = [c["result"]["wall_s"] for c in ok_passes]
    samples = {
        "setup_s": [c["setup_s"] for c in setup if c["setup_s"] is not None],
        "setup_raw_s": [c["setup_raw_s"] for c in setup if c["setup_raw_s"] is not None],
        "wall_s": walls,
        "wall_ref_s": [c["result"]["wall_ref_s"] for c in ok_passes],
        "peak_rss_mb": [c["peak_rss_mb"] for c in ok_passes],
        "cpu_s": [c["cpu_s"] for c in ok_passes],
    }
    failed = [v for v in verdicts if v["failure"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "ops": len(verdicts),
        "failed_ops": len(failed),
        "fail_frac": len(failed) / len(verdicts),
        "failures": failed,
        "samples": samples,
        "summary": {k: quartiles(v) for k, v in samples.items() if v},
    }
    metrics = {}
    if not trace:
        for name, unit in (("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB")):
            if samples[name]:
                metrics[name] = (statistics.median(samples[name]), unit)
    elif traced["result"] is not None and walls:
        tr = traced["result"]["trace"]
        metrics.update({k: tuple(v) for k, v in tr["layers"].items()})
        untraced = statistics.median(walls)
        metrics["cli.cpu_s"] = (statistics.median(samples["cpu_s"]), "s")
        metrics["trace.traced_wall_s"] = (traced["result"]["wall_s"], "s")
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced["result"]["wall_s"] - untraced, "s")
        record["trace_record"] = {
            "self_times": tr["self_times"],
            "spans": tr["spans"],
            "missing_targets": tr["missing"],
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return record


def write_record(record: dict) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{record['workload']}-seed{record['seed']}-trace{int(record['trace'])}-{stamp}-{os.getpid()}.json"
    path = os.path.join(RESULTS, name)
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "discrimlab", "cli.py")):
        print(f"error: no discrimlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    path = write_record(record)

    print(f"workload={record['workload']} seed={record['seed']} git={record['git_sha']} "
          f"python={record['python']} numpy={record['numpy']} nproc={record['nproc']}")
    for name, s in record["summary"].items():
        spread = f" q1={s['q1']:.6g} q3={s['q3']:.6g}" if "q1" in s else ""
        print(f"  sample {name}: median={s['median']:.6g}{spread} n={s['n']}")
    print(f"  fail_frac={record['fail_frac']:.6g} (failed {record['failed_ops']} of ops={record['ops']})")
    for f in record["failures"][:10]:
        print(f"  FAILED {f['label']}: {f['failure']}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": record["failed_ops"] == 0,
        "attempted": record["ops"],
        "failed": record["failed_ops"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
