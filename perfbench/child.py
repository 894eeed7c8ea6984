"""One timed pass of a workload, in a fresh process.

Usage (from the root of a source checkout):

    python3 perfbench/child.py --workload NAME --seed N --tmp DIR [--trace] [--setup-only]

Imports ``discrimlab`` from ``src/`` of the checkout, writes the workload's
spec files into DIR, then issues the workload's CLI commands one at a time
through ``discrimlab.cli.main(argv)``.  Prints one JSON object on stdout:
when set-up finished with the time and speed of the probes run during
set-up, the pass's wall time (raw and rescaled to the reference CPU
speed), and per command its exit code, captured output and any exception.  With ``--trace`` the layer entry points are wrapped first
(after set-up, before the clock starts), the speed probe stays off, and
the trace is included.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# The host's vCPUs alternate between fast and slow phases (about 1.6x
# apart, each lasting seconds) because of load outside this process, which
# moves a pass's wall time by up to 40 % from run to run.  A fixed
# pure-Python loop, timed every PROBE_INTERVAL_S of the pass's CPU time,
# tracks the phase: rescaling the wall time by the loop's mean speed
# relative to PROBE_REF_S (its duration in a fast phase on the host this
# was written on, which fixes the unit) gives the wall time at a fixed CPU
# speed.  Set-up is rescaled the same way by the parent, from probes run
# while the child imports the program.
PROBE_REF_S = 80e-6
PROBE_INTERVAL_S = 0.01
# set-up takes about 0.1 s of CPU time in the child; a shorter interval
# gives it some twenty probes
SETUP_PROBE_INTERVAL_S = 0.005

# a pass that runs longer than this is killed by SIGALRM's default action,
# so the parent's blocking read always ends
PASS_TIME_LIMIT_S = 170


def _probe_loop() -> None:
    d = {}
    for i in range(400):
        k = (i & 31, i % 7)
        d[k] = d.get(k, 0) + 1


def probe_once() -> float:
    t = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - t


def speed(durations: list[float]) -> float:
    """Mean probe speed relative to the reference; 1.0 without probes."""
    if not durations:
        return 1.0
    return statistics.fmean(PROBE_REF_S / d for d in durations)


class SpeedProbe:
    """Runs probe_once on SIGPROF, i.e. every ``interval`` seconds of CPU time."""

    def __init__(self, enabled: bool, interval: float):
        self.enabled = enabled
        self.interval = interval
        self.durations: list[float] = []

    def _tick(self, signum, frame) -> None:
        # no collection of the program's objects may land in the probe
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.durations.append(probe_once())
        finally:
            if collecting:
                gc.enable()

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGPROF, self._tick)
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--commands", help="JSON list of [label, argv template] overriding the workload")
    args = ap.parse_args()
    signal.alarm(PASS_TIME_LIMIT_S)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    setup_probe = SpeedProbe(enabled=True, interval=SETUP_PROBE_INTERVAL_S)
    with setup_probe:
        import discrimlab.cli as cli

        if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
            print(f"error: discrimlab imported from {cli.__file__}, not {SRC}", file=sys.stderr)
            return 3
        from workloads import materialize

        overrides = json.loads(args.commands) if args.commands else None
        commands = materialize(args.workload, args.seed, args.tmp, overrides)
    result = {
        "ready": time.monotonic(),
        "setup_probe_s": sum(setup_probe.durations),
        "setup_speed": speed(setup_probe.durations),
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("discrimlab")

    ops = []
    probe = SpeedProbe(enabled=not args.trace, interval=PROBE_INTERVAL_S)
    start = time.perf_counter()
    with probe:
        for index, (label, argv) in enumerate(commands):
            out, err = io.StringIO(), io.StringIO()
            op = {"label": label, "argv": argv, "rc": None, "exception": None}
            trace_cm = tracer.command(index) if tracer else contextlib.nullcontext()
            try:
                with trace_cm, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    op["rc"] = cli.main(argv)
            except Exception:
                # the command is recorded as failed; the pass goes on
                op["exception"] = traceback.format_exc()
            op["stdout"] = out.getvalue()
            op["stderr"] = err.getvalue()
            ops.append(op)
    # the probes ran inside the pass; their time is not the program's
    wall = time.perf_counter() - start - sum(probe.durations)

    result.update(
        wall_s=wall,
        wall_ref_s=wall * speed(probe.durations),
        probes=len(probe.durations),
        ops=ops,
    )
    if tracer:
        tracer.uninstall()
        result["trace"] = {
            "layers": tracer.layer_metrics(),
            "self_times": tracer.self_times(),
            "spans": tracer.spans,
            "missing": tracer.missing,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
