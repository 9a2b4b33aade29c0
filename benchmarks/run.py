#!/usr/bin/env python3
"""Benchmark of the diracnsbf command-line solver.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; `diracnsbf` is imported from this checkout's `src`.
One run makes the workload's inputs from the seed in a fresh directory
under `.bench_work/`, times the set-up and the user's command in a child
process (`measure.py`), checks every output file of every timed round
against independent references (`checks.py`), and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s, command_s,
peak_rss_mb); with `--trace 1` they are the per-layer ones of one more,
traced, round, whose spans go to `.bench_trace/<workload>-seed<N>.json`.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACE_ROOT = ROOT / ".bench_trace"
MEASURE_TIMEOUT_S = 150

# One process with at most two threads; BLAS pools are capped before numpy
# loads, here and in the measuring process that inherits the environment.
_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _THREADS

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def _check_rounds(name, inputs, rounds):
    """(attempted, failed, worst error) over every round's output files."""
    check, per_round = checks.round_check(name, inputs)
    attempted = failed = 0
    worst = 0.0
    for d in rounds:
        try:
            a, f, w = check(d)
        except checks.CheckError as exc:
            print("check: %s" % exc)
            a = f = per_round
            w = float("inf")
        attempted += a
        failed += f
        worst = max(worst, w)
    return attempted, failed, worst


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def run(args):
    command, config, extra, inputs = workloads.build(args.workload, args.seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_ROOT))
    try:
        (work / "problem.cfg").write_text(config)
        spec = {
            "src": str(SRC),
            "workdir": str(work),
            "config": str(work / "problem.cfg"),
            "command": command,
            "args": extra,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "trace_out": str(TRACE_ROOT / ("%s-seed%d.json" % (args.workload, args.seed))),
        }
        if args.trace:
            TRACE_ROOT.mkdir(exist_ok=True)
        (work / "spec.json").write_text(json.dumps(spec))
        log_path = work / "measure.log"
        with open(log_path, "w") as log:
            proc = subprocess.run(
                [sys.executable, str(HERE / "measure.py"), str(work / "spec.json"), str(work / "result.json")],
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=MEASURE_TIMEOUT_S,
            )
        if proc.returncode != 0:
            sys.stderr.write(log_path.read_text()[-4000:])
            print("error: measuring process exited with code %d" % proc.returncode, file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text())

        rounds = sorted(work.glob("round*"), key=lambda p: int(p.name[5:]))
        attempted, failed, worst = _check_rounds(args.workload, inputs, rounds)
        print("workload %s seed %d: %d command rounds, worst check error %.3g"
              % (args.workload, args.seed, len(rounds), worst))
        print("setup_s per build: %s" % " ".join("%.4f" % t for t in result["setup_s"]))
        print("command_s per round: %s" % " ".join("%.4f" % t for t in result["command_s"]))

        if args.trace:
            values = result["layers"]
            for name in result["unmeasured"]:
                print("trace: not measured: %s" % name)
            print("trace: spans written to %s" % spec["trace_out"])
        else:
            values = {
                "setup_s": median(result["setup_s"]),
                "command_s": median(result["command_s"]),
                "peak_rss_mb": result["peak_rss_mb"],
            }
        metrics = {}
        for name, value in values.items():
            unit = "MB" if name == "peak_rss_mb" else _unit(name)
            metrics[name] = {"value": value, "unit": unit}
            print("%-30s %.6g %s" % (name, value, unit))
        print("info: src_lines=%d (not a metric)" % _src_lines())
        # every timed round's outputs were checked
        correct = attempted > 0 and len(rounds) == len(result["command_s"])
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None):
    # a terminated run still kills and waits for its measuring process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "diracnsbf" / "cli.py").is_file():
        print("error: no diracnsbf sources at %s" % SRC, file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
