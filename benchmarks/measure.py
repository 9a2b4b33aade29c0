"""The timed part of one benchmark run, in a process of its own.

    python3 benchmarks/measure.py SPEC.json RESULT.json

Imports `diracnsbf` from the `src` directory named in the spec, then:

1. set-up: builds the coefficients several times, each a cache miss
   (`cli.Problem(cfg).coefficients()` into a fresh directory); the last
   build fills the cache of the command's output directory;
2. command: runs `cli.main(argv)` in-process, served from that cache, in
   whole rounds until the run's seconds are spent, moving each round's
   output files to `round<k>/` (outside the timed region) for the checks;
3. with tracing on, one more set-up and command under the span tracer,
   in a fresh directory.

Writes the timings, the peak resident memory of this process and the
per-layer metrics to RESULT.json.
"""

import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

# Set-up is repeated at least this often, and for at least this long
# before the last build, so that its median does not rest on one build.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 4.0


def _outputs(directory):
    return sorted(p for p in directory.glob("bench_*") if p.is_file())


def main(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from diracnsbf import cli

    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit("diracnsbf imported from %s, not from %s" % (cli.__file__, src))

    work = Path(spec["workdir"])
    config = spec["config"]
    argv = [spec["command"], "--config", config] + spec["args"]

    def setup(out_dir):
        gc.collect()
        t0 = time.perf_counter()
        cfg = cli.load_config(config)
        cfg["out"] = str(out_dir / "bench")
        cli.Problem(cfg).coefficients()
        return time.perf_counter() - t0

    def command(out_dir):
        gc.collect()
        t0 = time.perf_counter()
        code = cli.main(argv + ["--set", "out=%s" % (out_dir / "bench")])
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise SystemExit("%s exited with code %d" % (spec["command"], code))
        return elapsed

    setup_s = []
    while len(setup_s) < SETUP_MIN_REPS - 1 or sum(setup_s) < SETUP_MIN_SECONDS:
        spare = work / ("setup%d" % len(setup_s))
        setup_s.append(setup(spare))
        shutil.rmtree(spare)
    cmd_dir = work / "cmd"
    setup_s.append(setup(cmd_dir))

    command_s = []
    start = time.perf_counter()
    while True:
        command_s.append(command(cmd_dir))
        keep = work / ("round%d" % (len(command_s) - 1))
        keep.mkdir()
        for path in _outputs(cmd_dir):
            path.rename(keep / path.name)
        if time.perf_counter() - start >= spec["seconds"]:
            break
    result = {
        "setup_s": setup_s,
        "command_s": command_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        traced = work / "traced"
        with Tracer(cli.__package__) as tracer:
            traced_s = setup(traced) + command(traced)
        layers, unmeasured = tracer.metrics()
        layers["cli.output_bytes"] = sum(p.stat().st_size for p in _outputs(traced))
        layers["trace.overhead_s"] = traced_s - median(setup_s) - median(command_s)
        layers["trace.spans"] = len(tracer.spans)
        tracer.dump(spec["trace_out"])
        result["layers"] = layers
        result["unmeasured"] = unmeasured + ["missing wrapper " + n for n in tracer.missing]

    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(*sys.argv[1:3])
