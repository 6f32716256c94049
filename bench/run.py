"""Benchmark `choicetrust score` from JSONL in to report out.

Run from the repository root; the package runs from `src`, uninstalled:

    python3 bench/run.py --workload many-small --seed 1 --seconds 35 --trace 0

`--trace 0` times `score` as a child process in a closed loop: one process
at a time, the next started only after the previous one exited and its
report was verified. Between score processes a fresh interpreter imports
`choicetrust.cli_io` to time set-up. It reports the end-to-end metrics.

The speed of a shared machine can move by half for minutes at a time, which
would swamp any change to the program. So the benchmark and its children
run on one CPU, a fixed pure-Python loop is timed on it just before and
after each child process, and `score_s` and `setup_s` are the children's
wall times scaled to the speed at which the loop takes REFERENCE_LOOP_S.
The raw wall-time medians are printed too.

`--trace 1` runs `score` in this process instead, alternating untraced runs
with runs whose layer calls are wrapped in spans (see tracing.py), and
reports the per-layer metrics plus the tracing overhead: the traced wall
time minus the untraced one. The spans of the last traced run are written
to `.bench_trace/<workload>-seed<seed>.jsonl.gz`.

Every report is checked against the generator's stage ranks (verify.py)
outside the timed region. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import verify
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_SETUP_SAMPLES = 5
CALIBRATION_LOOPS = 1_000_000
REFERENCE_LOOP_S = 0.05  # the loop's wall time at the reference speed
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: the current speed of this CPU."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i
    return time.perf_counter() - start


class Child:
    """Runs the package in fresh interpreters with `src` on the path."""

    def __init__(self, workdir: Path) -> None:
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.stderr_path = workdir / "stderr.txt"

    def _wait(self, argv: list[str]) -> tuple[float, int, float]:
        """Spawn, wait, and return (wall seconds, exit code, peak RSS in MB)."""
        with self.stderr_path.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss / 1024  # ru_maxrss is in KiB

    def setup(self) -> float:
        seconds, code, _ = self._wait([sys.executable, "-c", "import choicetrust.cli_io"])
        if code != 0:
            raise RuntimeError(f"importing choicetrust.cli_io failed: {self.stderr_tail()}")
        return seconds

    def score(self, argv: list[str]) -> tuple[float, int, float]:
        return self._wait([sys.executable, "-m", "choicetrust.cli_io", *argv])

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(encoding="utf-8", errors="replace")[-500:]


def score_argv(case: workloads.Case, out: Path) -> list[str]:
    return ["score", str(case.episodes_path), str(case.reviews_path),
            "--format", case.fmt, "--out", str(out)]


def _check(verifier: verify.Verifier, out: Path, code: int, label: str) -> bool:
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    problems = verifier.check(text, code)
    for problem in problems:
        print(f"FAIL {label}: {problem}", file=sys.stderr)
    out.unlink(missing_ok=True)
    return not problems


def at_reference_speed(measure):
    """Run `measure`, which returns (wall seconds, ...), and scale its seconds to the
    reference speed using the calibration loop timed just before and after it."""
    before = calibrate()
    seconds, *rest = measure()
    loop_s = (before + calibrate()) / 2
    return seconds * REFERENCE_LOOP_S / loop_s, seconds, *rest


def end_to_end(case: workloads.Case, seconds: float, workdir: Path) -> dict:
    child = Child(workdir)
    verifier = verify.Verifier(case)
    out = workdir / f"report.{case.fmt}"
    argv = score_argv(case, out)
    child.setup()  # untimed: compiles the package's bytecode once
    score_s, score_wall, rss_mb, setup_s, setup_wall = [], [], [], [], []
    failed = 0
    start = time.perf_counter()
    cycle = 0.0
    # Start another cycle only if it should end by the deadline, so that a
    # run lasts about `seconds` however long one score process takes.
    while not score_s or time.perf_counter() + cycle <= start + seconds:
        cycle_start = time.perf_counter()
        scaled, wall, code, rss = at_reference_speed(lambda: child.score(argv))
        score_s.append(scaled)
        score_wall.append(wall)
        rss_mb.append(rss)
        if not _check(verifier, out, code, f"score run {len(score_s)}"):
            failed += 1
            print(child.stderr_tail(), file=sys.stderr)
        scaled, wall = at_reference_speed(lambda: (child.setup(),))
        setup_s.append(scaled)
        setup_wall.append(wall)
        cycle = time.perf_counter() - cycle_start
    while len(setup_s) < MIN_SETUP_SAMPLES:
        scaled, wall = at_reference_speed(lambda: (child.setup(),))
        setup_s.append(scaled)
        setup_wall.append(wall)

    n = len(score_s)
    tail = tail_percentile(score_s)
    tail_text = (f"p{tail[0]:g}={tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples beyond it")
    throughput = [case.assessments / s for s in score_s]
    print(f"{case.workload} seed {case.seed}: {n} score runs, --format {case.fmt}, "
          f"{case.assessments} assessments per report, exit code {case.exit_code} expected")
    print(f"score_s            {statistics.median(score_s):.4f} s (median of {n}; {tail_text}; "
          f"raw wall median {statistics.median(score_wall):.4f} s)")
    print(f"assessments_per_s  {statistics.median(throughput):.1f} 1/s")
    print(f"peak_rss_mb        {statistics.median(rss_mb):.2f} MB")
    print(f"setup_s            {statistics.median(setup_s):.4f} s (median of {len(setup_s)}; "
          f"raw wall median {statistics.median(setup_wall):.4f} s)")
    print(f"failed_ratio       {failed / n:.4f} ratio ({failed}/{n})")
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {
            "score_s": {"value": statistics.median(score_s), "unit": "s"},
            "assessments_per_s": {"value": statistics.median(throughput), "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(rss_mb), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        },
    }


def traced(case: workloads.Case, seconds: float, workdir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"choicetrust.{name}") for name in tracing.MODULES}
    cli_io = modules["cli_io"]
    tracer = tracing.Tracer()
    verifier = verify.Verifier(case)
    out = workdir / f"report.{case.fmt}"
    argv = score_argv(case, out)
    untraced_s, traced_s, layers = [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    cycle = 0.0
    while not traced_s or time.perf_counter() + cycle <= deadline:
        cycle_start = start = time.perf_counter()
        code = cli_io.main(argv)
        untraced_s.append(time.perf_counter() - start)
        failed += not _check(verifier, out, code, f"untraced run {len(untraced_s)}")

        run = f"{case.workload}-seed{case.seed}-{len(traced_s) + 1}"
        with tracer.installed(modules, run):
            start = time.perf_counter()
            code = cli_io.main(argv)
            traced_s.append(time.perf_counter() - start)
        layers.append(tracer.metrics())
        failed += not _check(verifier, out, code, f"traced run {len(traced_s)}")
        cycle = time.perf_counter() - cycle_start
    tracer.write(ROOT / ".bench_trace" / f"{case.workload}-seed{case.seed}.jsonl.gz")

    metrics = {name: statistics.median([m[name] for m in layers]) for name in layers[0]}
    metrics["trace.untraced_s"] = statistics.median(untraced_s)
    metrics["trace.traced_s"] = statistics.median(traced_s)
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    print(f"{case.workload} seed {case.seed}: {len(traced_s)} traced and "
          f"{len(untraced_s)} untraced in-process runs")
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {tracing.unit(name)}")
    attempted = len(traced_s) + len(untraced_s)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": tracing.unit(name)}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "choicetrust" / "cli_io.py").is_file():
        print(f"error: no choicetrust sources under {SRC}", file=sys.stderr)
        return 1

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        case = workloads.generate(args.workload, args.seed, workdir)
        run = traced if args.trace else end_to_end
        result = run(case, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
