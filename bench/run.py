"""Benchmark of the templink verifier: one workload per run, correctness-gated.

Run from the root of a checkout:

    python3 bench/run.py --workload extremal-range --seed 1 --seconds 10 --trace 0

The package is imported from the checkout's ``src`` directory, never from an
installed copy.  The run repeats the workload's operation in a closed loop
until ``--seconds`` of operations have been timed (at least one), checks every
result against the outputs pinned in ``expected.json`` and against the
pure-Python reference engine, and prints a table followed by one JSON line.
With ``--trace 0`` the JSON carries the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics of one
extra traced operation, whose spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One thread per process for every BLAS/OpenMP runtime numpy may load, so the
# figures measure the program and not the thread scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_RUNS = 11
# Worker processes of the fan-out operation in a traced extremal-range run.
FANOUT_JOBS = 2
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import templink; "
    "from workloads import WORKLOADS; "
    "WORKLOADS[sys.argv[3]].inputs(sys.argv[4], int(sys.argv[5]))"
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_templink() -> None:
    if not (SRC / "templink" / "__init__.py").is_file():
        raise SystemExit(f"error: no templink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import templink

    if Path(templink.__file__).resolve().parent != SRC / "templink":
        raise SystemExit(f"error: templink imported from {templink.__file__}, not {SRC}")


def describe(samples: list[float]) -> tuple[float, str, int]:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    n = len(samples)
    ordered = sorted(samples)
    for pct in (99.9, 99, 90, 50):
        rank = math.ceil(round(pct * n / 100, 9))  # nearest-rank percentile
        if n - rank >= 10:
            return statistics.median(samples), f"p{pct:g}={ordered[rank - 1]:.6g}", n
    return statistics.median(samples), "-", n


def setup_times(name: str, size: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), name, size, str(seed)],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process (the untraced loop starts no workers)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload; return the result object and the table to print before it."""
    # Imported here: both import templink, which must come from SRC first.
    from tracer import Tracer
    from workloads import Checks, RangeWorkload, WORKLOADS

    wl = WORKLOADS[name]
    fanout = trace and isinstance(wl, RangeWorkload)
    nproc = len(os.sched_getaffinity(0))
    if fanout and FANOUT_JOBS > nproc:
        raise SystemExit(f"error: fan-out needs {FANOUT_JOBS} processors, {nproc} available")
    spec = load_spec()
    expected = json.loads((BENCH / "expected.json").read_text())[size][name]
    checks = Checks()

    def run_checked(*args, tracer: Tracer | None = None):
        """One operation, timed; its result is checked once the clock and the tracer stop."""
        start = time.perf_counter()
        try:
            if tracer is None:
                result = wl.op(inputs, *args)
            else:
                with tracer:
                    result = tracer.root(wl.op, inputs, *args)
        except Exception as exc:  # a raising operation is a failed output
            checks.attempted += 1
            checks.failed += 1
            checks.messages.append(f"operation raised {exc!r}")
            return None, 0.0
        wall = time.perf_counter() - start
        gate = wl.check(result, expected, seed)
        checks.attempted += gate.attempted
        checks.failed += gate.failed
        checks.messages += gate.messages
        return result, wall

    wl.op(wl.inputs("tiny", seed))  # warm-up: imports, allocator, code paths
    inputs = wl.inputs(size, seed)
    walls, rates = [], []
    while not walls or sum(walls) < seconds:
        result, wall = run_checked()
        if result is None:
            break
        walls.append(wall)
        rates.append(wl.items(result) / wall)
        del result
    if not walls:
        raise SystemExit(f"error: every operation raised: {checks.messages}")

    lines = [f"workload {name}  seed {seed}  size {size}  operations {len(walls)}"]
    if not trace:
        samples = {
            "wall_s": walls,
            "items_per_s": rates,
            "peak_rss_mb": [peak_rss_mb()],
            "setup_s": setup_times(name, size, seed),
        }
        metrics = _end_to_end(spec, samples, f"{wl.item}_per_s", lines)
    else:
        baseline = statistics.median(walls)
        tracer = Tracer(f"{name}-seed{seed}")
        _, traced = run_checked(tracer=tracer)
        tracer.write(ROOT / ".bench_out" / f"spans-{name}.npz")
        layer = tracer.layer_metrics()
        # Spans do not cross processes: fan-out is read from the per-triple
        # times that verify_range returns, on one untraced operation.
        summary, wall = run_checked(FANOUT_JOBS) if fanout else (None, 0.0)
        layer.update(_fanout(summary, wall))
        layer["trace.overhead_frac"] = traced / baseline - 1 if traced and baseline else 0.0
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        _trace_table(tracer, traced, baseline, metrics, lines)
    lines.append(
        f"failed_frac {checks.failed / checks.attempted:.6g} "
        f"({checks.failed} of {checks.attempted} checks)"
    )
    lines += [f"FAILED CHECK: {m}" for m in checks.messages[:10]]
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return result, lines


def _end_to_end(spec: dict, samples: dict[str, list[float]], alias: str, lines: list[str]) -> dict:
    metrics = {}
    lines.append(f"{'metric':<14}{'unit':<7}{'median':>14}  {'tail':<18}{'n':>4}")
    for m in spec["end_to_end"]:
        median, tail, n = describe(samples[m["name"]])
        metrics[m["name"]] = {"value": median, "unit": m["unit"]}
        lines.append(f"{m['name']:<14}{m['unit']:<7}{median:>14.6g}  {tail:<18}{n:>4}")
    # items_per_s counts pairs verified or Lyndon words screened, by workload.
    lines.append(f"{alias:<14}{'1/s':<7}{metrics['items_per_s']['value']:>14.6g}  (= items_per_s)")
    return metrics


def _fanout(summary, wall: float) -> dict[str, float]:
    """Worker busy and idle time of a ``verify_range`` run at FANOUT_JOBS; 0 without one."""
    if summary is None:
        return {"fanout.busy_s": 0.0, "fanout.idle_s": 0.0, "fanout.efficiency": 0.0}
    busy = sum(s.elapsed_s for s in summary.triples)
    capacity = FANOUT_JOBS * wall
    return {
        "fanout.busy_s": busy,
        "fanout.idle_s": capacity - busy,
        "fanout.efficiency": busy / capacity,
    }


def _trace_table(tracer, traced: float, baseline: float, metrics: dict, lines: list[str]) -> None:
    from tracer import COUNTED

    self_s, calls = tracer.self_times(), tracer.calls()
    lines.append(
        f"traced operation {traced:.3f} s (untraced {baseline:.3f} s); "
        f"self times sum to {sum(self_s.values()):.3f} s"
    )
    lines.append(f"{'layer':<40}{'calls':>10}{'self_s':>10}{'share':>8}")
    for qualname in sorted(self_s, key=self_s.get, reverse=True):
        if calls[qualname]:
            share = self_s[qualname] / traced if traced else 0.0
            lines.append(f"{qualname:<40}{calls[qualname]:>10}{self_s[qualname]:>10.3f}{share:>8.1%}")
    counted_calls = {f"{q}.calls" for q in COUNTED}
    for key, value in metrics.items():
        if key in counted_calls or not key.endswith((".calls", ".self_s")):
            shown = value["value"]
            shown = f"{shown:>12.6g}" if isinstance(shown, float) else f"{shown:>12}"
            lines.append(f"{key:<48}{shown} {value['unit']}")


def main(argv: list[str] | None = None) -> int:
    pin_threads()
    import_templink()
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
