"""Run one groupgeom benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 and prints no result.  One
process, one thread: each round's operations run one after another, a
call starting only when the previous one has returned.  Rounds repeat
while the next one is predicted to end inside ``--seconds``; at least one
always runs.  ``--trace 1`` alternates untraced and traced rounds (at
least one of each), prints the per-layer metrics and writes every span to
``perfbench/out/trace-<workload>-<seed>.npz``.  The last line of standard
output is the result object; failed checks are listed on standard error.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3


def load_program():
    """Import groupgeom from this checkout's sources; exit 2 without them."""
    src = ROOT / "src"
    if (src / "groupgeom" / "__init__.py").is_file():
        sys.path.insert(0, str(src))
        import groupgeom

        if Path(groupgeom.__file__).resolve().parent == src / "groupgeom":
            return groupgeom
    print(f"perfbench: no groupgeom sources under {src}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["surface", "flat", "hplane"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def measure(workload, seconds: float, tracer=None) -> list:
    """Whole rounds while the longest round seen so far still fits."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        t = time.perf_counter()
        rnd = workload.run_round(tracer if traced else None)
        rnd.wall = time.perf_counter() - t
        rnd.traced = traced
        rounds.append(rnd)
        elapsed = time.perf_counter() - t0
        if tracer is not None and len(rounds) < 2:
            continue
        if elapsed + max(r.wall for r in rounds) > seconds:
            return rounds


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setup_s: float, rounds) -> dict[str, tuple[float, str]]:
    estimated = [r for r in rounds if "delta" in r.times]
    return {
        "setup_s": (setup_s, "s"),
        "solve_s": (median([r.solve for r in rounds]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "delta_s": (median([r.times["delta"] for r in estimated]), "s"),
        "triangles_per_s": (median([r.triangles / r.times["delta"] for r in estimated]), "1/s"),
    }


def per_layer(tracer, rounds) -> dict[str, tuple[float, str]]:
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]

    def task(name):
        return median([r.times[name] for r in plain if name in r.times])

    stream = [r.decisions / r.times["stream"] for r in plain if "stream" in r.times]
    out = {
        "word_problem_per_s": (median(stream), "1/s"),
        "ball_s": (task("ball"), "s"),
        "filling_s": (task("filling"), "s"),
    }
    out.update(tracing.layer_metrics(tracer, len(traced)))
    out["trace.overhead_s"] = (median([r.solve for r in traced]) - median([r.solve for r in plain]), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    gg = load_program()
    import_s = time.perf_counter() - _T0
    setups = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](gg, args.seed, workloads.FULL)
        setups.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setups)

    tracer = tracing.Tracer() if args.trace else None
    rounds = measure(workload, args.seconds, tracer)
    if tracer is None:
        metrics = end_to_end(setup_s, rounds)
    else:
        metrics = per_layer(tracer, rounds)
        tracer.save(HERE / "out" / f"trace-{args.workload}-{args.seed}.npz")

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for r in rounds:
        for message in r.messages:
            print(f"perfbench: FAILED {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
