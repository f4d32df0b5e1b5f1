"""dominantk benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Every repetition runs in a fresh interpreter (bench/child.py), one at a time:
a command-line user pays the per-matrix caches (_GROUPS, the lru_caches,
WeylGroup._parabolic) on every command, and a second repetition in one
process would find the ball already enumerated.  Repetitions run closed-loop,
single-threaded, while the next one is expected to end within --seconds.
Times are scaled to a fixed host speed by a probe timed during the measured
work (see bench/child.py); the unscaled times are printed beside them.
wall_s is the median over the run's repetitions, setup_s the median over
many short set-up-only processes and the repetitions.

Workloads (inputs seeded by a node permutation, see workloads.py):
  e10_report       extended_type_report(E10, L=3, Box(1,0)) plus the check
                   that maximal reps lie in pure_reps: coset filtering.
  e10_characters   ball(8) of E10, the length-8 Weyl numerator and two Levi
                   characters: enumeration, memory and exact division.
  sector_homology  the hyper_rank3 K=() truncation at L=10 through SNF, and
                   derived (co)limit oracles for all 8 K at L=6: one large
                   and many small SNFs.

--trace 0 reports the end-to-end metrics of untraced repetitions:
  wall_s       time to the verified answer, after set-up, scaled
  setup_s      import, load and relabel, classify, spherical poset and
               realization, scaled; sampled in extra set-up-only processes
               as well
  peak_rss_mb  peak resident memory of the repetition's process
  pass_frac    checked operations that passed / attempted (1 - fail_frac;
               a run with any failure exits 1)
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of spans.LAYER_METRICS, including the share of traced
wall_s that no span covers and the tracing overhead.  Spans are appended to
bench/out/<workload>-seed<N>.spans.jsonl.

Left out: the cli layer (a fresh dominantk command is mostly interpreter
start-up, 106-406 ms with about 30% spread on 2 cores with Python 3.11, so
no repeatable metric; import cost shows in setup_s) and the Tier-1 test wall time (a CI cost that pytest
reports, not a user workload).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("e10_report", "e10_characters", "sector_homology")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}
SETUP_SAMPLES = 6  # set-up-only processes per run, after one unmeasured warm-up
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def run_child(spec: dict, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} repetition passed its {timeout:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['workload']} repetition exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def environment(args, runs: int) -> str:
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor() or "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (f"# env python={platform.python_version()} nproc={nproc} cpu={cpu!r} "
            f"commit={git_commit()} workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace} runs={runs}")


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dominantk" / "__init__.py").is_file():
        print(f"error: no dominantk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    spans_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        spans_path.unlink(missing_ok=True)

    def child(run_id, *, trace=False, setup_only=False):
        spec = {"workload": args.workload, "seed": args.seed, "run": run_id, "trace": trace,
                "small": False, "setup_only": setup_only,
                "spans": str(spans_path) if trace else None}
        return run_child(spec, DEADLINE_S - (time.perf_counter() - start))

    try:
        child(-1, setup_only=True)  # warm-up: byte-compiles the package
        setup = [child(-1, setup_only=True) for _ in range(SETUP_SAMPLES)]
        plain, traced, last = [], [], 0.0
        while True:
            # stop before a repetition that would end past --seconds, once
            # there is one untraced (and, with --trace 1, one traced) result
            enough = plain and (traced or not args.trace)
            if enough and time.perf_counter() - start + last > args.seconds:
                break
            trace = bool(args.trace) and len(traced) < len(plain)
            begun = time.perf_counter()
            result = child(len(plain) + len(traced), trace=trace)
            last = time.perf_counter() - begun
            (traced if trace else plain).append(result)
            setup.append(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    print(environment(args, len(reps)))
    for r in reps:
        for note in r["failures"]:
            print(f"# FAILED {note}")

    if args.trace:
        metrics = {name: statistics.fmean(r["layers"][name] for r in traced)
                   for name in LAYER_METRICS if name != "trace.overhead_s"}
        # traced repetitions run no speed probe: compare unscaled times
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(
            r["raw_wall_s"] for r in plain)
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        wall = metrics["trace.wall_s"]
        for name, (unit, _, moves) in LAYER_METRICS.items():
            # gcm.classify runs during set-up, outside wall_s
            layer_time = unit == "s" and not name.startswith(("trace.", "gcm."))
            share = f" ({100 * metrics[name] / wall:.1f}% of traced wall_s)" if layer_time else ""
            print(f"{name} {metrics[name]:.6g} {unit}{share}  -> {moves}")
    else:
        samples = {
            "wall_s": [r["wall_s"] for r in plain],
            "setup_s": [r["setup_s"] for r in setup],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        raw = {"wall_s": [r["raw_wall_s"] for r in plain],
               "setup_s": [r["raw_setup_s"] for r in setup]}
        metrics = {name: statistics.median(v) for name, v in samples.items()}
        metrics["pass_frac"] = (attempted - failed) / attempted
        units = END_TO_END
        for name, v in samples.items():
            q1, q2, q3 = quartiles(v)
            print(f"{name} {metrics[name]:.6g} {units[name]} ({len(v)} samples: "
                  f"q1 {q1:.6g}, median {q2:.6g}, q3 {q3:.6g})")
            if name in raw:
                q1, q2, q3 = quartiles(raw[name])
                print(f"# unscaled {name}: q1 {q1:.6g}, median {q2:.6g}, q3 {q3:.6g} {units[name]}")
        print(f"pass_frac {metrics['pass_frac']:.6g} ratio ({attempted - failed} of {attempted} checks)")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
