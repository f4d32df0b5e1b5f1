"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload traced at reduced size (E10 L=2, ball(5), hyper_rank3
L=6) under two seeds that relabel the nodes differently, and checks that
both pass every correctness check with identical invariants and report every
per-layer metric.  It also checks that BENCHMARK.json lists the workloads and
the metrics, with units and directions, that run.py and spans.py report.
Exits 1 on any problem.
"""

from __future__ import annotations

import json
import sys

from run import END_TO_END, ROOT, WORKLOADS, BenchError, run_child
from spans import LAYER_METRICS

# seeds 1, 2 and 3 give the same permutation of a 3-node matrix
SEEDS = (1, 4)


def check_benchmark_json(problems: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if listed != {name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()}:
        problems.append("BENCHMARK.json per_layer differs from spans.LAYER_METRICS")


def check_seeds(workload: str, problems: list[str]) -> None:
    results = []
    for seed in SEEDS:
        spec = {"workload": workload, "seed": seed, "run": 0, "trace": True,
                "small": True, "setup_only": False, "spans": None}
        result = run_child(spec, timeout=170)
        results.append(result)
        problems.extend(f"{workload} seed {seed}: {note}" for note in result["failures"])
        # trace.overhead_s is the one metric run.py derives across repetitions
        missing = set(LAYER_METRICS) - set(result["layers"]) - {"trace.overhead_s"}
        if missing:
            problems.append(f"{workload} seed {seed}: no value for {sorted(missing)}")
    first, second = (r["invariants"] for r in results)
    if first != second:
        problems.append(f"{workload}: seeds {SEEDS} disagree: {first} != {second}")
    print(f"{workload}: seeds {SEEDS} give {json.dumps(first)}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import MATRIX, RUN, node_permutation
    from dominantk.data import load

    problems: list[str] = []
    check_benchmark_json(problems)
    if set(RUN) != set(WORKLOADS):
        problems.append("workloads.RUN differs from run.WORKLOADS")
    for name in set(MATRIX.values()):
        n = load(name).size
        if node_permutation(n, SEEDS[0]) == node_permutation(n, SEEDS[1]):
            problems.append(f"seeds {SEEDS} give the same permutation of {name}")
    try:
        for workload in WORKLOADS:
            check_seeds(workload, problems)
    except BenchError as exc:
        problems.append(str(exc))
    for note in problems:
        print(f"FAIL {note}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
