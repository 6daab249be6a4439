"""Summarize one set of benchmark results, or compare two.

    python3 bench/compare.py RESULTS_A [RESULTS_B]

A result set is a directory of `run.py` result files (`--trace 0` runs).
For one set, prints per workload and end-to-end metric the median, the
quartiles and the spread (interquartile distance over the median) against
the metric's bound in BENCHMARK.json. For two sets, prints both sides'
medians and quartiles, the share of alternated pairs each side wins (run i
of A against run i of B, in start order; ties count for neither), and a
verdict: "unresolved" where either side's spread exceeds the bound, else
"worse" / "better" where B's median moved past the bound, else "same".
Both modes report whether runs of one seed agree on output digests and
quality guards.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("trace") == 0:
            by_workload[result["workload"]].append(result)
    for runs in by_workload.values():
        runs.sort(key=lambda r: r["started_ns"])
    return by_workload


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, spread = (q3 - q1) / median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def agreement(runs: list[dict]) -> list[str]:
    """Seeds whose runs disagree on output digests or guards."""
    seen: dict[int, tuple] = {}
    bad = []
    for run in runs:
        key = (run["digests"]["outputs"], run["digests"]["inputs"], json.dumps(run["guards"], sort_keys=True))
        if seen.setdefault(run["seed"], key) != key:
            bad.append(str(run["seed"]))
    return bad


def worse(a: float, b: float, better: str) -> float:
    """Share by which b is worse than a (negative: better)."""
    return (a - b) / a if better == "higher" else (b - a) / a


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    sets = [load(Path(a)) for a in argv]
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [s.get(workload, []) for s in sets]
        if not all(runs):
            print(f"{workload}: no results in {' / '.join(a for a, r in zip(argv, runs) if not r)}")
            continue
        print(f"{workload}  (runs: {' vs '.join(str(len(r)) for r in runs)})")
        for name, better, bound in metrics:
            values = [[r["metrics"][name]["value"] for r in side] for side in runs]
            summary = [stats(v) for v in values]
            cells = "  ".join(f"{m:11.5g} [{q1:.5g}, {q3:.5g}] spread {s:6.1%}" for m, q1, q3, s in summary)
            if len(sets) == 1:
                s = summary[0][3]
                verdict = "steady" if s <= bound / 3 else "within bound" if s <= bound else "OVER BOUND"
                if name != "setup_s" and s > bound:
                    status = 1
                print(f"  {name:<14} {cells}  bound {bound:.0%}: {verdict}")
                continue
            pairs = list(zip(*values))
            wins_a = sum(1 for a, b in pairs if worse(a, b, better) > 0)
            wins_b = sum(1 for a, b in pairs if worse(a, b, better) < 0)
            change = worse(summary[0][0], summary[1][0], better)
            if name != "setup_s" and max(summary[0][3], summary[1][3]) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict, status = "WORSE", 1
            elif -change > bound:
                verdict = "better"
            else:
                verdict = "same"
            print(f"  {name:<14} {cells}  B {-change:+.1%}  pairs won A {wins_a}/{len(pairs)} "
                  f"B {wins_b}/{len(pairs)}  {verdict}")
        disagree = [agreement(side) for side in runs]
        if len(sets) == 2:
            first = {r["seed"]: r for r in runs[0]}
            disagree.append([str(r["seed"]) for r in runs[1] if r["seed"] in first and (
                r["digests"] != first[r["seed"]]["digests"] or r["guards"] != first[r["seed"]]["guards"])])
        bad = sorted({s for side in disagree for s in side})
        print(f"  digests and guards per seed: {'identical' if not bad else 'DIFFER for seeds ' + ', '.join(bad)}")
        status = status or (1 if bad else 0)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
