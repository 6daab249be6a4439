"""Stage-level benchmark for moldae.

    python3 bench/run.py --workload chem --seed 1 --seconds 25 --trace 0

Runs one seeded workload (or, with `--workload all`, all four in turn) in
this process on one BLAS thread and starts no threads or processes. The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (prefixed `<workload>.` with `all`). With `--trace 0`
the metrics are the end-to-end ones (set-up time, molecules and grammar
tokens per reference second of the timed phase, peak memory; reference.py
says what a reference second is); with `--trace 1` they are the per-layer
ones, from a run that wraps moldae's public functions and does a fixed
amount of work (`min_rounds` rounds) so that its counts repeat exactly. A
full result, with op latency percentiles, digests, quality guards and
provenance, goes to `<out>/<workload>-seed<n>-trace<t>-<time>.json`.
`bench/compare.py` summarizes and compares directories of results.

Exit codes: 0 ok; 1 a correctness check failed (the result line says
`"correct": false`); 2 the program or the benchmark's data could not be
loaded, or a fixture or input digest does not match (no result line).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
# Baseline the first recorded numbers are compared with (not gated).
ROADMAP_BASELINE = {"train": ("step_ms_p50", 229.0), "generate": ("mols_per_s", 145.0)}


class SetupError(RuntimeError):
    pass


def import_program():
    """Import moldae from this checkout's src/, never from anywhere else."""
    if not (SRC / "moldae" / "__init__.py").is_file():
        raise SetupError(f"{SRC / 'moldae'} not found: run from a moldae checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import moldae
    if Path(moldae.__file__).resolve().parent != (SRC / "moldae").resolve():
        raise SetupError(f"imported moldae from {moldae.__file__}, expected {SRC / 'moldae'}")
    import workloads  # noqa: F401 - fails here, not mid-run, if moldae cannot load


def percentiles(samples: list[float]) -> dict[str, float]:
    """Median and each higher percentile with at least ten samples beyond it."""
    out = {}
    ordered = sorted(samples)
    for q in (50, 90, 99):
        if len(ordered) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = ordered[min(len(ordered) - 1, math.ceil(len(ordered) * q / 100) - 1)] * 1e3
    return out


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "moldae").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                        "MKL_NUM_THREADS")},
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
    }


def run_rounds(workload, count: int | None, seconds: float, tracer=None, reference_op=None):
    """Rounds 0, 1, ... until `seconds` of timed work and at least min_rounds, or exactly `count`.

    Returns the rounds and the times of `reference_op`, called before the
    first round and after each round (an empty list without it).
    """
    rounds = []
    reference = [reference_op()] if reference_op else []
    timed = 0.0
    while (len(rounds) < count) if count is not None else (
            len(rounds) < workload.min_rounds or timed < seconds):
        if tracer is not None:
            tracer.current_op = len(rounds)
        rounds.append(workload.run_round(len(rounds)))
        timed += rounds[-1].seconds
        if reference_op:
            reference.append(reference_op())
    return rounds, reference


def rate(rounds: list, attr: str, seconds: list[float] | None = None) -> float:
    """Molecules (or tokens) completed per second of the timed phase (or of `seconds`)."""
    total = sum(r.seconds for r in rounds) if seconds is None else sum(seconds)
    return sum(getattr(r, attr) for r in rounds) / total if total > 0 else 0.0


# `--workload all` runs every workload in this process, in this order: rising
# peak memory, so each peak_rss_mb still reads that workload's own peak.
ALL = ("chem", "embed-probe", "generate", "train")


def run_workload(name: str, args, spec: dict, import_s: float) -> dict:
    """Set up, run and check one workload; print its metrics; return its result."""
    import inputs
    import reference
    import workloads

    scratch = ROOT / ".bench_out" / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](args.seed, scratch)
    tracer = None
    if args.trace:
        import tracer as tracer_module

        tracer = tracer_module.Tracer()
        tracer.install()
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    if tracer is None:
        rounds, reference_s = run_rounds(workload, None, args.seconds,
                                         reference_op=reference.reference_op(name))
        ref_seconds = reference.reference_seconds(name, [r.seconds for r in rounds], reference_s)
    else:
        rounds, _ = run_rounds(workload, workload.min_rounds, 0.0, tracer)
        tracer.uninstall()
        untraced, _ = run_rounds(workload, workload.min_rounds, 0.0)
        reference_s = ref_seconds = []

    failed_checks = [workload.check(i, r) for i, r in enumerate(rounds)]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds) + sum(failed_checks)
    first = rounds[: workload.min_rounds]
    guards = workload.guards(first)
    digests = {
        "inputs": inputs.draw_digest(name, args.seed, workload.min_rounds),
        "outputs": hashlib.sha256("".join(r.digest for r in first).encode()).hexdigest(),
    }
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "mols_per_s": rate(rounds, "mols", ref_seconds),
            "tokens_per_s": rate(rounds, "tokens", ref_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        layer = tracer.layer_metrics()
        traced_rate, untraced_rate = rate(rounds, "mols"), rate(untraced, "mols")
        layer.update({
            "trace.mols_per_s": traced_rate,
            "trace.untraced_mols_per_s": untraced_rate,
            "trace.overhead_frac": untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
        })
        layer.update({k: v for k, v in guards.items() if not math.isnan(v)})
        # Zero where the layer does not run on this workload.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {metric: layer.get(metric, 0) for metric in units}

    ops = [s for r in rounds for s in r.op_seconds]
    latency = percentiles(ops)
    stamp = time.time_ns()
    result = {
        "workload": name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else 0.0,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "rounds": len(rounds),
        "timed_s": sum(r.seconds for r in rounds),
        "round_detail": [[r.seconds, r.mols, r.tokens] for r in rounds],
        "reference_s": reference_s,
        "wall": {"mols_per_s": rate(rounds, "mols"), "tokens_per_s": rate(rounds, "tokens")},
        "import_s": import_s,
        "setup_repeats_s": setups,
        "op_ms": {"n": len(ops), **latency},
        "guards": guards,
        "digests": digests,
        "provenance": provenance(),
        "started_ns": stamp,
    }
    if name in ROADMAP_BASELINE and not args.trace:
        key, expected = ROADMAP_BASELINE[name]
        measured = latency.get("p50", math.nan) if key == "step_ms_p50" else result["wall"]["mols_per_s"]
        result["roadmap_baseline"] = {"metric": key, "roadmap": expected, "measured": measured,
                                      "ratio": measured / expected}
    stem = f"{name}-seed{args.seed}-trace{args.trace}-{stamp}"
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                                           encoding="utf-8")
    if tracer is not None:
        tracer.write(args.out / f"{stem}.spans.tsv", T_START)

    print(f"{name} seed {args.seed}: {len(rounds)} rounds, {attempted} ops, {failed} failed")
    for k, v in metrics.items():
        print(f"  {k:<40} {v:>14.6g} {units[k]}")
    if tracer is None:
        print("  wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in result["wall"].items())
              + f"; reference op median {statistics.median(reference_s) * 1e3:.1f} ms")
    print("  op_ms " + " ".join(f"{k} {v:.2f}" for k, v in latency.items()) + f" (n={len(ops)})")
    for k, v in guards.items():
        print(f"  guard {k} = {v!r}")
    print(f"  digests: inputs {digests['inputs'][:16]} outputs {digests['outputs'][:16]}")
    if "roadmap_baseline" in result:
        b = result["roadmap_baseline"]
        print(f"  ROADMAP baseline {b['metric']} {b['roadmap']:g}: measured {b['measured']:.4g} "
              f"({b['ratio']:.2f}x)")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*ALL, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out" / "results",
                        help="directory for the full result JSON (and spans, when tracing)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        import_program()
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import inputs
    import_s = time.perf_counter() - T_START
    args.out.mkdir(parents=True, exist_ok=True)

    results = []
    try:
        for name in ALL if args.workload == "all" else (args.workload,):
            results.append(run_workload(name, args, spec, import_s))
    except (inputs.DigestMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = all(r["correct"] for r in results)
    metrics = ({k: v for r in results for k, v in r["metrics"].items()} if len(results) == 1 else
               {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
