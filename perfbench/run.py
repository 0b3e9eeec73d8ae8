"""Benchmark command for cmgraph.

Run from the repository root::

    python3 perfbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Workloads: harness, query, transform, model (see README.md in this
directory).  The run imports cmgraph from ``src/`` and builds the seeded inputs.  It
then runs the op list in rounds, each in a forked child, and checks
every output after the timed pass.  Before every other round (every
round of ``harness``) a forked child repeats the set-up to time it, so
the set-up samples spread over the run as the rounds do.  With
``--trace 1`` it then builds the inputs again and runs one more round in
the process itself with every layer function wrapped in a span, and
reports per-layer metrics instead of end-to-end ones.

Standard output ends with two lines: a detail record (backend, Python
version, git SHA, CPU count, op counts, tail percentile, output digest)
and the result, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The process exits with 2,
printing no result, when ``src/cmgraph`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

from procs import in_child

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 8  # set-ups timed between the rounds, besides the run's own
BENCH_MODULES = ("gen", "workloads", "layertrace")


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: ") :]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def fresh_setup(name: str, seed: int, seconds: int):
    """Import cmgraph afresh and build the inputs; return the time and the op list.

    Every loaded copy of cmgraph and of the benchmark's own modules is
    dropped first, so no cache of an earlier set-up serves this one.
    The benchmark's modules are imported outside the timed span.
    """
    for mod in list(sys.modules):
        if mod in BENCH_MODULES or mod == "cmgraph" or mod.startswith("cmgraph."):
            del sys.modules[mod]
    t0 = perf_counter()
    import cmgraph  # noqa: F401
    from cmgraph import graphio, propcheck  # noqa: F401

    import_s = perf_counter() - t0
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    t0 = perf_counter()
    ops = workload.build(workload.spec(seed, seconds))
    return import_s + perf_counter() - t0, workload, ops


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns the latency, its percentile and the sample count.  Below 11
    samples the maximum stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def end_to_end(best, setup_s, peak_rss_mb) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from each op's best latency over the rounds.

    ``wall_s`` is the time of one pass with every op at its best.  The
    minimum over rounds filters out contention from other tenants of the
    host, which comes in bursts shorter than a second.  Every round
    starts from the same process state, so the minimum is never a round
    served by a cache that an earlier round filled.
    """
    wall = sum(best)
    return {
        "wall_s": (wall, "s"),
        "ops_per_s": (len(best) / wall, "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "latency_tail_ms": (tail(best)[0] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cmgraph benchmark")
    parser.add_argument(
        "--workload", required=True, choices=("harness", "query", "transform", "model")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "cmgraph" / "__init__.py").is_file():
        print(f"error: no cmgraph package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    setup_s, workload, ops = fresh_setup(args.workload, args.seed, args.seconds)
    setup_times = [setup_s]
    per_round = -(-SETUP_SAMPLES // workload.rounds)
    every = max(1, workload.rounds // SETUP_SAMPLES)

    def sample_setups():
        return [fresh_setup(args.workload, args.seed, args.seconds)[0] for _ in range(per_round)]

    def between_rounds(k):
        if k % every == 0:
            setup_times.extend(in_child(sample_setups))

    import cmgraph
    from cmgraph import propcheck

    if Path(cmgraph.__file__).resolve().parent != (src / "cmgraph").resolve():
        print(f"error: imported cmgraph from {cmgraph.__file__}, not {src}", file=sys.stderr)
        return 2

    gc.collect()
    results = workload.execute(ops, between_rounds)
    best = [min(times) for times in zip(*(r["lat"] for r in results))]
    walls = [r["wall"] for r in results]
    metrics = end_to_end(
        best,
        statistics.median(setup_times),
        statistics.median(r["peak_rss_mb"] for r in results),
    )
    verdicts = workload.verdicts(ops, results)
    digest = workload.digest(results[0]["records"])
    _, tail_pct, tail_n = tail(best)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "backend": cmgraph.backend_name(),
        "python": platform.python_version(),
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "rounds": len(results),
        "round_wall_s": walls,
        "op_counts": workload.op_counts(ops),
        "latency_tail_percentile": round(tail_pct, 3),
        "latency_samples": tail_n,
        "setup_s": setup_times,
        "digest": digest,
    }

    if args.trace:
        from layertrace import Tracer

        del ops
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.run_round(workload.build(workload.spec(args.seed, args.seconds)), False)
        finally:
            tracer.uninstall()
        traced_digest = workload.digest(traced["records"])
        if traced_digest != digest:
            verdicts = [False] * len(verdicts)
        detail["traced_digest"] = traced_digest
        metrics = tracer.metrics()
        for suite_id in propcheck.SUITE_IDS:
            suite_s = [r.get("suite_s", {}).get(suite_id, 0.0) for r in results]
            metrics[f"propcheck.suite.{suite_id}.s"] = (min(suite_s), "s")
        metrics["trace.overhead_s"] = (traced["wall"] - statistics.median(walls), "s")

    failed = verdicts.count(False)
    detail["fail_ratio"] = failed / len(verdicts)
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
