"""Tests of the benchmark itself: metric names, short runs, the generator.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cmgraph as cm  # noqa: E402
from cmgraph import graphio  # noqa: E402

from gen import generate_cmg  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seconds: int = 1):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_short_run_passes_checks_and_names_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    detail = json.loads(detail_line)["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["fail_ratio"] == 0
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert detail["traced_digest"] == detail["digest"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("model", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_harness_verdicts_need_the_contract_lines_and_equal_rounds():
    from workloads import EXPECTED_REPORT, HARNESS_TIMED_COUNT, Harness

    workload = Harness()
    ops = workload.build(workload.spec(1, 10))
    assert workload.contract
    contract = {line.split()[0][len("property="):]: line
                for line in EXPECTED_REPORT.read_text().splitlines()}
    instances = sum(1 if suite_id == "cg-unrepresentability" else count
                    for suite_id, _, count in ops)

    def results(contract, second_sha="same"):
        first = [{"sha": "same", "failures": 0} for _ in ops]
        second = [{"sha": second_sha, "failures": 0} for _ in ops]
        return [{"records": first, "contract": contract}, {"records": second}]

    assert workload.verdicts(ops, results(contract)) == [True] * (2 * instances)
    broken = {**contract, "marginalization": contract["marginalization"].replace(
        "failures=0", "failures=1")}
    assert workload.verdicts(ops, results(broken)).count(False) == 2 * HARNESS_TIMED_COUNT
    assert workload.verdicts(ops, results(contract, "other")).count(False) == instances


@pytest.mark.parametrize("n", [7, 32, 128, 256])
def test_generator_is_deterministic_and_makes_cmgs(n):
    for seed in range(3):
        first = generate_cmg(seed, n)
        assert first == generate_cmg(seed, n)
        g = graphio.parse(first.text)
        assert cm.CMG in cm.classify(g)
        assert len(g.nodes) == n
        assert len(g.edges) == round(3.0 * n / 2)
    assert generate_cmg(0, n).text != generate_cmg(1, n).text


def test_generator_shares_and_anteriors():
    graph = generate_cmg(5, 64, avg_degree=3.0, line_share=0.25, arc_share=0.25)
    g = graphio.parse(graph.text)
    kinds = [kind for kind, _, _ in g.edges]
    assert kinds.count(cm.ARC) == round(96 * 0.25)
    assert kinds.count(cm.LINE) == len(graph.lines) == round(96 * 0.25)
    for v in g.nodes[:8]:
        assert graph.anterior_closure([v]) == {v} | cm.anteriors(g, [v])


def test_a_cache_on_graph_equality_serves_no_later_round(monkeypatch):
    """Every round must pay for the cache misses of the first.

    The CMG cycle check is wrapped in an ``lru_cache`` whose misses sleep.
    Every ``transform`` op checks its fresh input, so if a cache filled in
    one round served the next, an op's best time would drop below one miss.
    """
    from cmgraph import graph
    from workloads import Transform

    miss_s = 0.005
    original = graph.has_semidirected_cycle_with_arrow

    @functools.lru_cache(maxsize=None)
    def cached(g):
        time.sleep(miss_s)
        return original(g)

    for name, module in list(sys.modules.items()):
        if name == "cmgraph" or name.startswith("cmgraph."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, cached)
    workload = Transform()
    workload.rounds = 3
    ops = workload.build(workload.spec(1, 1))
    results = workload.execute(ops)
    assert workload.verdicts(ops, results) == [True] * (len(ops) * 3)
    best = [min(times) for times in zip(*(r["lat"] for r in results))]
    assert min(best) >= miss_s
