"""The benchmark's four workloads.

Each workload turns ``(seed, seconds)`` into a plain-data spec (graph
text and op parameters, made without calling the program), builds its
op list from the spec (parsing every graph text through
``graphio.parse``), runs the op list in rounds in the timed pass, and
checks every output afterwards.  Op counts scale with ``seconds`` so
that the rounds together last about that long on a 2-core x86 box with
the pure-Python kernel.  Kinds of op are interleaved in seeded order, so
a drift in machine speed hits every kind alike.

Every round runs in a child forked from a process that has built the
inputs but run no op, so each round starts from the same state: no
cache that one round fills can serve another.
"""

from __future__ import annotations

import hashlib
import random
import resource
from pathlib import Path
from time import perf_counter

import cmgraph as cm
from cmgraph import graphio, propcheck

from gen import generate_cmg, node_labels
from procs import in_child, on_each_cpu

ROADMAP_REPORT_SHA256 = "899f99a6faa57f1ed91b3aea5c774a045525e89d15f291d59fa1033363c9155b"
EXPECTED_REPORT = Path(__file__).with_name("harness_seed0_count500.txt")


def _interleave(rng: random.Random, strata: list, per_stratum: int) -> list:
    """``per_stratum`` blocks, each holding every stratum once in seeded order."""
    order = []
    for _ in range(per_stratum):
        block = strata[:]
        rng.shuffle(block)
        order += block
    return order


def _subset_sizes(rng: random.Random, count: int, allow_empty: bool) -> list[int]:
    """Set sizes drawn as ``propcheck._random_subsets`` draws them: 0-2 nodes each."""
    lo = 0 if allow_empty else 1
    return [rng.randint(lo, 2) for _ in range(count)]


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    """Spec, op list, timed rounds and output checks of one workload.

    Every round runs the same op list in the same order, each in its own
    forked child.  Round-to-round equality of every output is part of
    the check.
    """

    name = ""
    rounds = 16

    def spec(self, seed: int, seconds: int):
        """Plain data for one round sized to ``seconds / rounds``."""
        raise NotImplementedError

    def build(self, spec) -> list:
        """Parsed inputs of one round, one entry per op: ``(kind, fn, context)``."""
        raise NotImplementedError

    def keep(self, index: int, out):
        """What the timed pass stores of an op's output."""
        return out

    def timed_round(self, ops):
        """Run the ops once; return their outputs, latencies and the wall time."""
        outs, lat = [], []
        start = perf_counter()
        for i, (_, fn, _) in enumerate(ops):
            t0 = perf_counter()
            try:
                out = fn()
            except Exception as exc:  # an op that raises counts as failed
                out = exc
            lat.append(perf_counter() - t0)
            outs.append(self.keep(i, out))
        return outs, lat, perf_counter() - start

    def run_round(self, ops, check: bool) -> dict:
        """One round: the timed pass, its peak memory, then a record per op.

        A record holds the hash of the output's summary and, with
        ``check``, the verdict of the output check.
        """
        outs, lat, wall = self.timed_round(ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records = [
            self.record(context, out, check) for (_, _, context), out in zip(ops, outs)
        ]
        return {"lat": lat, "wall": wall, "peak_rss_mb": peak_rss_mb, "records": records}

    def execute(self, ops, between_rounds=None) -> list[dict]:
        """Run ``rounds`` rounds, each in a fresh child; check the first round's outputs.

        ``between_rounds``, if given, is called with the round's index
        before each round, on the CPU that round runs on.
        """
        results = []
        for k in on_each_cpu(range(self.rounds)):
            if between_rounds is not None:
                between_rounds(k)
            results.append(in_child(lambda: self.run_round(ops, check=k == 0)))
        return results

    def record(self, context, out, check: bool) -> dict:
        if isinstance(out, Exception):
            return {"error": repr(out)}
        rec = {"sha": _sha([self.summary(out)])}
        if check:
            try:
                rec["ok"] = bool(self.check_op(context, out))
            except Exception:
                rec["ok"] = False
        return rec

    def summary(self, out) -> str:
        """Canonical text of one output, for the digest and round equality."""
        raise NotImplementedError

    def check_op(self, context, out) -> bool:
        """Output check of one op, applied to its first round."""
        raise NotImplementedError

    def verdicts(self, ops, results) -> list[bool]:
        """One verdict per op execution: did it return, pass its check, and
        give the same output in every round."""
        verdicts = []
        for recs in zip(*(r["records"] for r in results)):
            ok = all("sha" in rec for rec in recs)
            ok = ok and len({rec["sha"] for rec in recs}) == 1 and recs[0]["ok"]
            verdicts += [ok] * len(recs)
        return verdicts

    def digest(self, records) -> str:
        """Digest of one round's outputs."""
        return _sha(rec.get("sha") or rec["error"] for rec in records)

    def op_counts(self, ops) -> dict[str, int]:
        """Ops per kind in one round."""
        counts: dict[str, int] = {}
        for kind, _, _ in ops:
            counts[kind] = counts.get(kind, 0) + 1
        return counts


# -- query: many c-separation queries per graph object ----------------------

QUERY_SIZES = (32, 64, 128, 256)
QUERY_GRAPHS_PER_SIZE = 8
QUERY_PER_S = 700  # queries per second of one round


class Query(Workload):
    """``c_separated`` plus a witness when connected, as ``cmgraph separate`` does.

    Each size gets an equal share of the queries, spread over its graphs.
    ``a`` and ``b`` hold 1-2 nodes and the conditioning set 0-2, all
    disjoint and uniform over the nodes, as ``propcheck._random_subsets``
    draws its sets.  Within a round the queries of a graph share one
    graph object: many queries per graph object is what this workload
    measures.

    The graphs and the queries on each come from fixed reference
    sequences, the same in every run (a shorter run takes a prefix of
    each graph's queries); the workload seed draws the order in which
    they run.  With eight graphs per size drawn per seed, the median
    latency moved by up to 15% from seed to seed; with the queries drawn
    per seed, the tail latency moved by about 8%, which the gate would
    read as a change.
    """

    name = "query"

    def spec(self, seed, seconds):
        n_graphs = len(QUERY_SIZES) * QUERY_GRAPHS_PER_SIZE
        per_graph = max(1, round(QUERY_PER_S * seconds / self.rounds / n_graphs))
        graphs, by_graph = {}, {}
        for size in QUERY_SIZES:
            ref = random.Random(f"query-reference:{size}")
            for k in range(QUERY_GRAPHS_PER_SIZE):
                key = (size, k)
                graphs[key] = generate_cmg(ref.getrandbits(32), size).text
                qref = random.Random(f"query-reference:{size}:{k}")
                by_graph[key] = [self.draw(qref, key) for _ in range(per_graph)][::-1]
        order = _interleave(random.Random(f"query:{seed}"), list(graphs), per_graph)
        return graphs, [by_graph[key].pop() for key in order]

    @staticmethod
    def draw(rng, key):
        """One query on graph ``key``: disjoint ``a``, ``b`` and conditioning set."""
        n_a, n_b = _subset_sizes(rng, 2, allow_empty=False)
        (n_given,) = _subset_sizes(rng, 1, allow_empty=True)
        picked = rng.sample(node_labels(key[0]), n_a + n_b + n_given)
        return key, picked[:n_a], picked[n_a : n_a + n_b], picked[n_a + n_b :]

    def build(self, spec):
        texts, queries = spec
        graphs = {key: graphio.parse(text) for key, text in texts.items()}
        ops = []
        for key, a, b, given in queries:
            g = graphs[key]

            def op(g=g, a=a, b=b, given=given):
                if cm.c_separated(g, a, b, given):
                    return True, None
                return False, cm.c_connecting_witness(g, a, b, given)

            ops.append((f"query-{key[0]}", op, (g, a, b, given)))
        return ops

    def summary(self, out):
        sep, walk = out
        return f"{sep} {walk.render() if walk else '-'}"

    def check_op(self, context, out):
        g, a, b, given = context
        sep, walk = out
        if sep != cm.bounded_walk_oracle(g, a, b, given):
            return False
        return sep or (
            walk is not None and walk.exists_in(g) and cm.is_c_connecting(walk, a, b, given)
        )


# -- transform: rule engines on freshly parsed graphs ------------------------

TRANSFORM_SIZES = (32, 64, 128)
TRANSFORM_KINDS = ("marginalize", "condition", "anterialize")
TRANSFORM_PER_S = 64  # ops per second of one round
REFERENCE_SEED = "transform-reference"
ORACLE_PAIRS = 6  # sampled pairs per op checked against the edge oracles


class Transform(Workload):
    """``marginalize``, ``condition`` and ``anterialize`` on freshly parsed CMGs.

    The three kinds come in equal shares over the three sizes.  Sets to
    marginalize or condition on hold 1-2 nodes, uniform over the nodes,
    as ``propcheck._random_subsets`` draws non-empty sets.  Nodes deep in
    the graph, with large anterior sets, are drawn like any other, so
    the collider stage does real work on some conditionings.

    One instance can cost 1000 times another of the same kind and size,
    so instances drawn per seed would turn into seed-to-seed noise that
    hides a regression.  The instances therefore come from fixed
    reference sequences, the same in every run (a shorter run takes a
    prefix), and the workload seed draws the order in which they run.
    """

    name = "transform"

    def spec(self, seed, seconds):
        strata = [(kind, size) for kind in TRANSFORM_KINDS for size in TRANSFORM_SIZES]
        per_stratum = max(1, round(TRANSFORM_PER_S * seconds / self.rounds / len(strata)))
        by_stratum = []
        for kind, size in strata:
            ref = random.Random(f"{REFERENCE_SEED}:{kind}:{size}")
            ops = []
            for _ in range(per_stratum):
                text = generate_cmg(ref.getrandbits(32), size).text
                chosen = []
                if kind != "anterialize":
                    (n,) = _subset_sizes(ref, 1, allow_empty=False)
                    chosen = sorted(ref.sample(node_labels(size), n))
                ops.append((kind, size, text, chosen))
            by_stratum.append(ops[::-1])
        order = _interleave(random.Random(f"transform:{seed}"), list(range(len(strata))), per_stratum)
        return [by_stratum[k].pop() for k in order]

    def build(self, spec):
        fns = {
            "marginalize": cm.marginalize,
            "condition": cm.condition,
            "anterialize": lambda g, _: cm.anterialize(g),
        }
        ops = []
        for kind, size, text, chosen in spec:
            g = graphio.parse(text)
            fn = fns[kind]
            op = lambda fn=fn, g=g, s=chosen: fn(g, s)  # noqa: E731
            ops.append((f"{kind}-{size}", op, (kind, g, chosen)))
        return ops

    def summary(self, out):
        return graphio.render(out)

    def check_op(self, context, h):
        kind, g, chosen = context
        flags = cm.classify(h)
        if cm.CMG not in flags or (kind == "anterialize" and cm.ANG not in flags):
            return False
        rng = random.Random(graphio.render(g))
        adjacent = sorted({(x, y) for _, x, y in h.edges})
        pairs = rng.sample(adjacent, min(len(adjacent), ORACLE_PAIRS // 2))
        pairs += [tuple(sorted(rng.sample(h.nodes, 2))) for _ in range(ORACLE_PAIRS // 2)]
        for i, j in pairs:
            if kind == "marginalize":
                want = cm.marginal_edge_oracle(g, chosen, i, j)
            elif kind == "anterialize":
                want = cm.subprimitive_walk_exists(g, i, j) or cm.subprimitive_walk_exists(g, j, i)
            else:
                want = cm.conditional_edge_oracle(g, chosen, i, j)
            if want != h.adjacent(i, j):
                return False
        return True


# -- model: pairwise independence models of small CMGs -----------------------

# One 7-node graph per three 8-node ones: a 7-node model costs about a third
# of an 8-node one, and with equal shares the median latency would sit on
# the gap between the two clusters, where any shift moves it by half.
MODEL_SIZES = (7, 8, 8, 8)
MODEL_PER_S = 100  # ops per second of one round
MODEL_CHECK_EVERY = 8  # every 8th model is kept whole and checked
MODEL_CHECK_TRIPLES = 24


class Model(Workload):
    """``pairwise_model``, where the separation kernel does nearly all the work.

    Only every ``MODEL_CHECK_EVERY``-th model is kept whole; of the others
    the timed pass keeps the statement count, which the digest and the
    round equality compare.
    """

    name = "model"

    def spec(self, seed, seconds):
        rng = random.Random(f"model:{seed}")
        per_stratum = max(
            MODEL_CHECK_EVERY, round(MODEL_PER_S * seconds / self.rounds / len(MODEL_SIZES))
        )
        return [
            (size, generate_cmg(rng.getrandbits(32), size, avg_degree=2.5).text)
            for size in _interleave(rng, list(MODEL_SIZES), per_stratum)
        ]

    def build(self, spec):
        ops = []
        for size, text in spec:
            g = graphio.parse(text)
            ops.append((f"model-{size}", lambda g=g: cm.pairwise_model(g), g))
        return ops

    def keep(self, index, out):
        if isinstance(out, Exception) or index % MODEL_CHECK_EVERY == 0:
            return out
        return len(out.statements)

    def summary(self, out):
        return repr(out if isinstance(out, int) else out.sorted_statements())

    def check_op(self, g, out):
        if isinstance(out, int):
            return True  # count kept only; the round equality compares it
        if out.ground != g.node_set:
            return False
        rng = random.Random(graphio.render(g))
        for _ in range(MODEL_CHECK_TRIPLES):
            i, j, *rest = rng.sample(g.nodes, rng.randint(2, len(g.nodes)))
            given = frozenset(rest[: rng.randint(0, len(rest))])
            stmt = (min(i, j), max(i, j), given)
            if (stmt in out.statements) != cm.bounded_walk_oracle(g, [i], [j], given):
                return False
        return True


# -- harness: the property suites ---------------------------------------------

HARNESS_SEED = 0
HARNESS_COUNT = 500  # count of the property report contract
HARNESS_TIMED_COUNT = 150


class Harness(Workload):
    """Every suite of ``propcheck.SUITE_IDS`` through ``run_suite``.

    The rounds run the suites at seed 0 and count 150, a prefix of the
    instances of the property report contract (seed 0, count 500).
    Eight rounds give each instance eight chances of a quiet moment of
    the host, where rounds of the full 500 would allow four in the same
    time.  After its timed pass, the first round's child runs the
    contract itself, untimed, to check its report lines.  A round takes
    2-4 s on a 2-core x86 box whatever ``seconds`` is; the workload seed
    orders the suites.  Runs of under 10 s use a smaller count and skip
    the contract.
    An op is one property instance.  Its latency is read from a timestamp
    taken after each instance, by wrapping the suites' run callables.
    """

    name = "harness"
    rounds = 8

    def spec(self, seed, seconds):
        order = list(propcheck.SUITE_IDS)
        random.Random(f"harness:{seed}").shuffle(order)
        count = HARNESS_TIMED_COUNT if seconds >= 10 else 15 * seconds
        return order, count, seconds >= 10

    def build(self, spec):
        order, count, self.contract = spec
        return [(suite_id, None, count) for suite_id in order]

    def timed_round(self, ops):
        stamps: list[float] = []
        original = propcheck._suites

        def stamped_suites():
            suites = original()
            for suite in suites.values():

                def run(*args, _run=suite.run):
                    _run(*args)
                    stamps.append(perf_counter())

                suite.run = run
            return suites

        reports, lat = [], []
        self.suite_s = {}
        propcheck._suites = stamped_suites
        try:
            start = perf_counter()
            for suite_id, _, count in ops:
                del stamps[:]
                t0 = perf_counter()
                try:
                    report = propcheck.run_suite(suite_id, seed=HARNESS_SEED, count=count)
                except Exception as exc:
                    report = exc
                t1 = perf_counter()
                if stamps:
                    lat += [t - prev for prev, t in zip([t0] + stamps, stamps)]
                else:  # cg-unrepresentability has no per-instance callable
                    lat.append(t1 - t0)
                self.suite_s[suite_id] = t1 - t0
                reports.append(report)
            wall = perf_counter() - start
        finally:
            propcheck._suites = original
        return reports, lat, wall

    def run_round(self, ops, check):
        result = {**super().run_round(ops, check), "suite_s": self.suite_s}
        if check and self.contract:
            result["contract"] = {}
            for suite_id, _, _ in ops:
                try:
                    report = propcheck.run_suite(suite_id, seed=HARNESS_SEED, count=HARNESS_COUNT)
                    result["contract"][suite_id] = report.line()
                except Exception as exc:
                    result["contract"][suite_id] = repr(exc)
        return result

    def summary(self, out):
        return out.line()

    def record(self, context, out, check):
        if isinstance(out, Exception):
            return {"error": repr(out)}
        return {"sha": _sha([out.line()]), "failures": out.failures}

    def verdicts(self, ops, results):
        """Per instance: the contract run reproduces the report line of its
        suite, and every round gives the same line and reports the
        instance as passed."""
        expected = {}
        if self.contract:
            text = EXPECTED_REPORT.read_text()
            if hashlib.sha256(text.encode()).hexdigest() != ROADMAP_REPORT_SHA256:
                raise RuntimeError(f"{EXPECTED_REPORT.name} does not match the ROADMAP hash")
            for line in text.splitlines():
                expected[line.split()[0][len("property=") :]] = line
        verdicts = []
        first = results[0]["records"]
        for result in results:
            for (suite_id, _, count), rec, rec0 in zip(ops, result["records"], first):
                instances = 1 if suite_id == "cg-unrepresentability" else count
                if "error" in rec or rec["sha"] != rec0.get("sha"):
                    bad = instances
                elif expected and results[0]["contract"][suite_id] != expected[suite_id]:
                    bad = instances
                else:
                    bad = rec["failures"]
                verdicts += [False] * bad + [True] * (instances - bad)
        return verdicts

    def op_counts(self, ops):
        return {
            suite_id: 1 if suite_id == "cg-unrepresentability" else count
            for suite_id, _, count in ops
        }


WORKLOADS = {w.name: w for w in (Harness, Query, Transform, Model)}
