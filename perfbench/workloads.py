"""The four workloads: inputs, one round of work, and the checks.

A run repeats whole rounds, so every run attempts the same operations in the
same proportions.  Every workload is a closed loop with one caller and no
worker pool.  The checks import ``checks`` and ``oracle`` (and with them
networkx) only when they run, so that the set-up time holds condgraph's
import and the inputs alone.
"""

from __future__ import annotations

import random
import shutil
import statistics
from collections import defaultdict
from time import perf_counter

from condgraph import census, conduction, families, fixtures, graphs, transmission

# single-graph latencies: the graphs and what each stands for
LARGE_GRAPHS = {
    "c40": lambda: graphs.cycle_graph(40),            # nullity 2, rules route
    "p41": lambda: graphs.path_graph(41),             # nullity 1, blocks route
    "md2_64": lambda: families.min_deg2_graph(16),    # nullity 0, n = 64
    "reg24": lambda: fixtures.fixture("fig6reg24"),   # nullity 0, 6-regular
}
# calls per round of large-graphs (a few seconds per graph)
CALLS = {"c40": 3, "p41": 4, "md2_64": 25, "reg24": 100}
# cycle devices (n, left, right) swept over E in [-3, 3]
DEVICES = [(6, 0, 3), (24, 0, 12), (40, 0, 20), (60, 0, 1), (60, 0, 30)]
BETA_SQ = 1.0
E_MIN, E_MAX, STEPS = -3.0, 3.0, 601
NEGATIVE_SAMPLE = 100
# the reference kernel's time at nominal machine speed (its usual time on
# the 2-core host the bounds were set on); see Speed
REFERENCE_MS = 1.10
REFERENCE_SAMPLES = 100


def _reference_matrix(n=28, seed=2024):
    rng = random.Random(seed)
    return [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]


def reference_kernel(a) -> int:
    """Fraction-free determinant of a fixed nonsingular 0/1 matrix: plain
    Python integer and list work like condgraph's own, without calling it."""
    m = [list(row) for row in a]
    n = len(m)
    prev, sign = 1, 1
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return 0
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        pivot, top = m[c][c], m[c]
        for i in range(c + 1, n):
            row, f = m[i], m[i][c]
            for j in range(c + 1, n):
                row[j] = (pivot * row[j] - f * top[j]) // prev
            row[c] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


class Speed:
    """Scales measured times to nominal machine speed.

    The host is shared, and for tens of seconds at a time it runs this code
    up to 1.8 times faster than usual.  A reference kernel is therefore
    timed next to each measured stretch of work, and that stretch's time is
    multiplied by REFERENCE_MS / (the kernel's time), which gives the time
    at nominal speed.  The kernel does the integer elimination that
    dominates condgraph, so it speeds up with the machine as condgraph does.
    """

    def __init__(self):
        self.matrix = _reference_matrix()
        self.samples = []

    def sample(self) -> float:
        """Time the reference kernel once; seconds."""
        t = perf_counter()
        reference_kernel(self.matrix)
        dt = perf_counter() - t
        self.samples.append(dt)
        return dt

    @staticmethod
    def scale(ref_s: float) -> float:
        return REFERENCE_MS / (ref_s * 1e3)

    def factor(self) -> float:
        """The run's median scale, for the record."""
        return self.scale(statistics.median(self.samples))


class LargeGraphs:
    """Timed ``conduction_graph`` calls on the four large graphs, and the
    transmission sweeps of the cycle devices."""

    def __init__(self, rng: random.Random, speed: Speed, sweeps: bool):
        self.rng = rng
        self.speed = speed
        self.graphs = {name: make() for name, make in LARGE_GRAPHS.items()}
        self.devices = [graphs.cycle_graph(n) for n, _, _ in DEVICES] if sweeps else []
        self.latency = defaultdict(list)
        self.outputs = defaultdict(list)
        self.curves = defaultdict(list)

    def shuffled(self, calls: dict) -> list:
        items = [name for name, k in calls.items() for _ in range(k)]
        self.rng.shuffle(items)
        return items

    def call(self, name) -> float:
        """One call, timed between two reference samples and scaled by their
        mean; returns the wall time all three took."""
        before = self.speed.sample()
        t = perf_counter()
        cg = conduction.conduction_graph(self.graphs[name])
        dt = perf_counter() - t
        after = self.speed.sample()
        self.latency[name].append(dt * self.speed.scale((before + after) / 2))
        self.outputs[name].append(cg.graph)
        return before + dt + after

    def sweep(self, key):
        _, left, right = DEVICES[key]
        dp = transmission.device_polynomials(self.devices[key], left, right)
        self.curves[key].append((dp, transmission.sweep(dp, BETA_SQ, E_MIN, E_MAX, STEPS)))

    def calls(self) -> int:
        return sum(len(v) for v in self.latency.values())

    def metrics(self) -> dict:
        return {f"latency_ms.{name}": statistics.median(self.latency[name]) * 1e3
                for name in LARGE_GRAPHS}

    def check(self):
        """(problems, failures, attempted, failed).

        A sweep whose samples are off exact T(E) is a failed operation and
        its findings go to ``failures``; any other wrong output is a problem.
        """
        import checks
        import oracle
        problems = []
        for name, outs in self.outputs.items():
            g = self.graphs[name]
            a = oracle.adjacency(oracle.from_rows(g.n, g.rows))
            for gc in set(outs):
                problems += self._check_graph(name, a, gc)
        failures = []
        failed = 0
        grid = [E_MIN + (E_MAX - E_MIN) * i / (STEPS - 1) for i in range(STEPS)]
        for key, outs in self.curves.items():
            n, left, right = DEVICES[key]
            label = f"sweep C{n}({left},{right})"
            polys = oracle.cycle_device_polys(n, left, right)
            energy = self.rng.randint(-3, 3)
            at = oracle.poly_check_points(n, left, right, energy)
            if any(oracle.evaluate(polys[k], energy, 1) != at[k] for k in at):
                problems.append(f"{label}: oracle recurrence disagrees with "
                                f"det(EI - A) at E={energy}")
            conducts = conduction.device_verdict(self.devices[key], left, right).conducts
            verdicts = {}
            for out in outs:
                if out not in verdicts:
                    verdicts[out] = checks.sweep(label, polys, out[0], out[1],
                                                 conducts, BETA_SQ, grid)
                failed += bool(verdicts[out])
            failures += [p for v in verdicts.values() for p in v]
        attempted = self.calls() + sum(len(v) for v in self.curves.values())
        return problems, failures, attempted, failed

    @staticmethod
    def _check_graph(name, a, gc):
        import checks
        import oracle
        if name == "c40":
            return checks.singular_gc(name, gc, oracle.cycle_symmetries(40))
        if name == "p41":
            problems = checks.singular_gc(name, gc, oracle.path_symmetries(41),
                                          connected=False)
            f = oracle.flags(a)
            if f["nullity"] != 1 or f["nut"]:
                problems.append("p41: input is not a nullity-1 non-nut graph")
            return problems
        problems = checks.nonsingular_gc(name, a, gc)
        if name == "md2_64":
            problems += checks.conduction_isomorphic(name, a, gc)
        return problems


class LargeGraphsWorkload:
    """Single-graph ``conduction_graph`` latency plus transmission sweeps."""

    def __init__(self, seed):
        self.speed = Speed()
        self.large = LargeGraphs(random.Random(seed), self.speed, sweeps=True)
        self.rounds = 0

    def round(self):
        items = self.large.shuffled(CALLS) + list(range(len(DEVICES)))
        self.large.rng.shuffle(items)
        for item in items:
            if isinstance(item, str):
                self.large.call(item)
            else:
                self.large.sweep(item)
        self.rounds += 1

    def check(self):
        return self.large.check()

    def metrics(self) -> dict:
        out = self.large.metrics()
        busy = sum(sum(v) for v in self.large.latency.values())
        out["graphs_per_s"] = self.large.calls() / busy
        return out

    def close(self):
        pass


class CensusWorkload:
    """``run_census`` over an exhaustively enumerated class, positives only.

    Graphs are counted where the census pulls them from its source.  In an
    untraced run every round also makes the single-graph calls of ``probe``
    and ``REFERENCE_SAMPLES`` reference samples, each spread evenly between
    the round's graphs, so that all rounds do the same work.  Their time is
    left out of the census time, and each stretch of census time between
    two samples is scaled by the sample that ends it.
    """

    def __init__(self, seed, patches, interleave, mode, n, expected, probe):
        self.mode, self.n, self.expected = mode, n, expected
        self.speed = Speed()
        self.large = LargeGraphs(random.Random(seed), self.speed, sweeps=False)
        self.keep = set(self.large.rng.sample(range(1, expected[0] + 1), NEGATIVE_SAMPLE))
        self.kept = []
        self.interleave = interleave
        self.probe = probe if interleave else {}
        self.every = expected[0] // (sum(self.probe.values()) + 1)
        self.sample_every = max(1, expected[0] // REFERENCE_SAMPLES)
        self.pending = []
        self.count = 0
        self.mark = self.excluded_s = self.scaled_s = self.last_ref = 0.0
        self.outputs = []
        self.times = []
        self.problems = []
        original = census.run_census

        def counted_run_census(source, *args, **kwargs):
            return original(self._counted(source), *args, **kwargs)

        patches.set(census, "run_census", counted_run_census)

    def _counted(self, source):
        for g in source:
            self.count += 1
            if self.count in self.keep:
                self.kept.append(g)
            if self.pending and self.count % self.every == 0:
                self.excluded_s += self.large.call(self.pending.pop())
            if self.interleave and self.count % self.sample_every == 0:
                self._close_stretch(self.speed.sample)
            yield g

    def _close_stretch(self, sample):
        raw = perf_counter() - self.mark - self.excluded_s
        self.last_ref = sample()
        self.scaled_s += raw * self.speed.scale(self.last_ref)
        self.mark = perf_counter()
        self.excluded_s = 0.0

    @property
    def rounds(self):
        return len(self.times)

    def _timed(self, run):
        """Run one round and record its census time."""
        self.count = 0
        self.pending = self.large.shuffled(self.probe)
        self.excluded_s = self.scaled_s = 0.0
        self.mark = perf_counter()
        out = run()
        if self.interleave:
            self._close_stretch(lambda: self.last_ref)
        else:
            self.scaled_s = perf_counter() - self.mark
        self.times.append(self.scaled_s)
        if self.pending:
            self.problems.append(f"{len(self.pending)} single-graph calls were not made")
        self.keep = set()
        return out

    def round(self):
        source = (census.enumerate_connected(self.n) if self.mode == "connected"
                  else census.enumerate_chemical(self.n))
        summary, records = self._timed(lambda: census.run_census(source))
        self.outputs.append((summary.row(self.n), tuple(records), self.count))

    def check(self):
        import checks
        label = f"census {self.mode} n={self.n}"
        sample = self.kept
        for row, records, count in dict.fromkeys(self.outputs):
            self.problems += checks.census(label, self.expected, row, count, records, sample)
            sample = []
        return self._with_latency_checks()

    def _with_latency_checks(self):
        large_problems, _, calls, _ = self.large.check()
        attempted = self.expected[0] * self.rounds + calls
        return self.problems + large_problems, [], attempted, 0

    def metrics(self) -> dict:
        out = self.large.metrics()
        out["graphs_per_s"] = self.expected[0] * self.rounds / sum(self.times)
        return out

    def close(self):
        pass


class RecordsWorkload(CensusWorkload):
    """``run_census_persistent`` with every graph recorded, written to disk."""

    SHARDS = 4

    def __init__(self, seed, patches, interleave, tmp_root):
        super().__init__(seed, patches, interleave, "chemical", 10, (1733, 3, 1),
                         {"c40": 3, "p41": 2, "md2_64": 8, "reg24": 30})
        self.keep = set()
        self.tmp = tmp_root

    def round(self):
        outdir = self.tmp / f"round-{self.rounds}"
        summary = self._timed(lambda: census.run_census_persistent(
            self.mode, self.n, outdir, shards=self.SHARDS, jobs=1, record_all=True))
        csv_text = (outdir / f"census_n{self.n}.csv").read_text()
        sidecar = (outdir / f"positives_n{self.n}.g6").read_text()
        shutil.rmtree(outdir)
        self.outputs.append((summary.row(self.n), csv_text, sidecar, self.count))

    def check(self):
        import checks
        label = f"records chemical n={self.n}"
        for row, csv_text, sidecar, count in dict.fromkeys(self.outputs):
            self.problems += checks.records(label, self.expected, self.n, row, count,
                                            csv_text, sidecar)
        return self._with_latency_checks()

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


NAMES = ("census-connected-8", "census-chemical-12", "records-chemical-10",
         "large-graphs")


def make(name: str, seed: int, patches, tmp_root, interleave: bool):
    """Build a workload's inputs; ``interleave`` adds the single-graph calls
    and reference samples to the census workloads (untraced runs)."""
    if name == "census-connected-8":
        return CensusWorkload(seed, patches, interleave, "connected", 8, (11117, 33, 24),
                              {"c40": 1, "p41": 1, "md2_64": 5, "reg24": 20})
    if name == "census-chemical-12":
        return CensusWorkload(seed, patches, interleave, "chemical", 12, (19430, 4, 0),
                              {"c40": 3, "p41": 3, "md2_64": 15, "reg24": 60})
    if name == "records-chemical-10":
        return RecordsWorkload(seed, patches, interleave, tmp_root)
    if name == "large-graphs":
        return LargeGraphsWorkload(seed)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# tracing: the names through which condgraph calls each layer
# ---------------------------------------------------------------------------

def _route(args, cg, pre):
    rules = {v.rule for v in cg.verdicts.values()}
    if conduction.Rule.INVERSE_PATTERN in rules:
        return {"route": "inverse"}
    if conduction.Rule.NULLITY1_BLOCKS in rules:
        return {"route": "blocks"}
    return {"route": "rules"}


def _store_size(args):
    store = args[0]
    return sum(p.stat().st_size for p in
               (store.csv_path, store.sidecar_path, store.manifest_path) if p.exists())


def install_tracer(tracer):
    """Wrap condgraph's functions at the names through which it calls them."""
    from condgraph import classify, isomorphism, linalg
    wrap = tracer.wrap
    tracer.wrap_generator(census, "enumerate_connected", "census.enumerate")
    tracer.wrap_generator(census, "enumerate_chemical", "census.enumerate")
    wrap(census, "census_record", "census.record")
    wrap(census.CensusStore, "append_shard", "census.store", before=_store_size,
         describe=lambda args, _, pre: {"bytes": _store_size(args) - pre})
    for module in (census, isomorphism):
        wrap(module, "canonical_data", "isomorphism.canonical")
    for module in (census, classify):
        wrap(module, "conduction_isomorphism", "classify.cond_iso",
             describe=lambda args, witness, pre: {"hit": witness is not None})
    wrap(census, "classification_report", "classify.report")
    for module in (classify, conduction):
        wrap(module, "conduction_graph", "conduction.graph", describe=_route)
    wrap(classify, "inverse_conduction_pattern", "conduction.inverse_pattern",
         describe=lambda args, out, pre: {"loops": out[1]})
    wrap(linalg, "char_poly_and_adjugate", "linalg.char_poly_adjugate")
    for name in ("det", "rank", "kernel_basis"):
        wrap(linalg, name, f"linalg.{name}")
    wrap(census, "to_graph6", "graphs.graph6")
    wrap(transmission, "device_polynomials", "transmission.polys")
    wrap(transmission, "sweep", "transmission.sweep",
         describe=lambda args, curve, pre: {"samples": len(curve.samples)})
