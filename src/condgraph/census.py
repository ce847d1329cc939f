"""Enumerate, classify and persist small connected graphs.

Generation is by vertex augmentation with canonical-deletion acceptance: a
child on m+1 vertices produced from a connected parent by attaching a new
vertex to a set of old ones is kept only when the new vertex sits in the same
automorphism orbit as the child's canonical deletion choice (a non-cut vertex
of maximal invariant, ties broken by canonical position).  Together with
trying one attachment set per parent-automorphism orbit this emits exactly one
representative per isomorphism class, connectivity built in.

Most candidates are rejected before any canonical labelling is computed: the
invariant comparison plus one or two cut-vertex probes settles them.  A probe
reads the parent's table of components left by deleting each vertex, which
:func:`graphs.reach` fills once per parent and vertex for all its children.

The census pipeline applies the cheap-first conduction-isomorphism chain to a
stream of graphs, accumulates per-order counts, and can persist records as an
append-only CSV with a graph6 sidecar and a completed-shard manifest so that
interrupted runs resume without recomputation.  Shards split an enumerated
class by the candidate children of order n - 1, not by the nodes of some
order (see :func:`census_source`): each candidate is accepted by one shard
only, and since the tree is lopsided (a few shallow nodes can hold most of
the class below them), only a split that fine keeps the shards even.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from pathlib import Path

from .classify import check_theorem, classification_report, conduction_isomorphisms
# the one-graph screen stays importable from here, where perfbench's tracer
# looks it up by name
from .classify import conduction_isomorphism  # noqa: F401
from .graphs import (Graph, bit_indices, from_graph6, is_chemical, is_connected,
                     reach, read_graph6_lines, to_graph6)
from .isomorphism import canonical_data, canonical_form, equitable_partition

MAX_BUILTIN_CONNECTED = 10
MAX_BUILTIN_CHEMICAL = 16


# ---------------------------------------------------------------------------
# generation engine
# ---------------------------------------------------------------------------

def _neighbor_degree_key(rows, degs, v):
    out = []
    m = rows[v]
    while m:
        u = (m & -m).bit_length() - 1
        out.append(degs[u])
        m &= m - 1
    out.sort()
    return tuple(out)


class _Parent:
    """A node of the generation tree, as its children's acceptance reads it.

    Both tables are filled on first use and shared by all the node's
    children: ``parts[v]`` holds the component masks of the node minus
    vertex v, found by :func:`reach`, and ``nbrs[v]`` the neighbours of v.
    """

    __slots__ = ("rows", "n", "parts", "nbrs")

    def __init__(self, rows, n):
        self.rows = rows
        self.n = n
        self.parts = {}
        self.nbrs = None

    def keeps_connected(self, mask, v):
        """Is the child that joins a new vertex to the vertices ``mask``
        still connected without the old vertex v?  It is when ``mask``
        meets every component of the node minus v; a new vertex joined to v
        alone is left isolated, unless it is all that is left."""
        if not mask & ~(1 << v):
            return self.n == 1
        parts = self.parts.get(v)
        if parts is None:
            parts = self.parts[v] = []
            alive = ((1 << self.n) - 1) & ~(1 << v)
            while alive:
                part = reach(self.rows, alive & -alive, alive)
                parts.append(part)
                alive &= ~part
        for part in parts:
            if not part & mask:
                return False
        return True

    def child_neighbours(self, mask):
        """Neighbour lists of the child that joins a new vertex to the
        vertices ``mask``."""
        if self.nbrs is None:
            self.nbrs = list(map(bit_indices, self.rows))
        n = self.n
        out = [nb + [n] if mask >> v & 1 else nb
               for v, nb in enumerate(self.nbrs)]
        out.append(bit_indices(mask))
        return out


def _subset_orbit_reps(masks, generators, n):
    """One representative per orbit of the attachment sets under Aut(parent)."""
    if not generators:
        return masks
    reps = []
    seen = set()
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        stack = [mask]
        seen.add(mask)
        while stack:
            cur = stack.pop()
            for g in generators:
                img = 0
                m = cur
                while m:
                    v = (m & -m).bit_length() - 1
                    img |= 1 << g[v]
                    m &= m - 1
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return reps


def _accepts(parent, rows, mask):
    """Canonical-deletion acceptance of the child ``rows`` of ``parent``,
    whose new vertex w (= parent.n) is joined to the vertices ``mask``.

    The canonical deletion choice is the non-cut vertex maximising
    (degree, sorted neighbour degrees), ties broken by canonical position.
    Checks run lazily from cheapest to dearest: degree comparison, one
    cut-vertex probe per potentially outranking vertex, neighbour keys only
    inside the tied degree class, then the equitable partition, and a full
    canonical labelling only when a tie shares w's cell.  A probe reads the
    parent's component table (see :class:`_Parent`), and the partition
    refines the parent's neighbour lists extended by w.  Canonical positions
    follow the partition's cell order and automorphisms keep its cells, so a
    tie in a later cell than w's outranks w's whole orbit, and ties only in
    earlier cells leave w the choice.  Returns (accepted, canonical data or
    None, equitable partition or None): the data where acceptance labelled
    the child, else the partition where it built one.  Either spares the
    accepted child's own labelling work.
    """
    w = parent.n
    degs = [r.bit_count() for r in rows]
    w_deg = degs[w]
    same = []
    for v in range(w):
        if degs[v] > w_deg:
            if parent.keeps_connected(mask, v):
                return False, None, None
        elif degs[v] == w_deg:
            same.append(v)
    if not same:
        return True, None, None
    w_key = _neighbor_degree_key(rows, degs, w)
    ties = []
    for v in same:
        key = _neighbor_degree_key(rows, degs, v)
        if key > w_key:
            if parent.keeps_connected(mask, v):
                return False, None, None
        elif key == w_key and parent.keeps_connected(mask, v):
            ties.append(v)
    if not ties:
        return True, None, None
    cells = equitable_partition(parent.child_neighbours(mask))
    cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
    if max(cell_of[v] for v in ties) > cell_of[w]:
        return False, None, None
    ties = [v for v in ties if cell_of[v] == cell_of[w]]
    if not ties:
        return True, None, cells
    data = canonical_data(Graph(w + 1, rows), cells)
    ties.append(w)
    delta = max(ties, key=lambda v: data.labeling[v])
    return data.orbits[w] == data.orbits[delta], data, None


def _grow(rows, n, n_target, data, cells, degree_cap, regular):
    """Depth-first canonical-path generation; yields (graph, canonical data
    or None, equitable partition or None) at n_target, as :func:`_accepts`
    returned them for the graph.

    The node's candidate children come from :func:`_candidates`, and each
    one that :func:`_accepts` keeps is grown from the data or cells that
    acceptance returned.
    """
    if n == n_target:
        if regular is None or all(r.bit_count() == regular for r in rows):
            yield Graph(n, rows), data, cells
        return
    for parent, child, mask in _candidates(rows, n, n_target, data, cells,
                                           degree_cap, regular):
        ok, child_data, child_cells = _accepts(parent, child, mask)
        if ok:
            yield from _grow(child, n + 1, n_target, child_data, child_cells,
                             degree_cap, regular)


def _candidates(rows, n, n_target, data, cells, degree_cap, regular):
    """The candidate children of a node on ``n`` vertices, before
    acceptance: one (parent, child rows, attachment mask) per orbit of the
    attachment sets under the node's automorphisms.

    The attachment sets are the nonempty sets of at most ``degree_cap``
    vertices of degree below ``degree_cap`` (any sets without a cap), tried
    in increasing mask order; with ``regular``, a child that cannot reach
    that degree everywhere by order n_target is left out.  The node's
    labelling starts from ``cells`` when acceptance left them, and all its
    candidates share one :class:`_Parent` of the node, so its cut-vertex
    table and neighbour lists are built once for all of them.
    """
    if degree_cap is None:
        bits = [1 << v for v in range(n)]
    else:
        bits = [1 << v for v in range(n) if rows[v].bit_count() < degree_cap]
    masks = sorted(map(sum, chain.from_iterable(
        combinations(bits, size) for size in range(1, (degree_cap or n) + 1))))
    if data is None:
        data = canonical_data(Graph(n, rows), cells)
    parent = _Parent(rows, n)
    for mask in _subset_orbit_reps(masks, data.generators, n):
        child = [r for r in rows]
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            child[v] |= 1 << n
            m &= m - 1
        child.append(mask)
        if regular is not None:
            deficit = sum(max(0, regular - r.bit_count()) for r in child)
            if deficit > regular * (n_target - n - 1):
                continue
        yield parent, child, mask


def enumerate_connected(n: int):
    """All connected simple graphs on n vertices, one per isomorphism class.

    Built-in generation supports 1 <= n <= 10; feed larger orders through
    :func:`ingest_graph6`.
    """
    _check_order(n, MAX_BUILTIN_CONNECTED)
    for g, _, _ in _grow([0], 1, n, None, None, None, None):
        yield g


def enumerate_chemical(n: int, regular: int | None = None):
    """All chemical graphs (connected, max degree <= 3) on n vertices.

    ``regular=3`` restricts the output to cubic graphs, with degree-deficit
    pruning making the restricted run far cheaper than the full sweep.
    Built-in generation supports 1 <= n <= 16.
    """
    _check_order(n, MAX_BUILTIN_CHEMICAL)
    if regular is not None and regular != 3:
        raise ValueError("only regular=3 is supported")
    if regular == 3 and (n < 4 or n % 2):
        return
    for g, _, _ in _grow([0], 1, n, None, None, 3, regular):
        yield g


def _check_order(n: int, top: int):
    if not 1 <= n <= top:
        raise ValueError(f"built-in generation supports 1..{top}, got {n}")


def ingest_graph6(path, on_error=None, dedupe: bool = False):
    """Stream graphs from a file of graph6 lines.

    Parse failures do not stop the stream: each is reported to ``on_error``
    (line number, message) and skipped.  ``dedupe`` drops isomorphic repeats
    via canonical forms.
    """
    seen = set() if dedupe else None
    with open(path, "rb") as fh:
        for _, g in read_graph6_lines(fh, on_error):
            if seen is not None:
                form = canonical_form(g)
                if form in seen:
                    continue
                seen.add(form)
            yield g


def census_source(mode: str, n: int | None, source_path, on_error=None,
                  shard: int = 0, shards: int = 1):
    """Every connected or chemical graph (``mode``) on ``n`` vertices, or
    those graphs of the graph6 file ``source_path``; with ``shards`` > 1,
    only the slice of them that belongs to shard ``shard``.

    A class is split by candidate: every shard grows the generation tree to
    order n - 2 (the root, for n = 2), numbers the candidate children of
    those nodes from 0 in generation order (see :func:`_candidates`;
    counted before acceptance), and accepts only the candidates i with
    i mod ``shards`` = ``shard``, each grown with its subtree to order n.
    So the shards together accept each candidate once, and only the far
    smaller order n - 2 level is grown by every shard.  The one graph on one
    vertex belongs to shard 0.  Line N of a file belongs to shard
    (N - 1) mod ``shards``; other shards' lines are not parsed.  A file's
    unparsable lines, disconnected graphs and, in chemical mode, graphs of
    a degree above 3 are reported to ``on_error`` (line number, message) by
    the shard that owns the line, and skipped.  With one shard the stream
    is the whole source in its own order.  A bad mode, order or shard
    count, an order together with a file (whose graphs have orders of their
    own) or neither raise ValueError before any graph is produced.
    """
    if mode not in ("connected", "chemical"):
        raise ValueError("mode must be 'connected' or 'chemical'")
    if shards < 1:
        raise ValueError(f"census needs at least one shard, got {shards}")
    chemical = mode == "chemical"
    if source_path is not None:
        if n is not None:
            raise ValueError("census takes --n or --ingest, not both")
        return _ingest_slice(source_path, chemical, on_error, shard, shards)
    if n is None:
        raise ValueError("census needs --n or --ingest")
    _check_order(n, MAX_BUILTIN_CHEMICAL if chemical else MAX_BUILTIN_CONNECTED)
    if n == 1:  # the root alone: no candidates to share out
        return iter([Graph(1, [0])] if shard == 0 else [])
    return _candidate_slice(n, 3 if chemical else None, shard, shards)


def _candidate_slice(n, degree_cap, shard, shards):
    """The graphs on ``n`` >= 2 vertices below the candidates of order
    n - 1 (order 2, for n = 2) that belong to shard ``shard``; see
    :func:`census_source`."""
    nodes = _grow([0], 1, max(n - 2, 1), None, None, degree_cap, None)
    candidates = (candidate for node, data, cells in nodes
                  for candidate in _candidates(node.rows, node.n, n, data,
                                               cells, degree_cap, None))
    for parent, child, mask in islice(candidates, shard, None, shards):
        ok, data, cells = _accepts(parent, child, mask)
        if ok:
            for g, _, _ in _grow(child, parent.n + 1, n, data, cells,
                                 degree_cap, None):
                yield g


def _ingest_slice(path, chemical, on_error, shard, shards):
    with open(path, "rb") as fh:
        # other shards' lines read as blank: never parsed, numbering kept
        mine = (line if i % shards == shard else b""
                for i, line in enumerate(fh))
        yield from connected_graph6(mine, on_error, chemical)


def connected_graph6(lines, on_error, chemical: bool = False):
    """The connected graphs of graph6 ``lines``, only those of maximum
    degree at most 3 when ``chemical``; unparsable lines and the other
    graphs are reported to ``on_error`` (line number, message), when given,
    and skipped."""
    for lineno, g in read_graph6_lines(lines, on_error):
        if not is_connected(g):
            problem = "input graph is disconnected"
        elif chemical and not is_chemical(g):
            problem = "input graph is not chemical"
        else:
            yield g
            continue
        if on_error is not None:
            on_error(lineno, problem)


# ---------------------------------------------------------------------------
# records and summaries
# ---------------------------------------------------------------------------

CSV_HEADER = "n,graph6,nullity,cond_iso,bipartite,chemical,nut,ipso_omni_ins,class_code"


@dataclass(frozen=True)
class CensusRecord:
    n: int
    graph6: str
    nullity: int
    cond_iso: bool
    bipartite: bool
    chemical: bool
    nut: bool
    ipso_omni_ins: bool
    class_code: str

    def csv_row(self) -> str:
        flags = [self.cond_iso, self.bipartite, self.chemical, self.nut,
                 self.ipso_omni_ins]
        return ",".join([str(self.n), self.graph6, str(self.nullity)]
                        + [str(int(f)) for f in flags] + [self.class_code])


@dataclass
class CensusSummary:
    counts: dict = field(default_factory=dict)  # n -> [total, ci, ci_nonbip]

    def add(self, n: int, cond_iso: bool, non_bipartite: bool):
        row = self.counts.setdefault(n, [0, 0, 0])
        row[0] += 1
        if cond_iso:
            row[1] += 1
            if non_bipartite:
                row[2] += 1

    def merge(self, other: "CensusSummary"):
        for n, row in other.counts.items():
            mine = self.counts.setdefault(n, [0, 0, 0])
            for i in range(3):
                mine[i] += row[i]

    def row(self, n: int) -> tuple[int, int, int]:
        return tuple(self.counts.get(n, [0, 0, 0]))


def census_record(g: Graph) -> CensusRecord:
    """Full classification record with a canonically labelled graph6 key."""
    data = canonical_data(g)
    report = classification_report(g)
    return CensusRecord(
        n=g.n,
        graph6=to_graph6(g.relabel(data.labeling)),
        nullity=report.nullity,
        cond_iso=report.is_conduction_isomorphic,
        bipartite=report.code.bipartite_interpretation,
        chemical=is_chemical(g),
        nut=report.is_nut,
        ipso_omni_ins=report.is_ipso_omni_insulator,
        class_code=report.code.three_letter,
    )


# graphs that run_census pulls from its source and screens together: larger
# chunks spread numpy's per-call cost in modular_adjugates thinner, but the
# screen's time levels off from about 128 graphs (measured on connected n = 8
# and chemical n = 12)
SCREEN_CHUNK = 128


def run_census(source, record_all: bool = False, on_skip=None):
    """Classify a stream of graphs.

    Returns (summary, records); records cover the conduction-isomorphic
    positives, or every graph when ``record_all`` is set, sorted by order and
    canonical graph6.  A recorded graph's verdict, in the summary and in its
    record, is the one :func:`classification_report` decides; without
    ``record_all`` the cheaper :func:`conduction_isomorphisms` screen runs
    first, on chunks of :data:`SCREEN_CHUNK` graphs, and only its positives
    are recorded.  Disconnected or looped input is skipped with a diagnostic
    through ``on_skip``.
    """
    summary = CensusSummary()
    records = []
    source = iter(source)
    while chunk := list(islice(source, SCREEN_CHUNK)):
        graphs = []
        for g in chunk:
            if g.is_simple() and is_connected(g):
                graphs.append(g)
            elif on_skip is not None:
                on_skip(g, "input graph must be connected and simple")
        screened = [True] * len(graphs) if record_all else \
            [w is not None for w in conduction_isomorphisms(graphs)]
        for g, positive in zip(graphs, screened):
            if not positive:
                summary.add(g.n, False, False)
                continue
            rec = census_record(g)
            if not record_all:
                check_theorem(rec.cond_iso,
                              f"screen positive {rec.graph6} fails its record")
            summary.add(g.n, rec.cond_iso, rec.cond_iso and not rec.bipartite)
            records.append(rec)
    records.sort(key=lambda r: (r.n, r.graph6))
    return summary, records


# ---------------------------------------------------------------------------
# persistence: append-only CSV + graph6 sidecar + shard manifest
# ---------------------------------------------------------------------------

def _shard_job(args):
    mode, n, shard, shards, record_all, source_path = args
    errors = []
    summary, records = run_census(
        census_source(mode, n, source_path, lambda *err: errors.append(err),
                      shard, shards),
        record_all=record_all)
    return shard, summary, records, errors


class CensusStore:
    """Per-order census files in a directory.

    ``census_n<k>.csv`` accumulates records (header once), ``positives_n<k>.g6``
    the conduction-isomorphic graphs, and ``manifest_n<k>.txt`` the run's
    settings, ``mode=<mode>,n=<order>,shards=<count>,split=<split>,``
    ``record_all=<0|1>``, then one line per completed shard:
    ``shard_id,count,checksum`` followed by the shard's summary rows, four
    fields ``order,total,cond_iso,cond_iso_nonbipartite`` per order.
    ``split`` names how :func:`census_source` slices the source into
    shards: ``candidates`` for an enumerated class (every S-th candidate
    child of order n - 1), ``lines`` for an ingested file (every S-th
    line).  A store of an older split, such as ``tree`` (every S-th node of
    order n - 1), is refused: its shards hold other graphs.  Without an
    order (an ingested file of any orders) the files are
    ``census_ingest.csv``, ``positives_ingest.g6`` and
    ``manifest_ingest.txt``, and the settings say ``n=ingest``.  Re-running
    with the same settings skips completed shards and takes their totals
    from the manifest; every shard's bytes are reproducible.  The sidecar
    is rebuilt on every start from the checksum-verified CSV rows.
    """

    def __init__(self, outdir, n: int | None):
        self.dir = Path(outdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.n = n
        tag = "ingest" if n is None else f"n{n}"
        self.csv_path = self.dir / f"census_{tag}.csv"
        self.sidecar_path = self.dir / f"positives_{tag}.g6"
        self.manifest_path = self.dir / f"manifest_{tag}.txt"

    def begin(self, settings: str) -> dict[int, CensusSummary]:
        """Start the manifest with ``settings``, or refuse a manifest that
        was written with other settings (or before settings were stored):
        shards of another split would repeat or miss graphs.

        Returns :meth:`completed_summaries`.  Each completed shard's CSV rows
        must match the checksum its manifest line stores, else ValueError
        names the shard and the file.  Rows that a stopped run appended after
        its last manifest line are cut from the CSV, because the rerun writes
        them again, and the sidecar is rewritten as the graph6 of the
        verified rows with ``cond_iso`` 1, in their order.
        """
        lines = self.manifest_path.read_text().splitlines() \
            if self.manifest_path.exists() else []
        if not lines:
            self.manifest_path.write_text(settings + "\n")
        elif lines[0] != settings:
            stored = lines[0] if lines[0].startswith("mode=") else "no settings"
            raise ValueError(f"census store {self.manifest_path} holds {stored}; "
                             f"this run asks for {settings}")
        rows, positives = self._check_rows(line for line in lines[1:] if line.strip())
        _keep_lines(self.csv_path, 1 + rows)
        self.sidecar_path.write_bytes(b"".join(g6 + b"\n" for g6 in positives))
        return self.completed_summaries()

    def _check_rows(self, shard_lines) -> tuple[int, list[bytes]]:
        """Hash each completed shard's segment of the CSV against the
        checksum of its manifest line; returns the number of rows they hold
        and the graph6 of those whose ``cond_iso`` is 1."""
        rows, positives = 0, []
        with (open(self.csv_path, "rb") if self.csv_path.exists()
              else io.BytesIO()) as fh:
            fh.readline()  # header
            for line in shard_lines:
                shard, count, checksum = line.split(",")[:3]
                segment = [fh.readline() for _ in range(int(count))]
                if hashlib.sha256(b"".join(segment)).hexdigest()[:16] != checksum:
                    raise ValueError(f"census store {self.csv_path}: the rows of "
                                     f"shard {shard} do not match their checksum "
                                     f"in {self.manifest_path}")
                rows += len(segment)
                for row in segment:
                    _, g6, _, cond_iso = row.split(b",", 4)[:4]
                    if cond_iso == b"1":
                        positives.append(g6)
        return rows, positives

    def completed_summaries(self) -> dict[int, CensusSummary]:
        """Each completed shard's id mapped to the summary it stored."""
        if not self.manifest_path.exists():
            return {}
        done = {}
        for line in self.manifest_path.read_text().splitlines()[1:]:
            if not line.strip():
                continue
            fields = line.split(",")
            summary = CensusSummary()
            rows = [int(x) for x in fields[3:]]
            for i in range(0, len(rows) - 3, 4):
                summary.counts[rows[i]] = rows[i + 1:i + 4]
            done[int(fields[0])] = summary
        return done

    def completed_shards(self) -> set[int]:
        return set(self.completed_summaries())

    def append_shard(self, shard: int, records, summary: CensusSummary):
        csv_text = "".join(rec.csv_row() + "\n" for rec in records)
        if not self.csv_path.exists():
            self.csv_path.write_text(CSV_HEADER + "\n")
        with open(self.csv_path, "a") as fh:
            fh.write(csv_text)
        with open(self.sidecar_path, "a") as fh:
            for rec in records:
                if rec.cond_iso:
                    fh.write(rec.graph6 + "\n")
        checksum = hashlib.sha256(csv_text.encode()).hexdigest()[:16]
        fields = [shard, len(records), checksum]
        for n in sorted(summary.counts):
            fields += [n, *summary.row(n)]
        with open(self.manifest_path, "a") as fh:
            fh.write(",".join(map(str, fields)) + "\n")


def _keep_lines(path: Path, count: int):
    """Cut a text file after its first ``count`` lines."""
    if not path.exists():
        return
    with open(path, "rb+") as fh:
        for _ in range(count):
            if not fh.readline():
                return
        fh.truncate()


def run_census_persistent(mode: str, n: int | None, outdir, shards: int = 4,
                          jobs: int = 1, record_all: bool = False,
                          source_path=None, on_error=None) -> CensusSummary:
    """Sharded, resumable census for one order; returns the merged summary.

    Shard s classifies the slice ``census_source(..., s, shards)`` of the
    source (``n`` or ``source_path``), so the shards together enumerate the
    class, or parse the file, about once.  Shards are processed in
    increasing id order (in parallel when jobs > 1) so completed output
    files are byte-stable across reruns.  Shards that an earlier run
    completed contribute the totals stored in the manifest.  Each shard run
    reports its own lines' problems to ``on_error`` (line number, message).
    At most ``jobs`` worker processes run, and no more than there are
    shards left to run.  Bad arguments (see :func:`census_source`, and
    ``jobs`` < 1; checked before the store is touched), a store made with
    another mode, order, shard count, split or ``record_all``, or a
    completed shard whose CSV rows fail their checksum raise ValueError.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    census_source(mode, n, source_path, shards=shards)  # checks the arguments only
    store = CensusStore(outdir, n)
    split = "lines" if n is None else "candidates"
    done = store.begin(f"mode={mode},n={'ingest' if n is None else n},"
                       f"shards={shards},split={split},"
                       f"record_all={int(record_all)}")
    summary = CensusSummary()
    for part in done.values():
        summary.merge(part)
    args = [(mode, n, s, shards, record_all, source_path)
            for s in range(shards) if s not in done]

    def finish(shard, part, records, errors):
        if on_error is not None:
            for lineno, msg in errors:
                on_error(lineno, msg)
        summary.merge(part)
        store.append_shard(shard, records, part)

    if jobs > 1 and len(args) > 1:
        import multiprocessing
        with multiprocessing.Pool(min(jobs, len(args))) as pool:
            for result in pool.imap(_shard_job, args):
                finish(*result)
    else:
        for job in args:
            finish(*_shard_job(job))
    return summary


# ---------------------------------------------------------------------------
# family coverage of chemical positives
# ---------------------------------------------------------------------------

@dataclass
class CoverageReport:
    matched: dict          # graph6 -> family name in families.FAMILIES
    residuals: list        # graph6 strings not matched by any family


def _family_members(n: int, cdc_bases) -> dict:
    """Canonical forms of every chemical family member on n vertices, tagged
    with the family's name in :data:`families.FAMILIES`."""
    from . import families
    members = {}
    for name, family in families.FAMILIES.items():
        if family.order is None:
            continue
        for k in range(1, n + 1):
            if family.order(k) != n:
                continue
            try:
                g = family.build(k, None)
            except ValueError:  # k below the family's least size
                continue
            if is_chemical(g):
                members.setdefault(canonical_form(g), name)
    for base in cdc_bases:
        if 2 * base.n == n:
            members.setdefault(canonical_form(families.canonical_double_cover(base)),
                               "cdc")
    return members


def verify_family_coverage(records, n_max: int) -> CoverageReport:
    """Match chemical census positives against the constructive families.

    ``records`` are census records; conduction-isomorphic chemical entries up
    to ``n_max`` are compared by canonical form against generated family
    members of the same order (canonical double covers are built over the
    non-bipartite positives of half the order).
    """
    positives = [r for r in records
                 if r.cond_iso and r.chemical and r.n <= n_max]
    by_n = {}
    for rec in positives:
        by_n.setdefault(rec.n, []).append(rec)
    matched = {}
    residuals = []
    nonbip_graphs = {}  # order -> list of Graph
    for n in sorted(by_n):
        cdc_bases = []
        for m, graphs in nonbip_graphs.items():
            if 2 * m == n:
                cdc_bases = graphs
        members = _family_members(n, cdc_bases)
        for rec in by_n[n]:
            g = from_graph6(rec.graph6)
            if not rec.bipartite:
                nonbip_graphs.setdefault(n, []).append(g)
            tag = members.get(canonical_form(g))
            if tag is None:
                residuals.append(rec.graph6)
            else:
                matched[rec.graph6] = tag
    return CoverageReport(matched=matched, residuals=residuals)
