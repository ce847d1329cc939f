"""Output checks: each returns a list of problems, empty when the output holds.

The expected values are the reference computations of ``oracle``; the
checks only read condgraph's outputs (graphs, records, CSV text, curves).
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

import networkx as nx

import oracle

CSV_HEADER = "n,graph6,nullity,cond_iso,bipartite,chemical,nut,ipso_omni_ins,class_code"
TOLERANCE = 1e-6
MAX_LISTED = 10


def _rows_graph(g) -> nx.Graph:
    return oracle.from_rows(g.n, g.rows, g.loops)


def census(label: str, expected, summary_row, boundary: int, records,
           sample) -> list[str]:
    """Census totals, its positives and a sample of the graphs it classified.

    ``expected`` is (graphs, positives, non-bipartite positives) from the
    paper's tables; ``boundary`` counts the graphs the census pulled from
    its source; ``records`` are the positives it returned; ``sample`` holds
    graphs picked from the source by seeded position.
    """
    problems = []
    if tuple(summary_row) != tuple(expected):
        problems.append(f"{label}: census row {tuple(summary_row)} != {tuple(expected)}")
    if boundary != expected[0]:
        problems.append(f"{label}: {boundary} graphs crossed the enumeration "
                        f"boundary, census total is {expected[0]}")
    keys = [r.graph6 for r in records]
    if len(records) != expected[1] or len(set(keys)) != len(keys):
        problems.append(f"{label}: {len(records)} positive records "
                        f"({len(set(keys))} distinct), expected {expected[1]}")
    positives = [oracle.from_graph6(k) for k in keys]
    nonbip = sum(not nx.is_bipartite(g) for g in positives)
    if nonbip != expected[2]:
        problems.append(f"{label}: {nonbip} non-bipartite positives, expected {expected[2]}")
    for rec, g in zip(records, positives):
        if not rec.cond_iso or not oracle.is_conduction_isomorphic(oracle.adjacency(g)):
            problems.append(f"{label}: positive {rec.graph6} is not isomorphic "
                            "to its booleanised exact inverse")
    for g in sample:
        h = _rows_graph(g)
        iso = oracle.is_conduction_isomorphic(oracle.adjacency(h))
        listed = any(nx.faster_could_be_isomorphic(h, p) and nx.vf2pp_is_isomorphic(h, p)
                     for p in positives)
        if iso != listed:
            state = "missing from" if iso else "wrongly among"
            problems.append(f"{label}: sampled graph {sorted(h.edges())} is "
                            f"{state} the positives")
    return problems[:MAX_LISTED]


def records(label: str, expected, order: int, summary_row, boundary: int,
            csv_text: str, sidecar_text: str) -> list[str]:
    """A persisted record_all census: every row against the oracle."""
    problems = []
    if tuple(summary_row) != tuple(expected):
        problems.append(f"{label}: census row {tuple(summary_row)} != {tuple(expected)}")
    if boundary != expected[0]:
        problems.append(f"{label}: {boundary} graphs crossed the enumeration "
                        f"boundary, census total is {expected[0]}")
    header, _, _ = csv_text.partition("\n")
    if header != CSV_HEADER:
        return problems + [f"{label}: CSV header {header!r}"]
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    keys = {row["graph6"] for row in rows}
    if len(rows) != expected[0] or len(keys) != expected[0]:
        problems.append(f"{label}: CSV has {len(rows)} rows and {len(keys)} "
                        f"distinct keys, expected {expected[0]}")
    positives = []
    nonbip = 0
    for row in rows:
        g = oracle.from_graph6(row["graph6"])
        a = oracle.adjacency(g)
        want = oracle.flags(a)
        want["n"] = order
        want["bipartite"] = nx.is_bipartite(g)
        want["chemical"] = nx.is_connected(g) and max(d for _, d in g.degree()) <= 3
        want["cond_iso"] = (want["nullity"] == 0 and want["ipso_omni_ins"]
                            and oracle.is_conduction_isomorphic(a))
        got = {"n": int(row["n"]), "nullity": int(row["nullity"])}
        for key in ("nut", "ipso_omni_ins", "bipartite", "chemical", "cond_iso"):
            got[key] = row[key] == "1"
        wrong = sorted(k for k in got if got[k] != want[k])
        if wrong:
            problems.append(f"{label}: row {row['graph6']} has wrong {', '.join(wrong)}")
        if got["cond_iso"]:
            positives.append(row["graph6"])
            nonbip += not got["bipartite"]
            if got["nullity"] != 0 or not got["ipso_omni_ins"]:
                problems.append(f"{label}: positive {row['graph6']} is singular "
                                "or has a conducting ipso device")
    if len(positives) != expected[1] or nonbip != expected[2]:
        problems.append(f"{label}: CSV has {len(positives)} positives "
                        f"({nonbip} non-bipartite), expected {expected[1:]}")
    sidecar = sorted(line for line in sidecar_text.splitlines() if line)
    if sidecar != sorted(positives):
        problems.append(f"{label}: sidecar lists {len(sidecar)} graphs, "
                        f"not exactly the {len(positives)} positives")
    return problems[:MAX_LISTED]


def nonsingular_gc(label: str, a, gc) -> list[str]:
    """G^C of a nonsingular graph equals its booleanised exact inverse."""
    want = oracle.conduction_pattern(a)
    if want is None:
        return [f"{label}: input graph is singular"]
    if not oracle.same_graph(_rows_graph(gc), want):
        return [f"{label}: G^C differs from the booleanised exact inverse"]
    return []


def conduction_isomorphic(label: str, a, gc) -> list[str]:
    g = oracle.pattern(a)
    if not nx.vf2pp_is_isomorphic(g, _rows_graph(gc)):
        return [f"{label}: graph is not isomorphic to its G^C"]
    return []


def singular_gc(label: str, gc, symmetries, connected: bool | None = None) -> list[str]:
    """G^C of a singular graph is fixed by the graph's symmetries."""
    h = _rows_graph(gc)
    problems = [f"{label}: G^C is not invariant under symmetry {i}"
                for i, perm in enumerate(symmetries) if not oracle.invariant_under(h, perm)]
    if connected is not None and nx.is_connected(h) != connected:
        problems.append(f"{label}: G^C should be {'' if connected else 'dis'}connected")
    return problems


def sweep(label: str, polys: dict, dp, curve, conducts: bool, beta_sq, grid) -> list[str]:
    """Every sample of a transmission sweep against exact T(E).

    ``polys`` are the oracle's device determinants, ``conducts`` whether the
    device's edge is in G^C, ``grid`` the energies the sweep must cover.
    """
    problems = []
    for key in "stuv":
        if list(getattr(dp, key).coeffs) != polys[key]:
            problems.append(f"{label}: polynomial {key} differs from det(EI - A)")
    energies = sorted([e for e, _ in curve.samples] + list(curve.excluded))
    if energies != sorted(grid):
        problems.append(f"{label}: sweep covers {len(energies)} energies, not the "
                        f"{len(grid)}-point grid")
    beta = Fraction(beta_sq)
    bad = []
    for e, t in curve.samples:
        exact = oracle.exact_T(polys, beta, e)
        if exact is None or abs(t - float(exact)) > TOLERANCE:
            bad.append((e, t, exact))
    if bad:
        e, t, exact = max(bad, key=lambda x: abs(x[1] - float(x[2] or 0)))
        problems.append(f"{label}: {len(bad)} of {len(curve.samples)} samples off "
                        f"exact T(E) by more than {TOLERANCE} (worst E={e!r}: "
                        f"{t!r} vs {None if exact is None else float(exact)!r})")
    wrongly_excluded = [e for e in curve.excluded
                        if oracle.exact_T(polys, beta, e) is not None]
    if wrongly_excluded:
        problems.append(f"{label}: {len(wrongly_excluded)} energies excluded "
                        "where the exact denominator is nonzero")
    fermi = [t for e, t in curve.samples if e == 0]
    exact0 = oracle.exact_T(polys, beta, 0.0)
    if not fermi or (fermi[0] != 0) != conducts or (exact0 != 0) != conducts:
        problems.append(f"{label}: T(0) disagrees with the G^C edge "
                        f"(conducts={conducts}, T(0)={fermi[:1]}, exact={exact0})")
    return problems
