"""Each benchmark check accepts a correct output and rejects a corrupted one.

    python3 -m pytest perfbench -q
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from condgraph import (census, conduction, families, graphs,  # noqa: E402
                       transmission)

import checks  # noqa: E402
import oracle  # noqa: E402


def _flip(g, u, v):
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return graphs.Graph(g.n, rows, g.loops)


def test_flipped_gc_edge_is_rejected():
    g = families.min_deg2_graph(2)
    a = graphs.adjacency_matrix(g)
    gc = conduction.conduction_graph(g).graph
    assert checks.nonsingular_gc("md2_8", a, gc) == []
    assert checks.conduction_isomorphic("md2_8", a, gc) == []
    assert checks.nonsingular_gc("md2_8", a, _flip(gc, 0, 1))

    c8 = conduction.conduction_graph(graphs.cycle_graph(8)).graph
    assert checks.singular_gc("c8", c8, oracle.cycle_symmetries(8)) == []
    assert checks.singular_gc("c8", _flip(c8, 0, 1), oracle.cycle_symmetries(8))


def test_bumped_census_count_is_rejected():
    # connected graphs on 6 vertices: 112 classes, 4 positives, 2 non-bipartite
    summary, records = census.run_census(census.enumerate_connected(6))
    sample = list(census.enumerate_connected(6))[::7]
    row = summary.row(6)
    assert checks.census("c6", (112, 4, 2), row, 112, records, sample) == []
    bumped = (row[0], row[1] + 1, row[2])
    assert checks.census("c6", (112, 4, 2), bumped, 112, records, sample)
    assert checks.census("c6", (112, 4, 2), row, 111, records, sample)
    assert checks.census("c6", (112, 4, 2), row, 112, records[1:], sample)


def test_dropped_csv_row_is_rejected(tmp_path):
    # chemical graphs on 8 vertices, every one recorded
    summary = census.run_census_persistent("chemical", 8, tmp_path, shards=2,
                                           record_all=True)
    csv_text = (tmp_path / "census_n8.csv").read_text()
    sidecar = (tmp_path / "positives_n8.g6").read_text()
    expected = summary.row(8)
    assert expected[0] == len(csv_text.splitlines()) - 1
    assert checks.records("r8", expected, 8, expected, expected[0], csv_text, sidecar) == []
    lines = csv_text.splitlines(keepends=True)
    dropped = "".join(lines[:5] + lines[6:])
    assert checks.records("r8", expected, 8, expected, expected[0], dropped, sidecar)
    flipped = csv_text.replace(",1,0,", ",1,1,", 1)
    assert checks.records("r8", expected, 8, expected, expected[0], flipped, sidecar)


def test_moved_T_sample_is_rejected():
    g = graphs.cycle_graph(6)
    dp = transmission.device_polynomials(g, 0, 3)
    curve = transmission.sweep(dp, 1.0, -3.0, 3.0, 61)
    grid = [-3.0 + 6.0 * i / 60 for i in range(61)]
    polys = oracle.cycle_device_polys(6, 0, 3)
    conducts = conduction.device_verdict(g, 0, 3).conducts
    assert checks.sweep("c6", polys, dp, curve, conducts, 1.0, grid) == []
    samples = list(curve.samples)
    e, t = samples[17]
    samples[17] = (e, t + 1e-3)
    moved = replace(curve, samples=tuple(samples))
    assert checks.sweep("c6", polys, dp, moved, conducts, 1.0, grid)


def test_cycle_polynomials_match_determinants():
    for n, left, right in ((6, 0, 3), (9, 2, 7), (12, 0, 1)):
        polys = oracle.cycle_device_polys(n, left, right)
        for energy in (-2, 0, 3):
            at = oracle.poly_check_points(n, left, right, energy)
            assert all(oracle.evaluate(polys[k], energy, 1) == at[k] for k in at)
        assert oracle.exact_T(polys, Fraction(1), 0.5) is not None
