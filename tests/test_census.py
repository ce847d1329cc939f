"""Enumeration, census pipeline, persistence, family coverage."""

import csv
import hashlib
import io
from collections import Counter

import pytest

from condgraph import census, graphs as graphs_module, linalg
from condgraph.census import (CensusStore, census_record, census_source,
                              enumerate_chemical, enumerate_connected,
                              ingest_graph6, run_census, run_census_persistent,
                              verify_family_coverage)
from condgraph.classify import classification_report
from condgraph.conduction import conduction_graph, graph_nullity
from condgraph.fixtures import fixture
from condgraph.graphs import Graph, from_graph6, to_graph6
from condgraph.isomorphism import canonical_data, canonical_form


CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CHEMICAL_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 10, 6: 29, 7: 64, 8: 194,
                   9: 531, 10: 1733}
CUBIC_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19}


def test_enumerate_connected_counts():
    for n, count in CONNECTED_COUNTS.items():
        graphs = list(enumerate_connected(n))
        assert len(graphs) == count
        if n <= 6:
            assert len({canonical_form(g) for g in graphs}) == count


def test_enumerate_chemical_counts():
    for n, count in CHEMICAL_COUNTS.items():
        graphs = list(enumerate_chemical(n))
        assert len(graphs) == count
        assert all(max(g.degree(v) for v in range(g.n)) <= 3 for g in graphs)


def test_enumerate_cubic_counts():
    for n, count in CUBIC_COUNTS.items():
        graphs = list(enumerate_chemical(n, regular=3))
        assert len(graphs) == count
        assert all(all(g.degree(v) == 3 for v in range(g.n)) for g in graphs)
    assert list(enumerate_chemical(5, regular=3)) == []


def _stream_digest(graphs):
    text = "".join(to_graph6(g) + "\n" for g in graphs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINNED = {("connected", 7): "ac8901b8b721dd20", ("chemical", 10): "ae23e0b99f1239de"}


def test_enumeration_streams_are_pinned():
    # the canonical construction path fixes both the representatives and
    # their order; these digests change if either does
    assert _stream_digest(enumerate_connected(7)) == PINNED["connected", 7]
    assert _stream_digest(enumerate_chemical(10)) == PINNED["chemical", 10]
    assert _stream_digest(enumerate_chemical(12, regular=3)) == "4f738f6e3215b235"


def test_canonical_csv_keys_are_pinned():
    # the census CSV keys a graph by the graph6 of its canonical relabelling;
    # a change to canonical labelling that moved them would mix old and new
    # keys in a resumed store
    for graphs, digest in ((enumerate_connected(7), "f2b600438ef2244a"),
                           (enumerate_chemical(10), "3a85e2c71f1cfa24")):
        keys = sorted(to_graph6(g.relabel(canonical_data(g).labeling)) + "\n"
                      for g in graphs)
        assert hashlib.sha256("".join(keys).encode()).hexdigest()[:16] == digest


def test_enumerate_range_errors():
    with pytest.raises(ValueError):
        list(enumerate_connected(11))
    with pytest.raises(ValueError):
        list(enumerate_connected(0))
    with pytest.raises(ValueError):
        list(enumerate_chemical(17))


def test_ingest_graph6(tmp_path):
    graphs = list(enumerate_connected(4))
    path = tmp_path / "four.g6"
    path.write_text("".join(to_graph6(g) + "\n" for g in graphs))
    assert len(list(ingest_graph6(path))) == 6

    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert list(ingest_graph6(empty)) == []

    corrupt = tmp_path / "corrupt.g6"
    lines = [to_graph6(g) for g in graphs]
    lines.insert(3, "###not graph6###")
    corrupt.write_text("\n".join(lines) + "\n")
    errors = []
    out = list(ingest_graph6(corrupt, on_error=lambda ln, msg: errors.append(ln)))
    assert len(out) == 6
    assert errors == [4]


def test_ingest_dedupe(tmp_path):
    p4 = to_graph6(from_graph6("Ch"))
    relabeled = to_graph6(from_graph6("Ch").relabel([3, 2, 1, 0]))
    path = tmp_path / "dup.g6"
    path.write_text(f"{p4}\n{relabeled}\n")
    assert len(list(ingest_graph6(path))) == 2
    assert len(list(ingest_graph6(path, dedupe=True))) == 1


def test_run_census_small_rows():
    summary, records = run_census(enumerate_connected(4))
    assert summary.row(4) == (6, 1, 0)
    assert len(records) == 1
    assert records[0].class_code == "XII0"
    assert records[0].cond_iso and records[0].bipartite and records[0].chemical

    summary, _ = run_census(enumerate_connected(5))
    assert summary.row(5) == (21, 0, 0)


def test_run_census_skips_bad_input():
    bad = Graph.from_edges(4, [(0, 1), (2, 3)])
    skipped = []
    summary, _ = run_census(iter([bad]), on_skip=lambda g, msg: skipped.append(msg))
    assert summary.counts == {}
    assert len(skipped) == 1


def test_census_record_csv_round_trip():
    rec = census_record(fixture("radialene3"))
    text = "n,graph6,nullity,cond_iso,bipartite,chemical,nut,ipso_omni_ins,class_code\n" \
        + rec.csv_row() + "\n"
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows[0]["n"] == "6"
    assert rows[0]["cond_iso"] == "1"
    assert rows[0]["bipartite"] == "0"
    assert rows[0]["class_code"] == rec.class_code
    # graph6 column is canonically labelled: decoding and re-canonicalising
    # is a fixed point
    g = from_graph6(rows[0]["graph6"])
    assert canonical_form(g) == canonical_form(fixture("radialene3"))


def test_record_all_flag():
    summary, records = run_census(enumerate_connected(4), record_all=True)
    assert len(records) == 6
    assert sum(r.cond_iso for r in records) == 1


def test_record_all_keeps_the_screen_verdicts(connected_upto_7):
    # with record_all the report decides every verdict; without it the
    # screen does, and only its positives are recorded
    classes = [connected_upto_7[n] for n in range(1, 8)]
    classes += [list(enumerate_chemical(n)) for n in range(1, 11)]
    for graphs in classes:
        every, records = run_census(graphs, record_all=True)
        screened, positives = run_census(graphs)
        assert every.counts == screened.counts
        assert len(records) == len(graphs)
        assert [r for r in records if r.cond_iso] == positives


def _count_eliminations(monkeypatch) -> dict:
    counts = {"_echelon": 0, "char_poly_and_adjugate": 0}
    for name in counts:
        def counted(a, _name=name, _real=getattr(linalg, name)):
            counts[_name] += 1
            return _real(a)
        monkeypatch.setattr(linalg, name, counted)
    return counts


def test_record_all_eliminates_as_conduction_graph_does(monkeypatch):
    # a recorded graph is classified once: no screen before its record.  One
    # echelon of [A | I] per graph, and one more per singular graph whose
    # bordered matrix is below the modular crossover (all of them at n = 10)
    graphs = list(enumerate_chemical(10))
    bordered = [g.n + graph_nullity(g) for g in graphs if graph_nullity(g)]
    assert len(bordered) == 816
    assert max(bordered) < linalg.MODULAR_MIN_ORDER
    counts = _count_eliminations(monkeypatch)
    for g in graphs:
        conduction_graph(g)
    alone = dict(counts)
    assert alone == {"_echelon": 1733 + 816, "char_poly_and_adjugate": 0}
    counts.update(dict.fromkeys(counts, 0))
    run_census(graphs, record_all=True)
    assert counts == alone


def test_production_never_runs_faddeev_leverrier(monkeypatch, connected_upto_7):
    # adjugates come from linalg.scaled_inverse alone; the characteristic
    # polynomial recurrence serves transmission and the tests
    classes = [connected_upto_7[n] for n in range(1, 8)]
    classes.append(list(enumerate_chemical(10)))
    counts = _count_eliminations(monkeypatch)
    for graphs in classes:
        for g in graphs:
            conduction_graph(g)
            classification_report(g)
        run_census(graphs)
        run_census(graphs, record_all=True)
    assert counts["_echelon"] > 0 and counts["char_poly_and_adjugate"] == 0


def test_census_source_checks_its_arguments(tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text("Ch\nDQw\n")
    assert [g.n for g in census_source("connected", None, src)] == [4, 5]
    assert len(list(census_source("chemical", 6, None))) == 29
    for args in (("connected", 4, src), ("connected", None, None),
                 ("cubic", 4, None), ("connected", 11, None)):
        with pytest.raises(ValueError):
            census_source(*args)
        with pytest.raises(ValueError):
            run_census_persistent(*args[:2], tmp_path / "store",
                                  source_path=args[2])
    for shards in (0, -2):
        with pytest.raises(ValueError, match="at least one shard"):
            run_census_persistent("connected", 5, tmp_path / "store",
                                  shards=shards)
    assert not (tmp_path / "store").exists()


def test_census_source_reports_disconnected_ingested_graphs(tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text("Ch\nC?\n\nC!x\nDQw\n")
    errors = []
    graphs = list(census_source("connected", None, src,
                                on_error=lambda *err: errors.append(err)))
    assert [to_graph6(g) for g in graphs] == ["Ch", "DQw"]
    assert [lineno for lineno, _ in errors] == [2, 4]
    assert errors[0][1] == "input graph is disconnected"
    # ingest_graph6 itself still yields every graph that parses
    assert len(list(ingest_graph6(src))) == 3


def test_census_source_refuses_non_chemical_ingested_graphs(tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text("Ds_\nCh\n")  # the star K1,4, then P4
    errors = []
    graphs = list(census_source("chemical", None, src,
                                on_error=lambda *err: errors.append(err)))
    assert [to_graph6(g) for g in graphs] == ["Ch"]
    assert errors == [(1, "input graph is not chemical")]
    assert len(list(census_source("connected", None, src))) == 2


def _mixed_file(path):
    """Every connected graph on 5 vertices (chemical or not), with blank,
    unparsable and disconnected lines between them."""
    lines = [to_graph6(g) for g in enumerate_connected(5)]
    for i, extra in enumerate(["", "C?", "###", "", "C!x", "C`"]):
        lines.insert(3 * i + 1, extra)
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("shards", [1, 2, 3, 4, 7])
def test_shards_partition_the_source(tmp_path, shards):
    src = _mixed_file(tmp_path / "mixed.g6")
    sources = [("connected", n, None) for n in range(1, 8)]
    sources += [("chemical", n, None) for n in range(1, 11)]
    sources += [("connected", None, src), ("chemical", None, src)]
    for mode, n, path in sources:
        whole_errors = []
        if path is None:
            whole = list(enumerate_connected(n) if mode == "connected"
                         else enumerate_chemical(n))
        else:
            whole = list(census_source(mode, n, path,
                                       lambda *err: whole_errors.append(err)))
        parts, errors = [], []
        for shard in range(shards):
            part_errors = []
            parts.append(list(census_source(
                mode, n, path, lambda *err: part_errors.append(err),
                shard, shards)))
            errors.append(part_errors)
            # line N belongs to shard (N - 1) mod shards
            assert all((lineno - 1) % shards == shard for lineno, _ in part_errors)
        union = [to_graph6(g) for part in parts for g in part]
        assert Counter(union) == Counter(map(to_graph6, whole))
        forms = [{canonical_form(g) for g in part} for part in parts]
        assert sum(map(len, forms)) == len(set().union(*forms)) == len(union)
        assert sorted(err for part in errors for err in part) == sorted(whole_errors)
        if shards == 1:
            assert list(map(to_graph6, parts[0])) == list(map(to_graph6, whole))
            if (mode, n) in PINNED:
                assert _stream_digest(parts[0]) == PINNED[mode, n]


def test_sharded_census_enumerates_about_once(tmp_path, monkeypatch):
    # the shards share the tree above order n - 1 and split what is below
    calls = [0]
    real = census._accepts

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(census, "_accepts", counted)
    list(enumerate_chemical(10))
    once, calls[0] = calls[0], 0
    summary = run_census_persistent("chemical", 10, tmp_path, shards=4)
    assert summary.row(10) == (1733, 3, 1)
    assert calls[0] <= 2 * once


def test_census_source_keeps_the_labellings_of_its_split_order(monkeypatch):
    # the nodes at order n - 1 carry the canonical data their acceptance
    # computed into their subtrees, as in one enumeration
    calls = [0]
    real = census.canonical_data

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(census, "canonical_data", counted)
    assert sum(1 for _ in enumerate_chemical(12)) == 19430
    once, calls[0] = calls[0], 0
    assert sum(1 for _ in census_source("chemical", 12, None)) == 19430
    assert calls[0] <= once


def test_sharded_ingest_parses_each_line_once(tmp_path, monkeypatch):
    src = _mixed_file(tmp_path / "mixed.g6")
    parsed = []
    real = graphs_module.from_graph6

    def counted(line):
        parsed.append(line)
        return real(line)

    monkeypatch.setattr(graphs_module, "from_graph6", counted)
    errors = []
    summary = run_census_persistent("connected", None, tmp_path / "store",
                                    shards=4, source_path=src,
                                    on_error=lambda *err: errors.append(err))
    nonblank = [line.encode() for line in src.read_text().split()]
    assert sorted(parsed) == sorted(nonblank)
    assert summary.row(5) == (21, 0, 0)
    assert sorted(lineno for lineno, _ in errors) == [5, 8, 14, 17]


def test_persistent_census_resume_verifies_checksums(tmp_path):
    outdir = tmp_path / "census"
    run_census_persistent("connected", 5, outdir, shards=3, record_all=True)
    store = CensusStore(outdir, 5)
    _, first, second, _ = store.manifest_path.read_text().splitlines()
    shard, count = second.split(",")[:2]
    # flip one byte in the first row of the second shard the manifest lists
    data = bytearray(store.csv_path.read_bytes())
    rows = data.split(b"\n")
    offset = sum(len(row) + 1 for row in rows[:1 + int(first.split(",")[1])])
    assert int(count) > 0
    data[offset + 3] ^= 1
    store.csv_path.write_bytes(bytes(data))
    with pytest.raises(ValueError) as info:
        run_census_persistent("connected", 5, outdir, shards=3, record_all=True)
    assert f"shard {shard} " in str(info.value)
    assert str(store.csv_path) in str(info.value)
    assert store.csv_path.read_bytes() == bytes(data)


def test_persistent_census_and_resume(tmp_path):
    outdir = tmp_path / "census"
    s1 = run_census_persistent("connected", 5, outdir, shards=3)
    assert s1.row(5) == (21, 0, 0)
    store = CensusStore(outdir, 5)
    assert store.completed_shards() == {0, 1, 2}
    csv_bytes = store.csv_path.read_bytes()
    manifest = store.manifest_path.read_bytes()
    # a re-run skips everything, leaves files untouched and reports the
    # totals stored in the manifest
    s2 = run_census_persistent("connected", 5, outdir, shards=3)
    assert s2.counts == {5: [21, 0, 0]}
    assert store.csv_path.read_bytes() == csv_bytes
    assert store.manifest_path.read_bytes() == manifest
    # the settings line, then rows shard,count,checksum,order,total,cond_iso,
    # nonbipartite
    settings, *lines = manifest.decode().splitlines()
    assert settings == "mode=connected,n=5,shards=3,split=tree,record_all=0"
    totals = 0
    for line in lines:
        shard, count, checksum, order, total, ci, nb = line.split(",")
        assert int(shard) in (0, 1, 2) and int(count) >= 0 and len(checksum) == 16
        assert int(order) == 5 and (int(ci), int(nb)) == (0, 0)
        totals += int(total)
    assert totals == 21


def test_persistent_census_partial_resume(tmp_path):
    outdir = tmp_path / "census"
    run_census_persistent("connected", 6, outdir, shards=4)
    store = CensusStore(outdir, 6)
    full = store.csv_path.read_text()
    # simulate an interrupted run: keep only the settings and the first
    # shard's output
    lines = store.manifest_path.read_text().splitlines()
    store.manifest_path.write_text("\n".join(lines[:2]) + "\n")
    first_count = int(lines[1].split(",")[1])
    kept = full.splitlines()[:1 + first_count]
    store.csv_path.write_text("\n".join(kept) + ("\n" if kept else ""))
    s = run_census_persistent("connected", 6, outdir, shards=4)
    assert store.csv_path.read_text() == full
    assert store.completed_shards() == {0, 1, 2, 3}
    # the completed shard's totals come from the manifest
    assert s.row(6) == (112, 4, 2)


def test_persistent_census_refuses_other_settings(tmp_path):
    outdir = tmp_path / "census"
    run_census_persistent("connected", 6, outdir, shards=2)
    store = CensusStore(outdir, 6)
    lines = store.manifest_path.read_text().splitlines()
    store.manifest_path.write_text("\n".join(lines[:-1]) + "\n")
    csv_text = store.csv_path.read_text()
    # another split would repeat some graphs and miss others
    with pytest.raises(ValueError) as info:
        run_census_persistent("connected", 6, outdir, shards=3)
    assert "shards=2" in str(info.value) and "shards=3" in str(info.value)
    with pytest.raises(ValueError, match="record_all=1"):
        run_census_persistent("connected", 6, outdir, shards=2, record_all=True)
    assert store.csv_path.read_text() == csv_text
    # the same settings resume, give the full totals and write the stopped
    # shard's rows once
    assert run_census_persistent("connected", 6, outdir, shards=2).row(6) == (112, 4, 2)
    assert store.csv_path.read_text() == csv_text
    assert len(store.sidecar_path.read_text().split()) == 4
    # a manifest without a settings line is refused as well
    store.manifest_path.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(ValueError, match="no settings"):
        run_census_persistent("connected", 6, outdir, shards=2)


def test_persistent_census_parallel(tmp_path):
    outdir = tmp_path / "par"
    s = run_census_persistent("chemical", 6, outdir, shards=4, jobs=2)
    assert s.row(6) == (29, 3, 1)


def test_sidecar_contains_positives(tmp_path):
    outdir = tmp_path / "census"
    run_census_persistent("connected", 6, outdir, shards=2)
    store = CensusStore(outdir, 6)
    sidecar = store.sidecar_path.read_text().split()
    assert len(sidecar) == 4
    forms = {canonical_form(from_graph6(s)) for s in sidecar}
    assert len(forms) == 4


def test_verify_family_coverage_chemical_upto_8():
    records = []
    for n in range(1, 9):
        _, recs = run_census(enumerate_chemical(n))
        records.extend(recs)
    report = verify_family_coverage(records, 8)
    residual_forms = {canonical_form(from_graph6(s)) for s in report.residuals}
    expected = {canonical_form(fixture("ladder_l3")), canonical_form(fixture("e8"))}
    assert residual_forms == expected
    assert set(report.matched.values()) >= {"comb", "radialene", "min_deg2",
                                            "appendix"}
