"""CLI surface: subcommands, formats and exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import condgraph
from condgraph import isomorphism
from condgraph.cli import main
from condgraph.fixtures import fixture
from condgraph.graphs import to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixture_subcommand(capsys):
    code, out, _ = run(capsys, "fixture", "p4")
    assert code == 0 and out.strip() == "Ch"
    code, out, _ = run(capsys, "fixture", "--list")
    assert code == 0 and "ipso15" in out.split()
    code, _, err = run(capsys, "fixture", "nosuch")
    assert code == 2 and "unknown fixture" in err


def test_conduct_subcommand(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Ch\n")
    code, out, _ = run(capsys, "conduct", "--in", str(path))
    assert code == 0
    assert "loops=none" in out and "components=1" in out

    path.write_text("Cl\n")  # C4
    code, out, _ = run(capsys, "conduct", "--in", str(path), "--show-verdicts")
    assert code == 0
    assert "loops=0,1,2,3" in out and "components=2" in out
    assert "(0,0) ipso: conducts" in out

    path.write_text("C`\n")  # 2K2, disconnected
    code, _, err = run(capsys, "conduct", "--in", str(path))
    assert code == 2 and "disconnected" in err

    path.write_text("Ch\n###\n")
    code, out, err = run(capsys, "conduct", "--in", str(path))
    assert code == 2 and "loops=none" in out and "line 2" in err


def test_classify_subcommand(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Ch\nCl\n")
    code, out, _ = run(capsys, "classify", "--in", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert "cond_iso=True" in lines[0]
    assert "nullity=2" in lines[1]
    code, out, _ = run(capsys, "classify", "--in", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("n,graph6,")
    assert len(out.strip().splitlines()) == 3


def test_census_subcommand(capsys):
    code, out, _ = run(capsys, "census", "--mode", "connected", "--n", "5")
    assert code == 0 and out.strip() == "5,21,0,0"
    code, out, _ = run(capsys, "census", "--mode", "chemical", "--n", "6")
    assert code == 0 and out.strip() == "6,29,3,1"
    code, _, err = run(capsys, "census", "--mode", "connected")
    assert code == 2
    # an order beyond the built-in enumerators is an input error too
    code, out, err = run(capsys, "census", "--n", "11")
    assert code == 2 and out == "" and "1..10" in err


def test_census_under_optimisation():
    # the batched screen decides without asserts: python -O prints the same
    # census row
    src = str(Path(condgraph.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "condgraph.cli", "census",
                           "--mode", "connected", "--n", "6"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "6,112,4,2\n"


def test_census_ingest_and_persistent(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text("Ch\nCl\nbroken)(\n")
    code, out, err = run(capsys, "census", "--ingest", str(src))
    assert code == 0
    assert out.strip().splitlines()[0] == "4,2,1,0"
    assert "line 3" in err

    outdir = tmp_path / "store"
    code, out, _ = run(capsys, "census", "--mode", "connected", "--n", "5",
                       "--out", str(outdir), "--shards", "2")
    assert code == 0 and out.strip() == "5,21,0,0"
    assert (outdir / "census_n5.csv").exists()
    assert (outdir / "manifest_n5.txt").exists()
    # a finished rerun prints the stored totals again
    code, out, _ = run(capsys, "census", "--mode", "connected", "--n", "5",
                       "--out", str(outdir), "--shards", "2")
    assert code == 0 and out.strip() == "5,21,0,0"


def test_census_resume_with_other_shards_is_refused(capsys, tmp_path):
    outdir = tmp_path / "store"
    argv = ["census", "--mode", "connected", "--n", "6", "--out", str(outdir)]
    code, out, _ = run(capsys, *argv, "--shards", "2")
    assert code == 0 and out.strip() == "6,112,4,2"
    manifest = outdir / "manifest_n6.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines[:-1]) + "\n")
    code, out, err = run(capsys, *argv, "--shards", "3")
    assert code == 2 and out == ""
    assert "shards=2" in err and "shards=3" in err
    code, out, _ = run(capsys, *argv, "--shards", "2")
    assert code == 0 and out.strip() == "6,112,4,2"
    rows = (outdir / "census_n6.csv").read_text().splitlines()[1:]
    assert len(rows) == len(set(rows)) == 4


def test_census_persistent_ingest(capsys, tmp_path):
    # an ingested file without --n: named files, each bad line reported once
    src = tmp_path / "graphs.g6"
    src.write_text("Ch\nC!x\nDQw\n")
    outdir = tmp_path / "store"
    code, out, err = run(capsys, "census", "--ingest", str(src), "--out",
                         str(outdir), "--shards", "3")
    assert code == 0 and out.split() == ["4,1,1,0", "5,1,0,0"]
    assert err.count("line 2: ") == 1 and err.count("line ") == 1
    assert sorted(p.name for p in outdir.iterdir()) == [
        "census_ingest.csv", "manifest_ingest.txt", "positives_ingest.g6"]
    assert len((outdir / "positives_ingest.g6").read_text().splitlines()) == 1


def test_census_reports_a_disconnected_ingested_graph_once(capsys, tmp_path):
    # line 2 is four isolated vertices; both paths name it once and go on
    src = tmp_path / "graphs.g6"
    src.write_text("Ch\nC?\nDQw\n")
    code, plain, err = run(capsys, "census", "--ingest", str(src))
    assert code == 0 and plain.split() == ["4,1,1,0", "5,1,0,0"]
    assert err == "line 2: input graph is disconnected\n"
    code, stored, err = run(capsys, "census", "--ingest", str(src), "--out",
                            str(tmp_path / "store"), "--shards", "2")
    assert code == 0 and stored == plain
    assert err == "line 2: input graph is disconnected\n"


def test_census_refuses_non_chemical_ingested_graphs(capsys, tmp_path):
    src = tmp_path / "graphs.g6"
    src.write_text("Ds_\nCh\n")  # the star K1,4, then P4
    argv = ["census", "--mode", "chemical", "--ingest", str(src), "--all"]
    code, plain, err = run(capsys, *argv, "--verbose")
    assert code == 0 and plain.splitlines()[0] == "4,1,1,0"
    assert len(plain.splitlines()) == 2
    assert err == "line 1: input graph is not chemical\n"
    code, stored, err = run(capsys, *argv, "--out", str(tmp_path / "store"),
                            "--shards", "2")
    assert code == 0 and stored == "4,1,1,0\n"
    assert err == "line 1: input graph is not chemical\n"


def test_census_resume_rebuilds_the_sidecar(capsys, tmp_path):
    argv = ["census", "--mode", "connected", "--n", "6", "--shards", "2"]
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "fresh"))
    assert code == 0 and out.strip() == "6,112,4,2"
    fresh = (tmp_path / "fresh" / "positives_n6.g6").read_text()
    outdir = tmp_path / "store"
    run(capsys, *argv, "--out", str(outdir))
    sidecar = outdir / "positives_n6.g6"
    sidecar.write_text("Ch\n" + "".join(sidecar.read_text().splitlines(True)[1:]))
    code, out, _ = run(capsys, *argv, "--out", str(outdir))
    assert code == 0 and out.strip() == "6,112,4,2"
    assert sidecar.read_text() == fresh


def test_census_refuses_a_store_without_the_split(capsys, tmp_path):
    # a store written before the settings named the split was sharded by
    # another rule; resuming it would repeat some graphs and miss others
    outdir = tmp_path / "store"
    argv = ["census", "--mode", "connected", "--n", "6", "--out", str(outdir),
            "--shards", "2"]
    run(capsys, *argv)
    manifest = outdir / "manifest_n6.txt"
    settings, first, _ = manifest.read_text().splitlines()
    assert settings == "mode=connected,n=6,shards=2,split=candidates,record_all=0"
    manifest.write_text("mode=connected,n=6,shards=2,record_all=0\n" + first + "\n")
    before = {p.name: p.read_bytes() for p in outdir.iterdir()}
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "split=candidates" in err and "shards=2,record_all=0" in err
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before


def test_census_refuses_a_store_split_by_tree_nodes(capsys, tmp_path):
    # a store whose shards took every S-th node of order n - 1 holds other
    # graphs per shard than a split by candidate; a resume would repeat
    # some graphs and miss others
    outdir = tmp_path / "store"
    argv = ["census", "--mode", "connected", "--n", "6", "--out", str(outdir),
            "--shards", "2"]
    run(capsys, *argv)
    manifest = outdir / "manifest_n6.txt"
    settings, first, _ = manifest.read_text().splitlines()
    old = settings.replace("split=candidates", "split=tree")
    manifest.write_text(old + "\n" + first + "\n")
    before = {p.name: p.read_bytes() for p in outdir.iterdir()}
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "split=tree" in err and "split=candidates" in err
    assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before


def test_census_refuses_fewer_than_one_shard(capsys, tmp_path):
    for shards in ("0", "-1"):
        outdir = tmp_path / f"store{shards}"
        code, out, err = run(capsys, "census", "--mode", "connected", "--n", "5",
                             "--out", str(outdir), "--shards", shards)
        assert code == 2 and out == "" and "shard" in err
        assert not outdir.exists()


def test_census_refuses_fewer_than_one_job(capsys, tmp_path):
    for jobs in ("0", "-3"):
        outdir = tmp_path / f"store{jobs}"
        code, out, err = run(capsys, "census", "--mode", "connected", "--n", "5",
                             "--out", str(outdir), "--jobs", jobs)
        assert code == 2 and out == "" and "jobs" in err
        assert not outdir.exists()


@pytest.mark.parametrize("option", ["--jobs", "--shards"])
def test_census_without_a_store_refuses_fewer_than_one(capsys, tmp_path, option):
    # the in-memory census runs no shards or jobs, but checks them as well;
    # with the bare enumeration and with an ingested file
    path = tmp_path / "in.g6"
    path.write_text("Ch\n")
    for value in ("0", "-2"):
        for source in (("--n", "5"), ("--ingest", str(path))):
            code, out, err = run(capsys, "census", "--mode", "connected",
                                 *source, option, value)
            assert code == 2 and out == "" and option in err
    code, out, _ = run(capsys, "census", "--mode", "connected", "--n", "5",
                       option, "1")
    assert code == 0 and out == "5,21,0,0\n"


def test_conduct_reads_stdin():
    src = str(Path(condgraph.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "condgraph.cli", "conduct",
                           "--in", "-"], input="Ch\n\nC`\nCl\n", env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout.splitlines() == [
        "G^C: Cd;loops=none components=1",
        "G^C: CQ;loops=0,1,2,3 components=2"]
    assert proc.stderr == "line 3: input graph is disconnected\n"


def _order_and_file(capsys, tmp_path, *extra):
    # the file's graphs have orders of their own (4 and 5 here), so --n
    # would name a store for one order and fill it with others
    src = tmp_path / "graphs.g6"
    src.write_text("Ch\nDQw\n")
    code, out, err = run(capsys, "census", "--ingest", str(src), "--n", "4",
                         *extra)
    assert code == 2 and out == ""
    assert "--n" in err and "--ingest" in err


def test_census_refuses_an_order_with_an_ingested_file(capsys, tmp_path):
    _order_and_file(capsys, tmp_path)


def test_census_persistent_refuses_an_order_with_an_ingested_file(capsys,
                                                                   tmp_path):
    outdir = tmp_path / "store"
    _order_and_file(capsys, tmp_path, "--out", str(outdir), "--shards", "1")
    assert not outdir.exists()


def test_family_subcommand(capsys):
    code, out, _ = run(capsys, "family", "--name", "min_deg2", "--k", "4",
                       "--verify")
    assert code == 0
    g6, verdict = out.strip().splitlines()
    assert g6 == to_graph6(fixture("fig4_k4_base"))
    assert verdict == "verified"

    rad = to_graph6(fixture("radialene3"))
    code, out, _ = run(capsys, "family", "--name", "cdc", "--base", rad,
                       "--verify")
    assert code == 0 and out.strip().splitlines()[1] == "verified"

    code, out, _ = run(capsys, "family", "--name", "appendix", "--k", "3",
                       "--verify")
    assert code == 0 and "verified" in out

    # n = 64 needs the long graph6 form
    code, out, _ = run(capsys, "family", "--name", "min_deg2", "--k", "16")
    assert code == 0 and out.startswith("~")

    code, _, err = run(capsys, "family", "--name", "comb")
    assert code == 2 and "--k" in err
    code, _, err = run(capsys, "family", "--name", "unknown", "--k", "2")
    assert code == 2


def test_iso_subcommand(capsys):
    code, out, _ = run(capsys, "iso", "Ch", "Ch")
    assert code == 0 and out.startswith("isomorphic")
    code, out, _ = run(capsys, "iso", "Bw", "Bo")  # K3 vs P3
    assert code == 0 and out.strip() == "non-isomorphic"
    code, _, err = run(capsys, "iso", "Ch", "not-a-graph")
    assert code == 2


def test_iso_with_a_bad_witness_is_a_verification_failure(capsys, monkeypatch):
    # a witness that fails its own check is a verification failure (exit 3),
    # not an internal error (exit 1)
    monkeypatch.setattr(isomorphism, "verify_witness", lambda g1, g2, h: False)
    code, out, err = run(capsys, "iso", "Ch", "Ch")
    assert code == 3 and out == ""
    assert "verification failed" in err and "invalid witness" in err


def test_bad_witness_exit_code_survives_optimisation():
    script = (
        "import sys\n"
        "import condgraph.isomorphism as iso\n"
        "from condgraph.cli import main\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit(99)\n"
        "iso.verify_witness = lambda g1, g2, h: False\n"
        "raise SystemExit(main(['iso', 'Ch', 'Ch']))\n")
    src = str(Path(condgraph.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "invalid witness" in proc.stderr


def test_transmit_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, "transmit", "A_", "--left", "0", "--right", "1",
                       "--e-min", "-1", "--e-max", "1", "--steps", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "E,T"
    fermi = [ln for ln in lines if ln.startswith("0.0,")]
    assert fermi and float(fermi[0].split(",")[1]) == pytest.approx(1.0)

    target = tmp_path / "curve.csv"
    code, _, _ = run(capsys, "transmit", "A_", "--left", "0", "--right", "1",
                     "--out", str(target))
    assert code == 0 and target.read_text().startswith("E,T")

    code, _, err = run(capsys, "transmit", "A_", "--left", "0", "--right", "5")
    assert code == 2


def test_transmit_refuses_non_finite_numbers(capsys):
    # an infinity or NaN is named in the message and exits 2, before any
    # exact conversion of the value is tried
    for flag, value, name in (("--beta-sq", "inf", "beta_sq"),
                              ("--beta-sq", "nan", "beta_sq"),
                              ("--e-max", "inf", "e_max"),
                              ("--e-min", "-inf", "e_min"),
                              ("--e-min", "nan", "e_min")):
        code, out, err = run(capsys, "transmit", "A_", "--left", "0",
                             "--right", "1", f"{flag}={value}")
        assert code == 2 and out == "", (flag, value)
        assert f"{name} must be a finite number" in err, (flag, value)
