"""Command-line interface.

Exit codes: 0 success, 1 internal error, 2 input error, 3 verification
failure (a --verify run or a theorem check that fails deserves loud
attention).

graph6 cannot carry loops, so conduction graphs are printed as the graph6 of
their simple part plus ";loops=" and an explicit vertex list.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import census as census_mod
from . import classify as classify_mod
from . import families, fixtures, transmission
from .conduction import conduction_graph
from .graphs import Graph6Error, from_graph6, to_graph6
from .isomorphism import find_isomorphism

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


@contextmanager
def _out_stream(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as out:
            yield out


def _each_input_graph(args, handle) -> int:
    """Call ``handle(g, out)`` for each connected graph of the graph6 file
    ``--in`` (``-`` for stdin), ``out`` being the ``--out`` stream.  Other
    nonblank lines are reported as ``line N: ...`` and make the status 2.
    """
    status = EXIT_OK

    def report(lineno, msg):
        nonlocal status
        print(f"line {lineno}: {msg}", file=sys.stderr)
        status = EXIT_INPUT

    path = getattr(args, "in")
    with _out_stream(args.out) as out:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
        for g in census_mod.connected_graph6(data.splitlines(), report):
            handle(g, out)
    return status


def _loops_text(g):
    loops = g.loop_vertices()
    return ",".join(map(str, loops)) if loops else "none"


def _cmd_conduct(args) -> int:
    def show(g, out):
        cg = conduction_graph(g)
        simple = cg.graph.without_loops()
        print(f"G^C: {to_graph6(simple)};loops={_loops_text(cg.graph)} "
              f"components={cg.component_count()}", file=out)
        if args.show_verdicts:
            for (u, v), verdict in sorted(cg.verdicts.items()):
                kind = "ipso" if u == v else "distinct"
                word = "conducts" if verdict.conducts else "insulates"
                print(f"  ({u},{v}) {kind}: {word} [{verdict.rule.name}]",
                      file=out)

    return _each_input_graph(args, show)


def _cmd_classify(args) -> int:
    header_done = False

    def show(g, out):
        nonlocal header_done
        if args.format == "csv":
            if not header_done:
                print(census_mod.CSV_HEADER, file=out)
                header_done = True
            print(census_mod.census_record(g).csv_row(), file=out)
        else:
            rep = classify_mod.classification_report(g)
            print(f"n={g.n} nullity={rep.nullity} "
                  f"code={rep.code.three_letter} "
                  f"two_letter={rep.code.two_letter} "
                  f"cond_iso={rep.is_conduction_isomorphic} "
                  f"nut={rep.is_nut} ucg={rep.is_ucg} "
                  f"ipso_omni_insulator={rep.is_ipso_omni_insulator} "
                  f"gc_components={rep.component_count} "
                  f"gc_loops={rep.loop_count}", file=out)

    return _each_input_graph(args, show)


def _cmd_census(args) -> int:
    # checked on both paths, although only --out runs shards and jobs
    for name in ("jobs", "shards"):
        if getattr(args, name) < 1:
            print(f"--{name} must be at least 1, got {getattr(args, name)}",
                  file=sys.stderr)
            return EXIT_INPUT
    errors, records = [], []
    try:
        if args.out:
            summary = census_mod.run_census_persistent(
                args.mode, args.n, args.out, shards=args.shards, jobs=args.jobs,
                record_all=args.all, source_path=args.ingest,
                on_error=lambda *err: errors.append(err))
        else:
            summary, records = census_mod.run_census(
                census_mod.census_source(
                    args.mode, args.n, args.ingest,
                    on_error=lambda *err: errors.append(err)),
                record_all=args.all)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    for lineno, msg in sorted(errors):  # shards report their own lines
        print(f"line {lineno}: {msg}", file=sys.stderr)
    for n in sorted(summary.counts):
        total, ci, nb = summary.row(n)
        print(f"{n},{total},{ci},{nb}")
    if args.verbose:
        for rec in records:
            print(rec.csv_row())
    return EXIT_OK


def _cmd_family(args) -> int:
    family = families.FAMILIES.get(args.name)
    if family is not None and getattr(args, family.needs) is None:
        print(f"family {args.name} needs --{family.needs}", file=sys.stderr)
        return EXIT_INPUT
    try:
        base = None if args.base is None else from_graph6(args.base)
        g = families.build_family(args.name, args.k, base)
    except (ValueError, Graph6Error) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    print(to_graph6(g))
    if args.verify:
        if classify_mod.is_conduction_isomorphic(g):
            print("verified")
        else:
            print("verification failed: graph is not conduction-isomorphic",
                  file=sys.stderr)
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_iso(args) -> int:
    try:
        g1 = from_graph6(args.first)
        g2 = from_graph6(args.second)
    except Graph6Error as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    witness = find_isomorphism(g1, g2)
    if witness is None:
        print("non-isomorphic")
    else:
        print("isomorphic: " + " ".join(f"{v}->{witness[v]}"
                                        for v in range(g1.n)))
    return EXIT_OK


def _cmd_transmit(args) -> int:
    try:  # a bad graph6 string is a ValueError too
        g = from_graph6(args.graph)
        dp = transmission.device_polynomials(g, args.left, args.right)
        curve = transmission.sweep(dp, args.beta_sq, args.e_min, args.e_max,
                                   args.steps)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    with _out_stream(args.out) as out:
        out.write(curve.to_csv())
    return EXIT_OK


def _cmd_fixture(args) -> int:
    if args.list:
        for name in fixtures.FIXTURE_NAMES:
            print(name)
        return EXIT_OK
    if not args.name:
        print("fixture needs a name (or --list)", file=sys.stderr)
        return EXIT_INPUT
    try:
        print(to_graph6(fixtures.fixture(args.name)))
    except KeyError as exc:
        print(str(exc.args[0]), file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condgraph",
        description="Conduction graphs of molecular graphs, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conduct", help="conduction graph per input graph")
    p.add_argument("--in", default="-", help="graph6 file or - for stdin")
    p.add_argument("--out", default=None)
    p.add_argument("--show-verdicts", action="store_true")
    p.set_defaults(func=_cmd_conduct)

    p = sub.add_parser("classify", help="conduction classes per input graph")
    p.add_argument("--in", default="-", help="graph6 file or - for stdin")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "text"), default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("census", help="classify a whole graph class")
    p.add_argument("--mode", choices=("connected", "chemical"),
                   default="connected")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ingest", default=None, help="graph6 file to classify")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--shards", type=int, default=4)
    p.add_argument("--out", default=None, help="directory for persistent output")
    p.add_argument("--all", action="store_true",
                   help="record every graph, not only positives")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("family", help="emit family members as graph6")
    p.add_argument("--name", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--base", default=None, help="graph6 of the base graph")
    p.add_argument("--verify", action="store_true",
                   help="run the full conduction-isomorphism check")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("iso", help="isomorphism test for two graph6 strings")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("transmit", help="transmission curve CSV for a device")
    p.add_argument("graph", help="graph6 string")
    p.add_argument("--left", type=int, required=True)
    p.add_argument("--right", type=int, required=True)
    p.add_argument("--beta-sq", type=float, default=1.0)
    p.add_argument("--e-min", type=float, default=-3.0)
    p.add_argument("--e-max", type=float, default=3.0)
    p.add_argument("--steps", type=int, default=601)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transmit)

    p = sub.add_parser("fixture", help="emit a named fixture graph")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except classify_mod.TheoremCheckError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
