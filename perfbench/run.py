"""Benchmark command for condgraph.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; condgraph is imported from its
``src`` directory.  The run repeats whole rounds of the workload for about S
seconds, checks every output against the reference computations in
``oracle``, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the program is wrapped at its
module boundaries and the metrics are per layer, per round, while the spans
go to ``.perfbench_traces/`` under the checkout.
"""

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started, from /proc (10 ms resolution)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rpartition(")")[2].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


_T0 = time.perf_counter()
_AGE0 = _process_age()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_program():
    """Import condgraph from this checkout, never from anywhere else."""
    if not (SRC / "condgraph" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'condgraph'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import condgraph
    if Path(condgraph.__file__).resolve().parent != SRC / "condgraph":
        sys.exit(f"error: condgraph imported from {condgraph.__file__}, not {SRC}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "condgraph").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    import numpy
    import tracing
    import workloads
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}")

    tmp_root = ROOT / ".perfbench_tmp" / str(os.getpid())
    patches = tracing.Patches()
    wl = workloads.make(args.workload, args.seed, patches, tmp_root,
                        interleave=not args.trace)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(patches)
        workloads.install_tracer(tracer)
    setup_s = _AGE0 + time.perf_counter() - _T0
    # at nominal machine speed, like the other times (workloads.Speed)
    setup_s *= wl.speed.scale(statistics.median(wl.speed.sample() for _ in range(5)))

    try:
        try:
            start = time.perf_counter()
            while True:
                wl.round()
                run_s = time.perf_counter() - start
                # whole rounds only; stop at the round count whose total time
                # lies closest to --seconds
                if run_s + run_s / wl.rounds / 2 >= args.seconds:
                    break
        finally:
            patches.restore()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems, failures, attempted, failed = wl.check()
    finally:
        wl.close()

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    if tracer is not None:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in tracing.layer_metrics(tracer.spans, wl.rounds).items()}
        trace_path = ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(trace_path)
    else:
        values = wl.metrics()
        values.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())}

    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    for p in failures:
        print(f"FAILED {p}", file=sys.stderr)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": _commit(), "source_sha256": _source_digest(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "rounds": wl.rounds,
        "run_s": round(run_s, 3),
    }
    if tracer is None:
        meta["speed_factor"] = round(wl.speed.factor(), 4)
    else:
        meta["trace_file"] = str(trace_path.relative_to(ROOT))
        meta["spans"] = len(tracer.spans)
    print(json.dumps({"meta": meta}))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
