"""Outside-in tracing: spans around condgraph's public functions.

Each traced name is replaced, in the module namespace through which the
program calls it, by a wrapper that records a span (name, start, end,
parent, attributes).  No file of the program changes; ``Patches.restore``
puts every original back.  Spans stay in memory and are written once, at
the end of a run.  A layer's self time is its spans' time minus the time of
their child spans.
"""

from __future__ import annotations

import functools
import gzip
import os
from collections import defaultdict
from time import perf_counter_ns


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    def __init__(self, patches: Patches):
        self.patches = patches
        self.spans = []       # [name, start_ns, end_ns, parent_index, attrs]
        self._stack = []

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0,
                           self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx, attrs=None):
        span = self.spans[idx]
        span[2] = perf_counter_ns()
        span[4] = attrs
        self._stack.pop()

    def wrap(self, owner, attr, name, describe=None, before=None):
        """Trace every call of ``owner.attr``.

        ``describe(args, result, pre)`` returns the span's attributes, where
        ``pre`` is what ``before(args)`` returned; a raised exception is
        recorded as the attribute ``error``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pre = before(args) if before else None
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, {"error": type(exc).__name__})
                raise
            self._close(idx, describe(args, result, pre) if describe else None)
            return result

        self.patches.set(owner, attr, traced)

    def wrap_generator(self, owner, attr, name):
        """Trace a generator function: one ``<name>.pass`` span per call and
        one ``<name>`` span around each item pulled from it."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            self._close(self._open(name + ".pass"))
            return self._pull(original(*args, **kwargs), name)

        self.patches.set(owner, attr, traced)

    def _pull(self, it, name):
        while True:
            idx = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                self._close(idx)
                return
            except BaseException as exc:
                self._close(idx, {"error": type(exc).__name__})
                raise
            self._close(idx, {"item": True})
            yield item

    def write(self, path):
        """Spans as gzipped TSV: id, parent, name, start_ns, end_ns, attrs."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\tattrs\n")
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\t{attrs or ''}\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

# census stage that a span and everything below it belongs to; the outermost
# stage wins, so a screen run inside a census record counts as record work
STAGES = {"census.enumerate": "enumerate", "classify.cond_iso": "screen",
          "census.record": "record"}


def span_table(spans):
    """Per-span self time, census stage and screen root."""
    n = len(spans)
    child_ns = [0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stage = [None] * n
    root = [-1] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        up = stage[parent] if parent >= 0 else None
        stage[i] = up or STAGES.get(name)
        if parent >= 0 and root[parent] >= 0:
            root[i] = root[parent]
        elif up is None and name == "classify.cond_iso":
            root[i] = i
    self_ns = [end - start - child_ns[i]
               for i, (_, start, end, _, _) in enumerate(spans)]
    return self_ns, stage, root


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer metrics per round: seconds of self time, calls and outcomes."""
    self_ns, stage, root = span_table(spans)
    secs = defaultdict(int)
    calls = defaultdict(int)
    store_bytes = graphs = samples = 0
    seen = defaultdict(set)  # screen root -> what its children reached
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        attrs = attrs or {}
        key = name
        if name == "conduction.graph":
            key = f"conduction.graph.{attrs.get('route', 'error')}"
        elif name == "isomorphism.canonical" and stage[i]:
            secs[f"isomorphism.canonical.{stage[i]}"] += self_ns[i]
        secs[key] += self_ns[i]
        calls[key] += 1
        if name == "census.enumerate":
            graphs += "item" in attrs
        elif name == "census.store":
            store_bytes += attrs.get("bytes", 0)
        elif name == "transmission.sweep":
            samples += attrs.get("samples", 0)
        r = root[i]
        if r >= 0 and r != i:
            if name == "conduction.inverse_pattern" and parent == r:
                seen[r].add("singular" if "error" in attrs
                            else "looped" if attrs.get("loops") else "pattern")
            elif name == "isomorphism.canonical":
                seen[r].add("canonical")
    tally = defaultdict(int)
    screened = 0
    for r in range(len(spans)):
        if root[r] != r:
            continue
        screened += 1
        got = seen[r]
        if (spans[r][4] or {}).get("hit"):
            tally["positive"] += 1
        else:
            tally[next((k for k in ("canonical", "singular", "looped") if k in got),
                       "other")] += 1
    reached = tally["canonical"] + tally["positive"]
    per = 1.0 / rounds

    def s(key):
        return secs[key] * 1e-9 * per

    def c(key):
        return calls[key] * per

    out = {
        "census.enumerate.s": s("census.enumerate"),
        "census.enumerate.graphs": graphs * per,
        "census.enumerate.passes": c("census.enumerate.pass"),
        "census.record.s": s("census.record"),
        "census.record.calls": c("census.record"),
        "census.store.s": s("census.store"),
        "census.store.bytes": store_bytes * per,
        "isomorphism.canonical.calls": c("isomorphism.canonical"),
        "isomorphism.canonical.enumerate.s": s("isomorphism.canonical.enumerate"),
        "isomorphism.canonical.screen.s": s("isomorphism.canonical.screen"),
        "isomorphism.canonical.record.s": s("isomorphism.canonical.record"),
        "isomorphism.canonical.per_graph":
            calls["isomorphism.canonical"] / screened if screened else 0.0,
        "classify.cond_iso.s": s("classify.cond_iso"),
        "classify.cond_iso.calls": c("classify.cond_iso"),
        "classify.screen.singular": tally["singular"] * per,
        "classify.screen.looped": tally["looped"] * per,
        "classify.screen.other": tally["other"] * per,
        "classify.screen.canonical": reached * per,
        "classify.positives": tally["positive"] * per,
        "classify.screen.hit_ratio": tally["positive"] / reached if reached else 0.0,
        "classify.report.s": s("classify.report"),
        "classify.report.calls": c("classify.report"),
    }
    for route in ("inverse", "blocks", "rules"):
        out[f"conduction.graph.{route}.s"] = s(f"conduction.graph.{route}")
        out[f"conduction.graph.{route}.calls"] = c(f"conduction.graph.{route}")
    records = calls["census.record"]
    out.update({
        "conduction.inverse_pattern.s": s("conduction.inverse_pattern"),
        "conduction.inverse_pattern.calls": c("conduction.inverse_pattern"),
        "conduction.inverse_pattern.per_record":
            calls["conduction.inverse_pattern"] / records if records else 0.0,
        "linalg.char_poly_adjugate.s": s("linalg.char_poly_adjugate"),
        "linalg.char_poly_adjugate.calls": c("linalg.char_poly_adjugate"),
        "linalg.det.s": s("linalg.det"),
        "linalg.det.calls": c("linalg.det"),
        "linalg.rank.s": s("linalg.rank"),
        "linalg.rank.calls": c("linalg.rank"),
        "linalg.kernel_basis.s": s("linalg.kernel_basis"),
        "linalg.kernel_basis.calls": c("linalg.kernel_basis"),
        "graphs.graph6.s": s("graphs.graph6"),
        "graphs.graph6.calls": c("graphs.graph6"),
        "transmission.polys.s": s("transmission.polys"),
        "transmission.sweep.s": s("transmission.sweep"),
        "transmission.samples": samples * per,
    })
    return out
