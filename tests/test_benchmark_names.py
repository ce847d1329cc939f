"""The library names the benchmark harness looks up by attribute.

``perfbench/workloads.py`` wraps condgraph functions by name for its traced
runs and calls ``conduction.device_verdict`` and ``conduction.Rule`` in its
checks.  A rename or deletion in the library would break those runs only
when they happen; this test finds it in the unit suite.
"""

import importlib.util
import sys
from pathlib import Path

from condgraph.graphs import cycle_graph, path_graph

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


class RecordingTracer:
    """Stands in for the harness's tracer: looks up every target it is
    given and wraps nothing."""

    def __init__(self):
        self.targets = {}

    def wrap(self, owner, attr, name, describe=None, before=None):
        self.targets[f"{owner.__name__}.{attr}"] = getattr(owner, attr)

    def wrap_generator(self, owner, attr, name):
        self.wrap(owner, attr, name)


def _workloads(monkeypatch):
    # loaded without writing bytecode beside the harness
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    workloads = _workloads(monkeypatch)
    tracer = RecordingTracer()
    workloads.install_tracer(tracer)
    assert all(callable(target) for target in tracer.targets.values())
    assert {"condgraph.linalg.det", "condgraph.linalg.rank",
            "condgraph.linalg.kernel_basis",
            "condgraph.linalg.char_poly_and_adjugate",
            "condgraph.classify.inverse_conduction_pattern",
            "condgraph.census.conduction_isomorphism",
            "condgraph.conduction.conduction_graph"} <= tracer.targets.keys()
    # the checks' verdicts and the route each traced call is filed under
    conduction = workloads.conduction
    assert conduction.device_verdict(cycle_graph(6), 0, 3).conducts
    routes = [workloads._route(None, conduction.conduction_graph(g), None)
              for g in (path_graph(2), path_graph(3), cycle_graph(4))]
    assert routes == [{"route": "inverse"}, {"route": "blocks"},
                      {"route": "rules"}]
    assert {conduction.Rule.INVERSE_PATTERN,
            conduction.Rule.NULLITY1_BLOCKS} <= set(conduction.Rule)
