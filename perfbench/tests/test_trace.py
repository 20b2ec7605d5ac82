"""The traced run must not change what it measures.

    python3 -m pytest perfbench/tests
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import finslerlab  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from finslerlab import scenarios  # noqa: E402
from tracer import Tracer  # noqa: E402


def _namespaces():
    mods = {name: mod for name, mod in sys.modules.items()
            if name == "finslerlab" or name.startswith("finslerlab.")}
    snapshot = {name: dict(vars(mod)) for name, mod in mods.items()}
    snapshot["Jet"] = dict(vars(finslerlab.Jet))
    snapshot["FinslerMetric"] = dict(vars(finslerlab.FinslerMetric))
    return snapshot


def _traced(fn):
    tracer = Tracer()
    layers.install(tracer)
    try:
        return fn(), tracer
    finally:
        tracer.restore()


def test_traced_manifest_pass_gives_the_same_bytes_and_verdicts():
    docs = [(name, doc)
            for name, doc in workloads.make_inputs("manifests-2d", 3, ROOT)
            if name != "rotational_family"]
    before = _namespaces()
    plain = workloads.manifest_pass(docs)
    traced, tracer = _traced(lambda: workloads.manifest_pass(docs))
    assert _namespaces() == before
    assert traced.reports == plain.reports
    assert traced.verdicts == plain.verdicts
    assert [op.ok for op in traced.ops] == [op.ok for op in plain.ops]
    metrics = layers.pass_metrics(tracer)
    assert metrics["core.einstein_scalar.calls"] > 0
    assert metrics["runner.run.self_s"] > 0
    assert metrics["manifest.validate_s"] > 0


def test_traced_scenarios_give_the_same_verdicts():
    chosen = (scenarios.scenario_non_einstein_rejection,
              scenarios.scenario_killing_rescale)
    plain = [fn() for fn in chosen]
    traced, _ = _traced(lambda: [fn() for fn in chosen])
    assert [r.passed for r in traced] == [r.passed for r in plain]
    assert [r.details for r in traced] == [r.details for r in plain]


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
    rows = tracer.summary()
    inner = rows["inner"]["total_ns"]
    assert rows["inner"]["self_ns"] == inner
    assert rows["outer"]["self_ns"] == rows["outer"]["total_ns"] - inner
    assert rows["outer"]["self_ns"] >= 0.01e9
