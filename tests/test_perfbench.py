"""The benchmark harness in perfbench/ against the current sources: every
function it traces still exists, and one traced op per workload runs, checks
clean and yields its counters.  A rename that breaks the benchmark fails here,
not only at bench time."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_target_is_callable():
    for module, attr, _name, _keep in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


@pytest.mark.parametrize("workload", ["grid-audit", "fan-sim", "mst-ktree"])
def test_traced_op_checks_clean(workload):
    seed = 1000
    g, parts = workloads.generate(workload, seed)
    # built by hand: build_instance would gc.freeze() the test process
    inst = workloads.Instance(seed, g, parts, {v: v for v in range(g.n)}, 0.0)
    tracer = spans.Tracer()
    tracer.install(1)
    try:
        op = workloads.run_op(inst, workload == "mst-ktree", log_messages=True)
    finally:
        tracer.uninstall()
    assert workloads.check_op(inst, op) == []
    counters = spans.op_counters(tracer.calls)
    assert counters["partial_calls"] >= 1
