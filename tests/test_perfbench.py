"""The benchmark harness in perfbench/ against the current sources: every
function it traces still exists, and one traced op per workload runs, checks
clean, yields its counters and the baseline qualities, and hashes to its
pinned digest.  A rename that breaks the benchmark, or a change to any output
it digests, fails here, not only at bench time."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_target_is_callable():
    for module, attr, _name, _keep in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


# per workload, of its seed-1000 instance: workloads.digest of the op (the
# outputs the CLI writes) and the baseline qualities (empty, all ancestors)
PINS = {
    "grid-audit": ("28ea75adf20de235c2e3902fc6d42303f7e0d55a3ce3c9adf3344ac2c85bcad7", (6, 54)),
    "fan-sim": ("6d6b5adce0f2d17a844a612541203e406ede9c0e0a0ed0b28776206ccd6e97cf", (32, 154)),
    "mst-ktree": ("853189ece14966a5dac09c3b275baea2ce4a9a7a26fa6e102153f4ac431891e4", (5, 23)),
}


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
    digest, baselines = PINS[workload]
    assert workloads.digest(inst, op) == digest
    assert spans.baseline_qualities([inst]) == baselines
