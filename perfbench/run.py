"""treeshort benchmark: one workload, closed loop, one client, one process.

    python3 perfbench/run.py --workload grid-audit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  Each
run builds INSTANCES_PER_RUN[workload] instances from the seed, then runs
operations back to back for `--seconds`, cycling over the instances and
running each at least once.  With `--trace 0` nothing is wrapped and the
end-to-end metrics are reported; with `--trace 1` untraced and traced
operations alternate, spans are written to
`perfbench/out/`, and the per-layer metrics are reported.  Every operation's
outputs are checked outside the timed region.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _provenance(workload: str, seed: int, samples: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "samples": samples,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repo."""
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


def _tail(xs: list[float]) -> str:
    """Highest nearest-rank percentile with at least 10 samples above it."""
    if len(xs) < 11:
        return "no tail percentile: fewer than 11 samples"
    i = len(xs) - 11
    return f"p{100 * (i + 1) / len(xs):.0f}={sorted(xs)[i]:.6g}"


def _run_op(workloads, inst, with_mst, log_messages=False):
    """(op, failure reasons); an exception is a failed operation."""
    try:
        op = workloads.run_op(inst, with_mst, log_messages)
        return op, workloads.check_op(inst, op)
    except Exception:  # the loop must go on; the failure is counted and shown
        return None, [traceback.format_exc()]


def _record_failure(attempt: int, bad: list[str]) -> None:
    print(f"operation {attempt} failed:", *bad, sep="\n  ", file=sys.stderr)


def _print_metric(name, value, unit, detail=""):
    print(f"{name} = {value:.6g} {unit}" + (f"  [{detail}]" if detail else ""))


def timed_run(workloads, workload: str, seed: int, seconds: float) -> dict:
    with_mst = workload == "mst-ktree"
    # each build, like each op, is divided by the mean of the kernel runs on
    # either side of it
    instances, setup_rel = [], []
    ref_before = workloads.reference_s()
    for j in range(workloads.INSTANCES_PER_RUN[workload]):
        instances.append(workloads.build_instance(workload, seed * 1000 + j))
        ref_after = workloads.reference_s()
        setup_rel.append(instances[-1].setup_s / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    stages = ["op", "shortcut", "aggregate"] + (["mst"] if with_mst else [])
    # keep numbers, not outputs, so that peak RSS is the program's own
    samples = {st: [] for st in stages}
    rel, mst_rounds, refs = [], [], []
    rel_by_inst = {}
    digests, counts, failed, attempted = {}, {}, 0, 0
    deadline = time.perf_counter() + seconds
    # every instance runs at least once, so the per-instance counts cover them all
    while attempted < len(instances) or time.perf_counter() < deadline:
        j = attempted % len(instances)
        attempted += 1
        op, bad = _run_op(workloads, instances[j], with_mst)
        ref_after = workloads.reference_s()
        ref, ref_before = (ref_before + ref_after) / 2, ref_after
        if bad:
            failed += 1
            _record_failure(attempted, bad)
            continue
        for st in stages:
            samples[st].append(getattr(op, st + "_s"))
        rel.append(op.op_s / ref)
        rel_by_inst.setdefault(j, []).append(rel[-1])
        refs.append(ref)
        if with_mst:
            mst_rounds.append(op.mst.rounds_total)
        if j not in digests:
            digests[j] = workloads.digest(instances[j], op)
            counts[j] = (op.quality, op.agg_trace.rounds_used, op.agg_trace.messages_sent)
    print("provenance", json.dumps(_provenance(
        workload, seed, {"setup_s": len(instances), "ops": len(rel)})))
    for j, hexdigest in sorted(digests.items()):
        print(f"digest {workload} seed={instances[j].seed} sha256={hexdigest}")
    print(f"fail_rate = {failed}/{attempted} = {failed / attempted:.6g}")
    if not rel:
        raise SystemExit("every operation failed; no timing to report")

    setup = [inst.setup_s for inst in instances]
    _print_metric("setup_raw_s", median(setup), "s", f"median of {len(setup)} instance builds")
    for st, xs in samples.items():
        _print_metric(f"{st}_s", median(xs), "s", f"median of {len(xs)}; {_tail(xs)}")
    _print_metric("reference_s", median(refs), "s", f"median of {len(refs)} kernel runs beside the ops")
    if with_mst:
        _print_metric("mst_rounds", median(mst_rounds), "count")
    per_inst = list(zip(*counts.values()))
    metrics = {
        "setup_s": (
            median(setup_rel) * workloads.REFERENCE_S, "s",
            f"setup_raw_s / reference_s * {workloads.REFERENCE_S}, median of {len(setup_rel)} builds",
        ),
        "op_ref": (
            mean(median(xs) for xs in rel_by_inst.values()), "ref",
            f"op_s / reference_s, mean over {len(rel_by_inst)} instances of the median "
            f"of their ops ({len(rel)} ops; per-op {_tail(rel)})",
        ),
        "quality": (mean(per_inst[0]), "count", f"mean of {len(counts)} instances"),
        "agg_rounds": (mean(per_inst[1]), "count", f"mean of {len(counts)} instances"),
        "agg_messages": (mean(per_inst[2]), "count", f"mean of {len(counts)} instances"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
    }
    for name, (value, unit, detail) in metrics.items():
        _print_metric(name, value, unit, detail)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }


def traced_run(workloads, spans, workload: str, seed: int, seconds: float) -> dict:
    with_mst = workload == "mst-ktree"
    tracer = spans.Tracer()
    instances, setups = [], []
    for j in range(workloads.INSTANCES_PER_RUN[workload]):
        setups.append(f"setup{j}")
        tracer.install(setups[-1])
        try:
            instances.append(workloads.build_instance(workload, seed * 1000 + j))
        finally:
            tracer.uninstall()
    empty, all_anc = spans.baseline_qualities(instances)
    counters = Counter()
    untraced, traced, engine_quality = [], [], []
    failed = attempted = 0
    deadline = time.perf_counter() + seconds
    # pairs on one instance: untraced first, then traced
    while attempted < 2 or attempted % 2 or time.perf_counter() < deadline:
        inst = instances[(attempted // 2) % len(instances)]
        is_traced = attempted % 2 == 1
        attempted += 1
        if is_traced:
            tracer.install(attempted)
            try:
                op, bad = _run_op(workloads, inst, with_mst, log_messages=True)
            finally:
                tracer.uninstall()
            calls, tracer.calls = tracer.calls, []
        else:
            op, bad = _run_op(workloads, inst, with_mst)
        if bad:
            failed += 1
            _record_failure(attempted, bad)
            continue
        if is_traced:
            traced.append((attempted, op.op_s))
            engine_quality.append(op.report.quality)
            counters.update(spans.op_counters(calls))
        else:
            untraced.append(op.op_s)
    if not traced or not untraced:
        raise SystemExit("no successful traced and untraced operation pair")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload}-seed{seed}.jsonl")
    qualities = {
        "engine": mean(engine_quality),
        "empty": empty,
        "all_ancestors": all_anc,
    }
    metrics = spans.layer_metrics(
        tracer, traced, mean(untraced), setups, counters, qualities
    )
    print("provenance", json.dumps(_provenance(
        workload, seed, {"setups": len(setups), "traced_ops": len(traced),
                         "untraced_ops": len(untraced)})))
    op_s = metrics["trace.op_s"][0]
    print("self-time shares of a traced op:", ", ".join(
        f"{layer} {100 * metrics[layer + '.self_s'][0] / op_s:.1f}%" for layer in spans.LAYERS))
    for name, (value, unit) in metrics.items():
        _print_metric(name, value, unit)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid-audit", "fan-sim", "mst-ktree"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treeshort" / "__init__.py").is_file():
        print(f"error: treeshort sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.trace:
        result = traced_run(workloads, spans, args.workload, args.seed, args.seconds)
    else:
        result = timed_run(workloads, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
