"""Command-line front door: generate, construct, audit, simulate, benchmark.

Exit codes: 0 success, 1 usage, 2 validation (unreadable/inconsistent
inputs), 3 runtime (construction, simulation, or oracle failure).  Every
command is reproducible: outputs are fully determined by arguments and
seeds, and no output embeds wall-clock data.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from . import apps, audit, engine, generators, sim
from .graph import (
    Graph,
    GraphError,
    Partition,
    RootedTree,
    bfs_tree,
    diameter,
    dumps_graph,
    dumps_partition,
    loads_graph,
    loads_partition,
    validate_partition,
)

USAGE_EXIT, VALIDATION_EXIT, RUNTIME_EXIT = 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`, so that a cap that
    can never be met is a usage error rather than a runtime failure."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@contextmanager
def _claimed(*paths: str | Path | None):
    """Open each given path, in order, before the block runs: create the file,
    or open an existing one for append without changing it.  An exception
    from the opening or the block removes the files created here, so a failed
    command leaves none of its outputs behind and no existing file changed."""
    created = []
    try:
        for path in paths:
            if path:
                try:
                    open(path, "x").close()
                    created.append(path)
                except FileExistsError:
                    open(path, "a").close()  # writable, and left as it is for now
        yield
    except BaseException:
        for path in created:
            Path(path).unlink(missing_ok=True)
        raise


def _emit(*outputs: tuple[str, str | Path | None]) -> None:
    """Write each (text, path) pair to the file `path`, or to stdout when no
    path is given.  Every command claims its files (`_claimed`) before its
    work and writes them through here after it."""
    for text, path in outputs:
        if path:
            Path(path).write_text(text)
        else:
            sys.stdout.write(text)


def _load_instance(graph_path: str, parts_path: str) -> tuple[Graph, Partition]:
    g = loads_graph(Path(graph_path).read_text())
    p = loads_partition(Path(parts_path).read_text(), g.n)
    validate_partition(g, p)
    return g, p


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def _instance(family: str, params: list[int], seed, parts_count):
    """Graph, partition (its own, `parts_count` random ones or None) and
    meta of one instance of `family`."""
    g, parts, meta = generators.FAMILIES[family].build(params, seed)
    if parts_count is not None:
        parts = generators.gen_parts_random(g, parts_count, seed)
    return g, parts, meta


def _cmd_gen(args) -> int:
    family = args.family
    spec = generators.FAMILIES[family]
    if len(args.params) != len(spec.params):
        raise UsageError(f"gen {family} needs: {' '.join(spec.params)}")
    if spec.n is None and args.parts is not None:
        raise UsageError(f"{family} carries its own parts")
    if (spec.seeded or args.parts is not None or args.weights) and args.seed is None:
        raise UsageError("--seed is required when the command draws randomness")
    spec.check(*args.params)
    if args.parts is not None:
        generators.check_part_count(args.parts, spec.n(*args.params))
    out = Path(args.out)
    paths = [out / "graph.txt", out / "meta.json"]
    if spec.n is None or args.parts is not None:
        paths.insert(1, out / "parts.txt")
    out.mkdir(parents=True, exist_ok=True)
    with _claimed(*paths):
        g, parts, own = _instance(family, args.params, args.seed, args.parts)
        meta = {"family": family, "params": args.params, "seed": args.seed, **own}
        if args.weights:
            g = generators.assign_weights(g, args.seed)
        meta.update(n=g.n, m=g.m, diameter=diameter(g))
        texts = [dumps_graph(g)]
        if parts is not None:
            meta["k"] = parts.k
            texts.append(dumps_partition(parts))
        _emit(*zip(texts + [_json_text(meta)], paths))
    print(f"wrote {family} instance: n={g.n} m={g.m} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# shortcut / audit
# ---------------------------------------------------------------------------


def _audit_json(report: audit.QualityReport, k: int, D: int) -> dict:
    return dict(report.to_json_dict(), k=k, D=D)


def _construct(
    g: Graph, p: Partition, seed: int, max_delta: int | None
) -> tuple[RootedTree, engine.FullShortcutResult]:
    """The BFS tree at root 0 and the full shortcut built on it."""
    tree = bfs_tree(g, 0)
    config = engine.EngineConfig(max_delta=max_delta)
    return tree, engine.construct_full(g, tree, p, config, random.Random(seed))


def _cmd_shortcut(args) -> int:
    g, p = _load_instance(args.graph, args.parts)
    paths = []
    if args.out:
        out = Path(args.out)
        paths = [out / "shortcut.txt", out / "certificates.json", out / "audit.json"]
        out.mkdir(parents=True, exist_ok=True)
    with _claimed(*paths):
        tree, result = _construct(g, p, args.seed, args.max_delta)
        report = audit.audit_shortcut(g, tree, p, result.shortcut)
        if paths:
            certificates = [engine.certificate_to_json_dict(c) for c in result.certificates]
            audit_json = dict(_audit_json(report, p.k, tree.D), delta_final=result.delta_final)
            texts = [engine.dumps_shortcut(result.shortcut), _json_text(certificates)]
            _emit(*zip(texts + [_json_text(audit_json)], paths))
    print(
        f"delta_final={result.delta_final} congestion={report.congestion} "
        f"dilation={report.dilation} blocks={report.blocks} quality={report.quality}"
    )
    return 0


def _load_shortcut(path: str, p: Partition, tree: RootedTree) -> engine.Shortcut:
    """Read a shortcut file that covers exactly the parts of `p`, every edge
    id an edge of `tree`; checked before any output is claimed."""
    shortcut = engine.loads_shortcut(Path(path).read_text())
    if len(shortcut) != p.k:
        raise GraphError(f"shortcut covers {len(shortcut)} parts, partition has {p.k}")
    audit.check_tree_restricted(shortcut, tree)
    return shortcut


def _csv_field(text: str) -> str:
    """`text` as one CSV field: quoted, quotes doubled, only if it needs it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_audit(args) -> int:
    g, p = _load_instance(args.graph, args.parts)
    tree = bfs_tree(g, 0)
    shortcut = _load_shortcut(args.shortcut, p, tree)
    with _claimed(args.out):
        report = audit.audit_shortcut(g, tree, p, shortcut)
        if args.format == "csv":
            text = (
                "# schema=2\n"
                "instance,k,D,congestion,dilation,blocks,quality\n"
                f"{_csv_field(args.graph)},{p.k},{tree.D},"
                f"{report.congestion},{report.dilation},{report.blocks},{report.quality}\n"
            )
        else:
            text = _json_text(_audit_json(report, p.k, tree.D))
        _emit((text, args.out))
    return 0


# ---------------------------------------------------------------------------
# aggregate / mst
# ---------------------------------------------------------------------------


def _cmd_aggregate(args) -> int:
    if args.shortcut and args.max_delta is not None:
        raise UsageError("--max-delta caps a constructed shortcut; it cannot apply to --shortcut")
    if args.out and args.trace_csv and Path(args.out).resolve() == Path(args.trace_csv).resolve():
        raise UsageError("--out and --trace-csv name the same file")
    g, p = _load_instance(args.graph, args.parts)
    shortcut = _load_shortcut(args.shortcut, p, bfs_tree(g, 0)) if args.shortcut else None
    cfg = sim.SimConfig(
        max_rounds=args.max_rounds,
        seed=args.seed,
        log_messages=args.trace_csv is not None,
    )
    # node ids serve as the input values; "sum" then totals ids per part
    task = sim.AggregationTask(
        values={v: v for v in range(g.n)}, op=args.op, parts=p
    )
    with _claimed(args.out, args.trace_csv):
        if shortcut is None:
            shortcut = _construct(g, p, args.seed, args.max_delta)[1].shortcut
        results, trace = sim.partwise_aggregate(g, p, shortcut, task, cfg)
        per_part = {str(i): results[p.parts[i][0]] for i in range(p.k)}
        payload = {"op": args.op, "per_part": per_part, "trace": trace.to_json_dict()}
        outputs = [(_json_text(payload), args.out)]
        if args.trace_csv:
            lines = ["round,src,dst,bits,tag"]
            lines += [f"{r.round},{r.src},{r.dst},{r.bits},{r.tag}" for r in trace.log]
            outputs.append(("\n".join(lines) + "\n", args.trace_csv))
        _emit(*outputs)
    return 0


def _cmd_mst(args) -> int:
    g = loads_graph(Path(args.graph).read_text())
    g.require_distinct_weights()
    cfg = sim.SimConfig(max_rounds=args.max_rounds, seed=args.seed)
    with _claimed(args.out):
        result = apps.boruvka_mst(g, cfg, max_delta=args.max_delta)
        oracle_edges, oracle_weight = apps.kruskal_oracle(g)
        if result.tree_edges != oracle_edges:
            raise engine.EngineError(
                "boruvka result disagrees with the kruskal oracle; refusing to write"
            )
        if args.out:
            _emit((_json_text(result.to_json_dict()), args.out))
    print(f"mst weight={result.total_weight} phases={result.phases} rounds={result.rounds_total}")
    print("phase fragments quality rounds delta_final")
    for idx, ph in enumerate(result.per_phase, start=1):
        print(f"{idx:5d} {ph.fragments:9d} {ph.quality:7} {ph.rounds:6d} {ph.delta_final:11d}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

_BENCH_HEADER = (
    "name,family,n,k,D,delta_final,congestion,dilation,blocks,quality,"
    "quality_floor,agg_rounds,agg_messages,status"
)


def _check_bench_runs(runs: list) -> None:
    """Reject a malformed run before any run starts; names the run's index."""

    def is_int(x):
        return type(x) is int  # JSON booleans are not counts

    for idx, run in enumerate(runs):
        try:
            if not isinstance(run, dict):
                raise GraphError(f"expected an object, got {run!r}")
            family = run.get("family")
            spec = generators.FAMILIES.get(family) if isinstance(family, str) else None
            if spec is None:
                raise GraphError(f"unknown family {family!r}")
            arity = len(spec.params)
            params = run.get("params")
            if not (isinstance(params, list) and len(params) == arity and all(map(is_int, params))):
                raise GraphError(f"{family} needs 'params' as {arity} integers")
            if not is_int(run.get("seed")):
                raise GraphError("'seed' must be an integer")
            name = run.get("name")  # absent, null or "": the row is named from the run
            if name is not None and (not isinstance(name, str) or "," in name or "\n" in name):
                raise GraphError("'name' must be a string without commas or newlines")
            spec.check(*params)
            if spec.n is None:
                if "parts" in run:
                    raise GraphError(f"{family} carries its own parts")
                continue
            parts = run.get("parts")
            if not is_int(parts):
                raise GraphError(f"{family} needs 'parts' as an integer")
            generators.check_part_count(parts, spec.n(*params))
        except GraphError as exc:
            raise GraphError(f"bench run {idx}: {exc}") from None


def _bench_row(run: dict, max_delta) -> tuple[str, bool]:
    name = run.get("name") or "-".join(
        [run["family"]]
        + [str(x) for x in run["params"]]
        + ([f"p{run['parts']}"] if "parts" in run else [])
        + [f"s{run['seed']}"]
    )
    fields = [name, run["family"]]
    try:
        g, parts, meta = _instance(run["family"], run["params"], run["seed"], run.get("parts"))
        tree, result = _construct(g, parts, run["seed"], max_delta)
        report = audit.audit_shortcut(g, tree, parts, result.shortcut)
        task = sim.AggregationTask(values={v: 1 for v in range(g.n)}, op="sum", parts=parts)
        cfg = sim.SimConfig(seed=f"{run['seed']}:agg")
        _, trace = sim.partwise_aggregate(g, parts, result.shortcut, task, cfg)
        fields += [
            str(g.n),
            str(parts.k),
            str(tree.D),
            str(result.delta_final),
            str(report.congestion),
            str(report.dilation),
            str(report.blocks),
            str(report.quality),
            f"{float(Fraction(meta['quality_floor'])):g}" if "quality_floor" in meta else "",
            str(trace.rounds_used),
            str(trace.messages_sent),
            "ok",
        ]
        return ",".join(fields), True
    except (GraphError, engine.EngineError, sim.SimError) as exc:
        reason = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
        fields += [""] * (len(_BENCH_HEADER.split(",")) - 3) + [f"error:{reason}"]
        return ",".join(fields), False


def _cmd_bench(args) -> int:
    spec = json.loads(Path(args.spec).read_text())
    runs = spec.get("runs") if isinstance(spec, dict) else None
    if not isinstance(runs, list) or not runs:
        raise GraphError("bench spec must contain a non-empty 'runs' list")
    _check_bench_runs(runs)
    with _claimed(args.out):  # an unwritable --out fails before the first run
        results = [_bench_row(run, args.max_delta) for run in runs]
        text = "# schema=1\n" + _BENCH_HEADER + "\n" + "\n".join(r for r, _ in results) + "\n"
        _emit((text, args.out))
    return 0 if all(ok for _, ok in results) else RUNTIME_EXIT


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="treeshort", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance family")
    gen.add_argument("family", choices=list(generators.FAMILIES))
    gen.add_argument("params", type=int, nargs="+")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", default=".")
    gen.add_argument("--parts", type=int, help="also write a random partition")
    gen.add_argument("--weights", action="store_true", help="assign distinct weights")
    gen.set_defaults(func=_cmd_gen)

    sc = sub.add_parser("shortcut", help="construct and audit a full shortcut")
    sc.add_argument("graph")
    sc.add_argument("parts")
    sc.add_argument("--seed", type=int, required=True)
    sc.add_argument("--out")
    sc.add_argument("--max-delta", type=_int_at_least(1))
    sc.set_defaults(func=_cmd_shortcut)

    au = sub.add_parser("audit", help="re-audit a shortcut file")
    au.add_argument("graph")
    au.add_argument("parts")
    au.add_argument("shortcut")
    au.add_argument("--format", choices=["json", "csv"], default="json")
    au.add_argument("--out")
    au.set_defaults(func=_cmd_audit)

    ag = sub.add_parser("aggregate", help="run partwise aggregation on the simulator")
    ag.add_argument("graph")
    ag.add_argument("parts")
    ag.add_argument("--op", choices=["min", "max", "sum"], default="sum")
    ag.add_argument("--seed", type=int, required=True)
    ag.add_argument("--shortcut", help="existing shortcut file (default: construct)")
    ag.add_argument("--out")
    ag.add_argument("--trace-csv")
    ag.add_argument("--max-delta", type=_int_at_least(1))
    ag.add_argument("--max-rounds", type=_int_at_least(0), default=sim.SimConfig.max_rounds)
    ag.set_defaults(func=_cmd_aggregate)

    mst = sub.add_parser("mst", help="Boruvka MST on the simulator, oracle-checked")
    mst.add_argument("graph")
    mst.add_argument("--seed", type=int, required=True)
    mst.add_argument("--out")
    mst.add_argument("--max-delta", type=_int_at_least(1))
    mst.add_argument("--max-rounds", type=_int_at_least(0), default=sim.SimConfig.max_rounds)
    mst.set_defaults(func=_cmd_mst)

    bench = sub.add_parser("bench", help="sweep a spec file into a CSV report")
    bench.add_argument("spec")
    bench.add_argument("--out")
    bench.add_argument("--max-delta", type=_int_at_least(1))
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (GraphError, OSError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except (engine.EngineError, sim.SimError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
