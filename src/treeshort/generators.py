"""Deterministic instance families with known diameter and minor-density bounds.

The lower-bound family realizes the topology that forces quality
(delta' - 3) * D' / 6 for its row parts: a short path on top, a square grid
of row paths below, and delta evenly spaced columns whose every D-th node
attaches to a top-path node.  Grids and k-trees provide planar and
bounded-treewidth families whose minor density is analytically capped, which
pins down how far the engine's doubling search may go.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, GraphError, Partition


@dataclass(frozen=True)
class LowerBoundInstance:
    """A lower-bound topology and its parameters.

    Node ids are dense: top-path node p_i (i in 1..top_path_nodes) is i - 1,
    and grid node v_{i,j} (row i, column j, both in 1..grid_side) is
    top_path_nodes + (i - 1) * grid_side + (j - 1).
    """

    graph: Graph
    parts: Partition  # the row paths; top-path nodes belong to no part
    delta_prime: int
    D_prime: int
    delta: int  # delta' - 2
    D: int  # k * delta, k = floor(D' / (2 delta))
    top_path_nodes: int  # (delta-1)*k + 1
    grid_side: int  # (delta-1)*D + 1
    quality_floor: Fraction  # (delta'-3) * D' / 6


def gen_lower_bound(delta_prime: int, D_prime: int) -> LowerBoundInstance:
    """Topology whose best shortcut quality is at least (delta'-3) * D' / 6.

    Requires 5 <= delta' <= D'/2.  Node count is
    ((delta-1)k + 1) + ((delta-1)D + 1)^2 for delta = delta'-2,
    k = floor(D'/(2 delta)), D = k*delta.  The radius, the eccentricity of the
    central top-path node, is at most 1.5D+1 <= D'; the diameter is about
    2.5D.  Every minor has density below delta'.
    """
    FAMILIES["lowerbound"].check(delta_prime, D_prime)
    delta = delta_prime - 2
    k = D_prime // (2 * delta)
    D = k * delta
    top = (delta - 1) * k + 1
    side = (delta - 1) * D + 1

    def p_node(i: int) -> int:  # numbered as in LowerBoundInstance
        return i - 1

    def v_node(i: int, j: int) -> int:
        return top + (i - 1) * side + (j - 1)

    edges: list[tuple[int, int]] = []
    # top path p_1 - p_2 - ... - p_top
    for i in range(1, top):
        edges.append((p_node(i), p_node(i + 1)))
    # row paths v_{i,1} - ... - v_{i,side}
    for i in range(1, side + 1):
        for j in range(1, side):
            edges.append((v_node(i, j), v_node(i, j + 1)))
    # every D-th column is a full path
    for j in range(1, delta + 1):
        col = (j - 1) * D + 1
        for i in range(1, side):
            edges.append((v_node(i, col), v_node(i + 1, col)))
    # every D-th node of such a column attaches to one top-path node
    for j in range(1, delta + 1):
        col = (j - 1) * D + 1
        anchor = p_node((j - 1) * k + 1)
        for jp in range(1, delta + 1):
            row = (jp - 1) * D + 1
            edges.append((v_node(row, col), anchor))
    g = Graph(top + side * side, edges)
    parts = Partition(
        g.n, [[v_node(i, j) for j in range(1, side + 1)] for i in range(1, side + 1)]
    )
    return LowerBoundInstance(
        graph=g,
        parts=parts,
        delta_prime=delta_prime,
        D_prime=D_prime,
        delta=delta,
        D=D,
        top_path_nodes=top,
        grid_side=side,
        quality_floor=Fraction((delta_prime - 3) * D_prime, 6),
    )


def gen_grid(w: int, h: int) -> Graph:
    """w x h grid, node (r, c) -> r*w + c; planar, so every minor density < 3."""
    FAMILIES["grid"].check(w, h)
    edges = []
    for r in range(h):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < h:
                edges.append((v, v + w))
    return Graph(w * h, edges)


def gen_wheel(n: int) -> Graph:
    """Wheel: hub 0, rim cycle 1..n-1, spokes from hub to every rim node."""
    FAMILIES["wheel"].check(n)
    edges = [(0, v) for v in range(1, n)]
    edges += [(v, v + 1) for v in range(1, n - 1)]
    edges.append((1, n - 1))
    return Graph(n, edges)


def gen_ktree(n: int, k: int, seed: int) -> Graph:
    """Random k-tree: K_{k+1} plus vertices joined to random existing k-cliques.

    Treewidth is exactly k, so every minor has density at most k.
    """
    FAMILIES["ktree"].check(n, k)
    rng = random.Random(seed)
    edges = [(u, v) for u in range(k + 1) for v in range(u + 1, k + 1)]
    cliques: list[tuple[int, ...]] = [
        tuple(u for u in range(k + 1) if u != skip) for skip in range(k + 1)
    ]
    for v in range(k + 1, n):
        base = cliques[rng.randrange(len(cliques))]
        for u in base:
            edges.append((u, v))
        for skip in base:
            cliques.append(tuple(u for u in base if u != skip) + (v,))
    return Graph(n, edges)


def check_part_count(count: int, n: int) -> None:
    """Raise unless a graph of n nodes can hold `count` non-empty parts."""
    if not 1 <= count <= n:
        raise GraphError(f"part count must be in [1, {n}], got {count}")


def gen_parts_random(g: Graph, count: int, seed: int) -> Partition:
    """Partition grown by multi-source BFS from `count` random distinct roots.

    Every part is connected; on a connected graph the growth saturates and no
    node is left unassigned.
    """
    check_part_count(count, g.n)
    rng = random.Random(seed)
    roots = rng.sample(range(g.n), count)
    part_of = [-1] * g.n
    queue = []
    for i, r in enumerate(roots):
        part_of[r] = i
        queue.append(r)
    for v in queue:  # the list grows as it is walked
        for u in g.neighbors(v):
            if part_of[u] < 0:
                part_of[u] = part_of[v]
                queue.append(u)
    parts: list[list[int]] = [[] for _ in range(count)]
    for v, i in enumerate(part_of):
        if i >= 0:
            parts[i].append(v)
    return Partition(g.n, parts)


def assign_weights(g: Graph, seed: int) -> Graph:
    """Copy of g with pairwise distinct pseudo-random weights in [1, 2^31)."""
    rng = random.Random(seed)
    return Graph(g.n, g.edges, rng.sample(range(1, 2**31), g.m))


def _lower_bound_family(params: list[int], seed: int | None) -> tuple[Graph, Partition, dict]:
    """`gen_lower_bound` in the `Family.build` shape: meta is every other field."""
    inst = gen_lower_bound(*params)
    return inst.graph, inst.parts, dict(
        delta_prime=inst.delta_prime, D_prime=inst.D_prime, delta=inst.delta, D=inst.D,
        top_path_nodes=inst.top_path_nodes, grid_side=inst.grid_side,
        quality_floor=f"{inst.quality_floor.numerator}/{inst.quality_floor.denominator}",
    )


@dataclass(frozen=True)
class Family:
    """One instance family as `treeshort gen` and `treeshort bench` take it.
    `build(params, seed)` returns (graph, own partition or None, meta): meta
    holds what `gen` writes to meta.json beside the fields every family has."""

    params: tuple[str, ...]  # names, for the arity check and the usage text
    valid: Callable[..., bool]  # the parameter ranges
    error: str  # formatted with params that are not valid
    build: Callable[[list[int], int | None], tuple[Graph, Partition | None, dict]]
    n: Callable[..., int] | None = None  # node count; None for a family with its own parts
    seeded: bool = False  # draws randomness, so needs a seed

    def check(self, *params: int) -> None:
        if not self.valid(*params):
            raise GraphError(self.error.format(*params))


FAMILIES = {
    "lowerbound": Family(
        ("DELTA'", "D'"), lambda dp, Dp: 5 <= dp and 2 * dp <= Dp,
        "need 5 <= delta' <= D'/2, got delta'={}, D'={}", _lower_bound_family,
    ),
    "grid": Family(
        ("W", "H"), lambda w, h: min(w, h) >= 1, "grid dimensions must be positive, got [{}, {}]",
        lambda p, seed: (gen_grid(*p), None, {}), n=lambda w, h: w * h,
    ),
    "wheel": Family(
        ("N",), lambda n: n >= 4, "wheel needs at least 4 nodes, got {}",
        lambda p, seed: (gen_wheel(*p), None, {}), n=lambda n: n,
    ),
    "ktree": Family(
        ("N", "K"), lambda n, k: 1 <= k < n, "ktree needs k >= 1 and n >= k+1, got n={}, k={}",
        lambda p, seed: (gen_ktree(*p, seed), None, {}), n=lambda n, k: n, seeded=True,
    ),
}
