import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from treeshort.audit import _merged_subgraph
from treeshort.generators import gen_grid
from treeshort.graph import Graph, Partition, _diameter_of, bfs_tree


def merged_diameter(g, part, h):
    """Diameter of G[part] + h, where h may hold non-tree edges; INFINITE
    if the merged subgraph is disconnected."""
    nodes, adj = _merged_subgraph(g, part, frozenset(h))
    return _diameter_of(adj, nodes)


@pytest.fixture
def caterpillar():
    """Spine end r(5) - center a(0) - leaves u1..u4 (1..4), rooted at r.

    Node ids put the center at 0 so the CLI's root-0 BFS tree matches the
    BFS tree from r used by the marking examples up to the root choice.
    """
    g = Graph(6, [(0, 5), (0, 1), (0, 2), (0, 3), (0, 4)])
    tree = bfs_tree(g, 5)
    assert tree.parent == (5, 0, 0, 0, 0, 5)
    parts = Partition(6, [[1], [2], [3], [4]])
    return g, tree, parts


def build_fan(mids: int, parts_count: int, chain: int):
    """Two-level fan: root 0, `mids` middle nodes, `parts_count` parts of one
    leaf per middle node, leaves of a part chained so the part is connected.

    With chain == mids every part meets every middle subtree, which drives
    every part's degree in the congestion structure to `mids`.
    """
    assert chain == mids
    edges = [(0, 1 + b) for b in range(mids)]

    def leaf(i, b):
        return 1 + mids + i * mids + b

    for i in range(parts_count):
        for b in range(mids):
            edges.append((1 + b, leaf(i, b)))
        for b in range(mids - 1):
            edges.append((leaf(i, b), leaf(i, b + 1)))
    g = Graph(1 + mids + parts_count * mids, edges)
    parts = Partition(g.n, [[leaf(i, b) for b in range(mids)] for i in range(parts_count)])
    return g, parts


def build_snake(w: int, h: int, r: int):
    """A w x h grid (`gen_grid` numbering) with h // (2r) snake parts.

    Part j takes rows 2rj, 2rj+2, ..., 2rj+2r-2 and, between rows 2rj+2t
    and 2rj+2t+2, the one node of row 2rj+2t+1 in column w-1 when t is even
    and in column 0 when t is odd.  The other nodes of the odd rows belong
    to no part.  A part is a path of about r*w nodes, which a tree shortcut
    can cut short.
    """
    g = gen_grid(w, h)
    parts = []
    for j in range(h // (2 * r)):
        part = []
        for t in range(r):
            row = 2 * r * j + 2 * t
            part += range(row * w, row * w + w)
            if t + 1 < r:
                part.append((row + 1) * w + (w - 1 if t % 2 == 0 else 0))
        parts.append(sorted(part))
    return g, Partition(g.n, parts)


@pytest.fixture
def fan_instance():
    """18 parts of 9 leaves over 9 middles: depth-2 tree, threshold 16 at
    delta=1, all middle edges overcongested, every part degree 9 > 8."""
    return build_fan(9, 18, 9)


def build_mixed_fan(mids: int, chained: int, singles_per_mid: int):
    """Fan with `chained` parts spanning every middle plus singleton leaf
    parts, `singles_per_mid` under each middle.

    Tuned so that at delta=1 (threshold 8*2) the middles are overcongested
    only while the singletons are still present: the first partial covers
    exactly the singletons, and the rerun on the remaining chained parts
    sees no overcongested edge at all.
    """
    edges = [(0, 1 + b) for b in range(mids)]

    def leaf(i, b):
        return 1 + mids + i * mids + b

    parts = []
    for i in range(chained):
        for b in range(mids):
            edges.append((1 + b, leaf(i, b)))
        for b in range(mids - 1):
            edges.append((leaf(i, b), leaf(i, b + 1)))
        parts.append([leaf(i, b) for b in range(mids)])
    base = 1 + mids + chained * mids
    for b in range(mids):
        for j in range(singles_per_mid):
            v = base + b * singles_per_mid + j
            edges.append((1 + b, v))
            parts.append([v])
    g = Graph(base + mids * singles_per_mid, edges)
    return g, Partition(g.n, parts)
