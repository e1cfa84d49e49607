import gc
import hashlib
import random
import re
import tracemalloc

import pytest

from treeshort.graph import (
    INFINITE,
    Graph,
    GraphError,
    Partition,
    bfs_tree,
    diameter,
    dumps_graph,
    dumps_partition,
    loads_graph,
    loads_partition,
    validate_partition,
)
from treeshort.generators import gen_grid, gen_ktree, gen_wheel

import oracles
from conftest import merged_diameter


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestGraph:
    def test_edge_ids_are_dense_positions(self):
        g = Graph(4, [(3, 0), (1, 2), (0, 1)])
        assert g.edges == ((0, 3), (1, 2), (0, 1))
        assert g.edge_id(0, 3) == 0
        assert g.edge_id(2, 1) == 1
        assert g.m == 3

    def test_rejects_self_loop_and_parallel(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_weight_range_enforced(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], [0])
        with pytest.raises(GraphError):
            Graph(2, [(0, 1)], [2**31])
        g = Graph(2, [(0, 1)], [2**31 - 1])
        assert g.weights[0] == 2**31 - 1

    def test_weight_count_must_match_edge_count(self):
        with pytest.raises(GraphError, match="^weight count does not match edge count$"):
            Graph(3, [(0, 1), (1, 2)], [5])

    def test_neighbors_sorted(self):
        g = Graph(4, [(2, 0), (0, 3), (0, 1)])
        assert g.neighbors(0) == (1, 2, 3)

    def test_edge_lookups_match_oracle(self):
        """`edge_id`, `adjacency` and `neighbors` on random small graphs with
        random edge order and orientation, for every pair in [-2, n+2)."""
        rng = random.Random(15)
        for _ in range(60):
            n = rng.randint(1, 9)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            chosen = rng.sample(pairs, rng.randint(0, len(pairs)))
            g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in chosen])
            for u in range(-2, n + 2):
                for v in range(-2, n + 2):
                    a, b = min(u, v), max(u, v)
                    if (a, b) in g.edges:
                        assert g.edge_id(u, v) == g.edges.index((a, b))
                    else:
                        with pytest.raises(GraphError) as err:
                            g.edge_id(u, v)
                        assert str(err.value) == f"no edge ({a}, {b})"
            for v in range(n):
                expected = sorted(
                    (b if a == v else a, eid) for eid, (a, b) in enumerate(g.edges) if v in (a, b)
                )
                assert list(g.adjacency(v)) == expected
                assert g.neighbors(v) == tuple(u for u, _ in expected)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 0), (0, 9)], "parallel edge (0, 1)"),
            ([(0, 9), (0, 1), (1, 0)], "edge (0, 9) out of range for n=4"),
            ([(0, 1), (0, 1), (2, 2)], "parallel edge (0, 1)"),
            ([(2, 2), (0, 1), (0, 1)], "self-loop at node 2"),
        ],
        ids=["parallel-then-range", "range-then-parallel", "parallel-then-loop", "loop-then-parallel"],
    )
    def test_construction_error_precedence(self, edges, message):
        """The first malformed edge in input order names the error."""
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            Graph(4, edges)


    @pytest.mark.parametrize(
        "build", [lambda: gen_grid(32, 32), lambda: gen_ktree(1000, 3, 1)], ids=["grid", "ktree"]
    )
    def test_retains_at_most_250_bytes_per_edge(self, build):
        """A graph keeps its edge tuples, one int per edge id and two per-node
        tuples of neighbours and edge ids: no object per arc and no
        endpoint-pair index (an index and per-arc pairs take about 360 B per
        edge on these graphs, the layout about 170)."""
        source = build()
        n, edges = source.n, list(source.edges)
        del source
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = Graph(n, edges)
            gc.collect()  # a full collection empties the free lists, which hold freed tuples
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 250 * g.m


class TestBfsTree:
    def test_path_depths(self):
        t = bfs_tree(path_graph(3), 0)
        assert [t.depth[v] for v in range(3)] == [0, 1, 2]
        assert t.D == 2

    def test_wheel_from_hub_depth_one(self):
        t = bfs_tree(gen_wheel(9), 0)
        assert t.D == 1

    def test_grid_corner_depth_matches_oracle(self):
        g = gen_grid(5, 5)
        t = bfs_tree(g, 0)
        assert t.D == oracles.eccentricity(g.n, g.edges, 0) == 8

    def test_disconnected_names_unreached_node(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(GraphError, match="node 2"):
            bfs_tree(g, 0)

    @pytest.mark.parametrize("root", [-1, 3])
    def test_invalid_root(self, root):
        with pytest.raises(GraphError, match=f"^invalid root {root}$"):
            bfs_tree(path_graph(3), root)

    @pytest.mark.parametrize(
        "g, root, digest",
        [
            (gen_grid(7, 5), 17, "95c6e33f2d43d88c8164c395a8473ad953b79abd752cea7dfb771fe8c7278162"),
            (gen_ktree(60, 3, 2), 59, "b6f1931f5a47ec49ccd3ccf2b191bb53b245663e137a82632f6b4b41792fd3f7"),
            (gen_wheel(12), 5, "a1645e89c698b3a94501d13b93a8153d89fe09f935e55ce853bb33e0c6c2afdb"),
        ],
        ids=["grid", "ktree", "wheel"],
    )
    def test_fields_pinned(self, g, root, digest):
        """Every field, the order of `order` and of each `children` tuple
        included, which the engine's bottom-up sweep and its outputs follow."""
        t = bfs_tree(g, root)
        text = repr(
            (t.parent, t.parent_edge, t.depth, t.D, t.children, t.order, sorted(t.tree_edges))
        )
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("g", [gen_grid(4, 6), gen_wheel(11), gen_ktree(30, 2, 7)])
    def test_depth_triangle_property(self, g):
        t = bfs_tree(g, 0)
        for u, v in g.edges:
            assert abs(t.depth[u] - t.depth[v]) <= 1


class TestDiameter:
    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_path(self, n):
        assert diameter(path_graph(n)) == n - 1

    def test_wheel_is_two(self):
        assert diameter(gen_wheel(10)) == 2

    @pytest.mark.parametrize("g", [gen_grid(4, 5), gen_wheel(12), gen_ktree(25, 3, 3)])
    def test_matches_oracle_both_orders(self, g):
        d = diameter(g)
        assert d == oracles.all_pairs_diameter(g.n, g.edges)
        assert d == oracles.all_pairs_diameter(g.n, g.edges, reverse_order=True)

    def test_disconnected_errors(self):
        with pytest.raises(GraphError):
            diameter(Graph(4, [(0, 1), (2, 3)]))


class TestInducedDiameter:
    """G[nodes] is the merged subgraph of the single part `nodes` with H empty."""

    @staticmethod
    def induced(g, nodes):
        return merged_diameter(g, list(nodes), set())

    def test_singleton_zero(self):
        assert self.induced(path_graph(3), [1]) == 0

    def test_wheel_rim_matches_oracle(self):
        # Full 9-node rim of wheel(10) is a 9-cycle: induced diameter 4.
        g = gen_wheel(10)
        rim = range(1, 10)
        assert self.induced(g, rim) == oracles.induced_diameter(g.n, g.edges, rim) == 4

    def test_sub_rim_path_stretches_to_eight(self):
        # Dropping one rim node of wheel(11) leaves a 9-node induced path.
        g = gen_wheel(11)
        sub = range(1, 10)
        assert self.induced(g, sub) == oracles.induced_diameter(g.n, g.edges, sub) == 8

    def test_disconnected_is_infinite(self):
        assert self.induced(path_graph(3), [0, 2]) == INFINITE

    @pytest.mark.parametrize("g", [gen_grid(3, 4), gen_wheel(8)])
    def test_whole_vertex_set_equals_diameter(self, g):
        assert self.induced(g, range(g.n)) == diameter(g)


class TestPartition:
    def test_ok(self):
        g = path_graph(2)
        p = Partition(2, [[0], [1]])
        assert validate_partition(g, p) is None

    def test_disconnected_part_reported(self):
        g = path_graph(3)
        with pytest.raises(GraphError, match=r"^part 0 induces a disconnected subgraph$"):
            validate_partition(g, Partition(3, [[0, 2]]))

    def test_overlap_reported(self):
        with pytest.raises(GraphError, match=r"^node 1 in part 0 and part 1$"):
            Partition(3, [[0, 1], [1, 2]])

    @pytest.mark.parametrize(
        "parts, message",
        [
            ([[0, 0, 1]], "node 0 listed twice in part 0"),
            ([[2, 3], [0], [4, 2]], "node 2 in part 0 and part 2"),
            # part order, then ascending node order: node 1 of part 1 is found first
            ([[0, 1], [3, 1, 3]], "node 1 in part 0 and part 1"),
            ([[0, 3], [3, 1, 1]], "node 1 listed twice in part 1"),
        ],
        ids=["within-part", "across-parts", "overlap-first", "repeat-first"],
    )
    def test_first_repeat_rejected(self, parts, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            Partition(5, parts)

    def test_empty_part_rejected(self):
        with pytest.raises(GraphError):
            Partition(3, [[]])

    def test_part_of_covers_unassigned(self):
        p = Partition(4, [[1, 2]])
        assert p.part_of == (None, 0, 0, None)


class TestFileFormats:
    def test_graph_round_trip_byte_identical(self):
        g = gen_grid(3, 3)
        text = dumps_graph(g)
        assert text.splitlines()[0] == "9 12"
        assert dumps_graph(loads_graph(text)) == text

    def test_weighted_round_trip(self):
        g = Graph(3, [(0, 1), (1, 2)], [7, 5])
        text = dumps_graph(g)
        assert text.splitlines()[0] == "3 2 weighted"
        g2 = loads_graph(text)
        assert g2.weights == (7, 5)
        assert dumps_graph(g2) == text

    def test_partition_round_trip(self):
        p = Partition(5, [[0, 1], [4, 3]])
        text = dumps_partition(p)
        assert text == "0 1\n3 4\n"
        assert dumps_partition(loads_partition(text, 5)) == text

    def test_bad_header(self):
        with pytest.raises(GraphError):
            loads_graph("1 2 3 4\n")
        with pytest.raises(GraphError):
            loads_graph("3 2\n0 1\n")
