import math
import re
from fractions import Fraction

import pytest

from treeshort.audit import (
    as_edge_map,
    audit_shortcut,
    block_dilation_bound,
    check_tree_restricted,
    measure_congestion,
    partial_to_full_congestion,
    validate_minor,
)
from treeshort.engine import MinorCertificate, MinorEdge, MinorNode, PartialShortcut
from treeshort.graph import INFINITE, Graph, GraphError, Partition, bfs_tree
from treeshort.generators import gen_grid, gen_wheel
from treeshort.sim import AggregationTask, SimConfig, partwise_aggregate

from conftest import merged_diameter
from oracles import thomason_bounds


def k4():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestAsEdgeMap:
    """A shortcut is a sequence of edge-id sets indexed by part or a mapping
    from part index to edge ids; nothing else is read as one."""

    @pytest.mark.parametrize(
        "shortcut",
        [[{0}, set(), {1, 2}], ({0}, frozenset(), {1, 2}), {0: {0}, 1: [], 2: (2, 1)}],
        ids=["list", "tuple", "dict"],
    )
    def test_sequences_and_mappings_agree(self, shortcut):
        assert as_edge_map(shortcut) == {0: frozenset({0}), 1: frozenset(), 2: frozenset({1, 2})}

    @pytest.mark.parametrize(
        "shortcut",
        [PartialShortcut(edge_sets={0: frozenset({1})}), 3, None],
        ids=["partial-shortcut", "int", "none"],
    )
    def test_other_types_raise_naming_the_type(self, shortcut):
        name = type(shortcut).__name__
        with pytest.raises(TypeError, match=f"^cannot interpret {name} as a shortcut$"):
            as_edge_map(shortcut)


class TestCongestion:
    def test_shared_edge_counts_twice(self):
        assert measure_congestion({0: {0}, 1: {0}}) == 2

    def test_all_empty(self):
        assert measure_congestion({0: set(), 1: set()}) == 0


class TestDilation:
    def test_singleton_empty(self):
        g = Graph(2, [(0, 1)])
        assert merged_diameter(g, [0], set()) == 0

    def test_wheel_rim_with_all_spokes(self):
        g = gen_wheel(10)
        spokes = {g.edge_id(0, v) for v in range(1, 10)}
        assert merged_diameter(g, list(range(1, 10)), spokes) == 2

    def test_disconnected_merged_is_infinite(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert merged_diameter(g, [0, 2], set()) == INFINITE

    def test_tree_merged_subgraphs_match_all_pairs_oracle(self):
        # tree-shaped merged subgraphs take the double-BFS fast path; the
        # value must still equal the exhaustive all-pairs answer
        import oracles
        from treeshort.generators import gen_ktree

        for seed in range(5):
            g = gen_ktree(40, 1, seed)
            assert merged_diameter(g, list(range(g.n)), set()) == oracles.all_pairs_diameter(
                g.n, g.edges
            )


class TestBlocks:
    def test_empty_shortcut_counts_isolated_nodes(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        t = bfs_tree(g, 0)
        assert audit_shortcut(g, t, Partition(4, [[1]]), {0: set()}).blocks == 1
        assert audit_shortcut(g, t, Partition(4, [[1, 2, 3]]), {0: set()}).blocks == 3

    def test_part_split_by_one_missing_tree_edge(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        t = bfs_tree(g, 0)
        # part {1,2,3,4} shortcut omits edge (2,3): two fragments
        edges = {g.edge_id(1, 2), g.edge_id(3, 4)}
        assert audit_shortcut(g, t, Partition(5, [[1, 2, 3, 4]]), {0: edges}).blocks == 2

    def test_non_tree_edge_is_an_error(self):
        g = gen_wheel(6)
        t = bfs_tree(g, 0)
        rim_edge = g.edge_id(1, 2)
        assert rim_edge not in t.tree_edges
        with pytest.raises(GraphError):
            audit_shortcut(g, t, Partition(6, [[1]]), {0: {rim_edge}})


class TestTreeRestriction:
    def test_empty_true(self):
        t = bfs_tree(gen_wheel(6), 0)
        assert check_tree_restricted({0: set()}, t) is None

    def test_rim_edge_false(self):
        g = gen_wheel(6)
        t = bfs_tree(g, 0)
        rim = g.edge_id(1, 2)
        message = f"^edge {rim} is not a tree edge; shortcut is not tree-restricted$"
        with pytest.raises(GraphError, match=message):
            check_tree_restricted({0: {g.edge_id(0, 1)}, 1: {rim}}, t)

    def test_unknown_id_named(self):
        t = bfs_tree(gen_wheel(6), 0)
        with pytest.raises(GraphError, match="^unknown edge id 99$"):
            check_tree_restricted([{99}], t)

    def test_unknown_id_outranks_smaller_non_tree_id(self):
        g = gen_wheel(6)
        t = bfs_tree(g, 0)
        rim = g.edge_id(1, 2)  # a non-tree id below every unknown one
        with pytest.raises(GraphError, match=f"^unknown edge id {g.m}$"):
            check_tree_restricted([{rim}, {g.m, rim}], t)


class TestBoundFormulas:
    @pytest.mark.parametrize("b,D,expected", [(1, 0, 1), (8, 5, 88), (24, 6, 312)])
    def test_block_dilation_bound(self, b, D, expected):
        assert block_dilation_bound(b, D) == expected

    @pytest.mark.parametrize("c,k,expected", [(10, 1, 10), (10, 8, 30), (144, 50, 864)])
    def test_partial_to_full_congestion(self, c, k, expected):
        assert partial_to_full_congestion(c, k) == expected

    def test_thomason_r2(self):
        bounds = thomason_bounds(2)
        assert bounds.delta_low == 0.5
        assert bounds.delta_high == 16.0

    def test_thomason_r4(self):
        bounds = thomason_bounds(4)
        assert bounds.delta_low == Fraction(3, 2)
        assert bounds.delta_high == pytest.approx(32 * math.sqrt(2))

    def test_thomason_r3_low(self):
        assert thomason_bounds(3).delta_low == 1.0

    def test_thomason_rejects_small_r(self):
        with pytest.raises(ValueError):
            thomason_bounds(1)

    def test_thomason_ordering(self):
        for r in range(2, 51):
            bounds = thomason_bounds(r)
            assert bounds.delta_low <= bounds.delta_high


def singleton_cert(g, density=None):
    nodes = tuple(MinorNode("part", i, (i,)) for i in range(4))
    edges = tuple(
        MinorEdge(a, b, g.edge_id(a, b)) for a in range(4) for b in range(a + 1, 4)
    )
    return MinorCertificate(nodes, edges, density or Fraction(6, 4))


class TestValidateMinor:
    def test_k4_identity_ok(self):
        g = k4()
        cert = singleton_cert(g)
        assert validate_minor(g, cert) is None
        assert cert.density == Fraction(3, 2)

    def test_shared_vertex_violation(self):
        g = k4()
        nodes = (MinorNode("part", 0, (0, 1)), MinorNode("part", 1, (1, 2)))
        cert = MinorCertificate(nodes, (MinorEdge(0, 1, g.edge_id(1, 2)),), Fraction(1, 2))
        with pytest.raises(GraphError, match=r"^node 1 appears in minor nodes 0 and 1$"):
            validate_minor(g, cert)

    def test_witness_inside_one_set(self):
        g = k4()
        nodes = (MinorNode("part", 0, (0, 1)), MinorNode("part", 1, (2, 3)))
        cert = MinorCertificate(nodes, (MinorEdge(0, 1, g.edge_id(0, 1)),), Fraction(1, 2))
        message = f"witness edge {g.edge_id(0, 1)}=(0,1) does not join sets 0 and 1"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            validate_minor(g, cert)

    def test_disconnected_set(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        nodes = (MinorNode("part", 0, (0, 3)), MinorNode("part", 1, (1,)))
        cert = MinorCertificate(nodes, (), Fraction(0, 1))
        with pytest.raises(GraphError, match=r"^minor node 0 induces a disconnected set$"):
            validate_minor(g, cert)

    def test_duplicate_minor_edge(self):
        g = k4()
        nodes = (MinorNode("part", 0, (0,)), MinorNode("part", 1, (1,)))
        e = MinorEdge(0, 1, g.edge_id(0, 1))
        cert = MinorCertificate(nodes, (e, MinorEdge(1, 0, g.edge_id(0, 1))), Fraction(1, 1))
        with pytest.raises(GraphError, match=r"^minor edge \(0, 1\) listed twice$"):
            validate_minor(g, cert)

    def test_density_mismatch(self):
        g = k4()
        cert = singleton_cert(g, density=Fraction(2, 1))
        with pytest.raises(GraphError, match=r"^stated density 2 != recomputed 3/2$"):
            validate_minor(g, cert)

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            (((0,), ()), (), "minor node 1 maps to an empty vertex set"),
            (((0,), (1, 4)), (), "minor node 1 contains invalid node 4"),
            (((0,), (1,)), ((1, 1, 0),), "minor edge joins node 1 to itself"),
            (((0,), (1,)), ((0, 2, 0),), "minor edge (0, 2) out of range"),
            (((0,), (1,)), ((0, 1, 6),), "witness edge id 6 unknown"),
            (((0,), (1.5,)), (), "minor node 1 contains invalid node 1.5"),
            (((0,), ("1",)), (), "minor node 1 contains invalid node '1'"),
            (((None,), (1,)), (), "minor node 0 contains invalid node None"),
            (((0,), (True,)), (), "minor node 1 contains invalid node True"),
            (((0,), (1,)), ((0, 1, 0.0),), "witness edge id 0.0 unknown"),
            (((0,), (1,)), ((0, 1.0, 0),), "minor edge (0, 1.0) out of range"),
            (((0,), (1,)), ((0, "1", 0),), "minor edge (0, '1') out of range"),
            (((0,), (1,)), ((True, 0, 0),), "minor edge (True, 0) out of range"),
        ],
        ids=[
            "empty-set",
            "bad-vertex",
            "self-edge",
            "bad-endpoint",
            "bad-witness",
            "float-vertex",
            "str-vertex",
            "none-vertex",
            "bool-vertex",
            "float-witness",
            "float-endpoint",
            "str-endpoint",
            "bool-endpoint",
        ],
    )
    def test_malformed_certificate(self, vertices, edges, message):
        g = k4()
        nodes = tuple(MinorNode("part", i, vs) for i, vs in enumerate(vertices))
        cert = MinorCertificate(
            nodes, tuple(MinorEdge(*e) for e in edges), Fraction(len(edges), len(nodes))
        )
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            validate_minor(g, cert)


class TestAuditReport:
    def test_partition_for_other_node_count_rejected(self):
        # without the check, node 11 would index past the 9-node graph
        g = gen_grid(3, 3)
        p = Partition(12, [[0, 1], [4, 11]])
        with pytest.raises(GraphError, match=r"^partition built for n=12, graph has n=9$"):
            audit_shortcut(g, bfs_tree(g, 0), p, [frozenset(), frozenset()])

    def test_recomputation_is_stable(self):
        g = gen_wheel(10)
        t = bfs_tree(g, 0)
        p = Partition(10, [list(range(1, 10))])
        spokes = frozenset(g.edge_id(0, v) for v in range(1, 10))
        first = audit_shortcut(g, t, p, {0: spokes})
        second = audit_shortcut(g, t, p, {0: spokes})
        assert first == second
        assert first.quality == first.congestion + first.dilation
        assert first.congestion == 1
        assert first.dilation == 2
        assert first.blocks == 1


# the two entry points that take a shortcut from a caller
ENTRY_POINTS = [
    lambda g, p, shortcut: audit_shortcut(g, bfs_tree(g, 0), p, shortcut),
    lambda g, p, shortcut: partwise_aggregate(
        g, p, shortcut, AggregationTask({v: 1 for v in range(g.n)}, "sum", p), SimConfig()
    ),
]


class TestShortcutEntries:
    """A shortcut entry for a part index outside range(p.k) names no part;
    both entry points reject it, naming the smallest such index, rather than
    count it in the congestion or drop it."""

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS, ids=["audit", "aggregate"])
    @pytest.mark.parametrize(
        "shortcut, index",
        [(lambda e: [frozenset({e})] * 7, 3), (lambda e: {5: {e}, 9: {e}}, 5)],
        ids=["long-sequence", "mapping"],
    )
    def test_entry_for_no_part_rejected(self, entry_point, shortcut, index):
        g = gen_grid(4, 4)
        p = Partition(g.n, [[0, 1], [5, 6], [10, 11]])
        e = next(iter(bfs_tree(g, 0).tree_edges))
        message = f"shortcut has an entry for part {index}; partition has 3 parts"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            entry_point(g, p, shortcut(e))

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS, ids=["audit", "aggregate"])
    @pytest.mark.parametrize("shortcut", [(), [frozenset()]], ids=["empty", "one-entry"])
    def test_short_sequence_rejected(self, entry_point, shortcut):
        """A sequence is indexed by part, so one with fewer than p.k entries
        leaves parts out rather than giving them no edges."""
        g = gen_grid(4, 4)
        p = Partition(g.n, [[0, 1], [5, 6], [10, 11]])
        message = f"shortcut covers {len(shortcut)} parts, partition has 3"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            entry_point(g, p, shortcut)

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS, ids=["audit", "aggregate"])
    @pytest.mark.parametrize("key", ["a", 1.0, True, None], ids=["str", "float", "bool", "none"])
    def test_key_that_is_not_an_int_rejected(self, entry_point, key):
        """A mapping key must be an int: a str or None is no part index, and a
        float or a bool equal to one is not taken for it."""
        g = gen_grid(4, 4)
        p = Partition(g.n, [[0, 1], [5, 6], [10, 11]])
        message = f"shortcut has an entry keyed {key!r}, not a part index"
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            entry_point(g, p, {0: set(), key: set()})
