from fractions import Fraction

import pytest

from treeshort.graph import Graph, GraphError, bfs_tree, diameter, validate_partition
from treeshort.generators import (
    assign_weights,
    gen_grid,
    gen_ktree,
    gen_lower_bound,
    gen_parts_random,
    gen_wheel,
)
from treeshort.apps import kruskal_oracle

import oracles
from oracles import is_planar


def lb_node(inst, i, j=None):
    """Id of top-path node p_i, or of grid node v_{i,j} when j is given."""
    if j is None:
        return i - 1
    return inst.top_path_nodes + (i - 1) * inst.grid_side + (j - 1)


def lower_bound_attachment_edges(inst):
    """Edge ids of the delta*(delta-1) attachments to rows other than row 1.

    Deleting them leaves a planar graph, which is what caps the minor density
    of the family via Euler's formula.
    """
    ids = []
    for j in range(1, inst.delta + 1):
        col = (j - 1) * inst.D + 1
        anchor = lb_node(inst, (j - 1) * (inst.D // inst.delta) + 1)
        for jp in range(2, inst.delta + 1):  # row 1 attachments stay
            row = (jp - 1) * inst.D + 1
            ids.append(inst.graph.edge_id(lb_node(inst, row, col), anchor))
    return ids


def lb_counts(delta_prime, D_prime):
    delta = delta_prime - 2
    k = D_prime // (2 * delta)
    D = k * delta
    side = (delta - 1) * D + 1
    top = (delta - 1) * k + 1
    nodes = top + side * side
    edges = (top - 1) + side * (side - 1) + delta * (side - 1) + delta * delta
    return nodes, edges, top, side


class TestLowerBound:
    def test_5_12_shape(self):
        inst = gen_lower_bound(5, 12)
        assert (inst.delta, inst.D // inst.delta, inst.D) == (3, 2, 6)
        assert inst.top_path_nodes == 5
        assert inst.grid_side == 13
        assert inst.graph.n == 174
        assert inst.quality_floor == Fraction(4)

    def test_6_16_quality_floor(self):
        assert gen_lower_bound(6, 16).quality_floor == Fraction(8)

    def test_counts_match_closed_forms_for_all_admissible(self):
        for delta_prime in range(5, 11):
            for D_prime in range(2 * delta_prime, 41):
                inst = gen_lower_bound(delta_prime, D_prime)
                nodes, edges, top, side = lb_counts(delta_prime, D_prime)
                assert inst.graph.n == nodes
                assert inst.graph.m == edges
                assert inst.top_path_nodes == top
                assert inst.grid_side == side
                assert inst.parts.k == side

    def test_row_parts_are_valid_and_top_path_unassigned(self):
        inst = gen_lower_bound(5, 12)
        assert validate_partition(inst.graph, inst.parts) is None
        for i in range(inst.top_path_nodes):
            assert inst.parts.part_of[lb_node(inst, i + 1)] is None

    def test_radius_bound_holds_at_the_hub(self):
        # The routing argument bounds the eccentricity of the middle top-path
        # node by 1.5D+1; the diameter itself lands between that and twice it.
        for delta_prime, D_prime in [(5, 12), (6, 16)]:
            inst = gen_lower_bound(delta_prime, D_prime)
            hub = lb_node(inst, (inst.top_path_nodes + 1) // 2)
            ecc = bfs_tree(inst.graph, hub).D
            assert ecc <= 1.5 * inst.D + 1 <= D_prime
            assert diameter(inst.graph) <= 2 * ecc

    def test_measured_diameters_frozen(self):
        # True diameters of the construction (middle-to-middle grid pairs);
        # see the radius test above for the guarantee that does hold.
        assert diameter(gen_lower_bound(5, 12).graph) == 15
        assert diameter(gen_lower_bound(6, 16).graph) == 22

    def test_planar_after_deleting_cross_attachments(self):
        for delta_prime, D_prime in [(5, 12), (6, 16)]:
            inst = gen_lower_bound(delta_prime, D_prime)
            doomed = lower_bound_attachment_edges(inst)
            assert len(doomed) == inst.delta * (inst.delta - 1)
            kept = [
                (u, v)
                for eid, (u, v) in enumerate(inst.graph.edges)
                if eid not in set(doomed)
            ]
            assert is_planar(Graph(inst.graph.n, kept))

    def test_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            gen_lower_bound(4, 12)
        with pytest.raises(GraphError):
            gen_lower_bound(6, 11)


class TestGrid:
    def test_one_by_three_is_a_path(self):
        g = gen_grid(1, 3)
        assert (g.n, g.m) == (3, 2)

    def test_two_by_two_is_a_cycle(self):
        g = gen_grid(2, 2)
        assert (g.n, g.m) == (4, 4)
        assert all(len(g.neighbors(v)) == 2 for v in range(4))

    @pytest.mark.parametrize("w,h", [(5, 5), (3, 7), (10, 4)])
    def test_edge_count_formula(self, w, h):
        assert gen_grid(w, h).m == 2 * w * h - w - h

    def test_planar(self):
        assert is_planar(gen_grid(6, 6))


class TestWheel:
    def test_four_is_k4(self):
        g = gen_wheel(4)
        assert (g.n, g.m) == (4, 6)
        assert set(g.edges) == {(u, v) for u in range(4) for v in range(u + 1, 4)}

    def test_diameter_two(self):
        assert diameter(gen_wheel(10)) == 2

    def test_rejects_small(self):
        with pytest.raises(GraphError):
            gen_wheel(3)


class TestKtree:
    def test_smallest_is_complete(self):
        g = gen_ktree(4, 3, 0)
        assert g.m == 6

    def test_one_tree_is_a_tree(self):
        g = gen_ktree(10, 1, 5)
        assert g.m == 9
        bfs_tree(g, 0)  # connected

    def test_edge_count_formula(self):
        assert gen_ktree(50, 3, 1).m == 3 * 50 - 6 == 144
        for n, k, seed in [(30, 2, 4), (17, 4, 9)]:
            assert gen_ktree(n, k, seed).m == k * n - k * (k + 1) // 2

    def test_deterministic(self):
        assert gen_ktree(40, 3, 123).edges == gen_ktree(40, 3, 123).edges

    def test_rejects_too_few_nodes(self):
        with pytest.raises(GraphError):
            gen_ktree(3, 3, 0)


class TestRandomParts:
    def test_single_part_is_everything(self):
        g = gen_grid(4, 4)
        p = gen_parts_random(g, 1, 0)
        assert p.k == 1 and len(p.parts[0]) == g.n

    def test_n_parts_are_singletons(self):
        g = gen_grid(3, 3)
        p = gen_parts_random(g, g.n, 0)
        assert p.k == g.n
        assert all(len(part) == 1 for part in p.parts)

    def test_grid_partition_golden(self):
        g = gen_grid(5, 5)
        p = gen_parts_random(g, 4, 2024)
        assert validate_partition(g, p) is None
        assert sum(len(part) for part in p.parts) == g.n
        assert p.parts == gen_parts_random(g, 4, 2024).parts

    def test_every_part_connected_across_seeds(self):
        g = gen_ktree(60, 2, 3)
        for seed in range(5):
            p = gen_parts_random(g, 12, seed)
            assert validate_partition(g, p) is None


class TestWeights:
    def test_distinct_and_deterministic(self):
        g = gen_grid(6, 6)
        w1 = assign_weights(g, 7)
        w2 = assign_weights(g, 7)
        assert w1.weights == w2.weights
        assert len(set(w1.weights)) == g.m

    def test_different_seeds_verified_by_brute_force(self):
        g = gen_wheel(4)  # K4: 16 spanning trees, easy to enumerate
        for seed in (1, 2):
            gw = assign_weights(g, seed)
            expected_set, expected_weight = oracles.min_spanning_weight_brute(
                gw.n, gw.edges, gw.weights
            )
            edges, weight = kruskal_oracle(gw)
            assert edges == expected_set
            assert weight == expected_weight
