import hashlib
import json
import math
import random

import pytest

from treeshort.apps import boruvka_mst, kruskal_oracle, label_components
from treeshort.generators import (
    assign_weights,
    gen_grid,
    gen_ktree,
    gen_lower_bound,
    gen_wheel,
)
from treeshort.graph import Graph, GraphError
from treeshort.sim import SimConfig

import oracles


class TestKruskalOracle:
    def test_tree_keeps_all_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (1, 3)], [4, 9, 2])
        edges, weight = kruskal_oracle(g)
        assert edges == {0, 1, 2}
        assert weight == 15

    def test_four_cycle_drops_heaviest(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1, 2, 3, 4])
        edges, weight = kruskal_oracle(g)
        expected_set, expected_weight = oracles.min_spanning_weight_brute(
            g.n, g.edges, g.weights
        )
        assert edges == expected_set == {0, 1, 2}
        assert weight == expected_weight == 6

    def test_k4_against_exhaustive_enumeration(self):
        base = gen_wheel(4)
        for seed in range(4):
            g = assign_weights(base, seed)
            expected_set, expected_weight = oracles.min_spanning_weight_brute(
                g.n, g.edges, g.weights
            )
            edges, weight = kruskal_oracle(g)
            assert edges == expected_set
            assert weight == expected_weight

    def test_requires_weights_and_distinctness(self):
        with pytest.raises(GraphError):
            kruskal_oracle(Graph(3, [(0, 1), (1, 2)]))
        with pytest.raises(GraphError):
            kruskal_oracle(Graph(3, [(0, 1), (1, 2)], [5, 5]))


class TestBoruvka:
    def test_star_single_phase_keeps_all_edges(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)], [5, 2, 9])
        result = boruvka_mst(g, SimConfig(seed=1))
        assert result.tree_edges == {0, 1, 2}
        assert result.phases == 1

    def test_four_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1, 2, 3, 4])
        result = boruvka_mst(g, SimConfig(seed=1))
        assert result.tree_edges == {0, 1, 2}
        assert result.total_weight == 6

    @pytest.mark.parametrize("seed", range(5))
    def test_grid_matches_kruskal_exactly(self, seed):
        g = assign_weights(gen_grid(16, 16), seed)
        result = boruvka_mst(g, SimConfig(seed=seed))
        edges, weight = kruskal_oracle(g)
        assert result.tree_edges == edges
        assert result.total_weight == weight
        assert result.phases <= math.ceil(math.log2(g.n))

    def test_ktree_and_lower_bound_families(self):
        for g in [
            assign_weights(gen_ktree(120, 3, 2), 11),
            assign_weights(gen_lower_bound(5, 12).graph, 12),
        ]:
            result = boruvka_mst(g, SimConfig(seed=7))
            edges, weight = kruskal_oracle(g)
            assert result.tree_edges == edges
            assert result.total_weight == weight

    def test_duplicate_weights_rejected(self):
        g = Graph(3, [(0, 1), (1, 2)], [4, 4])
        with pytest.raises(GraphError):
            boruvka_mst(g, SimConfig(seed=0))

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)], [1, 2])
        with pytest.raises(GraphError):
            boruvka_mst(g, SimConfig(seed=0))

    def test_per_phase_bookkeeping(self):
        g = assign_weights(gen_grid(8, 8), 3)
        result = boruvka_mst(g, SimConfig(seed=3))
        assert len(result.per_phase) == result.phases
        assert result.rounds_total == sum(ph.rounds for ph in result.per_phase)
        assert result.per_phase[0].fragments == g.n
        fragments = [ph.fragments for ph in result.per_phase]
        assert fragments == sorted(fragments, reverse=True)

    def test_deterministic(self):
        g = assign_weights(gen_grid(7, 7), 5)
        a = boruvka_mst(g, SimConfig(seed=9))
        b = boruvka_mst(g, SimConfig(seed=9))
        assert a == b


class TestLabelComponents:
    def test_no_edges_every_node_its_own(self):
        g = gen_grid(4, 4)
        labels = label_components(g, frozenset(), SimConfig(seed=1))
        assert labels == {v: v for v in range(g.n)}

    def test_all_edges_single_label(self):
        g = gen_grid(4, 4)
        labels = label_components(g, frozenset(range(g.m)), SimConfig(seed=1))
        assert set(labels.values()) == {0}

    @pytest.mark.parametrize("seed", range(4))
    def test_random_grid_subgraph_matches_union_find(self, seed):
        g = gen_grid(6, 6)
        rng = random.Random(seed)
        sub = frozenset(e for e in range(g.m) if rng.random() < 0.4)
        labels = label_components(g, sub, SimConfig(seed=seed))
        expected = oracles.component_labels(g.n, [g.endpoints(e) for e in sub])
        assert labels == expected

    def test_disconnected_host_graph(self):
        # two grid islands; machinery runs per host component
        island = gen_grid(3, 3)
        edges = list(island.edges) + [(u + 9, v + 9) for u, v in island.edges]
        # and 300 three-node paths on shuffled ids with shuffled edges, so
        # components interleave in node and in edge order
        rng = random.Random(5)
        ids = list(range(900))
        rng.shuffle(ids)
        paths = [(ids[3 * c], ids[3 * c + b]) for c in range(300) for b in (1, 2)]
        rng.shuffle(paths)
        for g in (Graph(18, edges), Graph(900, paths)):
            sub = frozenset(range(0, g.m, 2))
            labels = label_components(g, sub, SimConfig(seed=3))
            expected = oracles.component_labels(g.n, [g.endpoints(e) for e in sub])
            assert labels == expected


def json_digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class TestGolden:
    """MST results and labels pinned by hash, so a change to `apps` that moves
    an MST edge, a per-phase round count or a label fails here, not only a
    comparison of two runs of the same code."""

    def test_ktree_mst(self):
        g = assign_weights(gen_ktree(150, 3, 4), 6)
        result = boruvka_mst(g, SimConfig(seed=2))
        assert json_digest(result.to_json_dict()) == (
            "de7794ecab797c10d134682c6238238e0afd9318e56b06d7508f73a517b6d123"
        )

    def test_grid_mst(self):
        g = assign_weights(gen_grid(9, 9), 8)
        result = boruvka_mst(g, SimConfig(seed=3))
        assert json_digest(result.to_json_dict()) == (
            "86285794ac9b5e73332f5129025f6a0fe126542b426752f82a2e1679aa1b2f6b"
        )

    def test_labels_of_random_grid_subset(self):
        g = gen_grid(7, 7)
        rng = random.Random(5)
        sub = frozenset(e for e in range(g.m) if rng.random() < 0.45)
        labels = label_components(g, sub, SimConfig(seed=5))
        assert json_digest([labels[v] for v in range(g.n)]) == (
            "2324c14d71d995dec68293344d2595133a566f869b0dc1af524c57c480aea744"
        )

    def test_labels_on_disconnected_host(self):
        # two 3x3 islands and an isolated node 18
        island = gen_grid(3, 3)
        edges = list(island.edges) + [(u + 9, v + 9) for u, v in island.edges]
        g = Graph(19, edges)
        labels = label_components(g, frozenset(range(0, g.m, 2)), SimConfig(seed=3))
        assert json_digest([labels[v] for v in range(g.n)]) == (
            "6db6d74174f823c5c7cf03b52c1e8dc5cae6c0daeaf3c6452889e99ec465f3ed"
        )
