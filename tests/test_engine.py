import math
import random
from fractions import Fraction

import pytest

from treeshort import engine
from treeshort.audit import (
    audit_shortcut,
    block_dilation_bound,
    check_tree_restricted,
    measure_congestion,
    partial_to_full_congestion,
    validate_minor,
)
from treeshort.engine import (
    EngineConfig,
    MaxDeltaExceeded,
    case_one_partial,
    certificate_from_json_dict,
    construct_full,
    construct_partial,
    mark_overcongested,
    sample_dense_minor,
)
from treeshort.graph import Graph, GraphError, Partition, bfs_tree
from treeshort.generators import gen_ktree, gen_parts_random

import oracles
from conftest import build_fan


def path_instance(n):
    g = Graph(n, [(i, i + 1) for i in range(n - 1)])
    return g, bfs_tree(g, 0)


def part_degrees(marking, k):
    """Per part, the number of marked edges it lies below."""
    return [sum(i in s for s in marking.parts_below.values()) for i in range(k)]


class TestMarking:
    def test_caterpillar_threshold_three(self, caterpillar):
        g, tree, parts = caterpillar
        marking = mark_overcongested(tree, parts, 3)
        spine = g.edge_id(0, 5)
        assert marking.overcongested == {spine}
        assert marking.parts_below[spine] == {i: i + 1 for i in range(4)}
        assert part_degrees(marking, parts.k) == [1, 1, 1, 1]
        assert len(marking.parts_below[spine]) == 4

    def test_path_single_part_threshold_two_marks_nothing(self):
        g, tree = path_instance(6)
        parts = Partition(6, [list(range(6))])
        assert mark_overcongested(tree, parts, 2).overcongested == frozenset()

    def test_path_threshold_one_marks_every_covered_edge(self):
        g, tree = path_instance(6)
        parts = Partition(6, [list(range(6))])
        marking = mark_overcongested(tree, parts, 1)
        assert marking.overcongested == tree.tree_edges

    def test_threshold_dichotomy_on_random_trees(self):
        for seed in range(12):
            rng = random.Random(1000 + seed)
            n = rng.randrange(20, 200)
            g = gen_ktree(n, 1, seed)  # random tree
            tree = bfs_tree(g, 0)
            parts = gen_parts_random(g, rng.randrange(1, max(2, n // 3)), seed)
            c = rng.randrange(1, 12)
            marking = mark_overcongested(tree, parts, c)
            for eid in tree.tree_edges:
                expected = oracles.parts_below_tree_edge(
                    tree, parts, marking.overcongested, eid
                )
                if eid in marking.overcongested:
                    assert len(expected) >= c
                    assert marking.parts_below[eid].keys() == expected
                else:
                    assert len(expected) < c

    def test_representatives_are_valid_min_descendants(self):
        for seed in range(6):
            rng = random.Random(2000 + seed)
            n = rng.randrange(30, 150)
            g = gen_ktree(n, 1, seed)
            tree = bfs_tree(g, 0)
            parts = gen_parts_random(g, rng.randrange(2, 10), seed)
            marking = mark_overcongested(tree, parts, rng.randrange(1, 6))
            for eid, reps in marking.parts_below.items():
                for i, rep in reps.items():
                    assert parts.part_of[rep] == i
                    # walk up from rep: must reach the deeper endpoint without
                    # crossing a marked edge
                    ve = tree.deeper_endpoint(eid)
                    cur = rep
                    while cur != ve:
                        assert tree.parent_edge[cur] not in marking.overcongested
                        cur = tree.parent[cur]
                    # minimality among the part's nodes in the live component
                    live = [
                        v
                        for v in range(g.n)
                        if parts.part_of[v] == i
                        and v
                        in oracles_component_nodes(tree, marking.overcongested, ve)
                    ]
                    assert rep == min(live)


def oracles_component_nodes(tree, blocked, start):
    nodes = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for ch in tree.children[v]:
            if tree.parent_edge[ch] not in blocked:
                nodes.add(ch)
                stack.append(ch)
    return nodes


class TestCaseOne:
    def test_empty_marking_covers_everything_with_ancestors(self):
        g, tree = path_instance(5)
        parts = Partition(5, [[1], [3, 4]])
        marking = mark_overcongested(tree, parts, 99)
        partial = case_one_partial(marking, tree, parts, 1)
        assert partial.covered == {0, 1}
        assert partial.edge_sets[0] == {g.edge_id(0, 1)}
        assert partial.edge_sets[1] == {
            g.edge_id(0, 1),
            g.edge_id(1, 2),
            g.edge_id(2, 3),
            g.edge_id(3, 4),
        }

    def test_caterpillar_keeps_only_leaf_edges(self, caterpillar):
        g, tree, parts = caterpillar
        marking = mark_overcongested(tree, parts, 3)
        partial = case_one_partial(marking, tree, parts, 1)
        assert partial.covered == frozenset(range(4))
        for i in range(4):
            assert partial.edge_sets[i] == {g.edge_id(0, i + 1)}
        assert measure_congestion(g, partial) == 1
        assert audit_shortcut(g, tree, parts, partial).blocks == 1

    def test_every_part_degree_nine_returns_none(self, fan_instance):
        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        assert tree.D == 2
        marking = mark_overcongested(tree, parts, 8 * 1 * tree.D)
        assert set(part_degrees(marking, parts.k)) == {9}
        assert case_one_partial(marking, tree, parts, 1) is None
        # at delta=2 the same marking's degrees fall within 16
        assert case_one_partial(marking, tree, parts, 2) is not None

    def test_single_part_high_degree_corner(self):
        # k=1: a part with more than 8*delta marked edges above it fails case I
        g, parts = build_fan(9, 1, 9)
        tree = bfs_tree(g, 0)
        marking = mark_overcongested(tree, parts, 1)
        assert part_degrees(marking, parts.k) == [9]
        assert case_one_partial(marking, tree, parts, 1) is None

    def test_coverage_and_multiplicity_invariants(self):
        from treeshort.audit import _merged_subgraph, part_blocks

        for seed in range(8):
            rng = random.Random(3000 + seed)
            n = rng.randrange(30, 160)
            g = gen_ktree(n, 2, seed)
            tree = bfs_tree(g, 0)
            parts = gen_parts_random(g, rng.randrange(2, 20), seed)
            c = rng.randrange(1, 10)
            marking = mark_overcongested(tree, parts, c)
            partial = case_one_partial(marking, tree, parts, 1)
            if partial is None:
                continue
            assert len(partial.covered) >= -(-parts.k // 2)
            counts = {}
            deg = part_degrees(marking, parts.k)
            for i, edges in partial.edge_sets.items():
                assert i in partial.covered
                for eid in edges:
                    assert eid not in marking.overcongested
                    counts[eid] = counts.get(eid, 0) + 1
                # a covered part has one block per live forest component it
                # meets: at most its degree among marked edges, plus the root's
                nodes, _ = _merged_subgraph(g, parts.parts[i], edges)
                blocks = part_blocks(tree, nodes, edges)
                assert blocks <= deg[i] + 1
                assert blocks <= 8 * 1 + 1
            assert all(v < c for v in counts.values())

    def test_bipartite_structure_agrees_with_marking(self, fan_instance):
        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        marking = mark_overcongested(tree, parts, 16)
        assert set(marking.parts_below) == marking.overcongested
        assert all(len(s) >= 16 for s in marking.parts_below.values())


class TestSampleDenseMinor:
    def test_no_marked_edges_yields_none(self):
        g, tree = path_instance(4)
        parts = Partition(4, [[0, 1, 2, 3]])
        marking = mark_overcongested(tree, parts, 50)
        assert marking.overcongested == frozenset()
        assert sample_dense_minor(g, tree, parts, marking, 1, random.Random(1)) is None

    def test_fan_certificate_is_sound(self, fan_instance):
        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        marking = mark_overcongested(tree, parts, 16)
        cert = sample_dense_minor(g, tree, parts, marking, 1, random.Random(42))
        assert cert is not None
        assert cert.density > 1
        assert cert.density == Fraction(len(cert.edges), len(cert.nodes))
        assert validate_minor(g, cert) is None
        kinds = {n.kind for n in cert.nodes}
        assert kinds == {"part", "edge"}

    def test_sampling_is_deterministic(self, fan_instance):
        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        marking = mark_overcongested(tree, parts, 16)
        a = sample_dense_minor(g, tree, parts, marking, 1, random.Random(9))
        b = sample_dense_minor(g, tree, parts, marking, 1, random.Random(9))
        assert a == b

    def test_certificate_json_round_trip(self, fan_instance):
        from treeshort.engine import certificate_from_json_dict, certificate_to_json_dict

        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        marking = mark_overcongested(tree, parts, 16)
        cert = sample_dense_minor(g, tree, parts, marking, 1, random.Random(42))
        data = certificate_to_json_dict(cert)
        assert "/" in data["density"]
        assert certificate_from_json_dict(data) == cert

    def test_links_match_path_oracle_on_two_layer_fan(self):
        # each spoke is middle - x - leaf, so a representative sits two steps
        # below the marked middle edge and a sampled x part can block its walk
        multi_step, rejected, _ = self.links_against_path_oracle(*build_two_layer_fan(33, 12))
        assert multi_step and rejected

    def test_links_skip_parts_without_a_representative(self):
        # a singleton part hangs below one middle only, so a sampled singleton
        # has no representative below any other marked edge
        _, _, unrepresented = self.links_against_path_oracle(
            *build_two_layer_fan(33, 12, singletons=12)
        )
        assert unrepresented

    @staticmethod
    def links_against_path_oracle(g, parts):
        """Checks 40 seeds' links against tree paths; returns the counts of
        multi-step paths, blocked paths and (edge, sampled part) pairs with
        no representative."""
        tree = bfs_tree(g, 0)
        assert tree.D == 3
        marking = mark_overcongested(tree, parts, 8 * tree.D)
        assert len(marking.overcongested) == 33
        multi_step = rejected = unrepresented = 0
        for seed in range(40):
            cert = sample_dense_minor(g, tree, parts, marking, 1, random.Random(seed))
            assert cert is not None
            sampled = {n.ref for n in cert.nodes if n.kind == "part"}
            in_sampled = {v for i in sampled for v in parts.parts[i]}
            edge_nodes = {n.ref for n in cert.nodes if n.kind == "edge"}
            assert edge_nodes == {
                e for e in marking.overcongested if tree.deeper_endpoint(e) not in in_sampled
            }
            want = set()
            for e in edge_nodes:
                unrepresented += len(sampled - marking.parts_below[e].keys())
                ve = tree.deeper_endpoint(e)
                live = oracles_component_nodes(tree, marking.overcongested, ve)
                for i in sampled:
                    members = [v for v in parts.parts[i] if v in live]
                    if not members:
                        continue
                    cur = tree.parent[min(members)]
                    path = [cur]
                    while cur != ve:
                        cur = tree.parent[cur]
                        path.append(cur)
                    multi_step += len(path) > 1
                    if in_sampled.isdisjoint(path):
                        want.add((e, i))
                    else:
                        rejected += 1
            got = {(cert.nodes[m.a].ref, cert.nodes[m.b].ref) for m in cert.edges}
            assert got == want
        return multi_step, rejected, unrepresented


def build_two_layer_fan(mids: int, rows: int, singletons: int = 0):
    """Root 0 and `mids` middles; each spoke is middle - x - leaf.  Per row,
    the x nodes form one chained part and the leaves another.  The first
    `singletons` middles each get one more leaf child, a part of its own."""
    edges = [(0, 1 + b) for b in range(mids)]
    parts = []
    for r in range(rows):
        xs = [1 + mids + 2 * r * mids + b for b in range(mids)]
        leaves = [x + mids for x in xs]
        for b in range(mids):
            edges += [(1 + b, xs[b]), (xs[b], leaves[b])]
        for row in (xs, leaves):
            edges += list(zip(row, row[1:]))
            parts.append(row)
    first = 1 + mids + 2 * rows * mids
    for b in range(singletons):
        edges.append((1 + b, first + b))
        parts.append([first + b])
    g = Graph(first + singletons, edges)
    return g, Partition(g.n, parts)


def _cert_data():
    return {
        "density": "3/2",
        "nodes": [
            {"kind": "part", "ref": 0, "vertices": [1, 2]},
            {"kind": "edge", "ref": 4, "vertices": [0]},
        ],
        "edges": [{"a": 0, "b": 1, "witness": 0}, {"a": 1, "b": 0, "witness": 2}],
    }


class TestCertificateJson:
    """A malformed certificate raises GraphError naming the field."""

    def test_valid_data_loads(self):
        cert = certificate_from_json_dict(_cert_data())
        assert cert.density == Fraction(3, 2)
        assert cert.nodes[1].vertices == (0,)
        assert cert.edges[1].witness == 2

    @pytest.mark.parametrize(
        "path, message",
        [
            (("density",), "^certificate field density is missing$"),
            (("nodes",), "^certificate field nodes is missing$"),
            (("edges",), "^certificate field edges is missing$"),
            (("nodes", 1, "vertices"), r"^certificate field nodes\[1\]\.vertices is missing$"),
            (("nodes", 0, "kind"), r"^certificate field nodes\[0\]\.kind is missing$"),
            (("edges", 1, "witness"), r"^certificate field edges\[1\]\.witness is missing$"),
        ],
        ids=["density", "nodes", "edges", "vertices", "kind", "witness"],
    )
    def test_missing_key(self, path, message):
        data = _cert_data()
        obj = data
        for key in path[:-1]:
            obj = obj[key]
        del obj[path[-1]]
        with pytest.raises(GraphError, match=message):
            certificate_from_json_dict(data)

    @pytest.mark.parametrize(
        "density, message",
        [
            ("3/x", "'3/x' is not an integer ratio"),
            ("1.5", "'1.5' is not an integer ratio"),
            ("", "'' is not an integer ratio"),
            ("3/0", "'3/0' has a zero denominator"),
            (1.5, "expected str, got float"),
        ],
        ids=["letter", "decimal", "empty", "zero-denominator", "not-a-string"],
    )
    def test_bad_density(self, density, message):
        data = _cert_data()
        data["density"] = density
        with pytest.raises(GraphError, match=f"^certificate field density: {message}$"):
            certificate_from_json_dict(data)

    @pytest.mark.parametrize(
        "where, value, message",
        [
            (("edges", 0, "a"), "0", r"edges\[0\]\.a: expected int, got str"),
            (("edges", 0, "b"), True, r"edges\[0\]\.b: expected int, got bool"),
            (("nodes", 0, "vertices"), [1, None], r"nodes\[0\]\.vertices: expected a list of ints"),
            (("nodes", 0, "kind"), 7, r"nodes\[0\]\.kind: expected str, got int"),
            (("nodes", 1), [0], r"nodes\[1\]: expected an object"),
            (("edges",), {}, "edges: expected list, got dict"),
        ],
        ids=["a-str", "b-bool", "vertex-none", "kind-int", "node-list", "edges-dict"],
    )
    def test_mistyped_field(self, where, value, message):
        data = _cert_data()
        obj = data
        for key in where[:-1]:
            obj = obj[key]
        obj[where[-1]] = value
        with pytest.raises(GraphError, match=f"^certificate field {message}$"):
            certificate_from_json_dict(data)


class TestConstructPartial:
    def test_caterpillar_is_case_one(self, caterpillar):
        g, tree, parts = caterpillar
        outcome = construct_partial(g, tree, parts, 1, random.Random(0))
        assert outcome.case == "I"
        # honest threshold 8*1*2=16 marks nothing, so ancestors go all the way up
        assert outcome.partial.covered == frozenset(range(4))

    def test_fan_is_case_two_at_delta_one(self, fan_instance):
        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        outcome = construct_partial(g, tree, parts, 1, random.Random(3))
        assert outcome.case == "II"
        assert outcome.certificate is not None
        assert outcome.certificate.density > 1

    def test_single_node_graph(self):
        g = Graph(1, [])
        tree = bfs_tree(g, 0)
        parts = Partition(1, [[0]])
        outcome = construct_partial(g, tree, parts, 1, random.Random(0))
        assert outcome.case == "I"
        assert outcome.partial.edge_sets[0] == frozenset()


class TestConstructFull:
    def test_single_part_gets_whole_tree(self):
        g, tree = path_instance(7)
        parts = Partition(7, [list(range(7))])
        result = construct_full(g, tree, parts, EngineConfig(), random.Random(0))
        assert result.delta_final == 1
        assert result.shortcut.edge_sets[0] == tree.tree_edges
        assert measure_congestion(g, result.shortcut) == 1
        assert audit_shortcut(g, tree, parts, result.shortcut).blocks == 1

    def test_fan_doubles_once_and_certifies(self, fan_instance):
        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        result = construct_full(g, tree, parts, EngineConfig(), random.Random(7))
        assert result.delta_final == 2
        assert len(result.certificates) + result.stats.uncertified_failures >= 1
        for cert in result.certificates:
            assert cert.density > 1  # fired at delta=1
            assert validate_minor(g, cert) is None
        report = audit_shortcut(g, tree, parts, result.shortcut)
        assert report.congestion == 18
        assert report.dilation == 4
        assert report.blocks == 1
        assert check_tree_restricted(result.shortcut, tree)
        assert result.delta_final == 2
        assert result.stats.covering_iterations == (1,) * parts.k

    def test_uncertified_case_two_still_yields_a_bounded_shortcut(self, fan_instance, monkeypatch):
        # with no minor-sampling attempts every case-II event is uncertified,
        # and the doubling search must still end in a full, bounded shortcut
        monkeypatch.setattr(engine, "MINOR_ATTEMPTS_PER_DEPTH", 0)
        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        result = construct_full(g, tree, parts, EngineConfig(), random.Random(7))
        assert result.stats.uncertified_failures >= 1
        assert result.certificates == ()
        assert result.stats.certificate_deltas == ()
        assert len(result.shortcut.edge_sets) == parts.k
        assert None not in result.stats.covering_iterations
        assert check_tree_restricted(result.shortcut, tree)
        delta, D, k = result.delta_final, tree.D, parts.k
        report = audit_shortcut(g, tree, parts, result.shortcut)
        assert report.congestion <= partial_to_full_congestion(8 * delta * D, k)
        assert report.blocks <= 8 * delta
        assert report.dilation <= 8 * delta * (2 * D + 1)
        for q in report.per_part:
            assert q.dilation <= block_dilation_bound(q.blocks, D)

    def test_max_delta_cap_carries_certificates(self, fan_instance):
        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        with pytest.raises(MaxDeltaExceeded) as err:
            construct_full(g, tree, parts, EngineConfig(max_delta=1), random.Random(7))
        assert err.value.max_delta == 1
        for cert in err.value.certificates:
            assert cert.density > 1

    def test_two_iterations_within_one_delta(self):
        # iteration 1 covers the 18 singleton parts (degree 1 <= 8); the 15
        # chained parts (degree 9) wait for the rerun, where the middles are
        # no longer overcongested and everything is covered at the same delta
        from conftest import build_mixed_fan

        g, parts = build_mixed_fan(9, 15, 2)
        tree = bfs_tree(g, 0)
        assert tree.D == 2
        result = construct_full(g, tree, parts, EngineConfig(), random.Random(4))
        assert result.delta_final == 1
        assert result.stats.iterations_by_delta == ((1, 2),)
        report = audit_shortcut(g, tree, parts, result.shortcut)
        lg = math.ceil(math.log2(parts.k))
        assert report.congestion <= 8 * 1 * tree.D * lg
        assert report.blocks <= 8
        # the stats record which iteration froze each part's edges
        iterations = set(result.stats.covering_iterations)
        assert iterations == {1, 2}
        for i, it in enumerate(result.stats.covering_iterations):
            expected = 2 if len(parts.parts[i]) == 9 else 1
            assert (result.delta_final, it) == (1, expected)
        # chained parts were covered against an empty marking: whole ancestry
        root_edges = {g.edge_id(0, 1 + b) for b in range(9)}
        for i in range(15):
            assert root_edges <= result.shortcut.edge_sets[i]
        for i in range(15, 33):
            assert len(result.shortcut.edge_sets[i]) == 1

    def test_deterministic_given_seed(self, fan_instance):
        g, parts = fan_instance
        tree = bfs_tree(g, 0)
        a = construct_full(g, tree, parts, EngineConfig(), random.Random(5))
        b = construct_full(g, tree, parts, EngineConfig(), random.Random(5))
        assert a.shortcut == b.shortcut
        assert a.delta_final == b.delta_final
        assert a.certificates == b.certificates

    def test_grid_delta_final_stays_planar_small(self):
        from treeshort.generators import gen_grid

        g = gen_grid(16, 16)
        tree = bfs_tree(g, 0)
        for seed in range(10):
            parts = gen_parts_random(g, 50, seed)
            result = construct_full(g, tree, parts, EngineConfig(), random.Random(seed))
            assert result.delta_final <= 4

    def test_large_grid_delta_four_is_case_one(self):
        from treeshort.generators import gen_grid

        g = gen_grid(32, 32)
        tree = bfs_tree(g, 0)
        parts = gen_parts_random(g, 50, 8)
        outcome = construct_partial(g, tree, parts, 4, random.Random(8))
        assert outcome.case == "I"

    def test_structural_guarantees_on_random_ktrees(self):
        for seed in (1, 2, 3):
            g = gen_ktree(150, 2, seed)
            tree = bfs_tree(g, 0)
            parts = gen_parts_random(g, 40, seed)
            result = construct_full(g, tree, parts, EngineConfig(), random.Random(seed))
            assert result.delta_final <= 4  # 2 * treewidth
            report = audit_shortcut(g, tree, parts, result.shortcut)
            lg = math.ceil(math.log2(max(parts.k, 2)))
            assert report.congestion <= 8 * result.delta_final * tree.D * lg
            assert report.blocks <= 8 * result.delta_final
            assert report.dilation <= 8 * result.delta_final * (2 * tree.D + 1)
            # block count implies the dilation bound per-part as well
            for pq in report.per_part:
                assert pq.dilation <= pq.blocks * (2 * tree.D + 1)
