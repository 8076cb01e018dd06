import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtbudget.errors import DisconnectedGraph, ParseError
from mtbudget.graph import (TaskGraph, augment_graph, build_interaction_model,
                            build_laplacian, parse_graph_file, resistance_matrix,
                            resolve_graph, verify_proposition_3_1)
from support import components_of, interaction_of, inverse_of


def random_graph(k, prob, rng):
    edges = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
             if rng.random() < prob]
    return TaskGraph.from_edges(k, edges)


@st.composite
def pair_lists(draw):
    """(k, pairs): a random graph's edges in random orientation and order,
    with up to two arbitrary pairs (self-loops, ids 0 or k+1) and perhaps a
    repeated pair mixed in."""
    k = draw(st.integers(1, 40))
    prob = draw(st.sampled_from([0.0, 0.05, 0.15, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pairs = [(i, j) if rng.random() < 0.5 else (j, i)
             for i in range(1, k + 1) for j in range(i + 1, k + 1)
             if rng.random() < prob]
    rng.shuffle(pairs)
    ids = st.integers(0, k + 1)
    for pair in draw(st.lists(st.tuples(ids, ids), max_size=2)):
        pairs.insert(draw(st.integers(0, len(pairs))), pair)
    repeat = draw(st.sampled_from([None, None, "same", "flipped"]))
    if pairs and repeat:
        i, j = pairs[draw(st.integers(0, len(pairs) - 1))]
        pairs.append((i, j) if repeat == "same" else (j, i))
    return k, pairs


def edge_set_oracle(k, pairs):
    """The sorted edge list `from_edges` must yield, or None where it must
    reject the pairs: a self-loop, an id outside 1..k or a pair seen twice."""
    seen = set()
    for i, j in pairs:
        pair = (min(i, j), max(i, j))
        if i == j or pair[0] < 1 or pair[1] > k or pair in seen:
            return None
        seen.add(pair)
    return [list(pair) for pair in sorted(seen)]


class TestTaskGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match=r"\(1, 1\)"):
            TaskGraph.from_edges(3, [(2, 1), (1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
            TaskGraph.from_edges(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"bad edge \(1, 3\) for k=2"):
            TaskGraph.from_edges(2, [(1, 3)])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=pair_lists())
    def test_matches_set_oracle(self, case):
        """`from_edges` accepts exactly the pair lists a set-based oracle
        accepts, and its graph's edge array, Laplacian, augmentation and
        connectivity agree with oracles built from the edge list alone."""
        k, pairs = case
        expect = edge_set_oracle(k, pairs)
        if expect is None:
            with pytest.raises(ValueError):
                TaskGraph.from_edges(k, pairs)
            return
        g = TaskGraph.from_edges(k, pairs)
        assert g.edges.dtype == np.int64 and g.edges.shape == (len(expect), 2)
        assert g.edges.tolist() == expect
        assert not g.edges.flags.writeable
        assert np.array_equal(build_laplacian(g), interaction_of(g) - np.eye(k))
        spokes = [[i, k + 1] for i in range(1, k + 1)]
        assert augment_graph(g).edges.tolist() == sorted(expect + spokes)
        if len(set(components_of(g))) > 1:
            with pytest.raises(DisconnectedGraph):
                resistance_matrix(g)
        else:
            assert resistance_matrix(g).shape == (k, k)


class TestLaplacian:
    def test_complete_3(self):
        L = build_laplacian(TaskGraph.complete(3))
        assert np.array_equal(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_edgeless_2(self):
        assert np.array_equal(build_laplacian(TaskGraph.edgeless(2)),
                              np.zeros((2, 2)))

    def test_path_3(self):
        L = build_laplacian(TaskGraph.path(3))
        assert np.array_equal(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            L = build_laplacian(random_graph(int(rng.integers(1, 10)), 0.5, rng))
            assert np.allclose(L.sum(axis=1), 0)
            assert np.allclose(L, L.T)


def entries(m):
    """An InteractionModel's M in full, read through its columns."""
    return m.columns(np.arange(m.k))


class TestInteractionModel:
    def test_edgeless_is_identity(self):
        m = build_interaction_model(TaskGraph.edgeless(4))
        assert np.allclose(entries(m), np.eye(4))
        assert m.cG == pytest.approx(1.0, abs=1e-12)

    def test_complete_3(self):
        m = build_interaction_model(TaskGraph.complete(3))
        assert np.allclose(entries(m), [[0.5, 0.25, 0.25],
                                        [0.25, 0.5, 0.25],
                                        [0.25, 0.25, 0.5]])
        assert m.cG == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_single_task(self):
        m = build_interaction_model(TaskGraph.edgeless(1))
        assert m.k == 1 and m.self_coupling(0) == pytest.approx(1.0)
        assert m.cG == pytest.approx(1.0)

    def test_inverse_is_exactly_symmetric(self):
        # mtbprj2 reads M's row t where its back-projection reads columns,
        # and ActiveSet reads row t against the slots' tasks
        rng = np.random.default_rng(12)
        graphs = [TaskGraph.complete(k) for k in (2, 3, 7, 40)]
        graphs += [TaskGraph.path(k) for k in (2, 5, 40)]
        graphs += [random_graph(int(rng.integers(2, 40)), rng.uniform(0.05, 0.9), rng)
                   for _ in range(20)]
        for g in graphs:
            m = build_interaction_model(g)
            M = entries(m)
            assert np.array_equal(M, M.T)
            tasks = np.arange(g.k)
            for t in range(g.k):
                assert np.array_equal(m.row(t), M[:, t])
                assert np.array_equal(m.coupling(t, tasks), m.row(t))
                assert m.self_coupling(t) == m.row(t)[t]

    def test_accessors_match_an_independent_inverse(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            g = random_graph(int(rng.integers(1, 12)), rng.uniform(0.1, 0.9), rng)
            m = build_interaction_model(g)
            want = inverse_of(g)
            tasks = rng.integers(g.k, size=7)
            t = int(rng.integers(g.k))
            assert np.max(np.abs(m.columns(tasks) - want[:, tasks])) <= 1e-9
            assert np.max(np.abs(m.coupling(t, tasks) - want[t, tasks])) <= 1e-9
            assert np.max(np.abs(m.row(t) - want[t])) <= 1e-9
            assert m.self_coupling(t) == pytest.approx(want[t, t], abs=1e-9)

    def test_a_shared_model_cannot_be_written(self):
        """Every learner of a graph may read one model: a row is a
        read-only view, and the other accessors return copies."""
        m = build_interaction_model(TaskGraph.complete(4))
        before = entries(m).copy()
        with pytest.raises(ValueError, match="read-only"):
            m.row(2)[0] = 7.0
        m.columns(np.arange(4))[:] = 7.0
        m.coupling(2, np.arange(4))[:] = 7.0
        assert np.array_equal(entries(m), before)

    def test_inverse_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_graph(int(rng.integers(1, 12)), rng.uniform(0.1, 0.9), rng)
            m = build_interaction_model(g)
            A = interaction_of(g)
            assert np.max(np.abs(A @ entries(m) - np.eye(g.k))) <= 1e-9

    def test_diag_dominates_within_component(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_graph(int(rng.integers(2, 10)), 0.4, rng)
            M = entries(build_interaction_model(g))
            comp = components_of(g)
            for i in range(g.k):
                for j in range(g.k):
                    if i != j and comp[i] == comp[j]:
                        assert M[i, i] > M[i, j]

    def test_cross_component_entries_are_zero(self):
        g = TaskGraph.from_edges(5, [(1, 2), (4, 5)])
        M = entries(build_interaction_model(g))
        comp = components_of(g)
        for i in range(5):
            for j in range(5):
                if comp[i] != comp[j]:
                    assert M[i, j] == pytest.approx(0.0, abs=1e-12)

    def test_cg_range(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            g = random_graph(int(rng.integers(1, 12)), 0.5, rng)
            m = build_interaction_model(g)
            assert np.sqrt(2.0 / (g.k + 1)) - 1e-12 <= m.cG <= 1.0 + 1e-12

    def test_cg_complete_family(self):
        for k in range(1, 51):
            m = build_interaction_model(TaskGraph.complete(k))
            assert m.cG == pytest.approx(np.sqrt(2.0 / (k + 1)), abs=1e-12)

    def test_complete_at_k_1000(self):
        k = 1000
        g = TaskGraph.complete(k)
        assert np.array_equal(build_laplacian(g), k * np.eye(k) - np.ones((k, k)))
        m = build_interaction_model(g)
        assert m.cG == pytest.approx(np.sqrt(2.0 / (k + 1)), abs=1e-12)

    def test_cg_isolated_node(self):
        g = TaskGraph.from_edges(4, [(1, 2), (2, 3), (1, 3)])  # node 4 isolated
        assert build_interaction_model(g).cG == pytest.approx(1.0, abs=1e-12)


class TestAugment:
    def test_edgeless_to_star(self):
        g = augment_graph(TaskGraph.edgeless(2))
        assert g.k == 3 and g.edges.tolist() == [[1, 3], [2, 3]]

    def test_complete_stays_complete(self):
        g = augment_graph(TaskGraph.complete(3))
        assert g.edges.tolist() == TaskGraph.complete(4).edges.tolist()

    def test_single_edge_to_triangle(self):
        g = augment_graph(TaskGraph.from_edges(2, [(1, 2)]))
        assert g.edges.tolist() == TaskGraph.complete(3).edges.tolist()


class TestResistance:
    def test_single_edge(self):
        R = resistance_matrix(TaskGraph.from_edges(2, [(1, 2)]))
        assert R[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_triangle(self):
        R = resistance_matrix(TaskGraph.complete(3))
        for i in range(3):
            for j in range(3):
                expect = 0.0 if i == j else 2.0 / 3.0  # 1 in parallel with 1+1
                assert R[i, j] == pytest.approx(expect, abs=1e-9)

    def test_path_series(self):
        R = resistance_matrix(TaskGraph.path(3))
        assert R[0, 2] == pytest.approx(2.0, abs=1e-9)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraph):
            resistance_matrix(TaskGraph.edgeless(2))

    def test_metric_properties(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = augment_graph(random_graph(int(rng.integers(2, 8)), 0.4, rng))
            R = resistance_matrix(g)
            assert np.allclose(R, R.T)
            assert np.allclose(np.diag(R), 0)
            assert np.all(R >= -1e-12)
            n = g.k
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        assert R[a, c] <= R[a, b] + R[b, c] + 1e-9


class TestProposition31:
    def test_edgeless_k2(self):
        assert verify_proposition_3_1(TaskGraph.edgeless(2)) <= 1e-9

    def test_complete_k3(self):
        assert verify_proposition_3_1(TaskGraph.complete(3)) <= 1e-9

    def test_erdos_renyi_seeded(self):
        rng = np.random.default_rng(7)
        g = random_graph(8, 0.4, rng)
        assert verify_proposition_3_1(g) <= 1e-9

    def test_randomized_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            g = random_graph(int(rng.integers(1, 13)), rng.uniform(0.1, 0.9), rng)
            assert verify_proposition_3_1(g) <= 1e-9


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("k 4\n1 2\n3 4\n")
        g = parse_graph_file(path)
        assert g.k == 4 and g.edges.tolist() == [[1, 2], [3, 4]]

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("k 3\n1 2\n2 1\n")
        with pytest.raises(ParseError):
            parse_graph_file(path)

    @pytest.mark.parametrize("edge", ["1 4", "0 2", "1 99999999999999999999"])
    def test_id_out_of_range_names_the_line(self, tmp_path, edge):
        path = tmp_path / "g.txt"
        path.write_text("k 3\n1 2\n%s\n" % edge)
        with pytest.raises(ParseError, match="line 3: edge .* outside 1..3"):
            parse_graph_file(path)

    def test_keywords(self):
        assert (resolve_graph("complete", 3).edges.tolist()
                == TaskGraph.complete(3).edges.tolist())
        assert resolve_graph("disconnected", 3).edges.tolist() == []
        with pytest.raises(ValueError):
            resolve_graph("complete")
