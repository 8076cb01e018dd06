import numpy as np
import pytest

from mtbudget.errors import DisconnectedGraph, ParseError
from mtbudget.graph import (TaskGraph, augment_graph, build_interaction_model,
                            build_laplacian, parse_graph_file, resistance_matrix,
                            resolve_graph, verify_proposition_3_1)
from support import interaction_of


def random_graph(k, prob, rng):
    edges = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
             if rng.random() < prob]
    return TaskGraph.from_edges(k, edges)


class TestTaskGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            TaskGraph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            TaskGraph.from_edges(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            TaskGraph.from_edges(2, [(1, 3)])

    def test_components(self):
        g = TaskGraph.from_edges(5, [(1, 2), (4, 5)])
        labels = g.components()
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert len({labels[0], labels[2], labels[3]}) == 3


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


class TestInteractionModel:
    def test_edgeless_is_identity(self):
        m = build_interaction_model(TaskGraph.edgeless(4))
        assert np.allclose(m.inverse, np.eye(4))
        assert m.cG == pytest.approx(1.0, abs=1e-12)

    def test_complete_3(self):
        m = build_interaction_model(TaskGraph.complete(3))
        assert np.allclose(m.inverse, [[0.5, 0.25, 0.25],
                                       [0.25, 0.5, 0.25],
                                       [0.25, 0.25, 0.5]])
        assert m.cG == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_single_task(self):
        m = build_interaction_model(TaskGraph.edgeless(1))
        assert m.inverse.shape == (1, 1) and m.inverse[0, 0] == pytest.approx(1.0)
        assert m.cG == pytest.approx(1.0)

    def test_inverse_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            g = random_graph(int(rng.integers(1, 12)), rng.uniform(0.1, 0.9), rng)
            m = build_interaction_model(g)
            A = interaction_of(g)
            assert np.max(np.abs(A @ m.inverse - np.eye(g.k))) <= 1e-9

    def test_diag_dominates_within_component(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_graph(int(rng.integers(2, 10)), 0.4, rng)
            m = build_interaction_model(g)
            comp = g.components()
            for i in range(g.k):
                for j in range(g.k):
                    if i != j and comp[i] == comp[j]:
                        assert m.inverse[i, i] > m.inverse[i, j]

    def test_cross_component_entries_are_zero(self):
        g = TaskGraph.from_edges(5, [(1, 2), (4, 5)])
        m = build_interaction_model(g)
        comp = g.components()
        for i in range(5):
            for j in range(5):
                if comp[i] != comp[j]:
                    assert m.inverse[i, j] == pytest.approx(0.0, abs=1e-12)

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

    def test_cg_isolated_node(self):
        g = TaskGraph.from_edges(4, [(1, 2), (2, 3), (1, 3)])  # node 4 isolated
        assert build_interaction_model(g).cG == pytest.approx(1.0, abs=1e-12)


class TestAugment:
    def test_edgeless_to_star(self):
        g = augment_graph(TaskGraph.edgeless(2))
        assert g.k == 3 and g.edges == frozenset({(1, 3), (2, 3)})

    def test_complete_stays_complete(self):
        g = augment_graph(TaskGraph.complete(3))
        assert g.edges == TaskGraph.complete(4).edges

    def test_single_edge_to_triangle(self):
        g = augment_graph(TaskGraph.from_edges(2, [(1, 2)]))
        assert g.edges == TaskGraph.complete(3).edges


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
        assert g.k == 4 and g.edges == frozenset({(1, 2), (3, 4)})

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("k 3\n1 2\n2 1\n")
        with pytest.raises(ParseError):
            parse_graph_file(path)

    def test_keywords(self):
        assert resolve_graph("complete", 3).edges == TaskGraph.complete(3).edges
        assert resolve_graph("disconnected", 3).edges == frozenset()
        with pytest.raises(ValueError):
            resolve_graph("complete")
