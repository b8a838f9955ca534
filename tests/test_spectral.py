"""Spectral clustering: similarity construction, cut arithmetic against
independent evaluators, the dense eigensolver's order, sign and size
contract, and clustering against exhaustive small-graph enumeration."""

import itertools
import math

import numpy as np
import pytest

from gcnn.errors import ConvergenceError, DataError, NumericalError, ShapeError
from gcnn.spectral import (
    DENSE_EIG_LIMIT,
    GroupAssignment,
    SimilarityGraph,
    kmeans,
    laplacians,
    ncut_value,
    similarity_from_series,
    spectral_cluster,
    spectral_embedding,
    sym_eig,
)
from oracles import _partitions_into_k, brute_force_min_ncut


def oracle_ncut(w, labels, k):
    """Independent Ncut evaluator: same summation definitions (correctly
    rounded via fsum), different code path and iteration order."""
    n = len(labels)
    degrees = [math.fsum(w[i][j] for j in reversed(range(n))) for i in range(n)]
    ratios = []
    for group in reversed(range(1, k + 1)):
        link = math.fsum(
            w[i][j]
            for j in range(n)
            for i in reversed(range(n))
            if labels[i] == group and labels[j] != group
        )
        vol = math.fsum(degrees[i] for i in reversed(range(n)) if labels[i] == group)
        ratios.append(link / vol)
    return 0.5 * math.fsum(reversed(ratios))


def random_graph(rng, n, density=0.7):
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    w[rng.uniform(size=(n, n)) > density] = 0.0
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    # keep it connected: add a weak ring
    for i in range(n):
        j = (i + 1) % n
        w[i, j] = w[j, i] = max(w[i, j], 0.05)
    return SimilarityGraph(w)


def two_component_graph():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    return SimilarityGraph(w)


def path_graph_3():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    w[1, 2] = w[2, 1] = 1.0
    return SimilarityGraph(w)


class TestSimilarityGraph:
    def test_asymmetry_rejected(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ShapeError, match="symmetric"):
            SimilarityGraph(w)

    def test_negative_rejected(self):
        w = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(ShapeError, match="nonnegative"):
            SimilarityGraph(w)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ShapeError, match="diagonal"):
            SimilarityGraph(np.eye(3))

    def test_degrees_are_row_sums(self):
        g = random_graph(np.random.default_rng(0), 6)
        for i in range(6):
            assert g.degrees[i] == math.fsum(g.weights[i])


class TestSimilarityFromSeries:
    def test_scaled_copy_has_unit_weight(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(50)
        g = similarity_from_series(np.stack([x, 2.0 * x, rng.standard_normal(50)]))
        assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_copy_has_unit_weight(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(50)
        g = similarity_from_series(np.stack([x, -x]))
        assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_independent_series_weakly_similar(self):
        rng = np.random.default_rng(3)
        g = similarity_from_series(rng.standard_normal((2, 10_000)))
        assert g.weights[0, 1] < 0.05

    def test_zero_variance_rejected_by_name(self):
        x = np.vstack([np.ones(10), np.arange(10.0)])
        with pytest.raises(DataError, match="flatline"):
            similarity_from_series(x, names=["flatline", "ramp"])

    def test_diagonal_zeroed(self):
        g = similarity_from_series(np.random.default_rng(4).standard_normal((3, 30)))
        np.testing.assert_array_equal(np.diag(g.weights), np.zeros(3))

    def test_too_few_series(self):
        with pytest.raises(ShapeError):
            similarity_from_series(np.ones((1, 10)))


class TestCutValues:
    def test_component_aligned_cut_is_zero(self):
        g = two_component_graph()
        a = GroupAssignment([1, 1, 2, 2], 2)
        assert ncut_value(g, a) == 0.0

    def test_path_graph_hand_value(self):
        # link({1}) = 1, vol({1}) = 1; link({2,3}) = 1, vol({2,3}) = 3
        g = path_graph_3()
        a = GroupAssignment([1, 2, 2], 2)
        assert ncut_value(g, a) == 0.5 * (1.0 / 1.0 + 1.0 / 3.0)

    def test_ncut_matches_independent_oracle_exactly(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            g = random_graph(rng, 7)
            labels = [int(x) + 1 for x in rng.integers(0, 3, size=7)]
            for lab in (1, 2, 3):
                if lab not in labels:
                    labels[lab - 1] = lab
            a = GroupAssignment(labels, 3)
            assert ncut_value(g, a) == oracle_ncut(g.weights, labels, 3)

    def test_relabel_invariance(self):
        g = random_graph(np.random.default_rng(7), 6)
        a = GroupAssignment([1, 2, 1, 3, 2, 3], 3)
        # swap labels 1 <-> 3
        b = GroupAssignment([3, 2, 3, 1, 2, 1], 3)
        assert ncut_value(g, a) == ncut_value(g, b)

    def test_zero_volume_group_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        g = SimilarityGraph(w)
        with pytest.raises(NumericalError, match="volume"):
            ncut_value(g, GroupAssignment([1, 1, 2], 2))


class TestLaplacians:
    def test_single_edge(self):
        g = SimilarityGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lap, _ = laplacians(g)
        np.testing.assert_array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_row_sums_zero(self):
        g = random_graph(np.random.default_rng(8), 7)
        lap, _ = laplacians(g)
        np.testing.assert_allclose(lap.sum(axis=1), np.zeros(7), atol=1e-12)

    def test_lsym_spectrum_in_0_2(self):
        for seed in range(5):
            g = random_graph(np.random.default_rng(100 + seed), 8)
            _, l_sym = laplacians(g)
            lam = np.linalg.eigvalsh(l_sym)
            assert lam.min() > -1e-10
            assert lam.max() < 2.0 + 1e-10

    def test_isolated_vertex_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(NumericalError, match="isolated"):
            laplacians(SimilarityGraph(w))


class TestSymEig:
    def test_identity(self):
        lam, vec = sym_eig(np.eye(4))
        np.testing.assert_array_equal(lam, np.ones(4))
        np.testing.assert_allclose(np.abs(vec), np.eye(4), atol=1e-12)

    def test_diagonal(self):
        lam, vec = sym_eig(np.diag([3.0, 2.0]))
        np.testing.assert_array_equal(lam, [2.0, 3.0])
        np.testing.assert_allclose(np.abs(vec), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((20, 20))
        a = (a + a.T) / 2.0
        lam, vec = sym_eig(a)
        np.testing.assert_allclose(vec @ np.diag(lam) @ vec.T, a, atol=1e-9)

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((15, 15))
        a = (a + a.T) / 2.0
        lam, vec = sym_eig(a)
        scale = max(1.0, np.abs(a).max())
        resid = np.abs(a @ vec - vec * lam[None, :]).max()
        assert resid < 1e-8 * scale
        np.testing.assert_allclose(vec.T @ vec, np.eye(15), atol=1e-8)

    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((12, 12))
        a = (a + a.T) / 2.0
        lam, _ = sym_eig(a)
        np.testing.assert_allclose(lam, np.linalg.eigvalsh(a), atol=1e-10)

    def test_ascending_order(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((10, 10))
        a = (a + a.T) / 2.0
        lam, _ = sym_eig(a)
        assert np.all(np.diff(lam) >= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((8, 8))
        a = (a + a.T) / 2.0
        _, vec = sym_eig(a)
        for j in range(8):
            lead = np.argmax(np.abs(vec[:, j]))
            assert vec[lead, j] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((9, 9))
        a = (a + a.T) / 2.0
        lam1, vec1 = sym_eig(a)
        lam2, vec2 = sym_eig(a)
        np.testing.assert_array_equal(lam1, lam2)
        np.testing.assert_array_equal(vec1, vec2)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_size_cap(self):
        with pytest.raises(ShapeError, match="limit"):
            sym_eig(np.eye(DENSE_EIG_LIMIT + 1))

    def test_lapack_failure_is_convergence_error(self):
        with pytest.raises(ConvergenceError):
            sym_eig(np.full((3, 3), np.nan))


class TestKMeans:
    def test_k1_single_group(self):
        pts = np.random.default_rng(15).standard_normal((7, 2))
        a = kmeans(pts, 1, seed=0)
        assert a.labels == [1] * 7

    def test_k_equals_n(self):
        pts = np.arange(10.0).reshape(5, 2) * 10.0
        a = kmeans(pts, 5, seed=0)
        assert sorted(a.labels) == [1, 2, 3, 4, 5]

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(16)
        blob_a = rng.normal(0.0, 0.1, size=(10, 2))
        blob_b = rng.normal(50.0, 0.1, size=(10, 2))
        a = kmeans(np.vstack([blob_a, blob_b]), 2, seed=3)
        first, second = set(a.labels[:10]), set(a.labels[10:])
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_deterministic_under_seed(self):
        pts = np.random.default_rng(17).standard_normal((20, 3))
        assert kmeans(pts, 4, seed=9).labels == kmeans(pts, 4, seed=9).labels

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((2, 2)), 3, seed=0)

    def test_all_groups_nonempty(self):
        # duplicated points force collisions; repair must fill every group
        pts = np.zeros((6, 2))
        pts[3:] = 1.0
        a = kmeans(pts, 3, seed=1)
        assert all(size >= 1 for size in a.group_sizes())


class TestSpectralCluster:
    def block_graph(self, rng, blocks=3, per=4, noise=0.01):
        n = blocks * per
        w = rng.uniform(0.0, noise, size=(n, n))
        for b in range(blocks):
            lo, hi = b * per, (b + 1) * per
            w[lo:hi, lo:hi] = 1.0
        w = (w + w.T) / 2.0
        np.fill_diagonal(w, 0.0)
        return SimilarityGraph(w)

    def test_recovers_planted_blocks(self):
        g = self.block_graph(np.random.default_rng(18))
        a = spectral_cluster(g, 3, seed=0)
        for b in range(3):
            members = set(a.labels[b * 4 : (b + 1) * 4])
            assert len(members) == 1
        assert len(set(a.labels)) == 3

    def test_disconnected_components_reach_zero_ncut(self):
        g = two_component_graph()
        a = spectral_cluster(g, 2, seed=0)
        assert ncut_value(g, a) == 0.0

    def test_first_eigenvector_constant_on_connected_graph(self):
        g = random_graph(np.random.default_rng(19), 9)
        emb = spectral_embedding(g, 2)
        v0 = emb.vectors[:, 0]
        assert np.abs(v0 - v0.mean()).max() / np.abs(v0.mean()) < 1e-6

    def test_deterministic(self):
        g = random_graph(np.random.default_rng(20), 8)
        a = spectral_cluster(g, 3, seed=5)
        b = spectral_cluster(g, 3, seed=5)
        assert a.labels == b.labels

    def test_weight_scaling_leaves_result_unchanged(self):
        g = self.block_graph(np.random.default_rng(21))
        scaled = SimilarityGraph(g.weights * 4.0)
        a = spectral_cluster(g, 3, seed=2)
        b = spectral_cluster(scaled, 3, seed=2)
        assert a.labels == b.labels
        assert ncut_value(g, a) == pytest.approx(ncut_value(scaled, b), abs=1e-12)

    def test_near_optimal_on_small_graphs(self):
        # relaxation guard: within 1.5x of the exhaustive optimum
        rng = np.random.default_rng(22)
        for trial in range(8):
            g = random_graph(rng, 7, density=0.6)
            for k in (2, 3):
                spectral = ncut_value(g, spectral_cluster(g, k, seed=trial))
                exact = brute_force_min_ncut(g, k).value
                assert spectral <= 1.5 * exact + 1e-12

    def test_k_bounds(self):
        g = two_component_graph()
        with pytest.raises(ShapeError):
            spectral_cluster(g, 1, seed=0)
        with pytest.raises(ShapeError):
            spectral_cluster(g, 5, seed=0)


class TestBruteForce:
    def test_two_components_zero(self):
        result = brute_force_min_ncut(two_component_graph(), 2)
        assert result.value == 0.0
        assert result.assignment.labels in ([1, 1, 2, 2], [2, 2, 1, 1])

    def test_path_graph_min(self):
        result = brute_force_min_ncut(path_graph_3(), 2)
        assert result.value == 0.5 * (1.0 + 1.0 / 3.0)
        assert result.assignment.labels in ([1, 2, 2], [1, 1, 2])

    def test_self_consistency(self):
        g = random_graph(np.random.default_rng(23), 6)
        result = brute_force_min_ncut(g, 3)
        assert result.value == ncut_value(g, result.assignment)

    def test_enumeration_counts_partitions(self):
        # Stirling numbers of the second kind: S(4,2) = 7
        assert len(list(_partitions_into_k(4, 2))) == 7
        assert len(list(_partitions_into_k(5, 3))) == 25

    def test_enumeration_is_exhaustive_vs_naive(self):
        # every surjective labeling's value is >= the reported minimum
        g = random_graph(np.random.default_rng(24), 5)
        best = brute_force_min_ncut(g, 2).value
        for labels in itertools.product([1, 2], repeat=5):
            if len(set(labels)) < 2:
                continue
            assert ncut_value(g, GroupAssignment(list(labels), 2)) >= best - 1e-15

    def test_size_cap(self):
        w = np.zeros((11, 11))
        w[0, 1] = w[1, 0] = 1.0
        with pytest.raises(ShapeError, match="10"):
            brute_force_min_ncut(SimilarityGraph(w), 2)

