"""Normalized-cut spectral clustering of time series.

Pipeline: absolute-correlation similarity graph -> Laplacians -> dense
symmetric eigendecomposition (LAPACK, via ``np.linalg.eigh``) -> k-means
on the embedding rows.

Cut/volume arithmetic uses correctly-rounded summation (math.fsum), so
the reported values are independent of iteration order: degrees are
correctly-rounded row sums, volumes are correctly-rounded sums of
degrees, links are correctly-rounded sums of boundary weights, and the
final Ncut is the correctly-rounded sum of the per-group ratios halved.
Any evaluator following these definitions produces bit-identical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, DataError, NumericalError, ShapeError

__all__ = [
    "SimilarityGraph",
    "SpectralEmbedding",
    "GroupAssignment",
    "similarity_from_series",
    "ncut_value",
    "laplacians",
    "sym_eig",
    "kmeans",
    "spectral_embedding",
    "spectral_cluster",
    "DENSE_EIG_LIMIT",
]

DENSE_EIG_LIMIT = 2048
# Lloyd iterations before k-means stops without converging
KMEANS_MAX_ITER = 300


@dataclass
class SimilarityGraph:
    """Symmetric nonnegative weights with a zero diagonal.

    ``degrees[i]`` is the correctly-rounded sum of row i.
    """

    weights: np.ndarray
    names: list[str] | None = None
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ShapeError(f"similarity matrix must be square, got {w.shape}")
        if np.max(np.abs(w - w.T), initial=0.0) > 1e-12:
            raise ShapeError("similarity matrix is not symmetric within 1e-12")
        if np.any(w < 0.0):
            raise ShapeError("similarity weights must be nonnegative")
        if np.any(np.diag(w) != 0.0):
            raise ShapeError("similarity diagonal must be zero")
        if self.names is not None and len(self.names) != w.shape[0]:
            raise ShapeError("name count does not match matrix size")
        self.weights = w
        self.degrees = np.array([math.fsum(row) for row in w])

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass
class SpectralEmbedding:
    """Rows are vertex coordinates in the random-walk eigenbasis."""

    vectors: np.ndarray  # (N, K)
    eigenvalues: np.ndarray  # (K,) ascending

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) < 0):
            raise NumericalError("embedding eigenvalues must be nondecreasing")
        if self.eigenvalues[0] < -1e-10:
            raise NumericalError(f"leading eigenvalue {self.eigenvalues[0]} below tolerance")


@dataclass
class GroupAssignment:
    """1-based group label per series."""

    labels: list[int]
    k: int

    def __post_init__(self):
        self.labels = [int(x) for x in self.labels]
        if any(not 1 <= x <= self.k for x in self.labels):
            raise ShapeError(f"labels must lie in 1..{self.k}")

    def group_sizes(self) -> list[int]:
        return np.bincount(np.asarray(self.labels, dtype=np.intp) - 1, minlength=self.k).tolist()


def similarity_from_series(series: np.ndarray, names: Sequence[str] | None = None) -> SimilarityGraph:
    """Absolute Pearson correlation between rows of an (N, T) matrix.

    Off-diagonal w_ij = |corr(x_i, x_j)|, diagonal zero.  Constant series
    make correlations undefined and are rejected by name.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2 or series.shape[0] < 2 or series.shape[1] < 2:
        raise ShapeError(f"need at least 2 series of at least 2 points, got {series.shape}")
    names = list(names) if names is not None else None
    stds = series.std(axis=1)
    for i, s in enumerate(stds):
        if s == 0.0:
            label = names[i] if names else f"series {i}"
            raise DataError(f"zero-variance series cannot be correlated: {label}")
    corr = np.corrcoef(series)
    w = np.abs(corr)
    # clamp tiny excursions above 1 from rounding, then force symmetry
    w = np.clip(w, 0.0, 1.0)
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(w, names)


def _check_assignment(g: SimilarityGraph, assignment: GroupAssignment) -> None:
    if len(assignment.labels) != g.n:
        raise ShapeError(f"assignment covers {len(assignment.labels)} vertices, graph has {g.n}")


def _boundary(w: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Every w_ij with i in group k and j outside it, flattened."""
    return w[np.ix_(labels == k, labels != k)].ravel()


def ncut_value(g: SimilarityGraph, assignment: GroupAssignment) -> float:
    """Normalized cut: 1/2 * sum_k link(A_k, outside) / vol(A_k)."""
    _check_assignment(g, assignment)
    labels = np.asarray(assignment.labels)
    ratios = []
    for k in range(1, assignment.k + 1):
        vol = math.fsum(g.degrees[labels == k])
        if vol <= 0.0:
            raise NumericalError(f"group {k} has zero volume")
        ratios.append(math.fsum(_boundary(g.weights, labels, k)) / vol)
    return 0.5 * math.fsum(ratios)


def laplacians(g: SimilarityGraph) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized and symmetric-normalized Laplacians (L, L_sym)."""
    d = g.degrees
    if np.any(d <= 0.0):
        i = int(np.argmin(d))
        raise NumericalError(f"vertex {i} is isolated (zero degree); cannot normalize")
    lap = np.diag(d) - g.weights
    inv_sqrt = 1.0 / np.sqrt(d)
    l_sym = inv_sqrt[:, None] * lap * inv_sqrt[None, :]
    return lap, l_sym


def sym_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Returns (eigenvalues ascending, eigenvectors as columns).  Sign
    convention: each eigenvector's largest-magnitude component is
    positive (first occurrence on magnitude ties).  A LAPACK failure to
    converge is raised as :class:`ConvergenceError`.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ShapeError(f"eigensolver needs a square matrix, got {a.shape}")
    if n > DENSE_EIG_LIMIT:
        raise ShapeError(f"matrix size {n} exceeds the dense eigensolver limit {DENSE_EIG_LIMIT}")
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-10:
        raise ValueError("eigensolver input is not symmetric within 1e-10")
    try:
        eigenvalues, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as e:
        raise ConvergenceError(f"symmetric eigensolver failed: {e}") from e
    lead = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.where(vectors[lead, np.arange(n)] < 0.0, -1.0, 1.0)
    return eigenvalues, vectors


def kmeans(points: np.ndarray, k: int, seed: int = 0) -> GroupAssignment:
    """Lloyd's algorithm with greedy farthest-point seeding.

    The first center is drawn from the seeded generator; each further
    center is the point farthest from its nearest chosen center (lowest
    index on ties).  Empty clusters are repaired by donating the point
    farthest from its own center.  Deterministic under a fixed seed.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ShapeError(f"kmeans needs an (N, D) matrix, got {points.shape}")
    n = points.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < k:
        raise ValueError(f"cannot form {k} clusters from {n} points")

    rng = np.random.default_rng(seed)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    for c in range(1, k):
        d2 = np.min(((points[:, None, :] - centers[None, :c, :]) ** 2).sum(axis=2), axis=1)
        centers[c] = points[int(np.argmax(d2))]

    labels = np.zeros(n, dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                # donate the worst-fitting point from a donor with spares
                dist_own = d2[np.arange(n), new_labels]
                counts = np.bincount(new_labels, minlength=k)
                eligible = counts[new_labels] > 1
                dist_own = np.where(eligible, dist_own, -np.inf)
                donor = int(np.argmax(dist_own))
                new_labels[donor] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    return GroupAssignment([int(x) + 1 for x in labels], k)


def spectral_embedding(g: SimilarityGraph, k: int) -> SpectralEmbedding:
    """K smallest random-walk Laplacian eigenpairs via the symmetric form.

    Solves L_sym and maps each eigenvector v to D^{-1/2} v, which turns
    the pairs into solutions of L u = lambda D u.
    """
    if not 1 <= k <= g.n:
        raise ShapeError(f"need 1 <= K <= {g.n}, got {k}")
    _, l_sym = laplacians(g)
    eigenvalues, vectors = sym_eig(l_sym)
    inv_sqrt = 1.0 / np.sqrt(g.degrees)
    coords = inv_sqrt[:, None] * vectors[:, :k]
    return SpectralEmbedding(coords, eigenvalues[:k])


def spectral_cluster(g: SimilarityGraph, k: int, seed: int = 0) -> GroupAssignment:
    """Normalized-cut clustering: embed, then k-means the vertex rows."""
    if not 2 <= k <= g.n:
        raise ShapeError(f"need 2 <= K <= {g.n}, got {k}")
    embedding = spectral_embedding(g, k)
    return kmeans(embedding.vectors, k, seed=seed)

