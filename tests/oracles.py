"""Reference implementations the tests check the package against.

``toy_grouped_dense_forward`` is the two-layer grouped dense network of
acceptance criterion 1, and ``brute_force_min_ncut`` the exhaustive
minimum-Ncut search of criterion 4.  Nothing in ``gcnn`` uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from gcnn import tensor as T
from gcnn.errors import ShapeError
from gcnn.spectral import GroupAssignment, SimilarityGraph, ncut_value
from gcnn.tensor import Tensor


def toy_grouped_dense_forward(
    x: Tensor,
    u: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    hidden_activation: str = "tanh",
    output_activation: str = "linear",
) -> Tensor:
    """Two-layer grouped dense network on N variable vectors.

    ``x`` is (N, d): one window per variable.  ``u`` is the (N, K)
    membership matrix, expected row-stochastic (not enforced, so the
    coefficients can be perturbed freely in gradient checks).  ``w1`` is
    (K*N, d) with row j*N + i holding the weight vector of variable i in
    group j; ``b1``/``w2`` are (K,) and ``b2`` is a scalar.

    h_j = act(sum_i u[i,j] * <x_i, w1[j,i]> + b1[j]);
    y   = out_act(sum_j h_j * w2[j] + b2), returned as a one-element tensor.
    """
    n, d = x.shape
    k = u.shape[1]
    if u.shape[0] != n:
        raise ShapeError(f"membership rows {u.shape[0]} do not match {n} variables")
    if w1.shape != (k * n, d):
        raise ShapeError(f"w1 must be ({k * n}, {d}), got {w1.shape}")
    if b1.shape != (k,) or w2.shape != (k,):
        raise ShapeError("b1 and w2 must have one entry per group")
    # w1[j*N + i] * x_i * u[i, j], summed over i and the window by ones
    weighted = T.reshape(w1, (k, n, d)) * x * T.reshape(T.transpose(u), (k, n, 1))
    h_pre = T.reshape(weighted, (k, n * d)) @ Tensor(np.ones((n * d, 1))) + T.reshape(b1, (k, 1))
    h = T.activation(h_pre, hidden_activation)  # (K, 1)
    y_pre = T.reshape(T.transpose(h) @ T.reshape(w2, (k, 1)), (1,)) + b2
    return T.activation(y_pre, output_activation)


@dataclass
class BruteForceResult:
    assignment: GroupAssignment
    value: float


def _partitions_into_k(n: int, k: int) -> Iterator[list[int]]:
    """Canonical labelings (restricted growth strings) using all k labels."""
    labels = [0] * n

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                yield labels.copy()
            return
        # prune: remaining slots must be able to introduce the missing labels
        if used + (n - i) < k:
            return
        for lab in range(min(used + 1, k)):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(0, 0)


def brute_force_min_ncut(g: SimilarityGraph, k: int) -> BruteForceResult:
    """Exact minimum Ncut by exhaustive enumeration (test oracle, N <= 10)."""
    if g.n > 10:
        raise ShapeError(f"brute force enumeration capped at 10 vertices, got {g.n}")
    if not 1 <= k <= g.n:
        raise ShapeError(f"need 1 <= K <= {g.n}, got {k}")
    best: BruteForceResult | None = None
    for rgs in _partitions_into_k(g.n, k):
        assignment = GroupAssignment([lab + 1 for lab in rgs], k)
        value = ncut_value(g, assignment)
        if best is None or value < best.value:
            best = BruteForceResult(assignment, value)
    assert best is not None
    return best
