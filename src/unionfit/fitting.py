"""The bundle/partition duality: best rank-k subspace per group and
nearest-subspace assignment of points to a bundle."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidPartition, OutOfRange, require_int
from .metrics import as_columns, distance_table, nearest, residuals
from .model import RANK_TOL_FACTOR, Bundle, DataSet, Partition, Subspace, svd_basis

# Two subspaces count as tied for a point when their squared distances
# differ by at most this much.
TIE_TOL = 1e-12

# gram_basis trusts the k-th Gram eigenvalue only when it exceeds the
# eigensolver's floor (n * eps * lambda_1) by this factor.
GRAM_CLEAR_FACTOR = 1e4


@dataclass(frozen=True)
class AssignmentTrace:
    """Per-point record of a nearest-subspace assignment."""

    dist2: np.ndarray  # squared distance to the nearest subspace
    tie_flags: np.ndarray  # True where >= 2 subspaces sit within TIE_TOL

    def __post_init__(self):
        for name in ("dist2", "tie_flags"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def best_subspace(matrix, k: int) -> Subspace:
    """Span of the top min(k, rank) left singular vectors of the column slice.

    An empty slice (or k = 0) maps to the zero subspace, and the fitted
    dimension drops below k whenever the slice has lower rank.
    """
    require_int("k", k, minimum=0, error=OutOfRange)
    u, dim = svd_basis(as_columns(matrix), k)
    return Subspace(u[:, :dim])


def gram_basis(points: np.ndarray, k: int) -> np.ndarray:
    """Orthonormal basis (N x t) of ``best_subspace(points, k)``'s span,
    fitted from the eigenvectors of the smaller Gram matrix.

    A slice with at least N columns uses the top-k eigenvectors of
    X X^T directly; a narrower one takes the top-k eigenvectors V of
    X^T X and orthonormalizes X V with a QR.  The symmetric eigensolver
    resolves eigenvalues only down to about n * eps * lambda_1 for an
    n x n Gram matrix, too coarse for the singular-value rank rule.  So
    unless the k-th eigenvalue exceeds both that floor times
    GRAM_CLEAR_FACTOR and the squared rank cutoff, the slice is fitted by
    the SVD in ``best_subspace``.  Either way t equals
    ``best_subspace(points, k).dim``.
    """
    n_rows, n_cols = points.shape
    if n_cols == 0 or k == 0:
        return np.zeros((n_rows, 0))
    wide = n_cols >= n_rows
    gram = points @ points.T if wide else points.T @ points
    eigvals, eigvecs = np.linalg.eigh(gram)  # ascending
    floor = eigvals[-1] * max(
        GRAM_CLEAR_FACTOR * eigvals.size * np.finfo(float).eps,
        (max(n_rows, n_cols) * RANK_TOL_FACTOR) ** 2,
    )
    if k > eigvals.size or not eigvals[-k] > floor:
        return best_subspace(points, k).basis
    vecs = eigvecs[:, : -k - 1 : -1]  # top k, descending
    if wide:
        return np.ascontiguousarray(vecs)
    q, _ = np.linalg.qr(points @ vecs)
    return q


def best_subspace_residuals(
    points: np.ndarray, members: np.ndarray, k: int
) -> np.ndarray:
    """Batched best_subspace followed by metrics.residuals.

    Row b of the result holds the squared distance of every column of
    ``points`` (N x m) to ``best_subspace(points[:, members[b]], k)``, where
    ``members`` is a B x m boolean array and a row may select no column.
    Slices of equal width share one stacked SVD and bases of equal
    dimension share one stacked matmul; every slice and basis goes through
    the same LAPACK and BLAS calls as the unbatched path, so each row is
    bit-identical to it.
    """
    rows = np.empty(members.shape)
    sizes = np.count_nonzero(members, axis=1)
    by_dim: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for width in np.unique(sizes):
        which = np.flatnonzero(sizes == width)
        cols = np.nonzero(members[which])[1].reshape(which.size, width)
        u, dims = svd_basis(points.T[cols].transpose(0, 2, 1), k)
        for t in np.unique(dims):
            pick = dims == t
            by_dim.setdefault(int(t), []).append((which[pick], u[pick, :, :t]))
    for parts in by_dim.values():
        which = np.concatenate([w for w, _ in parts])
        # Contiguous like a Subspace basis, so q^T is the same transposed
        # operand the unbatched matmul sees.
        q = np.ascontiguousarray(np.concatenate([b for _, b in parts]))
        rows[which] = residuals(points, q)
    return rows


def bundle_from_partition(data: DataSet, partition: Partition, k: int) -> Bundle:
    """Fit the best rank-<=k subspace to each group; empty groups map to {0}."""
    if partition.count != data.count:
        raise InvalidPartition(
            f"partition covers {partition.count} points, dataset has {data.count}"
        )
    subspaces = tuple(
        best_subspace(data.points[:, partition.labels == g], k)
        for g in range(partition.n_groups)
    )
    return Bundle(subspaces, cap_dim=k)


def partition_from_bundle(
    data: DataSet, bundle: Bundle
) -> tuple[Partition, AssignmentTrace]:
    """Assign every point to its nearest subspace, ties to the lowest index."""
    table = distance_table(data, bundle)
    labels, dist2 = nearest(table)
    tie_flags = np.sum(table <= dist2[None, :] + TIE_TOL, axis=0) >= 2
    return Partition(labels, len(bundle)), AssignmentTrace(dist2, tie_flags)
