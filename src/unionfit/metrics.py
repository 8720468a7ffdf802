"""Model-error metrics: point-to-subspace distances, bundle errors, and
the minimal rank-k fitting error computed from tail eigenvalues."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .model import RANK_TOL_FACTOR, Bundle, DataSet, Subspace

def _as_columns(data) -> np.ndarray:
    if isinstance(data, DataSet):
        return data.points
    a = np.asarray(data, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix of columns, got shape {a.shape}")
    return a


def residual_norms_sq(matrix: np.ndarray, subspace: Subspace) -> np.ndarray:
    """Squared distance of every column to the subspace, in column order.

    Computed as the norm of the explicit projection residual rather than
    a difference of squared norms, which cancels badly for columns close
    to the subspace.
    """
    if matrix.shape[0] != subspace.ambient_dim:
        raise DimensionMismatch(
            f"points live in dimension {matrix.shape[0]}, "
            f"subspace in {subspace.ambient_dim}"
        )
    if subspace.dim == 0:
        return np.sum(matrix * matrix, axis=0)
    q = subspace.basis
    resid = matrix - q @ (q.T @ matrix)
    return np.sum(resid * resid, axis=0)


def dist2_to_subspace(point, subspace: Subspace) -> float:
    """Squared euclidean distance of one vector to a subspace."""
    f = np.asarray(point, dtype=float)
    if f.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {f.shape}")
    if f.shape[0] != subspace.ambient_dim:
        raise DimensionMismatch(
            f"vector has dimension {f.shape[0]}, subspace {subspace.ambient_dim}"
        )
    if subspace.dim == 0:
        return float(f @ f)
    q = subspace.basis
    resid = f - q @ (q.T @ f)
    return float(resid @ resid)


def distance_table(data: DataSet, bundle: Bundle) -> np.ndarray:
    """l x m table of squared distances from every point to every subspace."""
    if data.ambient_dim != bundle.ambient_dim:
        raise DimensionMismatch(
            f"data in dimension {data.ambient_dim}, bundle in {bundle.ambient_dim}"
        )
    return np.stack([residual_norms_sq(data.points, v) for v in bundle])


def bundle_error(data: DataSet, bundle: Bundle) -> float:
    """Sum over points of the squared distance to the nearest bundle subspace."""
    table = distance_table(data, bundle)
    return float(np.sum(np.min(table, axis=0)))


def group_error(matrix, subspace: Subspace) -> float:
    """Summed squared distances of a column slice to one subspace.

    Additive over disjoint slices; the sum runs in ascending column order.
    """
    m = _as_columns(matrix)
    if m.shape[1] == 0:
        return 0.0
    return float(np.sum(residual_norms_sq(m, subspace)))


def ek_min_error(matrix, k: int) -> float:
    """Minimal summed residual over all subspaces of dimension <= k.

    Equals the sum of the trailing eigenvalues (past the top k) of the
    Gram matrix, i.e. the squared singular values of the slice beyond
    index k; zero whenever k >= rank.  The eigenvalues are taken from
    whichever Gram matrix is smaller, since both share the nonzero
    spectrum.  The rank cutoff is applied at the eigenvalue level: the
    symmetric eigensolve floors small eigenvalues at ~eps * lambda_1, so
    thresholding their square roots with the singular-value rule would
    overcount the rank.
    """
    if k < 0:
        raise OutOfRange("k must be nonnegative")
    m = _as_columns(matrix)
    n_rows, n_cols = m.shape
    if n_cols == 0:
        return 0.0
    gram = m.T @ m if n_cols <= n_rows else m @ m.T
    eigvals = np.linalg.eigvalsh(gram)[::-1]
    eigvals = np.clip(eigvals, 0.0, None)
    cutoff = eigvals[0] * max(n_rows, n_cols) * RANK_TOL_FACTOR
    rank = int(np.count_nonzero(eigvals > cutoff))
    if k >= rank:
        return 0.0
    return float(np.sum(eigvals[k:rank]))

