"""Model-error metrics: the one residual kernel and nearest-subspace step,
bundle and group errors, and the minimal rank-k fitting error computed
from tail eigenvalues."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, OutOfRange, require_int
from .model import RANK_TOL_FACTOR, Bundle, DataSet, Subspace


def as_columns(data) -> np.ndarray:
    """The points of a DataSet, or an array as a matrix of columns (a
    vector is one column)."""
    if isinstance(data, DataSet):
        return data.points
    a = np.asarray(data, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix of columns, got shape {a.shape}")
    return a


def residuals(points: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Squared distance of every column of ``points`` (N x m) to the span
    of an orthonormal basis, in column order.

    ``basis`` is N x t with t >= 0, giving m distances, or a B x N x t
    stack of bases, giving B x m.  A basis with no columns gives the
    squared norms.  The residual ``x - Q Q^T x`` is formed explicitly, not
    as a difference of squared norms, which cancels badly for columns
    close to the subspace.  It is formed in place, in one N x m work array
    per basis that lives only for this call.
    """
    resid = basis @ (np.swapaxes(basis, -1, -2) @ points)
    np.subtract(points, resid, out=resid)
    np.multiply(resid, resid, out=resid)
    return np.sum(resid, axis=-2)


def nearest(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest row of an l x m distance table for every column, ties to
    the lowest index, and the distance to it: the column's least entry,
    the same float as ``table[labels, arange(m)]`` wherever no column
    holds both 0.0 and -0.0, which no table of squared distances does."""
    return np.argmin(table, axis=0), np.min(table, axis=0)


def dist2_to_subspace(point, subspace: Subspace) -> float:
    """Squared euclidean distance of one vector to a subspace."""
    f = np.asarray(point, dtype=float)
    if f.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {f.shape}")
    if f.shape[0] != subspace.ambient_dim:
        raise DimensionMismatch(
            f"vector has dimension {f.shape[0]}, subspace {subspace.ambient_dim}"
        )
    return float(residuals(f[:, None], subspace.basis)[0])


def distance_table(data: DataSet, bundle: Bundle) -> np.ndarray:
    """l x m table of squared distances from every point to every subspace."""
    if data.ambient_dim != bundle.ambient_dim:
        raise DimensionMismatch(
            f"data in dimension {data.ambient_dim}, bundle in {bundle.ambient_dim}"
        )
    return np.stack([residuals(data.points, v.basis) for v in bundle])


def bundle_error(data: DataSet, bundle: Bundle) -> float:
    """Sum over points of the squared distance to the nearest bundle subspace."""
    _, dist2 = nearest(distance_table(data, bundle))
    return float(np.sum(dist2))


def group_error(matrix, subspace: Subspace) -> float:
    """Summed squared distances of a column slice to one subspace.

    Additive over disjoint slices; the sum runs in ascending column order.
    """
    pts = as_columns(matrix)
    if pts.shape[0] != subspace.ambient_dim:
        raise DimensionMismatch(
            f"points live in dimension {pts.shape[0]}, "
            f"subspace in {subspace.ambient_dim}"
        )
    return float(np.sum(residuals(pts, subspace.basis)))


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
    require_int("k", k, minimum=0, error=OutOfRange)
    m = as_columns(matrix)
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

