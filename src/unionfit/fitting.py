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

# gram_screen trusts the t-th Gram eigenvalue of an n x n Gram matrix only
# when it exceeds the eigensolver's floor (n * eps * lambda_1) by this factor.
GRAM_CLEAR_FACTOR = 1e4

# gram_screen's slack is this multiple of the rounding bound its docstring
# derives; the constant stands in for the small factors of the LAPACK error
# bounds.  Over 300 random, duplicated-column, zero-column, on-axis and
# rescaled instances the largest |screened - exact| was 0.036 of the slack.
SCREEN_SLACK_FACTOR = 10


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


def gram_floor(top, size, longest):
    """The floor a Gram eigenvalue must exceed for ``gram_screen`` to trust
    it: the eigensolver's resolution ``size * eps * top`` for a
    ``size x size`` Gram matrix whose top eigenvalue is ``top``, times
    GRAM_CLEAR_FACTOR, or the squared rank cutoff of a slice whose longer
    side is ``longest``, whichever is larger.  Elementwise on arrays."""
    return top * np.maximum(
        GRAM_CLEAR_FACTOR * size * np.finfo(float).eps,
        (longest * RANK_TOL_FACTOR) ** 2,
    )


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


def squared_norms(points: np.ndarray, gram: np.ndarray | None = None):
    """Each column's squared norm and their sum ||F||_F^2, as ``gram_screen``
    reads them: the diagonal of ``gram`` (F^T F) when it is given, so no
    pass over the N x m points, else the points' summed squares.  They
    depend only on the data, so a search computes them once and hands them
    to every screen call."""
    with np.errstate(all="ignore"):
        norms = np.diagonal(gram) if gram is not None else np.sum(points * points, axis=0)
        return norms, np.sum(norms)


def gram_screen(
    points: np.ndarray, gram: np.ndarray, members: np.ndarray, k: int, norms=None
) -> tuple[np.ndarray, np.ndarray]:
    """``best_subspace_residuals`` approximated from Gram eigenpairs, with
    a bound on each row's error: the one Gram-eigen kernel, which fits
    alternating minimization's groups and screens the oracle's labelings.

    ``points`` (F, N x m) and ``members`` (B x m, boolean) are as in
    ``best_subspace_residuals``.  ``gram`` is F^T F (m x m,
    ``DataSet.gram``), the cheaper input when the slices are at most N
    wide, or the B x N x N stack of the slices' own Gram matrices X X^T.
    ``norms`` is ``squared_norms(points, F^T F or None)``, taken from the
    same form of Gram data; when omitted it is computed here.
    Row b of ``rows`` holds each column's squared norm less its squared
    projection onto the top t = min(k, width) eigenvectors of slice b's
    Gram matrix, clamped at 0: its w x w block of F^T F (one stacked
    ``eigh`` per width), or its N x N matrix of the stack (one stacked
    ``eigh`` per call).  ``slack[b]`` bounds sum_j |rows[b, j] -
    exact[b, j]|, where ``exact`` is the row ``best_subspace_residuals``
    returns; the exact rows are never negative, so the clamp only moves a
    row toward them.  A row with t = 0 is the squared norms.  ``slack``
    is infinite, and the row zero, wherever ``gram_floor`` does not trust
    the t-th eigenvalue, the eigengap is not positive, or a value is not
    finite.

    The slack.  For a slice X with Gram eigenvalues l_1 >= l_2 >= ...,
    gap g = l_t - l_{t+1} (l_{t+1} = 0 past the last, negatives read as
    0) and P the projector onto X's top-t left singular space, both rows
    approximate ||x_j||^2 - ||P x_j||^2.  Let d(s) = eps s + (N + m)^2 eta,
    with eta the least subnormal: the rounding of a sum of at most N + m
    products whose squares sum to s, underflow included.
      - ``best_subspace_residuals``: the SVD's basis is exact for X + E
        with ||E|| <~ eps ||X||, and sigma_t - sigma_{t+1} >= g / (2
        sigma_1), so by Wedin's theorem its projector is within
        <~ eps l_1 / g of P; forming x - Q Q^T x adds <~ N d(||x_j||^2).
      - This screen: rounding the Gram matrix and ``eigh``'s backward
        error move it by <~ (N + m) d(||X||_F^2), so by Davis and Kahan its
        eigenspace's projector is within that over g of P.  From F^T F
        the basis X V L^(-1/2) is orthonormal only up to the same amount
        (its Gram matrix is I + L^(-1/2) V^T dG V L^(-1/2), and l_t >= g);
        and norms less projections cancel <~ (N + m) d(||x_j||^2).
    A projector error p moves ||P x_j||^2 by at most p ||x_j||^2, and
    l_1 <= ||X||_F^2, so summing over the m columns
        slack = c (N + m) (d(||F||_F^2) + ||F||_F^2 d(||X||_F^2) / g),
    c = SCREEN_SLACK_FACTOR for the LAPACK constants.  Where the Gram
    perturbation is not small against g, the second term alone is at least
    c ||F||_F^2 / 2, more than a projector error of at most 1 moves a row.
    """
    n_rows, count = points.shape
    size = n_rows + count
    if norms is None:
        norms = squared_norms(points, gram if gram.ndim == 2 else None)
    norms, fro2 = norms

    def bound(s):  # d(s) of the docstring, times c (N + m)
        tiny = np.finfo(float).smallest_subnormal
        return SCREEN_SLACK_FACTOR * size * (np.finfo(float).eps * s + size**2 * tiny)

    with np.errstate(all="ignore"):
        if not np.isfinite(fro2 * size):  # a Gram sum may overflow
            return np.zeros(members.shape), np.full(len(members), np.inf)
        widths = np.count_nonzero(members, axis=1)
        t = np.minimum(k, widths)
        flat = t == 0
        if flat.all():
            return np.tile(norms, (len(members), 1)), np.full(len(members), bound(fro2))
        top = int(t.max())
        lam, coef = _top_eigenpairs(points, gram, members, widths, top)
        if t.min() < top:
            coef[np.arange(top) >= t[:, None]] = 0.0
        coef *= coef
        rows = np.maximum(norms - np.sum(coef, axis=1), 0.0)
        pick = np.arange(len(members))
        lam_t = lam[pick, t - 1]
        gap = lam_t - np.maximum(lam[pick, t], 0.0)
        order = widths if gram.ndim == 2 else n_rows  # the Gram's size
        floor = gram_floor(lam[:, 0], order, np.maximum(n_rows, widths))
        ok = (gap > 0) & (lam_t > floor) & np.all(np.isfinite(rows), axis=1)
        trace = members.astype(float) @ norms
        slack = bound(fro2) + fro2 * (bound(trace) / gap)
        if not ok.all():
            rows[~ok] = 0.0
            slack[~ok] = np.inf
    if flat.any():
        rows[flat] = norms
        slack[flat] = bound(fro2)
    return rows, slack


def _top_eigenpairs(points, gram, members, widths, top):
    """For each slice of ``gram_screen``: the top + 1 largest eigenvalues of
    its Gram matrix, descending and 0 past the last, and every column's
    coordinates (top x m) in the basis of its top eigenvectors.  From
    F^T F that basis is X V L^(-1/2), from the w x w blocks of F^T F,
    whose top eigenvectors are scattered to the slice's columns so that one
    matmul serves every width."""
    n_rows, count = points.shape
    lam = np.zeros((len(members), top + 1))
    if gram.ndim == 3:  # the slices' X X^T
        val, vec = np.linalg.eigh(gram)  # ascending
        lam[:] = val[:, : -top - 2 : -1]
        return lam, np.swapaxes(vec[:, :, : -top - 1 : -1], 1, 2) @ points
    vecs = np.zeros((len(members), count, top))
    for width in np.unique(widths[widths > 0]):
        which = np.flatnonzero(widths == width)
        cols = np.nonzero(members[which])[1].reshape(which.size, width)
        val, vec = np.linalg.eigh(gram[cols[:, :, None], cols[:, None, :]])
        fitted = min(top, width)
        lam[which, : min(top + 1, width)] = val[:, : -top - 2 : -1]
        vecs[which[:, None], cols, :fitted] = vec[:, :, : -fitted - 1 : -1]
    coef = np.swapaxes(vecs, 1, 2) @ gram
    coef /= np.sqrt(lam[:, :top, None])
    return lam, coef


def bundle_from_partition(data: DataSet, partition: Partition, k: int) -> Bundle:
    """Fit the best rank-<=k subspace to each group; empty groups map to {0}.

    Each distinct (k, group) of ``data`` is fitted once, by
    ``best_subspace``, and read from ``data.fits`` afterwards: the key is
    the group's membership, not its label, so a relabeled partition runs
    no SVD.  A memoized fit is the same Subspace the SVD returned, so the
    bundle is bit-identical to a fresh fit's.
    """
    if partition.count != data.count:
        raise InvalidPartition(
            f"partition covers {partition.count} points, dataset has {data.count}"
        )
    masks = partition.labels == np.arange(partition.n_groups)[:, None]
    subspaces = tuple(
        data.fits.get(k, np.packbits(mask).tobytes(),
                      lambda mask=mask: best_subspace(data.points[:, mask], k))
        for mask in masks
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
