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

# The float constants of the rounding bounds, read once.
EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal

# An X X^T stack of order N >= BLOCK_MIN_ORDER gets its top eigenpairs from
# a block subspace iteration of BLOCK columns and BLOCK_STEPS steps
# (_ritz_pairs) instead of a full eigh, and a matrix keeps them only when
# its certificate bounds sin(theta) by BLOCK_SIN_TOL; the others go to
# eigh.  Set from the sweep in BENCH_23.json (one core, full_solve's
# recorded stacks): at N = 200 the screen took 0.27 of its eigh-bound time
# with these constants, 0.22 at 5 steps, which certify no fit at noise
# 0.05 where 8 steps certify 183 of 216; 8 columns certified under half
# the fits.  The block took 1.2 times eigh's time at N = 48 and 0.86-0.89
# at N = 64.
BLOCK = 16
BLOCK_STEPS = 8
BLOCK_MIN_ORDER = 4 * BLOCK
BLOCK_SIN_TOL = 1e-12
BLOCK_SEED = 0  # the start block's


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
        GRAM_CLEAR_FACTOR * size * EPS,
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
    points: np.ndarray, gram: np.ndarray, members: np.ndarray, k: int, norms
) -> tuple[np.ndarray, np.ndarray]:
    """``best_subspace_residuals`` approximated from Gram eigenpairs, with
    a bound on each row's error: the one Gram-eigen kernel, which fits
    alternating minimization's groups and screens the oracle's labelings.

    ``points`` (F, N x m) and ``members`` (B x m, boolean) are as in
    ``best_subspace_residuals``.  ``gram`` is F^T F (m x m,
    ``DataSet.gram``), the cheaper input when the slices are at most N
    wide, or the B x N x N stack of the slices' own Gram matrices X X^T.
    ``norms`` is ``squared_norms(points, F^T F or None)``, taken from the
    same form of Gram data.
    Row b of ``rows`` holds each column's squared norm less its squared
    projection onto the top t = min(k, width) eigenvectors of slice b's
    Gram matrix, clamped at 0: its w x w block of F^T F (one stacked
    ``eigh`` per width), or its N x N matrix of the stack (one stacked
    ``eigh`` per call; from order N >= BLOCK_MIN_ORDER on, the Ritz
    vectors of a certified block iteration, ``_ritz_pairs``, and ``eigh``
    only where it certifies none).  ``slack[b]`` bounds sum_j |rows[b, j] -
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

    A Ritz row knows its eigenvalues only through the certificate of
    ``_ritz_pairs``, theta_t <= l_t and l_{t+1} <= ub, for the rounded
    Gram matrix G.  Let e = c (N + m) d(||X||_F^2), the Gram term above.
    Q and U are orthonormal up to <~ N eps, and G Q, H, theta, tr G - sum
    theta and R are formed with errors <~ (N + BLOCK) eps tr G, where tr G
    = ||X||_F^2 and N + BLOCK <= 5 (N + m) / 4 (N >= 4 BLOCK); each is
    within e / 2.  So the screen reads the gap as g = theta_t - ub - e,
    and the sin(theta) theorem bounds the distance of U's top-t projector
    from G's by (||R_t||_F + e) / g.  With G's distance e / g from P, as
    above, the second term of the slack becomes ||F||_F^2 (2 e +
    ||R_t||_F) / g.  The certified rows' ||R_t||_F is at most
    BLOCK_SIN_TOL of theta_t - ub.
    """
    n_rows, count = points.shape
    size = n_rows + count
    norms, fro2 = norms

    def bound(s):  # d(s) of the docstring, times c (N + m)
        return SCREEN_SLACK_FACTOR * size * (EPS * s + size**2 * TINY)

    with np.errstate(all="ignore"):
        if not np.isfinite(fro2 * size):  # a Gram sum may overflow
            return np.zeros(members.shape), np.full(len(members), np.inf)
        widths = np.count_nonzero(members, axis=1)
        t = np.minimum(k, widths)
        flat = t == 0
        if flat.all():
            return np.tile(norms, (len(members), 1)), np.full(len(members), bound(fro2))
        top = int(t.max())
        lam, coef, ritz = _top_eigenpairs(points, gram, members, widths, t)
        if t.min() < top:
            coef[np.arange(top) >= t[:, None]] = 0.0
        coef *= coef
        rows = np.maximum(norms - np.sum(coef, axis=1), 0.0)
        pick = np.arange(len(members))
        lam_t = lam[pick, t - 1]
        gap = lam_t - np.maximum(lam[pick, t], 0.0)
        order = widths if gram.ndim == 2 else n_rows  # the Gram's size
        floor = gram_floor(lam[:, 0], order, np.maximum(n_rows, widths))
        err = bound(members.astype(float) @ norms)  # c (N + m) d(||X||_F^2)
        if ritz is not None:  # Ritz rows: the certified gap, and their residual
            which, ub, resid = ritz
            gap[which] = lam_t[which] - ub - err[which]
            err[which] = 2 * err[which] + resid
        ok = (gap > 0) & (lam_t > floor) & np.all(np.isfinite(rows), axis=1)
        slack = bound(fro2) + fro2 * (err / gap)
        if not ok.all():
            rows[~ok] = 0.0
            slack[~ok] = np.inf
    if flat.any():
        rows[flat] = norms
        slack[flat] = bound(fro2)
    return rows, slack


def _top_eigenpairs(points, gram, members, widths, t):
    """For each slice of ``gram_screen``, whose top eigenvectors it fits
    (t = min(k, width), top = max t): the top + 1 largest eigenvalues of
    its Gram matrix, descending and 0 past the last, every column's
    coordinates (top x m) in the basis of its top eigenvectors, and the
    Ritz rows' certificate, None where every slice went through ``eigh``.
    From F^T F that basis is X V L^(-1/2), from the w x w blocks of F^T F,
    whose top eigenvectors are scattered to the slice's columns so that one
    matmul serves every width.  From X X^T of order at least
    BLOCK_MIN_ORDER, the slices whose block iteration is certified
    (``_ritz_pairs``) take its Ritz pairs, and the certificate is their
    indices, their bounds on the (t+1)-th eigenvalue and their residuals;
    the others go through one stacked ``eigh``."""
    n_rows, count = points.shape
    top = int(t.max())
    lam = np.zeros((len(members), top + 1))
    if gram.ndim == 3:  # the slices' X X^T
        ritz = None
        if n_rows >= BLOCK_MIN_ORDER and top < BLOCK:
            ritz = _ritz_pairs(gram, t)
        if ritz is None:
            lam[:], coef = _eigh_pairs(gram, points, top)
            return lam, coef, None
        which, theta, basis, ub, resid = ritz
        coef = np.empty((len(members), top, count))
        lam[which] = theta[:, : top + 1]
        coef[which] = np.swapaxes(basis[:, :, :top], 1, 2) @ points
        rest = np.ones(len(members), dtype=bool)
        rest[which] = False
        if rest.any():
            lam[rest], coef[rest] = _eigh_pairs(gram[rest], points, top)
        return lam, coef, (which, ub, resid)
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
    return lam, coef, None


def _eigh_pairs(gram, points, top):
    """The top + 1 eigenvalues, descending, of each matrix of an X X^T
    stack, and the points' coordinates on its top eigenvectors, from one
    stacked ``eigh``."""
    val, vec = np.linalg.eigh(gram)  # ascending
    coef = np.swapaxes(vec[:, :, : -top - 1 : -1], 1, 2) @ points
    return val[:, : -top - 2 : -1], coef


def _ritz_pairs(gram, t):
    """Top eigenpairs of the matrices G of an X X^T stack by block subspace
    iteration (the range finder of Halko, Martinsson and Tropp 2011),
    certified per matrix.  From one Gaussian start of BLOCK columns, drawn
    from a fixed seed, BLOCK_STEPS steps replace Q by the orthonormal
    factor of G Q, and a Rayleigh-Ritz step takes the eigenpairs (theta,
    W) of H = Q^T G Q and the Ritz vectors U = Q W.  Every matrix goes
    through the same calls whatever its stack, so its pairs do not depend
    on it.

    Two tests leave a matrix to ``eigh`` early.  The certificate below
    needs theta_t > tr G - sum theta, while theta_t <= lambda_t <= ||G||_F
    / sqrt(t) and sum theta <= sqrt(BLOCK) ||G||_F; so a matrix with tr G
    >= (sqrt(BLOCK) + 1 / sqrt(t)) ||G||_F, as pure noise has, whose
    spectrum has no gap, is never iterated.  After the second product G Q
    the Ritz values of that Q are at hand: sin(theta) falls by about
    theta_B / theta_t a step, so a matrix whose ratio to the BLOCK_STEPS-th
    power is not below BLOCK_SIN_TOL, or whose theta_t is not above tr G -
    sum theta, stops there.
    For the rest, with R = G Q - Q H, Weyl's inequality on G in the basis
    [Q, Q_perp] bounds lambda_{t+1} by ub = max(theta_{t+1}, tr G - sum
    theta) + ||R||_F, since the block of G on Q_perp is positive
    semidefinite with trace tr G - tr H; Cauchy interlacing gives
    lambda_t >= theta_t; and the sin(theta) theorem of Davis and Kahan
    (1970) bounds U's top-t projector's distance from G's by ||R_t||_F /
    (theta_t - ub), R_t the residual of the top t Ritz vectors.  A matrix
    is certified when that bound is at most BLOCK_SIN_TOL, and
    ``gram_screen`` adds the rounding of each term.

    Returns None when no matrix of the stack is certified, else the
    certified matrices' indices, their Ritz values (descending) and Ritz
    vectors (N x BLOCK, same order), ub and ||R_t||_F.  Slices with t = 0
    are not iterated.
    """
    trace = np.trace(gram, axis1=1, axis2=2)
    flat = gram.reshape(len(gram), 1, -1)
    fro = np.sqrt(flat @ np.swapaxes(flat, 1, 2)).ravel()  # ||G||_F
    which = np.flatnonzero(
        (t > 0) & (trace < (np.sqrt(BLOCK) + 1 / np.sqrt(np.maximum(t, 1))) * fro))
    if not which.size:
        return None
    if which.size < len(t):
        gram = gram[which]
    q = np.random.default_rng(BLOCK_SEED).standard_normal((gram.shape[1], BLOCK))
    for step in range(BLOCK_STEPS):
        y = gram @ q
        if step == 1:  # the second product's Ritz values, ascending
            theta = np.linalg.eigvalsh(np.swapaxes(q, 1, 2) @ y)
            theta_t = theta[np.arange(which.size), BLOCK - t[which]]
            keep = np.flatnonzero(
                (theta[:, 0] < BLOCK_SIN_TOL ** (1 / BLOCK_STEPS) * theta_t)
                & (theta_t > trace[which] - np.sum(theta, axis=1)))
            if not keep.size:
                return None
            if keep.size < which.size:
                which, gram, y = which[keep], gram[keep], y[keep]
        q = np.linalg.qr(y)[0]
    t, trace = t[which], trace[which]
    y = gram @ q
    theta, w = np.linalg.eigh(np.swapaxes(q, 1, 2) @ y)
    theta, w = theta[:, ::-1], w[:, :, ::-1]
    basis = q @ w
    resid = y @ w - basis * theta[:, None, :]  # G U - U diag(theta)
    resid = np.sum(resid * resid, axis=1)  # per Ritz vector
    pick = np.arange(len(t))
    ub = np.maximum(theta[pick, t], trace - np.sum(theta, axis=1)) + np.sqrt(
        np.sum(resid, axis=1))
    resid = np.sqrt(np.cumsum(resid, axis=1)[pick, t - 1])
    gap = theta[pick, t - 1] - ub
    ok = (gap > 0) & (resid <= BLOCK_SIN_TOL * gap)
    if not ok.any():
        return None
    return which[ok], theta[ok], basis[ok], ub[ok], resid[ok]


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
