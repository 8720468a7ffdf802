"""Core data types: datasets, subspaces, bundles, and partitions.

Points are stored as the columns of an N x m matrix.  All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyBundle,
    InvalidPartition,
    OutOfRange,
    ZeroData,
    require_int,
)

# Singular value sigma_i counts toward the numerical rank iff
# sigma_i > sigma_1 * max(shape) * RANK_TOL_FACTOR.
RANK_TOL_FACTOR = 1e-12

# Entrywise tolerance on Q^T Q - I for orthonormal bases.
ORTHO_TOL = 1e-10

# Seeds are reduced to 64 bits before they key a random generator.
SEED_MASK = (1 << 64) - 1

# A DataSet's FitMemo holds at most this many floats (2 MiB) of fitted
# bases and keys: about 410 rank-3 fits of groups of 2000 points in R^200.
FIT_MEMO_FLOATS = 1 << 18


def rank_from_singular_values(sigma: np.ndarray, shape: tuple[int, int]):
    """Count singular values above the shared rank tolerance.

    ``sigma`` is one descending spectrum of a matrix of the given shape, or
    a stack of such spectra along the leading axes; a stack gives an array
    of counts, one per spectrum.
    """
    s = np.asarray(sigma, dtype=float)
    cutoff = s[..., :1] * max(shape) * RANK_TOL_FACTOR
    rank = np.count_nonzero(s > cutoff, axis=-1)
    return int(rank) if s.ndim == 1 else rank


def svd_basis(a: np.ndarray, k: int):
    """Left singular vectors of ``a`` and the dimension of its best
    rank-<=k fit, ``min(k, rank)``: the fit's basis is ``u[..., :dim]``.

    ``a`` is one N x n matrix or a stack of them along the leading axes; a
    stack gives the stacked vectors and an array of dimensions, one per
    matrix.  A matrix with no columns or no nonzero entry has rank 0.
    """
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, np.minimum(k, rank_from_singular_values(s, a.shape[-2:]))


def matrix_rank(a: np.ndarray) -> int:
    """Numerical rank of an arbitrary matrix under the shared tolerance."""
    a = np.asarray(a, dtype=float)
    sigma = np.linalg.svd(a, compute_uv=False)
    return rank_from_singular_values(sigma, a.shape)


def _frobenius_norm(points: np.ndarray) -> float:
    """||F||_F, inf only when it exceeds the float range.  np.linalg.norm
    sums squares, which overflow from entries of about 1e154 on and, below
    about 1e-154, leave the normal range and lose bits or vanish; there the
    norm is taken of the points divided by a power of two near the largest
    entry, an exact scaling, and multiplied back.  Data whose largest
    square is a normal float keeps the plain norm's bits."""
    top = max(np.max(points), -np.min(points))
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(points))
        if norm == np.inf or top * top < np.finfo(float).tiny:
            shift = np.frexp(top)[1]
            norm = float(np.ldexp(np.linalg.norm(np.ldexp(points, -shift)), shift))
    return norm


class FitMemo:
    """Subspaces fitted to the column groups of one DataSet, each computed
    once.

    ``get(k, group, fit)`` returns the rank-<=k fit stored for ``group``
    (a packed membership mask), or calls ``fit()`` and stores its result.
    An entry is charged its basis's floats plus its mask's bytes in
    floats; past FIT_MEMO_FLOATS the least recently used entries are
    dropped, so ``held`` never exceeds ``limit``.  Safe under threads: the
    map and ``held`` are read and written under a lock and a fit runs
    outside it, so two threads that miss one key both fit it and both get
    the first result stored.  A pickled or copied memo arrives empty: its
    lock cannot be pickled, and its fits can be redone.
    """

    def __init__(self):
        self.limit = FIT_MEMO_FLOATS
        self.held = 0
        self._entries: OrderedDict[tuple[int, bytes], Subspace] = OrderedDict()
        self._lock = threading.Lock()

    def __reduce__(self):
        return FitMemo, ()

    @staticmethod
    def _cost(key: tuple[int, bytes], subspace: Subspace) -> int:
        return subspace.basis.size + -(-len(key[1]) // 8)

    def get(self, k: int, group: bytes, fit) -> Subspace:
        key = (k, group)
        with self._lock:
            found = self._entries.get(key)
            if found is not None:
                self._entries.move_to_end(key)
                return found
        fitted = fit()
        with self._lock:
            found = self._entries.setdefault(key, fitted)
            if found is fitted:
                self.held += self._cost(key, fitted)
                while self.held > self.limit:
                    self.held -= self._cost(*self._entries.popitem(last=False))
        return found


@dataclass(frozen=True, eq=False)
class DataSet:
    """m column points in R^N, stored in C order whatever the input's layout
    (so equal points give equal results), with cached norm, rank and Gram
    matrix, a memo of group fits (``fits``) and one of certified optima
    (``optima``).

    ``fitting.bundle_from_partition`` fits each distinct (k, group) of a
    DataSet once: sketches of one dataset recover the same groups, mostly
    under other labels, so its later lifts mostly read ``fits``.
    ``SolverConfig.certify`` keeps the oracle's report for each (l, k) in
    ``optima``, so every trial on one dataset certifies it once.  The memos
    live and die with the DataSet and never change a result, since a fit
    depends only on the points, the group and k, and an optimum only on the
    points, l and k.  ``==`` is identity: compare ``points`` by value.
    """

    points: np.ndarray
    frobenius_norm: float = field(init=False)
    fits: FitMemo = field(init=False, repr=False, compare=False)
    optima: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C")
        if pts.ndim != 2:
            raise DimensionMismatch(
                f"points must form a 2-d matrix, got shape {pts.shape}"
            )
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise DimensionMismatch("need at least one coordinate and one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("data contains non-finite entries")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "frobenius_norm", _frobenius_norm(pts))
        object.__setattr__(self, "fits", FitMemo())
        object.__setattr__(self, "optima", {})

    @cached_property
    def numerical_rank(self) -> int:
        """Numerical rank of the points; the SVD runs on first access only."""
        return matrix_rank(self.points)

    @cached_property
    def gram(self) -> np.ndarray:
        """F^T F (m x m), formed on first access only.  Both searches, the
        oracle's screen and alternating minimization, read it by one rule,
        when the l groups average at most N points (``solver._reads_gram``)."""
        gram = self.points.T @ self.points
        gram.setflags(write=False)
        return gram

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[0]

    @property
    def count(self) -> int:
        return self.points.shape[1]

    def column(self, j: int) -> np.ndarray:
        return self.points[:, j]

    def take(self, indices) -> np.ndarray:
        """Column slice as a plain matrix (may have zero columns)."""
        return self.points[:, np.asarray(list(indices), dtype=int)]


@dataclass(frozen=True, eq=False)
class Subspace:
    """A linear subspace stored as an orthonormal basis (N x t, t may be 0).

    A basis with zero columns encodes the zero subspace {0}, so the
    distance to {0} (the plain squared norm) stays expressible.  ``==`` is
    identity: compare ``basis`` by value, or projectors for the subspace.
    """

    basis: np.ndarray

    def __post_init__(self):
        q = np.array(self.basis, dtype=float)
        if q.ndim != 2:
            raise DimensionMismatch(f"basis must be 2-d, got shape {q.shape}")
        n, t = q.shape
        if n < 1:
            raise DimensionMismatch("ambient dimension must be at least 1")
        if t > n:
            raise DimensionMismatch(
                f"{t} basis vectors cannot be independent in dimension {n}"
            )
        if t > 0:
            gram = q.T @ q
            if np.max(np.abs(gram - np.eye(t))) > ORTHO_TOL:
                raise ValueError("basis columns are not orthonormal within 1e-10")
        q.setflags(write=False)
        object.__setattr__(self, "basis", q)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_span(cls, vectors: np.ndarray) -> "Subspace":
        """Orthonormal basis for the span of the given columns."""
        a = np.asarray(vectors, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        u, dim = svd_basis(a, a.shape[1])
        return cls(u[:, :dim])


@dataclass(frozen=True)
class Bundle:
    """An ordered model {V_1, ..., V_l} with every dim(V_i) <= cap_dim."""

    subspaces: tuple[Subspace, ...]
    cap_dim: int

    def __post_init__(self):
        subs = tuple(self.subspaces)
        if len(subs) == 0:
            raise EmptyBundle("a bundle needs at least one subspace")
        require_int("cap_dim", self.cap_dim, minimum=0, error=OutOfRange)
        n = subs[0].ambient_dim
        for v in subs:
            if v.ambient_dim != n:
                raise DimensionMismatch("bundle mixes ambient dimensions")
            if v.dim > self.cap_dim:
                raise OutOfRange(
                    f"subspace of dimension {v.dim} exceeds cap {self.cap_dim}"
                )
        object.__setattr__(self, "subspaces", subs)

    @property
    def ambient_dim(self) -> int:
        return self.subspaces[0].ambient_dim

    def __len__(self) -> int:
        return len(self.subspaces)

    def __iter__(self):
        return iter(self.subspaces)


@dataclass(frozen=True, eq=False)
class Partition:
    """Assignment of m points to ``n_groups`` ordered groups: point j lies
    in group ``labels[j]``.

    ``labels`` is a read-only 1-d integer array with every entry in
    0..n_groups-1, so groups are disjoint and cover every point by
    construction; a group may be empty.  Two partitions are equal iff
    they have the same number of groups and the same labels.
    """

    labels: np.ndarray
    n_groups: int

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 1:
            raise InvalidPartition(f"labels must be 1-d, got shape {lab.shape}")
        if lab.size and lab.dtype.kind not in "iu":
            raise InvalidPartition(f"labels must be integers, got {lab.dtype}")
        require_int("n_groups", self.n_groups, minimum=1, error=InvalidPartition)
        lab = np.array(lab, dtype=int)
        if lab.size and not (lab.min() >= 0 and lab.max() < self.n_groups):
            raise InvalidPartition(f"labels must lie in 0..{self.n_groups - 1}")
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)

    @property
    def count(self) -> int:
        return self.labels.shape[0]

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Sorted point indices of each group, as Python ints."""
        order = np.argsort(self.labels, kind="stable")
        sizes = np.bincount(self.labels, minlength=self.n_groups)
        return tuple(
            tuple(g.tolist()) for g in np.split(order, np.cumsum(sizes)[:-1])
        )

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.n_groups == other.n_groups and np.array_equal(
            self.labels, other.labels
        )


def normalize_dataset(data: DataSet) -> DataSet:
    """Rescale to unit Frobenius norm; ranks and angles are unchanged."""
    if data.frobenius_norm <= 0.0:
        raise ZeroData("cannot normalize: every point is zero")
    if data.frobenius_norm == np.inf:
        raise OutOfRange("cannot normalize: the Frobenius norm exceeds the float range")
    return DataSet(data.points / data.frobenius_norm)
