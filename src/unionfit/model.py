"""Core data types: datasets, subspaces, bundles, and partitions.

Points are stored as the columns of an N x m matrix.  All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

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


def matrix_rank(a: np.ndarray) -> int:
    """Numerical rank of an arbitrary matrix under the shared tolerance."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    sigma = np.linalg.svd(a, compute_uv=False)
    return rank_from_singular_values(sigma, a.shape)


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DataSet:
    """m column points in R^N with cached Frobenius norm and numerical rank."""

    points: np.ndarray
    frobenius_norm: float = field(init=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
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
        object.__setattr__(self, "frobenius_norm", float(np.linalg.norm(pts)))

    @cached_property
    def numerical_rank(self) -> int:
        """Numerical rank of the points; the SVD runs on first access only."""
        return matrix_rank(self.points)

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
        idx = np.asarray(list(indices), dtype=int)
        if idx.size == 0:
            return np.zeros((self.ambient_dim, 0))
        return self.points[:, idx]


@dataclass(frozen=True)
class Subspace:
    """A linear subspace stored as an orthonormal basis (N x t, t may be 0).

    A basis with zero columns encodes the zero subspace {0}, so the
    distance to {0} (the plain squared norm) stays expressible.
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
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0)))

    @classmethod
    def from_span(cls, vectors: np.ndarray) -> "Subspace":
        """Orthonormal basis for the span of the given columns."""
        a = np.asarray(vectors, dtype=float)
        if a.ndim == 1:
            a = a[:, None]
        if a.shape[1] == 0 or not np.any(a):
            return cls.zero(a.shape[0])
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        r = rank_from_singular_values(s, a.shape)
        return cls(u[:, :r])

    def projector(self) -> np.ndarray:
        """Q Q^T, the orthogonal projector onto the subspace.

        Bases are only unique up to rotation/sign, so subspaces should be
        compared through their projectors, never entrywise.
        """
        return self.basis @ self.basis.T


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
    return DataSet(data.points / data.frobenius_norm)
