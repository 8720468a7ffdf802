"""Core data types: datasets, subspaces, bundles, and index partitions.

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
        if self.cap_dim < 0:
            raise OutOfRange("cap_dim must be nonnegative")
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


@dataclass(frozen=True)
class PartitionViolation:
    """Why a list of groups fails to partition {0, ..., m-1}."""

    kind: str  # "wrong-length" | "out-of-range" | "duplicate" | "overlap" | "gap"
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate_partition(groups, count: int, n_groups: int):
    """Check that ``groups`` is an ordered n_groups-partition of {0..count-1}.

    Accepts a Partition or any iterable of index groups.  Returns None
    when valid, otherwise the first PartitionViolation found.  Empty
    groups are permitted.
    """
    if isinstance(groups, Partition):
        groups = groups.groups
    groups = [tuple(g) for g in groups]
    if len(groups) != n_groups:
        return PartitionViolation(
            "wrong-length", f"expected {n_groups} groups, got {len(groups)}"
        )
    seen: dict[int, int] = {}
    for gi, group in enumerate(groups):
        for j in group:
            jj = int(j)
            if not 0 <= jj < count:
                return PartitionViolation(
                    "out-of-range", f"index {jj} outside 0..{count - 1}"
                )
            if jj in seen:
                if seen[jj] == gi:
                    return PartitionViolation(
                        "duplicate", f"index {jj} repeated in group {gi}"
                    )
                return PartitionViolation(
                    "overlap", f"index {jj} in groups {seen[jj]} and {gi}"
                )
            seen[jj] = gi
    if len(seen) != count:
        missing = sorted(set(range(count)) - seen.keys())
        return PartitionViolation("gap", f"index {missing[0]} uncovered")
    return None


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint index groups covering {0, ..., count-1}.

    Empty groups are allowed; group contents are kept sorted so two
    partitions compare equal iff they assign the same indices to the
    same slots.
    """

    groups: tuple[tuple[int, ...], ...]
    count: int

    def __post_init__(self):
        groups = tuple(tuple(sorted(int(j) for j in g)) for g in self.groups)
        violation = validate_partition(groups, self.count, len(groups))
        if violation is not None:
            raise InvalidPartition(str(violation))
        object.__setattr__(self, "groups", groups)

    @classmethod
    def from_labels(cls, labels, n_groups: int) -> "Partition":
        """Build the partition whose i-th group is {j : labels[j] == i}."""
        lab = np.asarray(labels, dtype=int)
        if lab.ndim != 1:
            raise InvalidPartition("labels must be a flat sequence")
        groups = tuple(
            tuple(int(j) for j in np.flatnonzero(lab == i)) for i in range(n_groups)
        )
        return cls(groups, count=lab.shape[0])

    def labels(self) -> np.ndarray:
        """Inverse of from_labels: the group index of every point."""
        lab = np.empty(self.count, dtype=int)
        for gi, group in enumerate(self.groups):
            for j in group:
                lab[j] = gi
        return lab

    def __len__(self) -> int:
        return len(self.groups)


def normalize_dataset(data: DataSet) -> DataSet:
    """Rescale to unit Frobenius norm; ranks and angles are unchanged."""
    if data.frobenius_norm <= 0.0:
        raise ZeroData("cannot normalize: every point is zero")
    return DataSet(data.points / data.frobenius_norm)
