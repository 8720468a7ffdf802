"""Synthetic union-of-subspaces datasets with known ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, require_finite, require_instance, require_int
from .model import SEED_MASK, Bundle, DataSet, Partition, Subspace, normalize_dataset


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a dataset drawn from a union of random subspaces.

    ``balance`` fixes the number of points per subspace; by default the
    points are split as evenly as possible.  Noise is isotropic gaussian
    per coordinate, added before the final normalization.
    """

    ambient_dim: int
    n_subspaces: int
    max_dim: int
    n_points: int
    noise_sigma: float = 0.0
    seed: int = 0
    balance: tuple[int, ...] | None = None

    def __post_init__(self):
        for name in ("ambient_dim", "n_subspaces", "max_dim", "n_points"):
            require_int(name, getattr(self, name), minimum=1)
        require_int("seed", self.seed)
        if not self.max_dim < self.ambient_dim:
            raise InvalidSpec(
                f"need 1 <= max_dim < ambient_dim, got max_dim={self.max_dim} "
                f"in dimension {self.ambient_dim}"
            )
        require_finite("noise_sigma", self.noise_sigma, minimum=0)
        if self.balance is not None:
            require_instance("balance", self.balance, (list, tuple))
            for c in self.balance:
                require_int("balance count", c, minimum=0)
            if len(self.balance) != self.n_subspaces:
                raise InvalidSpec(
                    f"balance lists {len(self.balance)} counts for "
                    f"{self.n_subspaces} subspaces"
                )
            if sum(self.balance) != self.n_points:
                raise InvalidSpec(
                    f"balance sums to {sum(self.balance)}, expected {self.n_points}"
                )
            object.__setattr__(self, "balance", tuple(int(c) for c in self.balance))

    @property
    def counts(self) -> tuple[int, ...]:
        if self.balance is not None:
            return self.balance
        base, extra = divmod(self.n_points, self.n_subspaces)
        return tuple(
            base + (1 if i < extra else 0) for i in range(self.n_subspaces)
        )


@dataclass(frozen=True)
class GroundTruth:
    """The bundle and partition a synthetic dataset was generated from."""

    bundle: Bundle
    partition: Partition


def generate_synthetic(spec: SyntheticSpec) -> tuple[DataSet, GroundTruth]:
    """Draw the dataset described by ``spec``; deterministic per seed.

    Each subspace gets an orthonormalized gaussian basis, points get
    gaussian coefficients on their subspace plus optional isotropic
    noise, and the resulting matrix is scaled to unit Frobenius norm
    (which leaves the generating subspaces unchanged).
    """
    rng = np.random.default_rng(spec.seed & SEED_MASK)
    counts = spec.counts
    bases = []
    for _ in range(spec.n_subspaces):
        raw = rng.normal(size=(spec.ambient_dim, spec.max_dim))
        q, _ = np.linalg.qr(raw)
        bases.append(q)

    points = np.zeros((spec.ambient_dim, spec.n_points))
    labels = np.zeros(spec.n_points, dtype=int)
    start = 0
    for i, group_size in enumerate(counts):
        coeff = rng.normal(size=(spec.max_dim, group_size))
        points[:, start : start + group_size] = bases[i] @ coeff
        labels[start : start + group_size] = i
        start += group_size
    if spec.noise_sigma > 0:
        points = points + rng.normal(0.0, spec.noise_sigma, size=points.shape)

    data = normalize_dataset(DataSet(points))
    bundle = Bundle(tuple(Subspace(b) for b in bases), cap_dim=spec.max_dim)
    partition = Partition(labels, spec.n_subspaces)
    return data, GroundTruth(bundle=bundle, partition=partition)
