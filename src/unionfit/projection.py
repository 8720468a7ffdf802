"""Random sketching matrices and concentration-inequality experiments.

Two entry distributions are supported: gaussian N(0, 1/r) and the
two-point +-1/sqrt(r) family.  Both concentrate the squared norm of any
fixed vector within a (1 +- eps) window except with probability
2 exp(-r c0(eps)), c0(eps) = eps^2/4 - eps^3/6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    OutOfRange,
    require_acts_on,
    require_choice,
    require_int,
    require_unit_interval,
)
from .model import SEED_MASK, Subspace, matrix_rank

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
DISTRIBUTIONS = (GAUSSIAN, BERNOULLI)


@dataclass(frozen=True)
class RandomSpec:
    """How to draw a reduction matrix: entry family, shape, and seed."""

    distribution: str
    reduced_dim: int
    ambient_dim: int
    seed: int = 0

    def __post_init__(self):
        require_choice("distribution", self.distribution, DISTRIBUTIONS, OutOfRange)
        require_int("reduced_dim", self.reduced_dim, minimum=1, error=OutOfRange)
        require_int("ambient_dim", self.ambient_dim, minimum=1, error=OutOfRange)
        require_int("seed", self.seed, error=OutOfRange)


@dataclass(frozen=True)
class ConcentrationReport:
    """Observed vs. predicted failure rate of the norm-preservation window."""

    epsilon: float
    trials: int  # total number of (vector, draw) pairs evaluated
    failures: int
    empirical_rate: float
    theoretical_bound: float  # 2 exp(-r c0(eps))


def _generator(seed: int, stream: int) -> np.random.Generator:
    # Philox is counter-based and keyed, so (seed, stream) pairs give
    # independent, reproducible streams that are safe to draw in parallel.
    key = np.array([seed & SEED_MASK, stream & SEED_MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_matrix(spec: RandomSpec, stream: int = 0) -> np.ndarray:
    """Draw the r x N reduction matrix for a spec; entries fill row-major.

    The same (spec, stream) always yields the same matrix.  Callers that
    need many independent draws (Monte Carlo trials) pass distinct stream
    indices instead of mutating the seed.
    """
    rng = _generator(spec.seed, stream)
    shape = (spec.reduced_dim, spec.ambient_dim)
    scale = 1.0 / math.sqrt(spec.reduced_dim)
    if spec.distribution == GAUSSIAN:
        return rng.normal(0.0, scale, size=shape)
    signs = rng.integers(0, 2, size=shape) * 2 - 1
    return signs * scale


def c0(epsilon: float) -> float:
    """Concentration exponent eps^2/4 - eps^3/6; strictly positive on (0, 1)."""
    require_unit_interval("epsilon", epsilon)
    return epsilon * epsilon / 4.0 - epsilon**3 / 6.0


def empirical_concentration(
    spec: RandomSpec,
    epsilon: float,
    vectors,
    trials: int,
) -> ConcentrationReport:
    """Measure how often a fresh draw pushes ||Ax||^2 out of the window
    [(1-eps)||x||^2, (1+eps)||x||^2].

    Every (draw, vector) pair gets its own matrix keyed by the pair
    index, so running the same spec over scaled copies of the vectors
    reproduces the exact same draws (and, by homogeneity, the same
    failure counts).
    """
    require_unit_interval("epsilon", epsilon)
    require_int("trials", trials, minimum=1, error=OutOfRange)
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    if not vecs:
        raise OutOfRange("need at least one vector")
    for v in vecs:
        if v.shape != (spec.ambient_dim,):
            raise DimensionMismatch(
                f"vector of shape {v.shape} does not live in "
                f"dimension {spec.ambient_dim}"
            )
        if not np.any(v):
            raise OutOfRange("vectors must be nonzero")

    failures = 0
    pair = 0
    for _ in range(trials):
        for v in vecs:
            matrix = sample_matrix(spec, stream=pair)
            pair += 1
            norm2 = float(v @ v)
            sketched2 = float(np.sum((matrix @ v) ** 2))
            if not (1.0 - epsilon) * norm2 <= sketched2 <= (1.0 + epsilon) * norm2:
                failures += 1
    total = trials * len(vecs)
    bound = 2.0 * math.exp(-spec.reduced_dim * c0(epsilon))
    return ConcentrationReport(
        epsilon=epsilon,
        trials=total,
        failures=failures,
        empirical_rate=failures / total,
        theoretical_bound=bound,
    )


def check_rank_preservation(matrix, subspace: Subspace, k: int) -> bool:
    """True when the sketch keeps the subspace's rank above k.

    This certifies that a candidate span of dimension > k cannot collapse
    to dimension <= k under the sketch, the failure mode that breaks
    exact recovery on noiseless data.
    """
    require_int("k", k, minimum=0, error=OutOfRange)
    a = require_acts_on(matrix, subspace.ambient_dim)
    return matrix_rank(a @ subspace.basis) > k
