"""Exception types shared across the package, and the one rule for each
value a caller can set.  A rule raises the class its caller passes:
``InvalidSpec`` from spec dataclasses, ``OutOfRange`` from functions."""

import math
import numbers

import numpy as np


class UnionFitError(Exception):
    """Base class for every error raised by this library."""


class ZeroData(UnionFitError):
    """All data points are zero, so normalization is undefined."""


class DimensionMismatch(UnionFitError):
    """Operands live in incompatible ambient spaces."""


class EmptyBundle(UnionFitError):
    """A bundle must contain at least one subspace."""


class InvalidPartition(UnionFitError):
    """Labels do not form a partition of the point set."""


class InvalidInit(UnionFitError):
    """The initial partition handed to the solver is unusable."""


class InvalidSpec(UnionFitError):
    """A generation or experiment spec fails validation."""


class BudgetExceeded(UnionFitError):
    """Exhaustive enumeration would exceed the configured budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} assignments, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class OutOfRange(UnionFitError):
    """A numeric parameter lies outside its admissible interval."""


class NotNormalized(UnionFitError):
    """The reduction pipeline requires a dataset with unit Frobenius norm."""


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_int(name: str, value, minimum=None, error=InvalidSpec):
    """An integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise error(f"{name} must be at least {minimum}, got {value}")


def require_finite(name: str, value, minimum=None, error=InvalidSpec):
    """A finite real number (not a bool) of at least ``minimum``."""
    if not (_is_real(value) and math.isfinite(value)) or (
        minimum is not None and value < minimum
    ):
        floor = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be a finite number{floor}, got {value!r}")


def require_unit_interval(name: str, value, error=OutOfRange):
    """A real number in (0, 1), the domain of epsilon, eta and delta."""
    if not (_is_real(value) and 0.0 < value < 1.0):
        raise error(f"{name} must lie in (0, 1), got {value!r}")


def require_instance(name: str, value, kinds: tuple, error=InvalidSpec):
    """An instance of one of ``kinds``."""
    if not isinstance(value, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise error(f"{name} must be {expected}, got {value!r}")


def require_choice(name: str, value, choices: tuple, error=InvalidSpec):
    """One of the strings ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise error(f"unknown {name} {value!r}; expected one of {choices}")


def require_acts_on(matrix, dim: int) -> np.ndarray:
    """A 2-d matrix that multiplies points of dimension ``dim``, as floats;
    raises DimensionMismatch."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[1] != dim:
        raise DimensionMismatch(
            f"matrix of shape {a.shape} cannot act on points of dimension {dim}"
        )
    return a


def check_model_dims(n_subspaces, max_dim, count, ambient_dim, error=OutOfRange):
    """The solvers' model domain: integers 1 <= l < m and 0 <= k < N."""
    require_int("n_subspaces", n_subspaces, error=error)
    require_int("max_dim", max_dim, error=error)
    if not 1 <= n_subspaces < count:
        raise error(f"need 1 <= n_subspaces < m, got {n_subspaces} for m={count}")
    if not 0 <= max_dim < ambient_dim:
        raise error(f"need 0 <= max_dim < N, got {max_dim} for N={ambient_dim}")


def check_bound_shape(n_subspaces, d, k, count=None):
    """The closed-form bounds' domain: l >= 1, 0 <= k <= d and, when a
    point count is given, m >= 1; raises OutOfRange."""
    if d < k:
        raise OutOfRange(f"rank d={d} must be at least k={k}")
    if k < 0 or n_subspaces < 1 or (count is not None and count < 1):
        raise OutOfRange("need k >= 0, at least one subspace and one point")
