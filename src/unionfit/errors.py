"""Exception types shared across the package."""


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
