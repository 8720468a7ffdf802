"""The parameter rules in ``unionfit.errors``: each is written once and
raises the exception class its caller passes."""

import math

import numpy as np
import pytest

from unionfit import (
    DimensionMismatch,
    InvalidSpec,
    OutOfRange,
    ReductionConfig,
    c0,
    min_reduced_dim,
    theorem_bound,
)
from unionfit.errors import (
    check_model_dims,
    require_acts_on,
    require_finite,
    require_int,
    require_unit_interval,
)


@pytest.mark.parametrize("value", [3, np.int64(3), 2**70])
def test_require_int_accepts_integers(value):
    require_int("n", value, minimum=1)


@pytest.mark.parametrize("value", [True, 3.0, 2.5, "3", None, [3], np.float64(3)])
def test_require_int_rejects_everything_else(value):
    with pytest.raises(OutOfRange, match="n must be an integer"):
        require_int("n", value, error=OutOfRange)


def test_require_int_minimum():
    with pytest.raises(InvalidSpec, match="at least 1"):
        require_int("n", 0, minimum=1)


@pytest.mark.parametrize("value", [0.5, np.float64(0.5), 1e-300, 1 - 1e-16])
def test_unit_interval_accepts_the_open_interval(value):
    require_unit_interval("eta", value)


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, math.nan, math.inf, True, "0.5",
                                   None])
def test_unit_interval_rejects_everything_else(value):
    with pytest.raises(OutOfRange, match=r"eta must lie in \(0, 1\)"):
        require_unit_interval("eta", value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True, "1", None])
def test_require_finite_rejects(value):
    with pytest.raises(InvalidSpec, match="tol must be a finite number >= 0"):
        require_finite("tol", value, minimum=0)


def test_require_acts_on_returns_floats_or_raises():
    a = require_acts_on([[1, 2, 3]], 3)
    assert a.dtype == float and a.shape == (1, 3)
    for bad in ([1, 2, 3], np.ones((2, 4)), np.ones((2, 3, 1))):
        with pytest.raises(DimensionMismatch, match="cannot act on points"):
            require_acts_on(bad, 3)


@pytest.mark.parametrize("dims", [(0, 1), (5, 1), (2, -1), (2, 4), (2.0, 1),
                                  (2, True)])
def test_check_model_dims_rejects_outside_the_domain(dims):
    with pytest.raises(OutOfRange):
        check_model_dims(*dims, count=5, ambient_dim=4)


def test_check_model_dims_accepts_the_domain_edges():
    check_model_dims(1, 0, count=2, ambient_dim=1)
    check_model_dims(4, 3, count=5, ambient_dim=4)


def test_entry_points_keep_their_exception_class():
    # functions raise OutOfRange, spec dataclasses InvalidSpec
    for call in (lambda: c0(1.5), lambda: theorem_bound(0.1, 0.0, 2, 3, 1),
                 lambda: min_reduced_dim(0.5, 1.0, 2, 3, 1, 5),
                 lambda: theorem_bound(math.nan, 0.5, 2, 3, 1)):
        with pytest.raises(OutOfRange):
            call()
    with pytest.raises(InvalidSpec):
        ReductionConfig(r=3, epsilon=1.5)
