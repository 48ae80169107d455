"""The oracles themselves: scipy and mpmath against published constants."""

import math

import mpmath
import numpy as np
from scipy import optimize, special

import checks
import published


HALF_LAST_DIGIT = 5e-16   # the constants are printed to 15 decimals


def test_scipy_first_zeros():
    a, ap, _, _ = special.ai_zeros(1)
    assert abs(a[0] - published.AI_ZERO_1) <= HALF_LAST_DIGIT
    assert abs(ap[0] - published.AIP_ZERO_1) <= HALF_LAST_DIGIT


def test_mpmath_first_zeros():
    with mpmath.workdps(30):
        a1 = float(mpmath.airyaizero(1))
        ap1 = float(mpmath.airyaizero(1, derivative=1))
    assert abs(a1 - published.AI_ZERO_1) <= HALF_LAST_DIGIT
    assert abs(ap1 - published.AIP_ZERO_1) <= HALF_LAST_DIGIT


def _brentq_root(field, lam, lo, hi):
    fc = field ** (1.0 / 3.0)
    h = lambda x: fc * checks._ai_log_deriv(np.array([x]))[0] - 1.0 / lam  # noqa: E731
    return optimize.brentq(h, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def test_newton_distance_vanishes_at_a_root_and_not_off_it():
    a, _, _, _ = special.ai_zeros(3)
    field = 1e-3
    xi = _brentq_root(field, 1, a[2] + 1e-9, a[1] - 1e-9)  # repulsive wall, level 2
    assert checks.robin_newton_distance(np.array([xi]), field, 1)[0] < 1e-12
    shifted = checks.robin_newton_distance(np.array([xi + 1e-6]), field, 1)[0]
    assert math.isclose(shifted, 1e-6, rel_tol=1e-3)
    energy = -xi * field ** (2.0 / 3.0)
    assert checks.mp_robin_newton_distance(energy, field, 1) < 1e-12


def test_bound_state_far_on_the_positive_axis():
    # attractive wall at F = 1e-7: xi ~ F^(-2/3), where unscaled Ai underflows
    field = 1e-7
    xi = _brentq_root(field, -1, 1e3, 1e5)
    assert checks.robin_newton_distance(np.array([xi]), field, -1)[0] < 1e-9 * xi
    energy = -xi * field ** (2.0 / 3.0)
    assert math.isclose(energy, -1.0, rel_tol=1e-3)
    assert checks.mp_robin_newton_distance(energy, field, -1) < 1e-9 * xi


def test_published_table_has_55_cells():
    assert len(published.TABLE1) == 55
    assert {k[0] for k in published.TABLE1} == set(published.TABLE1_TOLERANCE)
