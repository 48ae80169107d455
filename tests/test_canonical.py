import math
import random

import numpy as np
import pytest

from robinwall import canonical as can
from robinwall.errors import DomainError
from robinwall.canonical import (
    classical_limit,
    find_extrema,
    heat_capacity,
    mean_energy,
    resonance_predictors,
    thermo_point,
    universal_dn_curve,
    weak_field_composite,
    zero_field_attractive,
    zero_field_free,
)
from robinwall.spectrum import WallKind, WallSpec, build_spectrum
from robinwall.specfun import airy_zero

SQRT_PI = math.sqrt(math.pi)


def attractive(field):
    return build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field), count=64)


class TestMeanEnergyHeatCapacity:
    def test_weak_field_composite_limit(self):
        sp = attractive(1e-6)
        e = mean_energy(sp, 4.0)
        e_ref, _ = weak_field_composite(4.0, 1e-6)
        assert e == pytest.approx(e_ref, rel=0.01)

    def test_high_temperature_limit_all_walls(self):
        field = 1e-4
        beta = 1e-4 / field ** (2.0 / 3.0)
        for kind in WallKind:
            sp = build_spectrum(WallSpec(kind, field), count=64)
            assert heat_capacity(sp, beta) == pytest.approx(1.5, abs=1e-2)

    @pytest.mark.parametrize("field,beta", [(1e-3, 4.0), (1e-5, 9.0), (1.0, 0.7)])
    def test_capacity_equals_energy_derivative(self, field, beta):
        sp = attractive(field)
        h = 2e-3 * beta
        es = [mean_energy(sp, beta + k * h) for k in (-2, -1, 1, 2)]
        dedb = (es[0] - 8 * es[1] + 8 * es[2] - es[3]) / (12 * h)
        assert heat_capacity(sp, beta) == pytest.approx(-beta * beta * dedb, rel=1e-6)

    def test_fluctuation_dissipation_random_points(self):
        rng = random.Random(20240811)
        worst = 0.0
        for _ in range(50):
            kind = rng.choice(list(WallKind))
            field = 10.0 ** rng.uniform(-5.0, -1.0)
            beta = 10.0 ** rng.uniform(math.log10(0.2), math.log10(15.0))
            sp = build_spectrum(WallSpec(kind, field), count=64)
            c = heat_capacity(sp, beta)
            h = 2e-3 * beta
            es = [mean_energy(sp, beta + k * h) for k in (-2, -1, 1, 2)]
            dedb = (es[0] - 8 * es[1] + 8 * es[2] - es[3]) / (12 * h)
            worst = max(worst, abs(c + beta * beta * dedb) / abs(c))
        assert worst <= 1e-5

    @pytest.mark.parametrize("field", [1e-4, 1e-2, 1.0])
    def test_repulsive_wall_monotone(self, field):
        # at F ~ 1 the high-T region weighs ~10^3 tail levels, so the check
        # needs a longer root-solved block than the weak-field default
        n_exact = 512 if field >= 0.5 else 64
        sp = build_spectrum(WallSpec(WallKind.ROBIN_REPULSIVE, field),
                            count=n_exact, n_exact=n_exact)
        temps = np.exp(np.linspace(math.log(0.01), math.log(20.0), 160))
        cs = np.array([heat_capacity(sp, 1.0 / t) for t in temps])
        assert np.all(np.diff(cs) > 0)  # strictly rising toward 3/2


class TestZeroField:
    def test_attractive_extrema(self):
        grid = np.exp(np.linspace(math.log(0.05), math.log(50.0), 200))
        rep = find_extrema(lambda b: zero_field_attractive(b).heat_capacity, grid)
        assert rep.c_max == pytest.approx(1.0752, abs=2e-3)
        assert rep.beta_inv_at_max == pytest.approx(0.5260, rel=5e-3)
        assert rep.c_min == pytest.approx(0.4774, abs=2e-3)
        assert rep.beta_inv_at_min == pytest.approx(8.9684, rel=5e-3)

    def test_small_beta_expansion(self):
        # c = 1/2 - (1/8) sqrt(2/pi) beta^(1/2)
        #       + (1/4) sqrt(2/pi) (3/2 + 1/(4 pi)) beta^(3/2) + ...
        s = math.sqrt(2.0 / math.pi)
        for beta in (1e-3, 1e-2):
            ref = (0.5 - s / 8 * math.sqrt(beta)
                   + s / 4 * (1.5 + 0.25 / math.pi) * beta ** 1.5)
            assert zero_field_attractive(beta).heat_capacity == pytest.approx(
                ref, abs=4.0 * beta ** 2)

    def test_expansion_minimum_location(self):
        # zeroing the expansion's derivative: beta = 1/(9 + 3/(2 pi)),
        # c = 0.4784 there
        s = math.sqrt(2.0 / math.pi)
        beta = 1.0 / (9.0 + 3.0 / (2.0 * math.pi))
        assert beta == pytest.approx(0.1055, abs=1e-4)
        c_appr = (0.5 - s / 8 * math.sqrt(beta)
                  + s / 4 * (1.5 + 0.25 / math.pi) * beta ** 1.5)
        assert c_appr == pytest.approx(0.4784, abs=1e-4)

    def test_low_temperature_freezeout(self):
        tp = zero_field_attractive(50.0)
        assert tp.mean_energy == pytest.approx(-1.0, abs=1e-18)
        assert 0.0 <= tp.heat_capacity < 1e-15

    @pytest.mark.parametrize("beta,e,c", [(1.0, 0.5, 0.5), (10.0, 0.05, 0.5),
                                          (0.01, 50.0, 0.5)])
    def test_free_walls(self, beta, e, c):
        tp = zero_field_free(beta)
        assert tp.mean_energy == pytest.approx(e, rel=1e-15)
        assert tp.heat_capacity == c


class TestClassicalLimit:
    @pytest.mark.parametrize("beta,field,z,v,c", [
        (1.0, 1.0, 1.0, 1.0, 1.0),
        (2.0, 0.5, 1.0, 0.5, 1.0),
        (0.1, 10.0, 1.0, 10.0, 1.0),
    ])
    def test_values(self, beta, field, z, v, c):
        assert classical_limit(beta, field) == (z, v, c)


class TestUniversalCurve:
    def test_neumann_peak(self):
        grid = np.exp(np.linspace(math.log(0.02), math.log(2.0), 80))
        rep = find_extrema(lambda y: universal_dn_curve(y, WallKind.NEUMANN)[1], grid)
        assert rep.c_max == pytest.approx(1.522, abs=5e-3)
        assert 1.0 / rep.beta_inv_at_max == pytest.approx(0.175, rel=0.02)

    def test_dirichlet_large_y_decay(self):
        b1, b2 = -airy_zero(1), -airy_zero(2)
        y = 10.0
        _, c = universal_dn_curve(y, WallKind.DIRICHLET)
        lead = y * y * (b2 - b1) ** 2 * math.exp(-(b2 - b1) * y)
        assert c == pytest.approx(lead, rel=0.05)

    def test_small_y_approach_signs(self):
        _, c_d = universal_dn_curve(1e-3, WallKind.DIRICHLET)
        _, c_n = universal_dn_curve(1e-3, WallKind.NEUMANN)
        assert c_d < 1.5 < c_n

    def test_energy_ratio_limits(self):
        e_over, _ = universal_dn_curve(20.0, WallKind.DIRICHLET)
        assert e_over == pytest.approx(-airy_zero(1), rel=1e-4)

    def test_kind_guard(self):
        with pytest.raises(DomainError):
            universal_dn_curve(1.0, WallKind.ROBIN_ATTRACTIVE)


class TestResonancePredictors:
    def test_defining_residuals(self):
        field = 1e-6
        beta_zero, beta_max, c_max = resonance_predictors(field)
        r1 = beta_zero ** 2.5 * math.exp(beta_zero) * 4 * SQRT_PI * field / 3
        r2 = 2 * SQRT_PI * field * beta_max ** 1.5 * math.exp(beta_max)
        assert abs(r1 - 1) <= 1e-10
        assert abs(r2 - 1) <= 1e-10
        assert c_max == beta_max * beta_max / 4

    def test_logarithmic_trend(self):
        # beta_zero ~ -ln F as the field vanishes
        b1 = resonance_predictors(1e-6)[0]
        b2 = resonance_predictors(1e-8)[0]
        assert b2 > b1
        assert b2 / (-math.log(1e-8)) > b1 / (-math.log(1e-6))

    def test_peak_grows_with_vanishing_field(self):
        assert resonance_predictors(1e-5)[2] > resonance_predictors(1e-4)[2]

    def test_contract_bound(self):
        with pytest.raises(DomainError):
            resonance_predictors(0.05)


class TestWeakFieldComposite:
    def test_high_temperature_correction(self):
        # c -> 3/2 + (3/2) sqrt(pi) F beta^(3/2) (1 + 5 beta + ...) at small beta
        field = 1e-6
        for beta in (0.01, 0.03):
            _, c = weak_field_composite(beta, field)
            corr_ref = 1.5 * SQRT_PI * field * beta ** 1.5 * (1.0 + 5.0 * beta)
            assert (c - 1.5) == pytest.approx(corr_ref, rel=0.01)

    def test_cross_check_against_exact_sum(self):
        sp = attractive(1e-6)
        _, c = weak_field_composite(8.0, 1e-6)
        assert c == pytest.approx(heat_capacity(sp, 8.0), rel=0.02)

    def test_peak_value_against_exact(self):
        # at the predicted peak temperature the composite follows the exact
        # sum closely; the crude beta^2/4 estimate sits well below both
        field = 1e-6
        _, beta_max, c_quarter = resonance_predictors(field)
        _, c = weak_field_composite(beta_max, field)
        sp = attractive(field)
        assert c == pytest.approx(heat_capacity(sp, beta_max), rel=0.05)
        assert c > c_quarter

    def test_contract_bounds(self):
        with pytest.raises(DomainError):
            weak_field_composite(1.0, 0.05)
        with pytest.raises(DomainError):
            weak_field_composite(1e4, 1e-4)


class TestFindExtrema:
    def test_table_cell_weak_field(self):
        sp = attractive(1e-5)
        grid = np.exp(np.linspace(math.log(2.0), math.log(30.0), 60))
        rep = find_extrema(lambda b: heat_capacity(sp, b), grid)
        assert rep.beta_inv_at_max == pytest.approx(0.1324, rel=0.01)
        assert rep.c_max == pytest.approx(20.538, rel=0.01)

    def test_monotone_grid_required(self):
        with pytest.raises(DomainError):
            find_extrema(lambda b: b, [1.0, 3.0, 2.0])
        with pytest.raises(DomainError):
            find_extrema(lambda b: b, [1.0, 2.0])

    def test_absent_extremum(self):
        rep = find_extrema(lambda b: b, [1.0, 2.0, 4.0, 8.0])
        assert rep.beta_inv_at_max is None
        assert rep.c_max is None
        assert rep.beta_inv_at_min is None


def _golden_reference(fn, lo, hi, sign, tol=1e-6):
    """The golden-section refinement find_extrema used before Brent's
    method: extremum of sign*fn(e^u) on [lo, hi], interval shrunk to tol."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    yc, yd = sign * fn(math.exp(c)), sign * fn(math.exp(d))
    evals = 2
    while b - a > tol:
        if yc > yd:
            b, d, yd = d, c, yc
            c = b - inv_phi * (b - a)
            yc = sign * fn(math.exp(c))
        else:
            a, c, yc = c, d, yd
            d = a + inv_phi * (b - a)
            yd = sign * fn(math.exp(d))
        evals += 1
    return 0.5 * (a + b), evals + 1


class TestBrentRefinement:
    @staticmethod
    def _exact_extremum(beta_guess):
        # c = beta^2 d^2 ln Z / dbeta^2, Z = e^beta + sqrt(2 pi / beta); the
        # extremum solves dc/dbeta = 0 at 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            def c(b):
                return b * b * mpmath.diff(
                    lambda s: mpmath.log(mpmath.exp(s) + mpmath.sqrt(2 * mpmath.pi / s)),
                    b, 2)
            return float(mpmath.log(mpmath.findroot(lambda b: mpmath.diff(c, b),
                                                    beta_guess)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_field_extremum_at_least_as_accurate_as_golden(self, sign):
        grid = np.exp(np.linspace(math.log(0.05), math.log(50.0), 200))
        evals = []

        def c_fn(beta):
            evals.append(beta)
            return zero_field_attractive(beta).heat_capacity

        rep = find_extrema(c_fn, grid)
        beta_inv = rep.beta_inv_at_max if sign > 0 else rep.beta_inv_at_min
        brent_evals = len(evals) - len(grid)  # refining both the maximum and the minimum
        cs = [zero_field_attractive(b).heat_capacity for b in grid]
        i = next(i for i in range(1, len(grid) - 1)
                 if sign * cs[i] > sign * cs[i - 1] and sign * cs[i] > sign * cs[i + 1])
        exact = self._exact_extremum(grid[i])
        golden, golden_evals = _golden_reference(
            lambda b: zero_field_attractive(b).heat_capacity,
            math.log(grid[i - 1]), math.log(grid[i + 1]), sign)
        err_brent = abs(-math.log(beta_inv) - exact)
        err_golden = abs(golden - exact)
        assert err_golden <= 5e-7
        assert err_brent <= err_golden
        assert brent_evals < golden_evals


class TestPlainFloats:
    @pytest.mark.parametrize("field", [1e-3], ids=["spectrum"])
    def test_canonical_results_are_float(self, field):
        sp = attractive(field)
        assert type(heat_capacity(sp, 2.0)) is float
        assert type(mean_energy(sp, 2.0)) is float
        tp = thermo_point(sp, 2.0)
        assert all(type(v) is float for v in (tp.beta, tp.mean_energy, tp.heat_capacity))
