import math
import random

import mpmath
import numpy as np
import pytest

from robinwall import canonical as can
from robinwall.errors import DomainError
from robinwall.canonical import find_extrema, universal_dn_curve
from robinwall.grand_canonical import thermo_point
from robinwall.limits import resonance_predictors, weak_field_composite, zero_field_attractive
from robinwall.spectrum import WallKind, WallSpec, build_spectrum
from robinwall.specfun import airy_zero

SQRT_PI = math.sqrt(math.pi)


def attractive(field):
    return build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field), count=64)


def zero_field_fn(betas, rows=None):
    """(c, dc/d ln beta) of the zero-field closed form at each beta, the
    form find_extrema evaluates"""
    points = [zero_field_attractive(b) for b in betas]
    return [p.heat_capacity for p in points], [p.heat_capacity_slope for p in points]


def thermo_fn(spectrum):
    """(c, dc/d ln beta)(beta, rows) of thermo_point on one spectrum."""
    def fn(betas, rows=None):
        p = thermo_point(spectrum, np.asarray(betas, dtype=float))
        return p.heat_capacity, p.heat_capacity_slope
    return fn


class TestMeanEnergyHeatCapacity:
    def test_weak_field_composite_limit(self):
        sp = attractive(1e-6)
        e = thermo_point(sp, 4.0).mean_energy
        e_ref, _ = weak_field_composite(4.0, 1e-6)
        assert e == pytest.approx(e_ref, rel=0.01)

    def test_high_temperature_limit_all_walls(self):
        field = 1e-4
        beta = 1e-4 / field ** (2.0 / 3.0)
        for kind in WallKind:
            sp = build_spectrum(WallSpec(kind, field), count=64)
            assert thermo_point(sp, beta).heat_capacity == pytest.approx(1.5, abs=1e-2)

    @pytest.mark.parametrize("field,beta", [(1e-3, 4.0), (1e-5, 9.0), (1.0, 0.7)])
    def test_capacity_equals_energy_derivative(self, field, beta):
        sp = attractive(field)
        h = 2e-3 * beta
        es = [thermo_point(sp, beta + k * h).mean_energy for k in (-2, -1, 1, 2)]
        dedb = (es[0] - 8 * es[1] + 8 * es[2] - es[3]) / (12 * h)
        c = thermo_point(sp, beta).heat_capacity
        assert c == pytest.approx(-beta * beta * dedb, rel=1e-6)

    def test_fluctuation_dissipation_random_points(self):
        rng = random.Random(20240811)
        worst = 0.0
        for _ in range(50):
            kind = rng.choice(list(WallKind))
            field = 10.0 ** rng.uniform(-5.0, -1.0)
            beta = 10.0 ** rng.uniform(math.log10(0.2), math.log10(15.0))
            sp = build_spectrum(WallSpec(kind, field), count=64)
            c = thermo_point(sp, beta).heat_capacity
            h = 2e-3 * beta
            es = [thermo_point(sp, beta + k * h).mean_energy for k in (-2, -1, 1, 2)]
            dedb = (es[0] - 8 * es[1] + 8 * es[2] - es[3]) / (12 * h)
            worst = max(worst, abs(c + beta * beta * dedb) / abs(c))
        assert worst <= 1e-5

    def test_beta_of_two_dimensions_rejected(self):
        # every ensemble shares one check of a scalar or 1-D beta: a (2, 2)
        # beta raised numpy's "truth value ... is ambiguous" from the
        # canonical sums, and raises DomainError in each
        from robinwall.grand_canonical import EnsembleSpec, Statistics
        sp = attractive(1e-3)
        for evaluate in (lambda b: thermo_point(sp, b),
                         lambda b: thermo_point(sp, b, EnsembleSpec(Statistics.FERMI_DIRAC, 2))):
            with pytest.raises(DomainError, match=r"1-D beta, got shape \(2, 2\)"):
                evaluate(np.ones((2, 2)))
            assert evaluate(np.ones(4)).mean_energy.shape == (4,)

    def test_bool_beta_rejected(self):
        # True and a bool array read as beta = 1 through the one beta check
        from robinwall.grand_canonical import EnsembleSpec, Statistics
        from robinwall.ladder import ladder_sums
        sp = attractive(1e-3)
        calls = (lambda b: thermo_point(sp, b),
                 lambda b: thermo_point(sp, b, EnsembleSpec(Statistics.BOSE_EINSTEIN, 10)),
                 lambda b: ladder_sums(sp, b, Statistics.CANONICAL),
                 lambda b: universal_dn_curve(b, WallKind.DIRICHLET))
        for evaluate in calls:
            for bad in (True, np.True_):
                with pytest.raises(DomainError, match="not a bool"):
                    evaluate(bad)
            evaluate(1.0)
        for evaluate in calls[:3]:
            with pytest.raises(DomainError, match="not a bool"):
                evaluate(np.array([True, True]))

    @pytest.mark.parametrize("field", [1e-4, 1e-2, 1.0])
    def test_repulsive_wall_monotone(self, field):
        # at F ~ 1 the high-T region weighs ~10^3 tail levels, so the check
        # needs a longer root-solved block than the weak-field default
        n_exact = 512 if field >= 0.5 else 64
        sp = build_spectrum(WallSpec(WallKind.ROBIN_REPULSIVE, field),
                            count=n_exact, n_exact=n_exact)
        temps = np.exp(np.linspace(math.log(0.01), math.log(20.0), 160))
        cs = np.array([thermo_point(sp, 1.0 / t).heat_capacity for t in temps])
        assert np.all(np.diff(cs) > 0)  # strictly rising toward 3/2


class TestZeroField:
    def test_attractive_extrema(self):
        grid = np.exp(np.linspace(math.log(0.05), math.log(50.0), 200))
        rep = find_extrema(grid, *zero_field_fn(grid), zero_field_fn)
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

    def test_slope_matches_a_difference(self):
        # the closed form's exact dc/d ln beta against the 5-point
        # difference of c in ln beta, across the maximum and the minimum
        h = 1e-3
        for beta in (0.01, 0.1, 0.3, 1.0, 1.9, 3.0, 10.0, 20.0):
            c = [zero_field_attractive(beta * math.exp(k * h)).heat_capacity for k in (-2, -1, 1, 2)]
            ref = (c[0] - 8.0 * c[1] + 8.0 * c[2] - c[3]) / (12.0 * h)
            tp = zero_field_attractive(beta)
            assert abs(tp.heat_capacity_slope - ref) <= 1e-8 * (abs(ref) + tp.heat_capacity)

    def test_low_temperature_freezeout(self):
        tp = zero_field_attractive(50.0)
        assert tp.mean_energy == pytest.approx(-1.0, abs=1e-18)
        assert 0.0 <= tp.heat_capacity < 1e-15


def mp_cumulants(spectrum, beta):
    """(kappa_2, kappa_3) of the energy over the spectrum's levels, summed at
    50 digits up to e^-70 of the ground level's weight."""
    m = 64
    while beta * (spectrum.level(m) - spectrum.e0) < 70.0:
        m *= 2
    with mpmath.workdps(50):
        e = [mpmath.mpf(float(x)) for x in spectrum.energies(np.arange(m))]
        w = [mpmath.exp(-mpmath.mpf(beta) * (x - e[0])) for x in e]
        z = mpmath.fsum(w)
        mean = mpmath.fsum(wi * x for wi, x in zip(w, e)) / z
        return tuple(float(mpmath.fsum(wi * (x - mean) ** p for wi, x in zip(w, e)) / z)
                     for p in (2, 3))


class TestThirdCumulant:
    @pytest.mark.parametrize("kind", list(WallKind), ids=lambda k: k.value)
    def test_slope_carries_the_third_cumulant(self, kind):
        # beta dc/dbeta = 2c - beta^3 kappa_3, kappa_3 from S_0..S_3 about
        # E_0: c and kappa_3 against the level sums at 50 digits, at 0.3, 1
        # and 3 over the first gap (within 8.1e-13 of them, at robin-,
        # F = 0.1, beta = 0.3 over the gap, as the level sums themselves)
        for field in (1.0, 0.1):
            sp = build_spectrum(WallSpec(kind, field), count=64)
            for beta in np.array([0.3, 1.0, 3.0]) / (sp.level(1) - sp.e0):
                tp = thermo_point(sp, beta)
                kappa2, kappa3 = mp_cumulants(sp, beta)
                assert tp.heat_capacity / beta ** 2 == pytest.approx(kappa2, rel=1e-10, abs=0.0)
                assert (2.0 * tp.heat_capacity - tp.heat_capacity_slope) / beta ** 3 \
                    == pytest.approx(kappa3, rel=1e-10, abs=0.0)


class TestUniversalCurve:
    def test_neumann_peak(self):
        # the curve in y is thermo_point's at F = 1, where y = beta
        grid = np.exp(np.linspace(math.log(0.02), math.log(2.0), 80))
        c_fn = thermo_fn(build_spectrum(WallSpec(WallKind.NEUMANN, 1.0)))
        rep = find_extrema(grid, *c_fn(grid), c_fn)
        assert rep.c_max == pytest.approx(1.522, abs=5e-3)
        assert 1.0 / rep.beta_inv_at_max == pytest.approx(0.175, rel=0.02)
        assert rep.c_max == pytest.approx(
            universal_dn_curve(1.0 / rep.beta_inv_at_max, WallKind.NEUMANN)[1], rel=1e-12)

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

    def test_scalar_y_only(self):
        # the curve is a function of one y: an array of them is refused by
        # its own shape, not summed as a 2-D beta
        with pytest.raises(DomainError, match=r"scalar y, got shape \(2,\)"):
            universal_dn_curve(np.array([1.0, 2.0]), WallKind.NEUMANN)


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

    def test_large_u_branch_is_continuous_and_exact(self):
        # past ln u = 250 the composite takes c = poly/(8u); at F = 1e-7 the
        # switch falls at beta ~ 257.22, where c ~ 9e-105
        field = 1e-7

        def ln_u(beta):
            return math.log(SQRT_PI * field) + 1.5 * math.log(beta) + beta

        def closed_form(beta):
            with mpmath.workdps(50):
                b = mpmath.mpf(beta)
                u = mpmath.sqrt(mpmath.pi) * field * b ** 1.5 * mpmath.exp(b)
                return 0.5 * (3 + u * (4 * b * b + 12 * b + 15)) / (1 + 2 * u) ** 2

        switch = 257.0
        for _ in range(6):  # Newton on ln u = 250
            switch -= (ln_u(switch) - 250.0) / (1.0 + 1.5 / switch)
        below, above = switch * (1.0 - 1e-12), switch * (1.0 + 1e-12)
        assert ln_u(below) < 250.0 <= ln_u(above)
        c = {b: weak_field_composite(b, field)[1] for b in (below, above, switch - 1.0,
                                                              switch + 1.0)}
        for b, value in c.items():
            assert value == pytest.approx(float(closed_form(b)), rel=1e-12, abs=0.0)
        # across the switch c changes by what the closed form does
        step = float(closed_form(above) / closed_form(below))
        assert abs(c[above] / c[below] - step) <= 1e-12

    def test_cross_check_against_exact_sum(self):
        sp = attractive(1e-6)
        _, c = weak_field_composite(8.0, 1e-6)
        assert c == pytest.approx(thermo_point(sp, 8.0).heat_capacity, rel=0.02)

    def test_peak_value_against_exact(self):
        # at the predicted peak temperature the composite follows the exact
        # sum closely; the crude beta^2/4 estimate sits well below both
        field = 1e-6
        _, beta_max, c_quarter = resonance_predictors(field)
        _, c = weak_field_composite(beta_max, field)
        sp = attractive(field)
        assert c == pytest.approx(thermo_point(sp, beta_max).heat_capacity, rel=0.05)
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
        rep = find_extrema(grid, *thermo_fn(sp)(grid), thermo_fn(sp))
        assert rep.beta_inv_at_max == pytest.approx(0.1324, rel=0.01)
        assert rep.c_max == pytest.approx(20.538, rel=0.01)

    def test_monotone_grid_required(self):
        with pytest.raises(DomainError):
            find_extrema([1.0, 3.0, 2.0], [1.0, 3.0, 2.0], [1.0, 1.0, 1.0], lambda b, _: (b, b))
        with pytest.raises(DomainError):
            find_extrema([1.0, 2.0], [1.0, 2.0], [1.0, 1.0], lambda b, _: (b, b))
        with pytest.raises(DomainError):
            find_extrema([1.0, 2.0, 4.0], [1.0, 2.0], [1.0, 1.0, 1.0], lambda b, _: (b, b))
        with pytest.raises(DomainError, match="slope_grid"):
            find_extrema([1.0, 2.0, 4.0], [1.0, 2.0, 4.0], [1.0, 1.0], lambda b, _: (b, b))

    def test_scans_as_rows_match_each_scan_alone(self):
        # two scans refined in lockstep: c_fn learns the row of each point,
        # and each row's report is the one its scan gives alone
        sps = [attractive(1e-5), attractive(1e-3)]
        grid = np.exp(np.linspace(math.log(2.0), math.log(30.0), 60))
        grids = np.array([grid, grid / 2.0])
        scans = [thermo_fn(sp)(g) for sp, g in zip(sps, grids)]

        def rows_fn(b, rows):
            points = [thermo_point(sps[r], x) for x, r in zip(b, rows)]
            return [p.heat_capacity for p in points], [p.heat_capacity_slope for p in points]

        reps = find_extrema(grids, *zip(*scans), rows_fn)
        assert reps == tuple(find_extrema(g, *scan, thermo_fn(sp))
                             for sp, g, scan in zip(sps, grids, scans))
        assert reps[0].c_max != reps[1].c_max

    def test_slopes_that_are_not_numbers_end_at_the_lowest_point(self):
        # a refinement whose slopes are NaN finds no sign change to bracket:
        # it stops at the best point it evaluated, here the scan's own
        # maximum at beta = 2 of c = (1, 2, 1) where every new point has c = 1,
        # and a new point where that one lies higher
        grid, cs, slopes = [1.0, 2.0, 4.0], [1.0, 2.0, 1.0], [1.0, 0.0, -1.0]
        for c_new, c_max in ((1.0, 2.0), (2.5, 2.5)):
            def fn(betas, rows):
                return np.full(len(betas), c_new), np.full(len(betas), np.nan)
            rep = find_extrema(grid, cs, slopes, fn)
            assert rep.c_max == c_max and rep.c_min is None
            if c_new < 2.0:
                assert rep.beta_inv_at_max == 0.5
            else:
                assert 0.5 < rep.beta_inv_at_max < 1.0

    def test_absent_extremum(self):
        rep = find_extrema([1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 4.0, 8.0],
                           lambda b, _: (b, b))
        assert rep.beta_inv_at_max is None
        assert rep.c_max is None
        assert rep.beta_inv_at_min is None

    def test_tied_scan_maximum_is_found(self):
        # c = -(ln beta - 1.5)^2 on ln beta = 0, 1, 2, 3: the two middle
        # points tie, so no scan point beats both neighbours, and a search for
        # a strict scan maximum reported none; the slope changes sign between
        # them, and the refinement lands on ln beta = 1.5
        def fn(betas, rows=None):
            u = np.log(betas)
            return -(u - 1.5) ** 2, -2.0 * (u - 1.5)

        grid = np.exp([0.0, 1.0, 2.0, 3.0])
        for g in (grid, grid[::-1]):  # ascending or descending in beta
            rep = find_extrema(g, *fn(g), fn)
            assert rep.c_max == pytest.approx(0.0, abs=1e-12)
            assert math.log(rep.beta_inv_at_max) == pytest.approx(-1.5, abs=1e-6)
            assert rep.c_min is None

    def test_hermite_step_is_exact_on_a_cubic(self):
        # the minimiser of the cubic Hermite is the cubic's own minimum
        f = lambda u: (u - 0.3) ** 2 * (u + 2.0)  # noqa: E731, minimum at 0.3
        g = lambda u: (u - 0.3) * (3.0 * u + 3.7)  # noqa: E731
        assert can._cubic_min(0.0, f(0.0), g(0.0), 1.0, f(1.0), g(1.0)) == pytest.approx(
            0.3, abs=1e-15)


def _golden_reference(fn, lo, hi, sign, tol=1e-6):
    """The golden-section refinement find_extrema used before Brent's
    method and its multi-point passes: extremum of sign*fn(e^u) on
    [lo, hi], interval shrunk to tol."""
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
    # the multi-point passes of find_extrema on the slope, which keep
    # Brent's stop rule
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

        def c_fn(betas, rows):
            evals.extend(betas)
            return zero_field_fn(betas)

        cs, slopes = zero_field_fn(grid)
        rep = find_extrema(grid, cs, slopes, c_fn)
        beta_inv = rep.beta_inv_at_max if sign > 0 else rep.beta_inv_at_min
        brent_evals = len(evals)  # beta values, refining both the maximum and the minimum
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

    def test_lockstep_visits_the_points_of_the_sequential_search(self):
        # the zero-field scan's maximum and minimum are refined together,
        # one c_fn call per pass; in each pass each must visit exactly the
        # points its refinement visits in that pass on it alone, and the
        # passes must be shared: as many as the longer refinement's
        grid = np.exp(np.linspace(math.log(0.05), math.log(50.0), 200))
        cs, slopes = zero_field_fn(grid)
        passes = []

        def c_fn(betas, rows):
            assert rows.tolist() == [0] * len(betas)
            passes.append(betas.tolist())
            return zero_field_fn(betas)

        rep = find_extrema(grid, cs, slopes, c_fn)
        alone = {}  # sign -> (bracket, points of each pass, best point)
        for i in range(len(grid) - 1):
            # the slope falls through 0 at a maximum and rises through it at a minimum
            sign = next((s for s in (1.0, -1.0) if s * slopes[i] > 0.0 >= s * slopes[i + 1]), 0)
            if not sign:
                continue
            refine = can._refine(math.log(grid[i]), -sign * cs[i], -sign * slopes[i],
                                 math.log(grid[i + 1]), -sign * cs[i + 1], -sign * slopes[i + 1])
            visited, fu = [], None
            try:
                while True:
                    us = refine.send(fu)
                    visited.append([math.exp(u) for u in us])
                    fu = [(-sign * c, -sign * g) for c, g in zip(*zero_field_fn(visited[-1]))]
            except StopIteration as stop:
                u, f = stop.value
            alone[sign] = ((grid[i], grid[i + 1]), visited, (1.0 / math.exp(u), -sign * f))
        assert sorted(alone) == [-1.0, 1.0]
        assert len(passes) == max(len(v) for _, v, _ in alone.values())
        for (lo, hi), visited, _ in alone.values():
            # the Hermite point, its two probes and the bracket's midpoint
            assert len(visited[0]) == 4
            assert ([[b for b in p if lo < b < hi] for p in passes]
                    == visited + [[]] * (len(passes) - len(visited)))
        assert len(passes[0]) == sum(len(v[0]) for _, v, _ in alone.values())
        assert (rep.beta_inv_at_max, rep.c_max) == alone[1.0][2]
        assert (rep.beta_inv_at_min, rep.c_min) == alone[-1.0][2]


def exact_root_heat_capacity(kind, field, beta):
    """Canonical c from a math.fsum over exact Robin levels, each found by
    scipy's brentq on lam F^(1/3) Ai' - Ai (scaled by e^zeta for xi >= 0,
    which keeps its sign) inside its bracket of Ai zeros, the ground level
    included; levels up to beta * (E - E0) ~ 40."""
    optimize = pytest.importorskip("scipy.optimize")
    sps = pytest.importorskip("scipy.special")
    lam = WallSpec(kind, field).lam
    fc, f23 = field ** (1.0 / 3.0), field ** (2.0 / 3.0)

    def g(xi):
        ai, aip = (sps.airye(xi) if xi >= 0.0 else sps.airy(xi))[:2]
        return lam * fc * aip - ai

    t = (40.0 / beta + 2.0 + field) / f23
    count = int((8.0 * t ** 1.5 / (3.0 * math.pi) + 1.0) / 4.0) + 2
    a = sps.ai_zeros(count + 1)[0]
    uppers = [4.0 * field ** (-2.0 / 3.0) + 4.0, *a[:-1]]
    levels = np.array([-optimize.brentq(g, a[n], uppers[n], xtol=1e-300, rtol=1e-15) * f23
                       for n in range(count)])
    d = levels - levels[0]
    w = np.exp(-beta * d)
    z = math.fsum(w)
    m1, m2 = math.fsum(w * d) / z, math.fsum(w * d * d) / z
    return beta * beta * (m2 - m1 * m1)


class TestExactRootOracle:
    @pytest.mark.parametrize("kind,field,beta,bound", [
        (WallKind.ROBIN_ATTRACTIVE, 1e-3, 5.0, 1e-4),
        (WallKind.ROBIN_ATTRACTIVE, 0.1, 0.5, 5e-4),
        (WallKind.ROBIN_REPULSIVE, 1.0, 0.2, 1e-4),
        (WallKind.ROBIN_REPULSIVE, 10.0, 0.05, 1e-4),
        (WallKind.ROBIN_ATTRACTIVE, 10.0, 0.05, 1e-4),
    ], ids=lambda v: v.value if isinstance(v, WallKind) else None)
    def test_heat_capacity_against_exact_roots(self, kind, field, beta, bound):
        # 64 root-solved levels and the tail law against every level exact;
        # what is left is the tail's drift from the exact ladder
        c = thermo_point(build_spectrum(WallSpec(kind, field), count=64), beta).heat_capacity
        ref = exact_root_heat_capacity(kind, field, beta)
        assert abs(c - ref) <= bound * ref

    @pytest.mark.parametrize("field", [1e2, 1e4, 1e6])
    @pytest.mark.parametrize("kind", [WallKind.ROBIN_ATTRACTIVE, WallKind.ROBIN_REPULSIVE],
                             ids=lambda k: k.value)
    def test_strong_field_collapse_onto_neumann(self, kind, field):
        # as F -> infinity both Robin walls reflect: c(y = beta F^(2/3))
        # tends to the Neumann curve
        y = 0.05
        c = thermo_point(build_spectrum(WallSpec(kind, field), count=64),
                         y / field ** (2.0 / 3.0)).heat_capacity
        assert abs(c - universal_dn_curve(y, WallKind.NEUMANN)[1]) <= 3e-3
