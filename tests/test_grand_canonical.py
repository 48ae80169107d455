import math
import random

import mpmath
import numpy as np
import pytest

from robinwall import canonical as can
from robinwall import grand_canonical as gc
from robinwall.errors import DomainError, SolverError
from robinwall.grand_canonical import (
    EnsembleSpec,
    Statistics,
    asymptotic_beta_cr,
    asymptotic_mu_cn,
    be_critical,
    fd_plateau,
    fd_single_peak,
    gc_point,
    ground_occupation,
    solve_mu,
)
from robinwall.specfun import lambert_w
from robinwall.spectrum import WallKind, WallSpec, build_spectrum

SQRT_PI = math.sqrt(math.pi)

FD = Statistics.FERMI_DIRAC
BE = Statistics.BOSE_EINSTEIN

_SPECTRA = {}


def attractive(field):
    if field not in _SPECTRA:
        _SPECTRA[field] = build_spectrum(
            WallSpec(WallKind.ROBIN_ATTRACTIVE, field), count=64)
    return _SPECTRA[field]


def direct_occupation(sp, beta, gamma, sign, start=0):
    """sum_{n >= start} 1/(e^{x_n} +- 1) with x_n = beta (E_n - E_0) + gamma,
    by direct numpy summation over the spectrum's levels until x_n > 50
    (every further level holds less than e^-50)."""
    t = sp.tail

    def occupations(x):
        if sign == gc.BOSE:
            np.expm1(x, out=x)
        else:
            np.exp(x, out=x)
            x += 1.0
        return float(np.sum(np.reciprocal(x, out=x)))

    x = beta * (np.asarray(sp.exact_levels[start:]) - sp.e0) + gamma
    parts = [occupations(x)]
    # tail levels in cache-sized chunks: x = c1 (4(m + j0) - k_off)^(2/3) + c0
    c1, c0 = beta * t.tau, beta * (t.shift - sp.e0) + gamma
    chunk = 1 << 16
    arg0 = 4.0 * (max(start, sp.n_exact) + t.j0) - t.k_off
    steps = 4.0 * np.arange(chunk, dtype=float)
    x_last = -math.inf
    while x_last <= 50.0:
        x = np.cbrt(steps + arg0)
        np.square(x, out=x)
        x *= c1
        x += c0
        x_last = float(x[-1])
        parts.append(occupations(x))
        arg0 += 4.0 * chunk
    return math.fsum(parts)


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            EnsembleSpec(FD, 0)
        with pytest.raises(DomainError):
            EnsembleSpec("fd", 1)
        assert EnsembleSpec(BE, 3).sign == -1


class TestSolveMu:
    def test_single_fermion_weak_field_closed_form(self):
        beta, field = 8.0, 1e-4
        mu = solve_mu(attractive(field), beta, EnsembleSpec(FD, 1))
        arg = 8.0 * SQRT_PI * beta ** 1.5 * field * math.exp(beta)
        mu_ref = math.log(0.5 * math.exp(-beta) * (math.sqrt(1.0 + arg) - 1.0)) / beta
        assert mu == pytest.approx(mu_ref, rel=0.02)

    def test_dirichlet_high_temperature_form(self):
        # ensemble-independent mu = ln[N/(r - 1/4)]/beta with
        # r = 1/(2 sqrt(pi) beta^(3/2) F), at beta F^(2/3) = 1e-3
        field = 1e-3
        beta = 1e-3 / field ** (2.0 / 3.0)
        spd = build_spectrum(WallSpec(WallKind.DIRICHLET, field), count=64)
        r = 0.5 / (SQRT_PI * beta ** 1.5 * field)
        mu_ref = math.log(1.0 / (r - 0.25)) / beta
        for stat in (FD, BE):
            mu = solve_mu(spd, beta, EnsembleSpec(stat, 1))
            assert mu == pytest.approx(mu_ref, rel=0.02)

    def test_bose_low_temperature_limit(self):
        # single-level occupation forces mu -> E_0 - ln(1 + 1/N)/beta
        sp = attractive(1e-3)
        beta, n = 600.0, 3
        mu = solve_mu(sp, beta, EnsembleSpec(BE, n))
        ref = sp.e0 - math.log(1.0 + 1.0 / n) / beta
        assert mu == pytest.approx(ref, abs=1e-12)

    def test_particle_number_reconstruction(self):
        rng = random.Random(909)
        for _ in range(12):
            field = 10.0 ** rng.uniform(-6.0, -2.0)
            beta = 10.0 ** rng.uniform(-0.5, 1.0)
            n = rng.choice([1, 2, 10, 100])
            sp = attractive(field)
            for stat in (FD, BE):
                ens = EnsembleSpec(stat, n)
                mu = solve_mu(sp, beta, ens)
                gamma = beta * (sp.e0 - mu)
                got = direct_occupation(sp, beta, gamma, ens.sign)
                assert abs(got - n) <= 1e-10 * n

    def test_bose_mu_strictly_below_ground(self):
        sp = attractive(1e-4)
        for beta in (0.3, 1.0, 5.0, 50.0):
            mu = solve_mu(sp, beta, EnsembleSpec(BE, 1000))
            assert mu < sp.e0


class TestGcPoint:
    def test_fields_and_invariants(self):
        sp = attractive(1e-4)
        p = gc_point(sp, 5.0, EnsembleSpec(BE, 100))
        assert p.mu < sp.e0
        assert 0.0 <= p.n0 <= 1.0
        assert p.heat_capacity_per_particle >= 0.0
        pf = gc_point(sp, 5.0, EnsembleSpec(FD, 10))
        assert pf.n0 is None

    def test_capacity_against_temperature_derivative(self):
        # closed form (implicit dmu/dbeta) vs finite differencing with mu
        # re-solved at every stencil point
        rng = random.Random(424242)
        worst = 0.0
        for _ in range(30):
            field = 10.0 ** rng.uniform(-6.0, -3.0)
            beta = 10.0 ** rng.uniform(-0.3, 0.9)
            stat = rng.choice([FD, BE])
            n = rng.choice([1, 2, 5, 10, 1000])
            sp = attractive(field)
            ens = EnsembleSpec(stat, n)
            c = gc_point(sp, beta, ens).heat_capacity_per_particle
            h = 2e-3 * beta
            es = [gc_point(sp, beta + k * h, ens).mean_energy for k in (-2, -1, 1, 2)]
            dedb = (es[0] - 8 * es[1] + 8 * es[2] - es[3]) / (12 * h)
            c_fd = -beta * beta * dedb / n
            worst = max(worst, abs(c - c_fd) / abs(c))
        assert worst <= 1e-4

    def test_high_temperature_ensemble_agreement(self):
        field = 1e-4
        beta = 1e-4 / field ** (2.0 / 3.0)
        sp = attractive(field)
        c_can = can.heat_capacity(sp, beta)
        for stat in (FD, BE):
            c = gc_point(sp, beta, EnsembleSpec(stat, 3)).heat_capacity_per_particle
            assert c == pytest.approx(c_can, abs=1e-2)

    def test_fermi_level_plateau_value(self):
        # at T ~ 0 the chemical potential parks midway between the highest
        # occupied and lowest empty levels
        for n, field in ((5, 1e-3), (10, 1e-4)):
            sp = attractive(field)
            gap = sp.level(n) - sp.level(n - 1)
            beta = 30.0 / gap
            mu = solve_mu(sp, beta, EnsembleSpec(FD, n))
            mid = 0.5 * (sp.level(n - 1) + sp.level(n))
            assert abs(mu - mid) <= 0.05 * gap

    def test_fd_peak_suppressed_by_particle_number(self):
        # more fermions subdue the resonance
        from robinwall.sweep import locate_peak
        from robinwall.reference_values import TABLE1
        field = 1e-5
        peaks = []
        for n in (1, 2, 5, 10):
            t_ref, _ = TABLE1[("fd", n, field)]
            rep = locate_peak(attractive(field), EnsembleSpec(FD, n), t_ref)
            peaks.append(rep.c_max)
        assert peaks == sorted(peaks, reverse=True)

    def test_polylog_continuum_form_of_number_sum(self):
        # hard wall, fugacity 1/2: N matches the continuum polylog form
        # -+ r Li_{3/2}(-+ z) - xi/(1/z +- 1) at small beta F^(2/3)
        field = 1e-4
        beta = 0.05
        spd = build_spectrum(WallSpec(WallKind.DIRICHLET, field), count=64)
        z = 0.5
        gamma = beta * spd.e0 - math.log(z)  # beta(E0 - mu) with mu = ln(z)/beta
        r = 0.5 / (SQRT_PI * beta ** 1.5 * field)
        for sign, stat_sign in ((+1, gc.FERMI), (-1, gc.BOSE)):
            exact = direct_occupation(spd, beta, gamma, stat_sign)
            li = float(mpmath.polylog(1.5, -sign * z))
            approx = -sign * r * li - 0.25 / (1.0 / z + sign)
            assert exact == pytest.approx(approx, rel=2e-3)


class TestCondensateHeatCapacity:
    @pytest.mark.parametrize("n", [1, 10 ** 7])
    def test_nonnegative_and_equal_to_direct_sum(self, n):
        # deep in the condensate the ground level holds nearly all of the
        # distribution weight; c must stay >= 0 and match a direct centered
        # sum beta^2 sum w (E - <E>_w)^2 / N at the same mu
        sp = attractive(1e-5)
        beta = 100.0
        p = gc_point(sp, beta, EnsembleSpec(BE, n))
        assert p.heat_capacity_per_particle >= 0.0
        t = sp.tail
        levels = np.concatenate([sp.exact_levels, t.energy(np.arange(sp.n_exact, 40_000))])
        assert beta * (levels[-1] - levels[1]) > 80.0  # the rest is below e^-80
        x = beta * (levels - p.mu)
        w = 1.0 / (4.0 * np.sinh(0.5 * x) ** 2)  # e^x / (e^x - 1)^2
        w0 = math.fsum(w)
        mean = math.fsum(w * levels) / w0
        c_direct = beta * beta * math.fsum(w * (levels - mean) ** 2) / n
        assert c_direct > 0.0
        assert p.heat_capacity_per_particle == pytest.approx(c_direct, rel=1e-9)


class TestPlainFloats:
    def test_gc_point_fields_are_float(self):
        sp = attractive(1e-4)
        for stat in (FD, BE):
            p = gc_point(sp, 3.0, EnsembleSpec(stat, 10))
            fields = [p.beta, p.mu, p.mean_energy, p.heat_capacity_per_particle]
            if stat is BE:
                fields.append(p.n0)
            assert all(type(v) is float for v in fields)


class TestWorkCounts:
    def test_table1_cell_be_1000(self, monkeypatch):
        # the published cell BE N=1000, F=1e-5: every warm-started gc_point
        # costs at most 4 fused ladder passes on average, and the peak
        # search at most 60 heat-capacity evaluations (50 grid points plus
        # Brent's refinement)
        from robinwall import sweep
        from robinwall.reference_values import TABLE1
        counts = {"gc": 0, "hinted": 0, "ladder_hinted": 0}
        ladder, point = gc.ladder_sums, gc.gc_point
        hinted = []

        def counting_ladder(*args, **kwargs):
            if hinted and hinted[-1]:
                counts["ladder_hinted"] += 1
            return ladder(*args, **kwargs)

        def counting_point(spectrum, beta, ensemble, hint_gamma=None):
            counts["gc"] += 1
            counts["hinted"] += hint_gamma is not None
            hinted.append(hint_gamma is not None)
            try:
                return point(spectrum, beta, ensemble, hint_gamma)
            finally:
                hinted.pop()

        monkeypatch.setattr(gc, "ladder_sums", counting_ladder)
        monkeypatch.setattr(gc, "gc_point", counting_point)
        t_ref, c_ref = TABLE1[("be", 1000, 1e-5)]
        rep = sweep.locate_peak(attractive(1e-5), EnsembleSpec(BE, 1000), t_ref)
        assert abs(rep.c_max - c_ref) <= 0.015 * c_ref
        assert counts["gc"] <= 60
        assert counts["hinted"] == counts["gc"] - 1
        assert counts["ladder_hinted"] <= 4 * counts["hinted"]

    def test_be_critical_ladder_passes(self, monkeypatch):
        calls = []
        ladder = gc.ladder_sums
        monkeypatch.setattr(gc, "ladder_sums",
                            lambda *a, **k: calls.append(a[1]) or ladder(*a, **k))
        be_critical(attractive(1e-5), 1000)
        assert len(calls) <= 8


class TestFdClosedForms:
    def test_plateau_values(self):
        assert fd_plateau(1) == 0.0
        assert fd_plateau(2) == 0.75
        assert fd_plateau(10 ** 6) == pytest.approx(1.4999985, abs=1e-7)
        with pytest.raises(DomainError):
            fd_plateau(0)

    def test_single_peak_residual(self):
        for field in (1e-3, 1e-5, 1e-7):
            beta, c = fd_single_peak(field)
            resid = 8.0 * SQRT_PI * field * beta ** 1.5 * math.exp(beta)
            assert abs(resid - 1.0) <= 1e-10
            assert c == beta * beta / (math.sqrt(2.0) * (math.sqrt(2.0) + 1.0) ** 2)

    def test_peak_grows_as_field_vanishes(self):
        assert fd_single_peak(1e-6)[1] > fd_single_peak(1e-5)[1]

    def test_contract(self):
        with pytest.raises(DomainError):
            fd_single_peak(0.5)


class TestAsymptoticMuCn:
    def test_single_fermion_reduction(self):
        # the stable quadratic root reduces to the N=1 closed form exactly
        beta, field = 6.0, 1e-5
        mu, _ = asymptotic_mu_cn(beta, field, EnsembleSpec(FD, 1))
        arg = 8.0 * SQRT_PI * beta ** 1.5 * field * math.exp(beta)
        ref = math.log(0.5 * math.exp(-beta) * (math.sqrt(1.0 + arg) - 1.0)) / beta
        assert mu == pytest.approx(ref, rel=1e-12)

    def test_bose_root_is_physical(self):
        beta, field = 4.0, 1e-5
        for n in (1, 10, 1000):
            mu, _ = asymptotic_mu_cn(beta, field, EnsembleSpec(BE, n))
            assert mu < -1.0 + field  # below the bound level

    def test_large_n_expansion(self):
        # mu -> [ln N + ln(2 sqrt(pi) beta^(3/2) F) - 3/(4N)]/beta, i.e. the
        # fugacity approaches (N - 3/4)/r
        beta, field, n = 6.0, 1e-5, 1000
        mu, _ = asymptotic_mu_cn(beta, field, EnsembleSpec(FD, n))
        r = 0.5 / (SQRT_PI * beta ** 1.5 * field)
        ref = (math.log(n) - math.log(r) - 0.75 / n) / beta
        assert mu == pytest.approx(ref, rel=1e-3)

    def test_fd_capacity_flattens_with_n(self):
        beta, field = 6.0, 1e-5
        excess = [asymptotic_mu_cn(beta, field, EnsembleSpec(FD, n))[1] - 1.5
                  for n in (10, 100, 1000)]
        assert excess[0] > excess[1] > excess[2] > 0.0

    def test_bose_denominator_zero_matches_lambert_form(self):
        # zeroing 2 sqrt(pi) beta^(3/2) F N - e^{-beta} reproduces the
        # asymptotic condensation temperature
        field, n = 1e-5, 1000
        lo, hi = 0.1, 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 2.0 * SQRT_PI * mid ** 1.5 * field * n - math.exp(-mid) < 0.0:
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(
            asymptotic_beta_cr(field, n), rel=1e-10)

    def test_cross_check_against_exact_point(self):
        beta, field, n = 6.0, 1e-5, 100
        ens = EnsembleSpec(FD, n)
        _, c_n = asymptotic_mu_cn(beta, field, ens)
        exact = gc_point(attractive(field), beta, ens).heat_capacity_per_particle
        assert c_n == pytest.approx(exact, rel=0.05)

    def test_contract(self):
        with pytest.raises(DomainError):
            asymptotic_mu_cn(1.0, 0.5, EnsembleSpec(FD, 1))
        with pytest.raises(DomainError):
            asymptotic_mu_cn(1e4, 1e-4, EnsembleSpec(FD, 1))


class TestBeCritical:
    def test_defining_sum_residual(self):
        sp = attractive(1e-5)
        rep = be_critical(sp, 1000)
        got = direct_occupation(sp, rep.beta_cr, 0.0, gc.BOSE, start=1)
        assert abs(got - 1000.0) <= 1e-10 * 1000.0
        assert rep.t_cr == pytest.approx(1.0 / rep.beta_cr, rel=1e-15)

    def test_asymptote_converges_with_vanishing_field(self):
        devs = []
        for field in (1e-4, 1e-5, 1e-6, 1e-7):
            rep = be_critical(attractive(field), 1000)
            devs.append(abs(rep.asymptotic_beta_cr / rep.beta_cr - 1.0))
        assert devs == sorted(devs, reverse=True)
        assert devs[-1] < 1e-3

    def test_critical_temperature_grows_with_n(self):
        sp = attractive(1e-4)
        ts = [be_critical(sp, n).t_cr for n in (10, 100, 1000)]
        assert ts == sorted(ts)

    def test_critical_temperature_vanishes_with_field(self):
        ts = [be_critical(attractive(f), 1000).t_cr for f in (1e-4, 1e-5, 1e-6)]
        assert ts == sorted(ts, reverse=True)

    @pytest.mark.parametrize("n", [0, -5, 2.5])
    def test_particle_number_validated(self, n):
        # every entry point that takes N rejects the same values
        with pytest.raises(DomainError):
            asymptotic_beta_cr(1e-5, n)
        with pytest.raises(DomainError):
            be_critical(attractive(1e-5), n)
        with pytest.raises(DomainError):
            fd_plateau(n)
        with pytest.raises(DomainError):
            EnsembleSpec(BE, n)


class TestGroundOccupation:
    def test_condensate_orderings(self):
        field, n = 1e-7, 100000
        sp = attractive(field)
        rep = be_critical(sp, n)
        n0_cold = ground_occupation(sp, 2.0 * rep.beta_cr, n)
        n0_warm = ground_occupation(sp, 0.5 * rep.beta_cr, n)
        assert n0_cold > 0.5 > n0_warm > 0.0

    def test_zero_temperature_limit(self):
        sp = attractive(1e-4)
        rep = be_critical(sp, 1000)
        assert ground_occupation(sp, 40.0 * rep.beta_cr, 1000) > 0.999

    def test_nonincreasing_in_temperature(self):
        sp = attractive(1e-4)
        rep = be_critical(sp, 1000)
        ts = np.linspace(0.1, 2.0, 25) * rep.t_cr
        n0s = [ground_occupation(sp, 1.0 / t, 1000) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(n0s, n0s[1:]))
        assert all(0.0 <= v <= 1.0 for v in n0s)

    def test_step_function_limit_shape(self):
        # as the field vanishes n0(T) approaches the step h(T_cr - T):
        # deep in the condensate n0 -> 1 - T/T_cr-ish from above; compare
        # the residual 1 - n0 at T = 0.5 T_cr across fields
        n = 100000
        resid = []
        for field in (1e-4, 1e-6):
            sp = attractive(field)
            rep = be_critical(sp, n)
            resid.append(1.0 - ground_occupation(sp, 2.0 * rep.beta_cr, n))
        assert resid[1] < resid[0]  # closer to the step at the weaker field
