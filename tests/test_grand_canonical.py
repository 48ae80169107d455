import functools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import robinwall
from robinwall import canonical as can
from robinwall import grand_canonical as gc
from robinwall import specfun as sf
from robinwall._work import reading
from robinwall.errors import DomainError, SolverError
from robinwall.grand_canonical import EnsembleSpec, Statistics, be_critical, thermo_point
from robinwall.limits import (asymptotic_beta_cr, asymptotic_mu_cn, fd_plateau, fd_single_peak,
                              weak_field_composite)
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


def direct_occupation(sp, beta, gamma, statistics, start=0):
    """sum_{n >= start} 1/(e^{x_n} +- 1) with x_n = beta (E_n - E_0) + gamma,
    by direct numpy summation over the spectrum's levels until x_n > 50
    (every further level holds less than e^-50)."""
    t = sp.tail

    def occupations(x):
        if statistics is BE:
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


def excited_bose_occupation(sp, beta, direct=1 << 14):
    """sum_{m >= 1} 1/(e^{x_m} - 1), x_m = beta (E_m - E_0): levels below
    ``direct`` summed one by one, and past them, where the tail law changes
    little from one level to the next, its Euler-Maclaurin sum
    integral_M^inf f dm + f(M)/2 - f'(M)/12 at M = ``direct``, the integral
    by scipy's quad in E with dm/dE = (3/8) tau^(-3/2) sqrt(E - shift)."""
    from scipy.integrate import quad

    def occupation(e):
        w = np.exp(-beta * (np.asarray(e, dtype=float) - sp.e0))
        return w / (1.0 - w)

    t = sp.tail
    levels = sp.energies(np.arange(1, direct))
    total = math.fsum(occupation(levels).tolist())
    if beta * (levels[-1] - sp.e0) > 50.0:  # every further level holds below e^-50
        return total
    f = occupation(t.energy(np.array([direct - 1.0, direct, direct + 1.0])))
    e_m = float(t.energy(direct))
    integral, _ = quad(lambda e: 0.375 * t.tau ** -1.5 * math.sqrt(e - t.shift) * occupation(e),
                       e_m, e_m + 60.0 / beta, epsrel=1e-13, epsabs=0.0, limit=200)
    return total + integral + f[1] / 2.0 - (f[2] - f[0]) / 24.0


@functools.lru_cache(maxsize=1)
def be_critical_grid():
    """(spectrum, N, report, ladder passes) of each be_critical case of the
    4 walls x F in {1e-7, 1e-5, 1e-3, 0.1, 10} x N in {1, 10, 1e3, 1e5, 1e8}."""
    out = []
    for kind in WallKind:
        for field in (1e-7, 1e-5, 1e-3, 0.1, 10.0):
            sp = build_spectrum(WallSpec(kind, field))
            for n in (1, 10, 1000, 10 ** 5, 10 ** 8):
                with reading() as work:
                    rep = be_critical(sp, n)
                out.append((sp, n, rep, work["be_passes"]))
    return out


class TestEnsembleSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            EnsembleSpec(FD, 0)
        with pytest.raises(DomainError):
            EnsembleSpec("fd", 1)
        assert EnsembleSpec(BE, 3).statistics is BE

    def test_canonical_ensemble_holds_one_particle(self):
        assert EnsembleSpec(Statistics.CANONICAL, 1).n_particles == 1
        for n in (2, 7):
            with pytest.raises(DomainError, match="computed for 1 particle, got"):
                EnsembleSpec(Statistics.CANONICAL, n)
        with pytest.raises(DomainError):
            EnsembleSpec(Statistics.CANONICAL, 0)

    def test_particle_number_at_most_int64(self):
        # an array of a larger N holds Python ints, on which np.log raises a
        # TypeError; at the limit both statistics solve
        limit = 2 ** 63 - 1
        message = re.escape(f"n_particles must be an integer in [1, {limit}]")
        with pytest.raises(DomainError, match=message):
            EnsembleSpec(FD, limit + 1)
        for stat in (FD, BE):
            p = thermo_point(attractive(1e-3), 1.0, EnsembleSpec(stat, limit))
            assert math.isfinite(p.mu) and math.isfinite(p.heat_capacity)


class TestNonFiniteStates:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow past the float range
    @pytest.mark.parametrize("ens,beta,message", [
        (EnsembleSpec(Statistics.CANONICAL, 1), 1e-250, "are not finite"),
        (EnsembleSpec(FD, 3), 1e-250, "particle-number residual nan"),
        (EnsembleSpec(BE, 3), 1e-300, "particle-number residual nan"),
    ], ids=["canonical", "fd", "be"])
    def test_state_with_nonfinite_c_fails(self, ens, beta, message):
        # below beta ~ 1e-203 (robin-, F = 1e-3) the tail law's level index
        # leaves the float range and the sums are NaN: the canonical state
        # names its values that are not finite, a grand-canonical one its NaN
        # particle-number residual.  A scalar call raises, and in a batch the
        # lane is NaN in every value with its message while the other lane is good
        sp = attractive(1e-3)
        with pytest.raises(SolverError, match=message):
            thermo_point(sp, beta, ens)
        p = thermo_point(sp, np.array([beta, 1.0]), ens)
        assert message in p.errors[0] and p.errors[1] is None
        values = np.array([p.mean_energy, p.heat_capacity, p.heat_capacity_slope]
                          + ([] if p.mu is None else [p.mu]))
        assert np.isnan(values[:, 0]).all() and np.isfinite(values[:, 1]).all()


class TestLanesFailAlone:
    def test_bracket_past_the_float_range(self):
        # robin-, F = 1, N = 1e6: beta (E_N - E_0) overflows from beta ~ 6e303,
        # and the plan of the mu bracket's end raised an uncaught OverflowError
        # for the whole batch.  Such a lane fails unsolved with a message that
        # names beta; the other lane is its state alone, bit for bit
        sp, ens = attractive(1.0), EnsembleSpec(FD, 10 ** 6)
        p, alone = thermo_point(sp, np.array([1e294, 1e306]), ens), thermo_point(sp, 1e294, ens)
        fields = ("mean_energy", "heat_capacity", "mu", "heat_capacity_slope")
        assert [getattr(p, f)[0] for f in fields] == [getattr(alone, f) for f in fields]
        assert np.isnan([getattr(p, f)[1] for f in fields]).all()
        assert p.errors[0] is None
        assert p.errors[1] == ("fd state at beta=1e+306, N=1000000: its mu bracket "
                               "beta (E_N - E_0) leaves the float range")
        with pytest.raises(SolverError, match=re.escape(p.errors[1])):
            thermo_point(sp, 1e306, ens)

    def test_bose_ground_fraction_past_one(self, monkeypatch):
        # a Bose lane whose n0 leaves [0, 1 + 1e-9] fails by the one check of a
        # finished lane (canonical._checked), here lane 0 with its solved
        # ln gamma moved down by 10, so that n0 ~ e^10; the other lane's n0 is
        # clipped to 1 at most
        solve = gc._solve_n

        def low_gamma(*args):
            payload, errors = solve(*args)
            payload[0, 0] -= 10.0
            return payload, errors

        monkeypatch.setattr(gc, "_solve_n", low_gamma)
        p = thermo_point(attractive(1e-3), np.array([2.0, 3.0]), EnsembleSpec(BE, 10))
        assert p.errors[0].startswith("be state at beta=2.0, N=10: ground occupation n0 = ")
        assert p.errors[0].endswith("lies outside [0, 1]")
        assert np.isnan([p.mean_energy[0], p.heat_capacity[0], p.mu[0], p.n0[0]]).all()
        assert p.errors[1] is None and 0.0 <= p.n0[1] <= 1.0

    def test_ground_fraction_clipped_to_one(self):
        ones = np.ones(4)
        n0 = np.array([0.5, 1.0 + 1e-10, 1.0 + 1e-8, -1e-3])
        p = can._checked(can.ThermoPoint(ones, ones, ones, ones, n0, (None,) * 4, ones),
                         lambda i: f"lane {i}")
        assert p.errors[:2] == (None, None) and None not in p.errors[2:]
        assert p.n0[:2].tolist() == [0.5, 1.0] and np.isnan(p.n0[2:]).all()


class TestSolveMu:
    def test_single_fermion_weak_field_closed_form(self):
        beta, field = 8.0, 1e-4
        mu = thermo_point(attractive(field), beta, EnsembleSpec(FD, 1)).mu
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
            mu = thermo_point(spd, beta, EnsembleSpec(stat, 1)).mu
            assert mu == pytest.approx(mu_ref, rel=0.02)

    def test_bose_low_temperature_limit(self):
        # single-level occupation forces mu -> E_0 - ln(1 + 1/N)/beta
        sp = attractive(1e-3)
        beta, n = 600.0, 3
        mu = thermo_point(sp, beta, EnsembleSpec(BE, n)).mu
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
                mu = thermo_point(sp, beta, EnsembleSpec(stat, n)).mu
                gamma = beta * (sp.e0 - mu)
                got = direct_occupation(sp, beta, gamma, stat)
                assert abs(got - n) <= 1e-10 * n

    def test_bose_mu_strictly_below_ground(self):
        sp = attractive(1e-4)
        for beta in (0.3, 1.0, 5.0, 50.0):
            mu = thermo_point(sp, beta, EnsembleSpec(BE, 1000)).mu
            assert mu < sp.e0


class TestGcPoint:
    def test_fields_and_invariants(self):
        sp = attractive(1e-4)
        p = thermo_point(sp, 5.0, EnsembleSpec(BE, 100))
        assert p.mu < sp.e0
        assert 0.0 <= p.n0 <= 1.0
        assert p.heat_capacity >= 0.0
        pf = thermo_point(sp, 5.0, EnsembleSpec(FD, 10))
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
            c = thermo_point(sp, beta, ens).heat_capacity
            h = 2e-3 * beta
            es = [thermo_point(sp, beta + k * h, ens).mean_energy for k in (-2, -1, 1, 2)]
            dedb = (es[0] - 8 * es[1] + 8 * es[2] - es[3]) / (12 * h)
            c_fd = -beta * beta * dedb / n
            worst = max(worst, abs(c - c_fd) / abs(c))
        assert worst <= 1e-4

    @pytest.mark.parametrize("stat, n, field, scale", [
        (FD, 2, 1e-3, 1.0), (FD, 10, 1e-5, 0.7), (FD, 1, 1e-7, 1.5),
        (BE, 1000, 1e-5, 1.0), (BE, 100000, 1e-3, 1.0), (BE, 10, 1e-6, 0.6)])
    def test_slope_against_central_differences(self, stat, n, field, scale):
        # the slope du/d ln beta that the solve keeps with its accepted
        # state (u = gamma = beta (E_0 - mu), or ln gamma for bosons), from
        # the implicit dgamma/dbeta, against a five-point difference of the
        # u solved around it
        from robinwall.reference_values import TABLE1
        sp = attractive(field)
        beta = 1.0 / (scale * TABLE1[(stat.value, n, field)][0])
        h = 1e-4
        evaluate = gc._Evaluator(sp, [EnsembleSpec(stat, n)])
        p = evaluate(beta * np.exp(h * np.array([0.0, -2.0, -1.0, 1.0, 2.0])),
                     np.zeros(5, dtype=int))
        assert p.errors == (None,) * 5
        _, u, slope = evaluate.states[0]  # sorted by ln beta: offsets -2h .. 2h
        fd = (u[0] - 8.0 * u[1] + 8.0 * u[3] - u[4]) / (12.0 * h)
        assert slope[2] == pytest.approx(fd, rel=1e-7, abs=0.0)

    def test_capacity_where_every_weight_underflows(self):
        # one fermion frozen in the ground level of a strong field: every
        # distribution weight underflows (D0 = D1 = D2 = 0), so c lies below
        # the float range and is 0, with no message and no warning; N pins
        # no gamma there, and its slope reads 0
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1.0))
        ens = EnsembleSpec(FD, 1)
        assert thermo_point(sp, 1000.0, ens).heat_capacity == 0.0
        evaluate = gc._Evaluator(sp, [ens])
        p = evaluate(np.array([1000.0, 2.0]), np.zeros(2, dtype=int))
        assert p.errors == (None, None)
        ln_beta, _, slope = evaluate.states[0]
        assert p.heat_capacity[0] == 0.0 == slope[ln_beta == math.log(1000.0)][0]
        assert p.heat_capacity[1] > 0.0

    def test_high_temperature_ensemble_agreement(self):
        field = 1e-4
        beta = 1e-4 / field ** (2.0 / 3.0)
        sp = attractive(field)
        c_can = thermo_point(sp, beta).heat_capacity
        for stat in (FD, BE):
            c = thermo_point(sp, beta, EnsembleSpec(stat, 3)).heat_capacity
            assert c == pytest.approx(c_can, abs=1e-2)

    def test_fermi_level_plateau_value(self):
        # at T ~ 0 the chemical potential parks midway between the highest
        # occupied and lowest empty levels
        for n, field in ((5, 1e-3), (10, 1e-4)):
            sp = attractive(field)
            gap = sp.level(n) - sp.level(n - 1)
            beta = 30.0 / gap
            mu = thermo_point(sp, beta, EnsembleSpec(FD, n)).mu
            mid = 0.5 * (sp.level(n - 1) + sp.level(n))
            assert abs(mu - mid) <= 0.05 * gap

    def test_fd_peak_suppressed_by_particle_number(self):
        # more fermions subdue the resonance
        from robinwall.sweep import locate_peak
        from robinwall.reference_values import TABLE1
        field, ns = 1e-5, (1, 2, 5, 10)
        reps = locate_peak(attractive(field), [EnsembleSpec(FD, n) for n in ns],
                           [TABLE1[("fd", n, field)][0] for n in ns])
        peaks = [rep.c_max for rep in reps]
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
        for sign, stat in ((+1, FD), (-1, BE)):
            exact = direct_occupation(spd, beta, gamma, stat)
            li = float(mpmath.polylog(1.5, -sign * z))
            approx = -sign * r * li - 0.25 / (1.0 / z + sign)
            assert exact == pytest.approx(approx, rel=2e-3)


class TestCondensateHeatCapacity:
    def test_deep_condensate_with_mu_rounding_to_the_ground_level(self):
        # N = 1e8 bosons at beta = 1e9: gamma = ln(1 + 1/(n0 N)) ~ 1e-8 puts
        # mu within ~1e-17 of E_0 = -1, below its spacing, so mu - E_0
        # rounds to 0 while the state is valid (gamma > 0, n0 in [0, 1]);
        # it was rejected as "mu - E_0 = 0.0" at n0 = 0.99999999999904
        sp = attractive(1e-9)
        p = thermo_point(sp, 1e9, EnsembleSpec(BE, 10 ** 8))
        assert p.mu == sp.e0
        assert 1.0 - 1e-11 < p.n0 <= 1.0
        assert p.heat_capacity >= 0.0

    @pytest.mark.parametrize("n", [1, 10 ** 7])
    def test_nonnegative_and_equal_to_direct_sum(self, n):
        # deep in the condensate the ground level holds nearly all of the
        # distribution weight; c must stay >= 0 and match a direct centered
        # sum beta^2 sum w (E - <E>_w)^2 / N at the same mu
        sp = attractive(1e-5)
        beta = 100.0
        p = thermo_point(sp, beta, EnsembleSpec(BE, n))
        assert p.heat_capacity >= 0.0
        t = sp.tail
        levels = np.concatenate([sp.exact_levels, t.energy(np.arange(sp.n_exact, 40_000))])
        assert beta * (levels[-1] - levels[1]) > 80.0  # the rest is below e^-80
        x = beta * (levels - p.mu)
        w = 1.0 / (4.0 * np.sinh(0.5 * x) ** 2)  # e^x / (e^x - 1)^2
        w0 = math.fsum(w)
        mean = math.fsum(w * levels) / w0
        c_direct = beta * beta * math.fsum(w * (levels - mean) ** 2) / n
        assert c_direct > 0.0
        assert p.heat_capacity == pytest.approx(c_direct, rel=1e-9)


class TestSolveAcceptance:
    @pytest.mark.parametrize("delta, accepted", [(5e-11, True), (5e-10, False)])
    def test_lane_short_of_the_target_meets_the_contract(self, monkeypatch, delta, accepted):
        # one lane's N carries a relative offset +delta at N >= N_target and
        # -delta below it, so its residual never falls below delta (not even
        # where the solve lands on N = N_target exactly): the 1e-12 target is
        # out of reach, the lane runs until its bracket collapses, and its
        # last point is judged by the 1e-10 contract alone
        sp, ens, betas = attractive(1e-5), EnsembleSpec(FD, 10), np.array([2.0, 5.0, 9.0])
        clean = thermo_point(sp, betas, ens)
        sums, passes = gc._sums, []

        def offset(plan, lanes, *args):
            passes.append(len(lanes))
            n, *rest = sums(plan, lanes, *args)
            shifted = n * (1.0 + delta * np.where(n >= 10.0, 1.0, -1.0))
            return np.array([np.where(plan.beta[lanes] == betas[1], shifted, n), *rest])

        monkeypatch.setattr(gc, "_sums", offset)
        p = thermo_point(sp, betas, ens)
        assert passes[0] == 3
        assert p.errors[0] is None and p.errors[2] is None
        if accepted:
            assert p.errors[1] is None
            assert p.mu[1] == pytest.approx(clean.mu[1], rel=1e-9)
        else:
            assert "particle-number residual" in p.errors[1]
        for a, b in ((p.mu, clean.mu), (p.mean_energy, clean.mean_energy),
                     (p.heat_capacity, clean.heat_capacity)):
            assert a[[0, 2]].tolist() == b[[0, 2]].tolist()
            assert np.isfinite(a[[0, 2]]).all()
            assert np.isfinite(a[1]) == accepted  # a rejected lane's values are NaN

    def test_lanes_with_their_own_particle_numbers(self):
        # one cold batch of lanes, each in its own cell with its own N, as
        # ``locate_peak`` runs them, gives every lane the state it has in a
        # batch of its own N alone, up to the rounding of the ladder's node
        # sets, padded to a common length across a batch
        sp, betas, ns = attractive(1e-5), np.array([2.0, 5.0, 9.0, 5.0]), (1, 10, 1000, 2)
        for stat in (FD, BE):
            p = gc._Evaluator(sp, [EnsembleSpec(stat, n) for n in ns])(betas, np.arange(4))
            assert p.errors == (None,) * 4
            for i, n in enumerate(ns):
                q = thermo_point(sp, betas[i:i + 1], EnsembleSpec(stat, n))
                for f in ("mu", "mean_energy", "heat_capacity", "n0"):
                    if getattr(q, f) is not None:
                        assert getattr(p, f)[i] == pytest.approx(getattr(q, f)[0], rel=1e-13)
        with pytest.raises(DomainError):
            gc._Evaluator(sp, [EnsembleSpec(FD, 1), EnsembleSpec(BE, 1)] * 2)
        with pytest.raises(DomainError, match="ensemble must be an EnsembleSpec"):  # one only
            thermo_point(sp, betas, [EnsembleSpec(FD, n) for n in ns])

    def test_beta_of_two_dimensions_rejected(self):
        # a scalar or 1-D beta only: a (2, 3) beta raised nothing and came
        # back flattened to 6 lanes
        sp = attractive(1e-5)
        for stat in (FD, BE):
            with pytest.raises(DomainError, match=r"1-D beta, got shape \(2, 3\)"):
                thermo_point(sp, np.full((2, 3), 2.0), EnsembleSpec(stat, 10))
            assert thermo_point(sp, np.full(6, 2.0), EnsembleSpec(stat, 10)).mu.shape == (6,)

    def test_canonical_ensemble_rejected(self):
        # the canonical ensemble has no chemical potential to solve; its
        # states are the canonical sums, which thermo_point gives by default
        sp, canonical = attractive(1e-5), EnsembleSpec(Statistics.CANONICAL, 1)
        assert thermo_point(sp, 2.0, canonical) == thermo_point(sp, 2.0)
        for ensembles in ([canonical] * 2, [canonical, EnsembleSpec(FD, 1)]):
            with pytest.raises(DomainError, match="grand-canonical"):
                gc._Evaluator(sp, ensembles)

    @pytest.mark.parametrize("stat, ns, field", [(FD, (2, 10), 1e-5), (BE, (1, 1000), 1e-5)])
    def test_failed_lane_of_a_mixed_block_names_its_own_n_and_beta(
            self, monkeypatch, stat, ns, field):
        # two cells of one spectrum scanned and refined together; the lanes
        # of the second cell's scan below the first cell's window carry an
        # N offset past the contract, so only second-cell lanes fail; the
        # offset's sign is never 0, so a lane whose N meets its target
        # exactly is offset too
        from robinwall import sweep
        from robinwall.reference_values import TABLE1
        t_refs = [TABLE1[(stat.value, n, field)][0] for n in ns]
        beta_cut = 0.99 / (2.2 * t_refs[0])  # below the first cell's scan window
        sums = gc._sums

        def offset(plan, lanes, *args):
            n, *rest = sums(plan, lanes, *args)
            sign = np.where(n >= ns[1], 1.0, -1.0)
            return np.array([np.where(plan.beta[lanes] < beta_cut, n * (1.0 + 5e-10 * sign), n),
                             *rest])

        monkeypatch.setattr(gc, "_sums", offset)
        with pytest.raises(SolverError) as info:
            sweep.locate_peak(attractive(field), [EnsembleSpec(stat, n) for n in ns], t_refs)
        beta, n = re.search(r"beta=(\S+), N=(\d+):", str(info.value)).groups()
        assert int(n) == ns[1]
        assert 1.0 / (2.2 * t_refs[1]) * (1.0 - 1e-12) <= float(beta) < beta_cut

    def test_accepted_state_depends_little_on_the_start(self):
        # any iterate within the 1e-12 target is accepted, so the result
        # depends on where the solve started, but only at the ~1e-13 level:
        # the cold start, and the Taylor steps from states solved at ten
        # temperatures around it
        sp, ens, beta = attractive(1e-7), EnsembleSpec(FD, 10), np.array([9.532])
        cs = [thermo_point(sp, beta, ens).heat_capacity[0]]
        for d in np.linspace(-0.5, 0.5, 10):
            evaluate = gc._Evaluator(sp, [ens])
            evaluate(beta * math.exp(d), np.zeros(1, dtype=int))
            cs.append(evaluate(beta, np.zeros(1, dtype=int)).heat_capacity[0])
        assert max(cs) - min(cs) <= 1e-12 * min(cs)

    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    @pytest.mark.parametrize("stat, n, beta", [(FD, 10, 20.0), (BE, 1000, 1.0)])
    def test_halley_step_meets_the_target_on_the_second_pass(self, stat, n, beta, side):
        # one lane started 1e-4 off in ln N from its root: the Halley step
        # lands within 1e-12 (seen: 4e-14) on the second pass, where Newton's
        # (an error of ~1e-8) needs a third
        sp = attractive(1e-3)
        gamma = beta * (sp.e0 - thermo_point(sp, beta, EnsembleSpec(stat, n)).mu)
        n_sum, _, d0, *_ = gc.ladder_sums(sp, beta, stat, gamma=gamma)
        u, slope = (math.log(gamma), -gamma * d0 / n_sum) if stat is BE else (gamma, -d0 / n_sum)
        evaluate = gc._Evaluator(sp, [EnsembleSpec(stat, n)])
        evaluate.states[0] = np.array([[math.log(beta)], [u + side * 1e-4 / slope], [0.0]])
        with reading() as work:
            p = evaluate(np.array([beta]), np.zeros(1, dtype=int))
        assert work[f"{stat.value}_passes"] == 2 and p.errors == (None,)
        n_end = gc.ladder_sums(sp, beta, stat, gamma=beta * (sp.e0 - p.mu[0]))[0]
        assert abs(n_end / n - 1.0) <= 1e-12


ALL_ENSEMBLES = pytest.mark.parametrize(
    "ens", [EnsembleSpec(Statistics.CANONICAL, 1), EnsembleSpec(FD, 10), EnsembleSpec(BE, 10)],
    ids=["canonical", "fd", "be"])
STATE_FIELDS = ("beta", "mean_energy", "heat_capacity", "heat_capacity_slope", "mu", "n0")


class TestOneStateCall:
    @ALL_ENSEMBLES
    def test_scalar_contract(self, ens, monkeypatch):
        # a scalar beta gives plain floats, None for mu and n0 where they do
        # not apply, and raises the message its one-lane batch records
        sp = attractive(1e-4)
        p = thermo_point(sp, 3.0, ens)
        unset = {"mu": ens.statistics is Statistics.CANONICAL, "n0": ens.statistics is not BE}
        for name in STATE_FIELDS:
            value = getattr(p, name)
            assert value is None if unset.get(name) else type(value) is float, name
        assert p.errors is None
        # sums that come out NaN, in the canonical ladder and the mu solve's
        ladder, sums = can.ladder_sums, gc._sums
        monkeypatch.setattr(can, "ladder_sums",
                            lambda *a, **k: tuple(s * np.nan for s in ladder(*a, **k)))
        monkeypatch.setattr(gc, "_sums", lambda *args: sums(*args) * np.nan)
        message = thermo_point(sp, np.array([3.0]), ens).errors[0]
        assert message
        with pytest.raises(SolverError) as exc:
            thermo_point(sp, 3.0, ens)
        assert str(exc.value) == message

    @ALL_ENSEMBLES
    def test_equals_its_evaluator_bitwise(self, ens):
        # a batch is its evaluator's batch, solved cold, and a scalar beta
        # its one-lane batch
        sp, betas = attractive(1e-3), np.array([0.5, 2.0, 9.0])

        def evaluate(beta):
            if ens.statistics is Statistics.CANONICAL:
                return can._canonical(sp, beta)
            return gc._Evaluator(sp, [ens])(beta, np.zeros(beta.size, dtype=int))

        ref, batch = evaluate(betas), thermo_point(sp, betas, ens)
        assert batch.errors == ref.errors == (None,) * betas.size
        for name in STATE_FIELDS:
            if getattr(ref, name) is None:
                assert getattr(batch, name) is None, name
            else:
                np.testing.assert_array_equal(getattr(batch, name), getattr(ref, name),
                                              strict=True)
        for beta in betas.tolist():
            one = evaluate(np.array([beta]))
            expected = {name: None if getattr(one, name) is None else float(getattr(one, name)[0])
                        for name in STATE_FIELDS}
            assert thermo_point(sp, beta, ens)._asdict() == {**expected, "errors": None}


def lane_starts(solved, beta, cells):
    """The warm starts lane by lane: ``solved[k]`` lists cell k's states
    as (ln beta, u, du/d ln beta) in the order solved.  A lane's two
    nearest states are the first two in the order of distance, then ln
    beta (the one below the lane first), then the order solved."""
    start = np.full(len(beta), np.nan)
    for i, (x, k) in enumerate(zip(np.log(beta).tolist(), cells.tolist())):
        if not solved[k]:
            continue
        order = sorted(range(len(solved[k])),
                       key=lambda j: (abs(x - solved[k][j][0]), solved[k][j][0], j))
        (l0, u0, s0), (l1, u1, s1) = (solved[k][j] for j in (order + order)[:2])
        h, d = l1 - l0, x - l0
        t = d / h if h != 0.0 else 0.0
        du = u1 - u0
        start[i] = u0 + s0 * d + t * t * (3.0 * du - h * (2.0 * s0 + s1)
                                          + t * (h * (s0 + s1) - 2.0 * du))
    return start


class TestWarmStarts:
    def test_starts_match_the_loop_over_cells(self):
        # random states of three batches, kept as the evaluator keeps them,
        # against the lane-by-lane reference: equal ln beta solved twice
        # (ties: the earlier solved first), lanes midway between two states
        # (ties: the one below first), a one-state cell, a cell without
        # states (cold: NaN) and lanes outside every state's range
        rng = np.random.default_rng(11)
        evaluate = gc._Evaluator(attractive(1e-3), [EnsembleSpec(FD, 1)] * 4)
        # the lanes' ln beta in one binade, where a step of 1/8 to either
        # side is exact and so are both distances to a lane
        x = np.log(np.exp(rng.uniform(1.25, 1.75, 10)))
        pool = np.concatenate([x, x[:4] + 0.125, x[:4] - 0.125])
        for _ in range(30):
            solved = [[] for _ in range(4)]
            for batch, size in enumerate(rng.integers(3, 8, 3)):
                cells = rng.choice([0, 3], size)
                if batch == 0:
                    cells[:3] = 0, 1, 3  # cell 1 keeps this one state alone
                for state in zip(cells.tolist(), *rng.choice(pool, (1, size)).tolist(),
                                 *rng.normal(size=(2, size)).tolist()):
                    solved[state[0]].append(state[1:])
            evaluate.states = [np.array(sorted(s, key=lambda state: state[0])).T.reshape(3, -1)
                               for s in solved]  # sorted() is stable
            beta = np.exp(np.concatenate([x, [0.3, 3.0]] * 4))
            cells = np.repeat(np.arange(4), len(x) + 2)
            ref = lane_starts(solved, beta, cells)
            assert np.isnan(ref[cells == 2]).all() and np.isfinite(ref[cells != 2]).all()
            np.testing.assert_array_equal(evaluate._starts(beta, cells), ref)

    def test_states_are_kept_sorted_by_ln_beta_per_cell(self):
        # two batches over two cells, the second interleaved with the first
        sp, ens = attractive(1e-5), [EnsembleSpec(FD, 2), EnsembleSpec(FD, 10)]
        evaluate = gc._Evaluator(sp, ens)
        first, second = np.array([2.0, 9.0, 5.0, 3.0]), np.array([7.0, 4.0, 2.5])
        evaluate(first, np.array([0, 0, 1, 1]))
        evaluate(second, np.array([1, 0, 1]))
        for k, betas in enumerate(([2.0, 9.0, 4.0], [5.0, 3.0, 7.0, 2.5])):
            lb, u, _ = evaluate.states[k]
            assert lb.tolist() == sorted(np.log(betas).tolist())
            for b, uk in zip(np.exp(lb), u):
                assert thermo_point(sp, b, ens[k]).mu == pytest.approx(
                    sp.e0 - uk / b, rel=1e-9, abs=1e-12)


@functools.cache
def cold_fermi_passes(kind):
    """Ladder passes of each cold 40-lane FD grid on the wall ``kind``, over
    y = beta F^(2/3) in [0.1, 30], from a classical gas into a degenerate
    sea: {(field, N): (lanes planned but for the stale lanes' re-plans,
    passes)}, the first 40 when the batch is planned once, as one."""
    passes = {}
    for field in (1e-5, 1e-2, 1.0):
        sp = build_spectrum(WallSpec(kind, field))
        beta = np.geomspace(0.1, 30.0, 40) / field ** (2.0 / 3.0)
        for n in (1, 2, 10, 100, 1000, 10 ** 6):
            with reading() as work:
                p = thermo_point(sp, beta, EnsembleSpec(FD, n))
            assert p.errors == (None,) * 40
            passes[field, n] = (work["plan_lanes"] - work["stale_lanes"], work["fd_passes"])
    return passes


class TestWorkCounts:
    def test_table1_cell_be_1000(self, monkeypatch):
        # the published cell BE N=1000, F=1e-5: the scan is one evaluator
        # batch of cold lanes solved in at most 6 lockstep ladder passes,
        # and the refinement at most 8 batches of at most 8 lanes, each
        # warm-started from the cell's solved states, at most 17 ladder
        # passes in all (Brent's one-lane batches took 9 batches and 17
        # passes; the parabola's multi-point passes 6 batches and 14; the
        # passes on the slope from 33-point scans 2 batches of 5 and 6 lanes
        # and 4, and from 7-point scans, whose warm starts lie farther from
        # the roots, 2 batches of 5 and 6 lanes and 6)
        from robinwall import sweep
        from robinwall.reference_values import TABLE1
        calls = []  # per evaluator batch: (lanes, warm, lanes of each ladder pass)
        sums, evaluate = gc._sums, gc._Evaluator.__call__

        def counting_sums(plan, lanes, *args):
            calls[-1][2].append(len(lanes))
            return sums(plan, lanes, *args)

        def counting_evaluate(self, beta, cells):
            calls.append((np.size(beta), all(self.states[k].size for k in cells.tolist()), []))
            return evaluate(self, beta, cells)

        monkeypatch.setattr(gc, "_sums", counting_sums)
        monkeypatch.setattr(gc._Evaluator, "__call__", counting_evaluate)
        t_ref, c_ref = TABLE1[("be", 1000, 1e-5)]
        rep, = sweep.locate_peak(attractive(1e-5), [EnsembleSpec(BE, 1000)], [t_ref])
        assert abs(rep.c_max - c_ref) <= 0.015 * c_ref
        (lanes, warm, passes), *refine = calls
        assert lanes == sweep._SCAN_POINTS and not warm
        assert passes[0] == sweep._SCAN_POINTS and len(passes) <= 6
        assert passes == sorted(passes, reverse=True)  # solved lanes drop out
        assert 0 < len(refine) <= 8
        assert all(1 <= lanes <= 8 and warm for lanes, warm, _ in refine)
        assert sum(len(p) for _, _, p in refine) <= 17

    def test_cold_start_of_the_first_scan_point(self):
        # the first, cold point of the BE N=1000, F=1e-5 scan starts
        # from the two-term balance and needs at most 5 ladder passes
        from robinwall.reference_values import TABLE1
        t_ref, _ = TABLE1[("be", 1000, 1e-5)]
        with reading() as work:
            thermo_point(attractive(1e-5), 1.0 / (2.2 * t_ref), EnsembleSpec(BE, 1000))
        assert 0 < work["be_passes"] <= 5

    def test_bose_cold_start_of_a_large_scan(self):
        # the 50-point scan of the BE N=1e5, F=1e-3 cell, all lanes cold:
        # the two-term balance with the continuum in Bose statistics starts
        # every lane near its root, so the lockstep solve takes at most 5
        # ladder passes (12 with the continuum in Boltzmann statistics)
        from robinwall.reference_values import TABLE1
        t_ref, _ = TABLE1[("be", 100000, 1e-3)]
        beta = np.geomspace(1.0 / (2.2 * t_ref), 2.2 / t_ref, 50)
        with reading() as work:
            p = thermo_point(attractive(1e-3), beta, EnsembleSpec(BE, 100000))
        assert p.errors == (None,) * 50
        assert work["plans"] == 1 and work["plan_lanes"] == 50 and work["be_passes"] <= 5

    def test_deep_condensate_cold_solve(self):
        # N = 1e8 bosons at F = 1e-9, beta in [2e8, 1e9]: the root lies within
        # ~1e-12 of ln ln(1 + 1/N), where the ground level alone holds N.
        # With the bracket's low end there, Newton's steps landed on or below
        # it, were refused, and every pass bisected: 13 passes
        with reading() as work:
            p = thermo_point(attractive(1e-9), np.geomspace(2e8, 1e9, 5),
                             EnsembleSpec(BE, 10 ** 8))
        assert p.errors == (None,) * 5
        assert 0 < work["be_passes"] <= 3

    @pytest.mark.parametrize("n", [1000, 10 ** 8])
    def test_deep_condensate_warm_batch(self, n):
        # five lanes over beta in [2e8, 1e9] solved cold, then their four
        # midpoints warm: mu carries few digits of gamma = beta (E_0 - mu)
        # here, none at N = 1e8 (gamma/beta is below the spacing of floats
        # at E_0), but the solved states keep u = ln gamma itself, so the
        # warm starts land on the roots: one pass (13 when restarted from mu
        # at N = 1e8, and 2 cold)
        beta, cells = np.geomspace(2e8, 1e9, 5), np.zeros(5, dtype=int)
        evaluate = gc._Evaluator(attractive(1e-9), [EnsembleSpec(BE, n)])
        assert evaluate(beta, cells).errors == (None,) * 5
        with reading() as work:
            p = evaluate(np.sqrt(beta[1:] * beta[:-1]), cells[1:])
        assert p.errors == (None,) * 4
        assert work["be_passes"] == 1 and work["cold_lanes"] == 0

    @pytest.mark.parametrize("kind", list(WallKind), ids=lambda k: k.value)
    def test_cold_fermi_grids(self, kind):
        # each grid at N >= 1000 takes at most 6 lockstep ladder passes
        # (3-4 at N = 1000 and 2 at N = 1e6)
        for (_, n), (planned, passes) in cold_fermi_passes(kind).items():
            assert planned == 40
            assert n < 1000 or passes <= 6

    def test_cold_fermi_grids_total(self):
        # the 72 grids of the four walls at N in {1, 2, 10, 100, 1000, 1e6}
        # take 383 ladder passes with Halley steps and 486 with Newton's;
        # the Newton root of the two-term balance with the Fermi-Dirac
        # continuum took 688, as it started lanes of thin ladders (Neumann,
        # N <= 100: 9-14 passes, now 3-4) worse than the closed forms it
        # lies between
        total = sum(passes for kind in WallKind
                    for _, passes in cold_fermi_passes(kind).values())
        assert total <= 400

    def test_table1_sums_no_stale_lane(self):
        # every mu-solve pass of a table1 round sums its lanes within the
        # reach of their planned gamma: no lane falls back to a plan of its
        # own (the Fermi-edge and warm starts land that close, and a Bose
        # plan holds for any rise of gamma).  A round makes 85 such passes
        # with the peaks refined on the slope from 7-point scans (76 from
        # 33-point scans, whose warm starts at the Bose cusps stayed in
        # reach of a plan that held both ways; 127 with the parabola's
        # passes and Halley steps, 156 with Newton's, 233 with Brent's
        # one-point refinement)
        from robinwall.sweep import table1_harness
        with reading() as work:
            assert table1_harness().passed
        assert work["fd_passes"] + work["be_passes"] > 60 and work["stale_lanes"] == 0

    def test_be_critical_ladder_passes(self):
        # Halley steps on ln N in ln beta: 3 ladder passes (Newton's took 4)
        with reading() as work:
            be_critical(attractive(1e-5), 1000)
        assert 0 < work["be_passes"] <= 3

    def test_be_critical_grid_ladder_passes(self):
        # the 100 cases of the 4 walls x 5 fields x 5 particle numbers take
        # 332 ladder passes with Halley steps (399 with Newton's)
        assert sum(passes for *_, passes in be_critical_grid()) <= 340


class TestFermiColdStart:
    @pytest.mark.parametrize("kind", [WallKind.NEUMANN, WallKind.ROBIN_ATTRACTIVE,
                                      WallKind.DIRICHLET], ids=lambda k: k.value)
    def test_closed_form_start(self, kind):
        # a frozen lane starts exactly at mid-gap and no lane above it; where
        # the Boltzmann root has eta_B = -(gamma_B + beta Delta) <= -2, the
        # start lies within 1e-2 in gamma of the root of the two-term balance
        # N = 1/(e^gamma + 1) + A f_{3/2}(-(gamma + beta Delta)), with
        # f_{3/2}(eta) = -Li_{3/2}(-e^eta) from mpmath: the balance minus N
        # changes sign across start +- 1e-2.  From a classical gas
        # (beta F^(2/3) = 1e-3) to frozen edges
        from robinwall.limits import _ln_weight, _two_term_log_t
        field = 1e-3
        sp = build_spectrum(WallSpec(kind, field))
        beta = np.geomspace(1e-3, 1e4, 43) / field ** (2.0 / 3.0)
        bd = beta * (sp.tail.shift - sp.e0)
        ln_a = _ln_weight(field, beta)
        checked = 0
        for n in (1, 1000):
            nn = np.full(beta.size, n)
            gamma = gc._fermi_start(sp, beta, nn)
            e_top, e_next = sp.level(n - 1) - sp.e0, sp.level(n) - sp.e0
            mid = -0.5 * beta * (e_top + e_next)
            frozen = 0.5 * beta * (e_next - e_top) > gc._FROZEN_HALF_GAP
            assert frozen.any() and not frozen.all()
            assert (gamma[frozen] == mid[frozen]).all()
            assert (gamma >= mid).all()
            eta_b = -(bd - _two_term_log_t(ln_a - bd, nn, FD))
            with mpmath.workdps(30):
                for i in ((eta_b <= -2.0) & ~frozen).nonzero()[0].tolist():
                    def excess(g):  # the balance minus N, decreasing in gamma
                        g = mpmath.mpf(g)
                        f32 = -mpmath.polylog(1.5, -mpmath.exp(-(g + bd[i])))
                        return 1 / (mpmath.exp(g) + 1) + mpmath.exp(ln_a[i]) * f32 - n
                    assert excess(gamma[i] - 1e-2) > 0 > excess(gamma[i] + 1e-2)
                    checked += 1
        assert checked > 0


class TestBoseColdStart:
    @pytest.mark.parametrize("kind", list(WallKind), ids=lambda k: k.value)
    def test_start_solves_the_two_term_balance(self, kind):
        # every lane starts at the root of N = 1/(e^gamma - 1) + A g_{3/2}(gamma + beta
        # Delta), Delta = max(shift - E_0, 0), to 1e-6 and inside the solve's bracket,
        # over y = beta F^(2/3) from a classical gas (y = 1e-4) to a deep condensate
        from robinwall.limits import _ln_weight
        for field in (1e-7, 1e-3, 1.0):
            sp = build_spectrum(WallSpec(kind, field))
            beta = np.geomspace(1e-4, 1e4, 40) / field ** (2.0 / 3.0)
            bd = beta * max(sp.tail.shift - sp.e0, 0.0)
            for n in (1, 1000, 100000):
                nn = np.full(beta.size, n)
                lo = np.log(np.log1p(1.0 / nn)) - 1e-9
                hi = np.full(beta.size, math.log(gc._GAMMA_MAX))
                v = gc._bose_start(sp, beta, nn, lo, hi)
                assert ((lo < v) & (v < hi)).all()
                gamma = np.exp(v)
                g32, _ = sf._bose_g(gamma + bd)
                total = 1.0 / np.expm1(gamma) + np.exp(_ln_weight(field, beta)) * g32
                np.testing.assert_allclose(total, n, rtol=1e-6, atol=0.0)

class TestHotFermions:
    @pytest.mark.parametrize("field", [1e-5, 1e-3, 1.0])
    @pytest.mark.parametrize("n", [1, 1000])
    def test_classical_limit(self, field, n):
        # hot fermions at robin-: the mu bracket's top reaches the Boltzmann
        # continuum's root gamma = ln(A/N), which passes 50 + ln(N + 2) at
        # high T (robin-, F = 1e-5, N = 1 failed from T = 1e12 on with a
        # particle-number residual of 0.81 N).  Every lane solves, c is the
        # classical 3/2, and mu is the root of the two-term balance
        from robinwall.limits import _ln_weight, _two_term_log_t
        sp = attractive(field)
        beta = 1.0 / np.geomspace(1e9, 1e20, 12)
        p = thermo_point(sp, beta, EnsembleSpec(FD, n))
        assert p.errors == (None,) * 12
        np.testing.assert_allclose(p.heat_capacity, 1.5, rtol=1e-9, atol=0.0)
        ln_t = _two_term_log_t(_ln_weight(field, beta) - beta * (sp.tail.shift - sp.e0), n, FD)
        np.testing.assert_allclose(p.mu, sp.e0 + ln_t / beta, rtol=1e-9, atol=0.0)


class TestFrozenFermiEdge:
    @pytest.mark.parametrize("beta", [20.0, 50.0, 100.0, 200.0, 500.0, 1000.0])
    def test_against_mpmath_sums(self, beta):
        # one fermion at robin-, F = 1: the gap E_1 - E_0 = 3.52 freezes the
        # Fermi edge at every beta here.  The exact state balances the ground
        # level's hole against the particles above it, which puts mu at
        # mid-gap to ~1e-15, and c is tiny and positive, below the float
        # range from beta = 500.  mpmath sums at 50 digits over the first 100
        # levels solve that balance in log form and take c from the
        # distribution moments about mu
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1.0))
        p = thermo_point(sp, beta, EnsembleSpec(FD, 1))
        with mpmath.workdps(50):
            b = mpmath.mpf(beta)
            e = [mpmath.mpf(x) for x in sp.energies(np.arange(100)).tolist()]

            def balance(mu):  # ln(particles above E_0) - ln(hole in E_0)
                particles = mpmath.fsum(1 / (mpmath.exp(b * (x - mu)) + 1) for x in e[1:])
                return mpmath.log(particles) + mpmath.log(mpmath.exp(b * (mu - e[0])) + 1)

            mu = mpmath.findroot(balance, (e[0], e[1]), solver="anderson")
            w = [1 / ((mpmath.exp(b * (x - mu)) + 1) * (mpmath.exp(b * (mu - x)) + 1)) for x in e]
            d0, d1, d2 = (mpmath.fsum((x - mu) ** k * wx for x, wx in zip(e, w)) for k in range(3))
            c = b * b * (d2 - d1 * d1 / d0)
        assert p.mu == pytest.approx(float(mu), rel=1e-12)
        assert p.heat_capacity == pytest.approx(float(c), rel=1e-8, abs=1e-300)
        assert p.heat_capacity >= 0.0

    def test_in_a_cold_batch_with_thawed_lanes(self):
        # the frozen lane at beta = 100 starts at mid-gap and leaves on the
        # first pass, while the thawed lanes of its batch (beta(E_1 - E_0)
        # from 1.8 up) take Halley steps: no lane errs, every c >= 0, and mu
        # stays at mid-gap
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1.0))
        beta = np.append(np.geomspace(0.5, 200.0, 26), 100.0)
        p = thermo_point(sp, beta, EnsembleSpec(FD, 1))
        assert p.errors == (None,) * beta.size
        assert (p.heat_capacity >= 0.0).all()
        assert p.mu[-1] == pytest.approx(0.5 * (sp.level(0) + sp.level(1)), rel=1e-14)


class TestNoSilentNan:
    def test_every_lane_is_admissible_or_carries_a_message(self):
        # 1,440 lanes: 4 walls x 6 fields x 10 temperatures in
        # y = beta F^(2/3) from 1e-6 to 1e3 x FD and BE x N in {1, 1e4, 1e8}.
        # Each lane is finite with c >= 0 and n0 in [0, 1], or its failure
        # has a message (c >= 0 failed on 9 frozen FD lanes, of -1e-49 to
        # -1e-26, before a frozen Fermi edge started at mid-gap)
        silent = []
        for kind in WallKind:
            for field in (1e-9, 1e-7, 1e-3, 1.0, 1e3, 1e6):
                sp = build_spectrum(WallSpec(kind, field))
                beta = np.geomspace(1e-6, 1e3, 10) / field ** (2.0 / 3.0)
                for stat in (FD, BE):
                    for n in (1, 10 ** 4, 10 ** 8):
                        p = thermo_point(sp, beta, EnsembleSpec(stat, n))
                        n0 = np.zeros(beta.size) if p.n0 is None else p.n0
                        ok = (np.isfinite([p.mu, p.mean_energy, p.heat_capacity, n0]).all(axis=0)
                              & (p.heat_capacity >= 0.0) & (0.0 <= n0) & (n0 <= 1.0))
                        silent += [(kind.value, field, stat.value, n, b)
                                   for b, good, e in zip(beta, ok, p.errors)
                                   if not good and e is None]
        assert silent == []


class TestStateDomain:
    def test_hot_and_cold_states(self):
        # 2,088 lanes: 4 walls x F in {1e-7, 1e-3, 1, 1e3} x the three
        # ensembles (N = 3 for FD and BE) at beta = 10^k, k = -150..-30 and
        # 20..300 in steps of 10, and from F = 1e-3 on also k = -203 and -202,
        # where the tail law's level index overflowed with a RuntimeWarning
        # though the state is finite.  With the ladder's moments in units of
        # kT every lane is a state: hot ones classical, |c - 3/2| <= 1e-9, cold
        # ones frozen, c = dc/d ln beta = 0 (1,264 of the 2,016 lanes without
        # k = -203, -202 failed with moments in energy units, multiplied back
        # by beta^2 and beta^3)
        grid = 10.0 ** np.concatenate([np.arange(-150, -29, 10), np.arange(20, 301, 10)])
        wrong = []
        for kind in WallKind:
            for field in (1e-7, 1e-3, 1.0, 1e3):
                sp = build_spectrum(WallSpec(kind, field))
                beta = grid if field == 1e-7 else np.concatenate([[1e-203, 1e-202], grid])
                hot = beta < 1.0
                for ens in (EnsembleSpec(Statistics.CANONICAL, 1), EnsembleSpec(FD, 3),
                            EnsembleSpec(BE, 3)):
                    p = thermo_point(sp, beta, ens)
                    c, slope = p.heat_capacity, p.heat_capacity_slope
                    ok = (np.array([e is None for e in p.errors])
                          & np.where(hot, np.abs(c - 1.5) <= 1e-9, (c == 0.0) & (slope == 0.0)))
                    wrong += [(kind.value, field, ens.statistics.value, b, e)
                              for b, good, e in zip(beta, ok, p.errors) if not good]
        assert wrong == []

    def test_largest_beta_returns(self):
        # robin-, F = 1 at beta = 1e308: beta (E_1 - E_0) overflowed into the
        # end of the ladder's direct window, and the window loop of
        # ladder._Plan never ended, in all three ensembles.  With the end
        # formed in energy each lane fails with a message naming its beta.  A
        # fresh interpreter, under a timeout, keeps a hang out of the suite
        code = """if True:
            import warnings
            import numpy as np
            from robinwall import *
            warnings.simplefilter("ignore", RuntimeWarning)
            sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1.0))
            for stat, n in (("canonical", 1), ("fd", 10**6), ("be", 10**6)):
                p = thermo_point(sp, np.array([1e308]), EnsembleSpec(Statistics(stat), n))
                print(p.errors[0])
        """
        src = str(Path(robinwall.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True, timeout=30).stdout
        lines = out.splitlines()
        assert len(lines) == 3 and all("beta=1e+308" in line for line in lines), out


class TestWeakestFields:
    @pytest.mark.parametrize("field", [1e-27, 1e-28, 1e-30, 1e-31])
    def test_sums_meet_the_two_term_model(self, field):
        # robin- at F = 1e-27 ... 1e-31: E_0 = -1 swallows the tail law's
        # shift ~F, a quadrature break rounded below it, and <E> and c were
        # NaN in all three ensembles.  From the classical gas through the
        # bound level's peak (beta ~ 60-70) every lane is finite with c >= 0,
        # the canonical <E> and c are the composite's and mu is the two-term
        # root.  Past beta ~ 75 a lone fermion's edge freezes: holes and
        # particles both fall below 1e-10, and the 1e-12 N target pins mu
        # only to ~1e-6 (1.5e-6 at F = 1e-28, beta = 100)
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field))
        beta = np.geomspace(0.5, 100.0, 16)
        p = thermo_point(sp, beta)
        e_ref, c_ref = np.array([weak_field_composite(b, field) for b in beta]).T
        np.testing.assert_allclose(p.mean_energy, e_ref, rtol=1e-11, atol=0.0)
        np.testing.assert_allclose(p.heat_capacity, c_ref, rtol=1e-11, atol=0.0)
        assert p.errors == (None,) * beta.size and (p.heat_capacity >= 0.0).all()
        pinned = beta < 75.0
        for stat in (FD, BE):
            for n in (1, 10, 1000):
                ens = EnsembleSpec(stat, n)
                q = thermo_point(sp, beta, ens)
                assert q.errors == (None,) * beta.size
                assert np.isfinite([q.mu, q.mean_energy, q.heat_capacity]).all()
                assert (q.heat_capacity >= 0.0).all()
                mu_ref = [asymptotic_mu_cn(b, field, ens)[0] for b in beta[pinned]]
                np.testing.assert_allclose(q.mu[pinned], mu_ref, rtol=0.0, atol=1e-12)

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
        exact = thermo_point(attractive(field), beta, ens).heat_capacity
        assert c_n == pytest.approx(exact, rel=0.05)

    def test_contract(self):
        with pytest.raises(DomainError):
            asymptotic_mu_cn(1.0, 0.5, EnsembleSpec(FD, 1))
        with pytest.raises(DomainError):
            asymptotic_mu_cn(1e4, 1e-4, EnsembleSpec(FD, 1))
        with pytest.raises(DomainError):
            asymptotic_mu_cn(6.0, 1e-5, EnsembleSpec(Statistics.CANONICAL, 1))


class TestBeCritical:
    def test_defining_sum_residual(self):
        sp = attractive(1e-5)
        rep = be_critical(sp, 1000)
        got = direct_occupation(sp, rep.beta_cr, 0.0, BE, start=1)
        assert abs(got - 1000.0) <= 1e-10 * 1000.0
        assert rep.t_cr == pytest.approx(1.0 / rep.beta_cr, rel=1e-15)

    def test_grid_holds_n(self):
        # every beta_cr of the 100-case grid holds N excited particles to
        # 1e-10 N in a level sum of the test's own
        for sp, n, rep, _ in be_critical_grid():
            got = excited_bose_occupation(sp, rep.beta_cr)
            assert abs(got - n) <= 1e-10 * n, (sp.wall, n, got)

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

    @pytest.mark.parametrize("field", [-1e-5, 0.0, math.nan, math.inf])
    def test_field_validated(self, field):
        # the field check WallSpec uses
        with pytest.raises(DomainError):
            asymptotic_beta_cr(field, 10)
        with pytest.raises(DomainError):
            WallSpec(WallKind.ROBIN_ATTRACTIVE, field)

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
        n0_cold = thermo_point(sp, 2.0 * rep.beta_cr, EnsembleSpec(BE, n)).n0
        n0_warm = thermo_point(sp, 0.5 * rep.beta_cr, EnsembleSpec(BE, n)).n0
        assert n0_cold > 0.5 > n0_warm > 0.0

    def test_zero_temperature_limit(self):
        sp = attractive(1e-4)
        rep = be_critical(sp, 1000)
        assert thermo_point(sp, 40.0 * rep.beta_cr, EnsembleSpec(BE, 1000)).n0 > 0.999

    def test_nonincreasing_in_temperature(self):
        sp = attractive(1e-4)
        rep = be_critical(sp, 1000)
        ts = np.linspace(0.1, 2.0, 25) * rep.t_cr
        n0s = [thermo_point(sp, 1.0 / t, EnsembleSpec(BE, 1000)).n0 for t in ts]
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
            resid.append(1.0 - thermo_point(sp, 2.0 * rep.beta_cr, EnsembleSpec(BE, n)).n0)
        assert resid[1] < resid[0]  # closer to the step at the weaker field


class TestFailedScalarSolvesRaise:
    @pytest.fixture
    def nan_ladder(self, monkeypatch):
        # every ladder pass: be_critical's and the mu solve's
        ladder, sums = gc.ladder_sums, gc._sums
        monkeypatch.setattr(gc, "ladder_sums",
                            lambda *args, **kwargs: tuple(s * np.nan for s in ladder(*args, **kwargs)))
        monkeypatch.setattr(gc, "_sums", lambda *args: sums(*args) * np.nan)

    def test_be_critical(self, nan_ladder):
        with pytest.raises(SolverError, match="condensation solve at N=1000: "
                                              "particle-number residual nan"):
            be_critical(attractive(1e-5), 1000)


def state(sp, statistics, n, beta):
    """thermo_point in the ensemble (statistics, n) at an array beta."""
    return thermo_point(sp, np.asarray(beta, dtype=float), EnsembleSpec(statistics, n))


def richardson_slope(sp, statistics, n, beta, h=1e-3):
    """dc/d ln beta by the 5-point (Richardson-extrapolated central)
    difference of c in ln beta, step h."""
    c = state(sp, statistics, n, beta * np.exp(h * np.array([-2.0, -1.0, 1.0, 2.0]))).heat_capacity
    return (c[0] - 8.0 * c[1] + 8.0 * c[2] - c[3]) / (12.0 * h)


def mp_levels(sp, beta, x_max):
    """The spectrum's levels up to where beta (E - E_0) passes x_max."""
    m = 64
    while beta * (sp.level(m) - sp.e0) < x_max:
        m *= 2
    return sp.energies(np.arange(m))


def mp_slope(sp, beta, gamma, sign, n):
    """dc/d ln beta = 2c + beta^3 dV/dbeta / N at fixed N with
    V = sum eps^2 D and dV/dbeta = sum eps^3 (-D + 2 s D f), eps the energy
    about its D-weighted mean, summed over the levels at 50 digits (s = +1
    fermions, -1 bosons; gamma = beta (E_0 - mu)) up to e^-70 of the kernel's
    peak."""
    with mpmath.workdps(50):
        e = [mpmath.mpf(float(x)) for x in mp_levels(sp, beta, 70.0 + max(0.0, -gamma))]
        b, g = mpmath.mpf(beta), mpmath.mpf(gamma)
        ex = [mpmath.exp(b * (x - e[0]) + g) for x in e]
        f = [1 / (t + sign) for t in ex]
        dist = [t / (t + sign) ** 2 for t in ex]
        mean = mpmath.fsum(d * x for d, x in zip(dist, e)) / mpmath.fsum(dist)
        v = mpmath.fsum(d * (x - mean) ** 2 for d, x in zip(dist, e))
        dv = mpmath.fsum((x - mean) ** 3 * d * (2 * sign * fi - 1) for d, fi, x in zip(dist, f, e))
        return float(b * b * (2 * v + b * dv) / n)


class TestHeatCapacitySlope:
    # dc/d ln beta from the third moments of the same ladder pass

    @pytest.mark.parametrize("statistics,n", [(Statistics.CANONICAL, 1), (FD, 10), (BE, 100)],
                             ids=["canonical", "fd", "be"])
    @pytest.mark.parametrize("kind", list(WallKind), ids=lambda k: k.value)
    def test_slope_matches_a_richardson_difference(self, kind, statistics, n):
        # 4 walls x 3 ensembles at a strong and a weak field, at 0.3, 1 and 3
        # over the first gap: within 2.4e-11 of (|slope| + c) but for BE
        # N = 100, robin-, F = 1e-3 at beta = 0.98, where c climbs towards the
        # condensation cusp and the difference itself is off by 2.1e-9
        for field in (1.0, 1e-3):
            sp = build_spectrum(WallSpec(kind, field), count=64)
            for beta in np.array([0.3, 1.0, 3.0]) / (sp.level(1) - sp.e0):
                p = state(sp, statistics, n, [beta])
                slope, c = p.heat_capacity_slope[0], p.heat_capacity[0]
                ref = richardson_slope(sp, statistics, n, beta)
                assert abs(slope - ref) <= 1e-8 * (abs(ref) + c)

    @pytest.mark.parametrize("kind,field,statistics,n,betas", [
        (WallKind.ROBIN_ATTRACTIVE, 1e-3, BE, 100_000, (3.0, 8.0)),
        (WallKind.DIRICHLET, 1.0, BE, 100_000, (1.0, 3.0)),
        (WallKind.ROBIN_ATTRACTIVE, 1.0, FD, 10, (1.0, 5.0)),
    ], ids=["robin-condensate", "dirichlet-condensate", "robin-fd"])
    def test_slope_matches_a_50_digit_sum(self, kind, field, statistics, n, betas):
        # deep in a condensate (n0 up to 1 - 4e-8) the ground level holds
        # nearly all the weight D, and the third central moments, formed from
        # moments about E_0, do not cancel: the slope stays within 1.2e-14 of
        # the level sum at 50 digits at the solve's own gamma, as in a
        # degenerate Fermi sea (2e-14); each also meets the difference of c
        sp = build_spectrum(WallSpec(kind, field), count=64)
        evaluate = gc._Evaluator(sp, [EnsembleSpec(statistics, n)])
        p = evaluate(np.array(betas), np.zeros(len(betas), dtype=int))
        ln_beta, u, _ = evaluate.states[0]
        for i, beta in enumerate(betas):
            u_i = u[np.searchsorted(ln_beta, math.log(beta))]
            gamma, sign = (math.exp(u_i), -1) if statistics is BE else (u_i, 1)
            slope = p.heat_capacity_slope[i]
            assert slope == pytest.approx(mp_slope(sp, beta, gamma, sign, n), rel=1e-12, abs=0.0)
            ref = richardson_slope(sp, statistics, n, beta)
            assert abs(slope - ref) <= 1e-8 * (abs(ref) + p.heat_capacity[i])
        if statistics is BE:
            assert p.n0.min() > 0.999
