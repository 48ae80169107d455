import math
import random
import re

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


class TestSolveMu:
    def test_single_fermion_weak_field_closed_form(self):
        beta, field = 8.0, 1e-4
        mu = gc_point(attractive(field), beta, EnsembleSpec(FD, 1)).mu
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
            mu = gc_point(spd, beta, EnsembleSpec(stat, 1)).mu
            assert mu == pytest.approx(mu_ref, rel=0.02)

    def test_bose_low_temperature_limit(self):
        # single-level occupation forces mu -> E_0 - ln(1 + 1/N)/beta
        sp = attractive(1e-3)
        beta, n = 600.0, 3
        mu = gc_point(sp, beta, EnsembleSpec(BE, n)).mu
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
                mu = gc_point(sp, beta, EnsembleSpec(stat, n)).mu
                gamma = beta * (sp.e0 - mu)
                got = direct_occupation(sp, beta, gamma, stat)
                assert abs(got - n) <= 1e-10 * n

    def test_bose_mu_strictly_below_ground(self):
        sp = attractive(1e-4)
        for beta in (0.3, 1.0, 5.0, 50.0):
            mu = gc_point(sp, beta, EnsembleSpec(BE, 1000)).mu
            assert mu < sp.e0


class TestGcPoint:
    def test_fields_and_invariants(self):
        sp = attractive(1e-4)
        p = gc_point(sp, 5.0, EnsembleSpec(BE, 100))
        assert p.mu < sp.e0
        assert 0.0 <= p.n0 <= 1.0
        assert p.heat_capacity >= 0.0
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
            c = gc_point(sp, beta, ens).heat_capacity
            h = 2e-3 * beta
            es = [gc_point(sp, beta + k * h, ens).mean_energy for k in (-2, -1, 1, 2)]
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
        (_, _, slope), *stencil = evaluate.states[0]
        u = [state[1] for state in stencil]
        fd = (u[0] - 8.0 * u[1] + 8.0 * u[2] - u[3]) / (12.0 * h)
        assert slope == pytest.approx(fd, rel=1e-7, abs=0.0)

    def test_capacity_where_every_weight_underflows(self):
        # one fermion frozen in the ground level of a strong field: every
        # distribution weight underflows (D0 = D1 = D2 = 0), so c lies below
        # the float range and is 0, with no message and no warning; N pins
        # no gamma there, and its slope reads 0
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1.0))
        ens = EnsembleSpec(FD, 1)
        assert gc_point(sp, 1000.0, ens).heat_capacity == 0.0
        evaluate = gc._Evaluator(sp, [ens])
        p = evaluate(np.array([1000.0, 2.0]), np.zeros(2, dtype=int))
        assert p.errors == (None, None)
        assert p.heat_capacity[0] == 0.0 == evaluate.states[0][0][2]
        assert p.heat_capacity[1] > 0.0

    def test_high_temperature_ensemble_agreement(self):
        field = 1e-4
        beta = 1e-4 / field ** (2.0 / 3.0)
        sp = attractive(field)
        c_can = can.thermo_point(sp, beta).heat_capacity
        for stat in (FD, BE):
            c = gc_point(sp, beta, EnsembleSpec(stat, 3)).heat_capacity
            assert c == pytest.approx(c_can, abs=1e-2)

    def test_fermi_level_plateau_value(self):
        # at T ~ 0 the chemical potential parks midway between the highest
        # occupied and lowest empty levels
        for n, field in ((5, 1e-3), (10, 1e-4)):
            sp = attractive(field)
            gap = sp.level(n) - sp.level(n - 1)
            beta = 30.0 / gap
            mu = gc_point(sp, beta, EnsembleSpec(FD, n)).mu
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
        p = gc_point(sp, 1e9, EnsembleSpec(BE, 10 ** 8))
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
        p = gc_point(sp, beta, EnsembleSpec(BE, n))
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
        clean = gc_point(sp, betas, ens)
        ladder = gc.ladder_sums

        def offset(spectrum, beta, sign, **kwargs):
            n, *rest = ladder(spectrum, beta, sign, **kwargs)
            shifted = n * (1.0 + delta * np.where(n >= 10.0, 1.0, -1.0))
            return (np.where(beta == betas[1], shifted, n), *rest)

        monkeypatch.setattr(gc, "ladder_sums", offset)
        p = gc_point(sp, betas, ens)
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
        # one batch of lanes, each with its own N, gives every lane the
        # state it has in a batch of its own N alone, up to the rounding of
        # the ladder's node sets, padded to a common length across a batch
        sp, betas, ns = attractive(1e-5), np.array([2.0, 5.0, 9.0, 5.0]), (1, 10, 1000, 2)
        for stat in (FD, BE):
            p = gc_point(sp, betas, [EnsembleSpec(stat, n) for n in ns])
            assert p.errors == (None,) * 4
            for i, n in enumerate(ns):
                q = gc_point(sp, betas[i:i + 1], EnsembleSpec(stat, n))
                for f in ("mu", "mean_energy", "heat_capacity", "n0"):
                    if getattr(q, f) is not None:
                        assert getattr(p, f)[i] == pytest.approx(getattr(q, f)[0], rel=1e-13)
        with pytest.raises(DomainError):
            gc_point(sp, betas, [EnsembleSpec(FD, 1), EnsembleSpec(BE, 1)] * 2)
        with pytest.raises(DomainError):
            gc_point(sp, betas, [EnsembleSpec(FD, 1)] * 3)

    def test_canonical_ensemble_rejected(self):
        # the canonical ensemble has no chemical potential to solve
        sp, canonical = attractive(1e-5), EnsembleSpec(Statistics.CANONICAL, 1)
        for ensemble in (canonical, [canonical] * 2, [canonical, EnsembleSpec(FD, 1)]):
            with pytest.raises(DomainError, match="grand-canonical"):
                gc_point(sp, np.array([2.0, 5.0]), ensemble)
        with pytest.raises(DomainError):
            gc_point(sp, 2.0, canonical)

    @pytest.mark.parametrize("stat, ns, field", [(FD, (2, 10), 1e-5), (BE, (1, 1000), 1e-5)])
    def test_failed_lane_of_a_mixed_block_names_its_own_n_and_beta(
            self, monkeypatch, stat, ns, field):
        # two cells of one spectrum scanned and refined together; the lanes
        # of the second cell's scan below the first cell's window carry an
        # N offset past the contract, so only second-cell lanes fail
        from robinwall import sweep
        from robinwall.reference_values import TABLE1
        t_refs = [TABLE1[(stat.value, n, field)][0] for n in ns]
        beta_cut = 0.99 / (2.2 * t_refs[0])  # below the first cell's scan window
        ladder = gc.ladder_sums

        def offset(spectrum, beta, sign, **kwargs):
            n, *rest = ladder(spectrum, beta, sign, **kwargs)
            return (np.where(beta < beta_cut, n * (1.0 + 5e-10 * np.sign(n - ns[1])), n),
                    *rest)

        monkeypatch.setattr(gc, "ladder_sums", offset)
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
        cs = [gc_point(sp, beta, ens).heat_capacity[0]]
        for d in np.linspace(-0.5, 0.5, 10):
            evaluate = gc._Evaluator(sp, [ens])
            evaluate(beta * math.exp(d), np.zeros(1, dtype=int))
            cs.append(evaluate(beta, np.zeros(1, dtype=int)).heat_capacity[0])
        assert max(cs) - min(cs) <= 1e-12 * min(cs)


class TestPlainFloats:
    def test_gc_point_fields_are_float(self):
        sp = attractive(1e-4)
        for stat in (FD, BE):
            p = gc_point(sp, 3.0, EnsembleSpec(stat, 10))
            fields = [p.beta, p.mu, p.mean_energy, p.heat_capacity]
            if stat is BE:
                fields.append(p.n0)
            assert all(type(v) is float for v in fields)


class TestWorkCounts:
    def test_table1_cell_be_1000(self, monkeypatch):
        # the published cell BE N=1000, F=1e-5: the 50-point scan is one
        # evaluator batch of cold lanes solved in at most 6 lockstep ladder
        # passes, and Brent's refinement at most 12 one-lane batches, each
        # warm-started from the cell's solved states, at most 4 passes on
        # average
        from robinwall import sweep
        from robinwall.reference_values import TABLE1
        calls = []  # per evaluator batch: (lanes, warm, lanes of each ladder pass)
        ladder, evaluate = gc.ladder_sums, gc._Evaluator.__call__

        def counting_ladder(spectrum, beta, *args, **kwargs):
            calls[-1][2].append(np.size(beta))
            return ladder(spectrum, beta, *args, **kwargs)

        def counting_evaluate(self, beta, cells):
            calls.append((np.size(beta), all(self.states[k] for k in cells.tolist()), []))
            return evaluate(self, beta, cells)

        monkeypatch.setattr(gc, "ladder_sums", counting_ladder)
        monkeypatch.setattr(gc._Evaluator, "__call__", counting_evaluate)
        t_ref, c_ref = TABLE1[("be", 1000, 1e-5)]
        rep, = sweep.locate_peak(attractive(1e-5), [EnsembleSpec(BE, 1000)], [t_ref])
        assert abs(rep.c_max - c_ref) <= 0.015 * c_ref
        (lanes, warm, passes), *refine = calls
        assert lanes == 50 and not warm
        assert passes[0] == 50 and len(passes) <= 6
        assert passes == sorted(passes, reverse=True)  # solved lanes drop out
        assert 0 < len(refine) <= 12
        assert all(lanes == 1 and warm for lanes, warm, _ in refine)
        assert sum(len(p) for _, _, p in refine) <= 4 * len(refine)

    def test_cold_start_of_the_first_scan_point(self, monkeypatch):
        # the first, cold point of the BE N=1000, F=1e-5 scan starts
        # from the two-term balance and needs at most 5 ladder passes
        from robinwall.reference_values import TABLE1
        calls = []
        ladder = gc.ladder_sums
        monkeypatch.setattr(gc, "ladder_sums",
                            lambda *a, **k: calls.append(a[1]) or ladder(*a, **k))
        t_ref, _ = TABLE1[("be", 1000, 1e-5)]
        gc_point(attractive(1e-5), 1.0 / (2.2 * t_ref), EnsembleSpec(BE, 1000))
        assert len(calls) <= 5

    def test_bose_cold_start_of_a_large_scan(self, monkeypatch):
        # the 50-point scan of the BE N=1e5, F=1e-3 cell, all lanes cold:
        # the two-term balance with the continuum in Bose statistics starts
        # every lane near its root, so the lockstep solve takes at most 5
        # ladder passes (12 with the continuum in Boltzmann statistics)
        from robinwall.reference_values import TABLE1
        calls = []
        ladder = gc.ladder_sums
        monkeypatch.setattr(gc, "ladder_sums",
                            lambda *a, **k: calls.append(a[1]) or ladder(*a, **k))
        t_ref, _ = TABLE1[("be", 100000, 1e-3)]
        beta = np.geomspace(1.0 / (2.2 * t_ref), 2.2 / t_ref, 50)
        p = gc_point(attractive(1e-3), beta, EnsembleSpec(BE, 100000))
        assert p.errors == (None,) * 50
        assert len(calls[0]) == 50 and len(calls) <= 5

    def test_deep_condensate_cold_solve(self, monkeypatch):
        # N = 1e8 bosons at F = 1e-9, beta in [2e8, 1e9]: the root lies within
        # ~1e-12 of ln ln(1 + 1/N), where the ground level alone holds N.
        # With the bracket's low end there, Newton's steps landed on or below
        # it, were refused, and every pass bisected: 13 passes
        calls = []
        ladder = gc.ladder_sums
        monkeypatch.setattr(gc, "ladder_sums",
                            lambda *a, **k: calls.append(a[1]) or ladder(*a, **k))
        p = gc_point(attractive(1e-9), np.geomspace(2e8, 1e9, 5), EnsembleSpec(BE, 10 ** 8))
        assert p.errors == (None,) * 5
        assert len(calls) <= 3

    @pytest.mark.parametrize("n", [1000, 10 ** 8])
    def test_deep_condensate_warm_batch(self, monkeypatch, n):
        # five lanes over beta in [2e8, 1e9] solved cold, then their four
        # midpoints warm: mu carries few digits of gamma = beta (E_0 - mu)
        # here, none at N = 1e8 (gamma/beta is below the spacing of floats
        # at E_0), but the solved states keep u = ln gamma itself, so the
        # warm starts land on the roots: one pass (13 when restarted from mu
        # at N = 1e8, and 2 cold)
        beta, cells = np.geomspace(2e8, 1e9, 5), np.zeros(5, dtype=int)
        evaluate = gc._Evaluator(attractive(1e-9), [EnsembleSpec(BE, n)])
        assert evaluate(beta, cells).errors == (None,) * 5
        calls = []
        ladder = gc.ladder_sums
        monkeypatch.setattr(gc, "ladder_sums",
                            lambda *a, **k: calls.append(a[1]) or ladder(*a, **k))
        p = evaluate(np.sqrt(beta[1:] * beta[:-1]), cells[1:])
        assert p.errors == (None,) * 4
        assert len(calls) == 1

    def test_be_critical_ladder_passes(self, monkeypatch):
        calls = []
        ladder = gc.ladder_sums
        monkeypatch.setattr(gc, "ladder_sums",
                            lambda *a, **k: calls.append(a[1]) or ladder(*a, **k))
        be_critical(attractive(1e-5), 1000)
        assert len(calls) <= 8


class TestNoSilentNan:
    def test_every_lane_is_admissible_or_carries_a_message(self):
        # 1,440 lanes: 4 walls x 6 fields x 10 temperatures in
        # y = beta F^(2/3) from 1e-6 to 1e3 x FD and BE x N in {1, 1e4, 1e8}.
        # Each lane is finite with n0 in [0, 1], or its failure has a
        # message.  c >= 0 is not asserted: a few deep-frozen lanes give c
        # of -1e-49 to -1e-26
        silent = []
        for kind in WallKind:
            for field in (1e-9, 1e-7, 1e-3, 1.0, 1e3, 1e6):
                sp = build_spectrum(WallSpec(kind, field))
                beta = np.geomspace(1e-6, 1e3, 10) / field ** (2.0 / 3.0)
                for stat in (FD, BE):
                    for n in (1, 10 ** 4, 10 ** 8):
                        p = gc_point(sp, beta, EnsembleSpec(stat, n))
                        n0 = np.zeros(beta.size) if p.n0 is None else p.n0
                        ok = (np.isfinite([p.mu, p.mean_energy, p.heat_capacity, n0]).all(axis=0)
                              & (0.0 <= n0) & (n0 <= 1.0))
                        silent += [(kind.value, field, stat.value, n, b)
                                   for b, good, e in zip(beta, ok, p.errors)
                                   if not good and e is None]
        assert silent == []


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
        exact = gc_point(attractive(field), beta, ens).heat_capacity
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
        # the field check WallSpec and classical_limit use
        with pytest.raises(DomainError):
            asymptotic_beta_cr(field, 10)
        with pytest.raises(DomainError):
            WallSpec(WallKind.ROBIN_ATTRACTIVE, field)
        with pytest.raises(DomainError):
            can.classical_limit(1.0, field)

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
        n0_cold = gc_point(sp, 2.0 * rep.beta_cr, EnsembleSpec(BE, n)).n0
        n0_warm = gc_point(sp, 0.5 * rep.beta_cr, EnsembleSpec(BE, n)).n0
        assert n0_cold > 0.5 > n0_warm > 0.0

    def test_zero_temperature_limit(self):
        sp = attractive(1e-4)
        rep = be_critical(sp, 1000)
        assert gc_point(sp, 40.0 * rep.beta_cr, EnsembleSpec(BE, 1000)).n0 > 0.999

    def test_nonincreasing_in_temperature(self):
        sp = attractive(1e-4)
        rep = be_critical(sp, 1000)
        ts = np.linspace(0.1, 2.0, 25) * rep.t_cr
        n0s = [gc_point(sp, 1.0 / t, EnsembleSpec(BE, 1000)).n0 for t in ts]
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
            resid.append(1.0 - gc_point(sp, 2.0 * rep.beta_cr, EnsembleSpec(BE, n)).n0)
        assert resid[1] < resid[0]  # closer to the step at the weaker field


class TestFailedScalarSolvesRaise:
    @pytest.fixture
    def nan_ladder(self, monkeypatch):
        ladder = gc.ladder_sums
        monkeypatch.setattr(gc, "ladder_sums",
                            lambda *args, **kwargs: tuple(s * np.nan for s in ladder(*args, **kwargs)))

    def test_gc_point(self, nan_ladder):
        # a scalar call raises the message its one-lane batch records
        sp, ens = attractive(1e-5), EnsembleSpec(FD, 10)
        message = gc_point(sp, np.array([2.0]), ens).errors[0]
        assert "particle-number residual nan" in message
        with pytest.raises(SolverError) as exc:
            gc_point(sp, 2.0, ens)
        assert str(exc.value) == message

    def test_be_critical(self, nan_ladder):
        with pytest.raises(SolverError, match="condensation solve at N=1000: "
                                              "particle-number residual nan"):
            be_critical(attractive(1e-5), 1000)
