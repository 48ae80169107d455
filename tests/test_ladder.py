"""The summation engine is validated here against literal brute-force
summation; everything downstream (canonical and grand-canonical modules)
stands on these comparisons."""

import itertools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import special as sp

from robinwall import ladder
from robinwall._work import reading
from robinwall.errors import DomainError, SolverError
from robinwall.grand_canonical import EnsembleSpec, thermo_point
from robinwall.ladder import Statistics, ladder_sums
from robinwall.spectrum import WallKind, WallSpec, build_spectrum

# the kernels of the brute-force reference: e^-x, the occupation
# f = 1/(e^x +- 1), the distribution D = e^x/(e^x +- 1)^2 and their product
# D f, whose moments ladder_sums returns together for Fermi-Dirac and
# Bose-Einstein statistics
BOLTZ_KIND = "boltz"
OCC = "occ"
DIST = "dist"
DIST_OCC = "dist_occ"
# the reference's own sign s of e^x + s, +1 fermions and -1 bosons (0 with
# e^-x), and the statistics ladder_sums takes for each
FERMI, BOSE, BOLTZ = +1, -1, 0
STATS = {BOLTZ: Statistics.CANONICAL, FERMI: Statistics.FERMI_DIRAC,
         BOSE: Statistics.BOSE_EINSTEIN}
BOLTZ_POWERS = (0, 1, 2, 3)  # the canonical family S_0..S_3


def _kernel(x, kind, sign):
    """Weight kernels written independently of the engine's forms."""
    if kind == BOLTZ_KIND:
        return np.exp(-x)
    if sign == FERMI:
        # f = 1/(1 + e^x) and D = f/(1 + e^-x), in logs
        ln_f = -np.logaddexp(0.0, x)
        ln_d = ln_f - np.logaddexp(0.0, -x)
        return np.exp({OCC: ln_f, DIST: ln_d, DIST_OCC: ln_d + ln_f}[kind])
    with np.errstate(over="ignore"):  # e^x beyond the float range: occupation 0
        occ = 1.0 / np.expm1(x)
    dist = occ + occ * occ
    return {OCC: occ, DIST: dist, DIST_OCC: dist * occ}[kind]


def brute_force(spectrum, beta, kind, sign, gamma=0.0, powers=(0,), start=0):
    """Literal ascending summation until the exponents are machine-dead, the
    moments in y = beta (E - max(E_0, mu)) = beta (E - E_0) + min(gamma, 0)."""
    e0 = spectrum.e0
    totals = np.zeros(len(powers))
    lo, chunk = start, 1 << 14
    while True:
        idx = np.arange(lo, lo + chunk)
        dE = np.empty(len(idx))
        head = idx < spectrum.n_exact
        dE[head] = spectrum.exact_levels[idx[head]] - e0
        dE[~head] = spectrum.tail.energy(idx[~head].astype(float)) - e0
        x = beta * dE + gamma
        w = _kernel(x, kind, sign)
        y = beta * dE + min(gamma, 0.0)
        for i, p in enumerate(powers):
            totals[i] += np.sum(y ** p * w)
        if x[-1] > 55.0:
            return totals
        lo += chunk
        chunk = min(2 * chunk, 1 << 22)
        assert lo < 200_000_000, "brute-force reference runaway"


def family_brute_force(spectrum, beta, sign, gamma=0.0, start=0):
    """The ten sums ladder_sums returns for Fermi-Dirac or Bose-Einstein
    statistics, (N0, N1, D0..D3, (D f)0..(D f)3), by ``brute_force``."""
    return np.concatenate([
        brute_force(spectrum, beta, OCC, sign, gamma, (0, 1), start),
        brute_force(spectrum, beta, DIST, sign, gamma, (0, 1, 2, 3), start),
        brute_force(spectrum, beta, DIST_OCC, sign, gamma, (0, 1, 2, 3), start)])


def planned_sums(spectrum, beta, statistics, gamma, start_index=0):
    """The sums of ``ladder_sums`` as the mu solve takes them: ``_sums`` over
    a plan made at gamma, one row per sum and one column per lane of the
    broadcast arguments."""
    shape = np.broadcast(beta, gamma).shape
    beta, gamma = ((np.zeros(shape) + a).ravel() for a in (beta, gamma))
    plan = ladder._Plan(spectrum, beta, gamma, statistics, start_index)
    return ladder._sums(plan, np.arange(beta.size), gamma)


def about_e0(sums, gamma, statistics):
    """The moments of ``ladder_sums`` moved to units of kT about E_0, in
    beta (E - E_0) = y - min(gamma, 0), where each is a sum of terms >= 0."""
    shift, out = -np.minimum(gamma, 0.0), []
    for moments in ladder._MOMENTS[statistics]:
        s, sums = sums[:moments], sums[moments:]
        out += [sum(math.comb(p, j) * s[j] * shift ** (p - j) for j in range(p + 1))
                for p in range(moments)]
    return out


def pick(spectrum, beta, kind, sign, powers, gamma=0.0, start_index=0):
    """The sums S_p of one kernel at one temperature from the fused engine,
    which returns (S0..S3) for BOLTZ and (N0, N1, D0..D3, (D f)0..(D f)3)
    for FERMI and BOSE."""
    sums = planned_sums(spectrum, beta, STATS[sign], gamma, start_index)[:, 0]
    first = {DIST: 2, DIST_OCC: 6}.get(kind, 0)
    return [sums[first + p] for p in powers]


def force_direct(monkeypatch):
    """Disable the Euler-Maclaurin closure: every closure index lies past any
    level, so each lane's direct range governs alone."""
    monkeypatch.setattr(ladder, "_dense_index",
                        lambda spectrum, beta: np.full(len(beta), 2 ** 62))


@pytest.fixture(scope="module")
def spectrum_m3():
    return build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3), count=64)


CASES = [
    (BOLTZ_KIND, BOLTZ, 4.0, 0.0, BOLTZ_POWERS, 0),
    (BOLTZ_KIND, BOLTZ, 0.05, 0.0, BOLTZ_POWERS, 0),
    (OCC, FERMI, 3.0, -2.0, (0, 1), 0),
    (OCC, FERMI, 8.0, 5.0, (0, 1), 0),
    (OCC, BOSE, 2.0, 0.3, (0, 1), 0),
    (OCC, BOSE, 3.0, 1e-9, (0,), 1),
    (DIST, BOSE, 2.0, 0.3, (0, 1, 2, 3), 0),
    (DIST, FERMI, 5.0, -1.0, (0, 1, 2, 3), 0),
    (DIST_OCC, BOSE, 2.0, 0.3, (0, 1, 2, 3), 0),
    (DIST_OCC, FERMI, 5.0, -1.0, (0, 1, 2, 3), 0),
]


@pytest.mark.parametrize("kind,sign,beta,gamma,powers,start", CASES)
def test_hybrid_matches_brute_force(spectrum_m3, kind, sign, beta, gamma, powers, start):
    hybrid = pick(spectrum_m3, beta, kind, sign, powers, gamma=gamma, start_index=start)
    ref = brute_force(spectrum_m3, beta, kind, sign, gamma, powers, start)
    for h, r in zip(hybrid, ref):
        assert h == pytest.approx(r, rel=1e-10, abs=0.0)


def test_weak_field_closure_matches_brute_force():
    sp7 = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-7), count=64)
    hybrid = ladder_sums(sp7, 11.455, Statistics.CANONICAL)
    ref = brute_force(sp7, 11.455, BOLTZ_KIND, BOLTZ, powers=BOLTZ_POWERS)
    for h, r in zip(hybrid, ref, strict=True):
        assert h == pytest.approx(r, rel=1e-10, abs=0.0)


def test_forced_direct_agrees_with_closure(spectrum_m3, monkeypatch):
    # same sums with the closure disabled (pure direct summation)
    for beta in (1.0, 4.0):
        hybrid = ladder_sums(spectrum_m3, beta, Statistics.CANONICAL)
        with monkeypatch.context() as patch:
            force_direct(patch)
            direct = ladder_sums(spectrum_m3, beta, Statistics.CANONICAL)
        for h, d in zip(hybrid, direct):
            assert h == pytest.approx(d, rel=1e-10, abs=0.0)


def test_dirichlet_partition_vs_independent_zero_sum():
    # hard wall at F=1, beta=10: compare against a literal sum over
    # independently computed Airy zeros
    spd = build_spectrum(WallSpec(WallKind.DIRICHLET, 1.0), count=64)
    a_ref, _, _, _ = sp.ai_zeros(2000)
    oracle = float(np.sum(np.exp(-10.0 * (-a_ref))))
    s0 = ladder_sums(spd, 10.0, Statistics.CANONICAL)[0]
    z = s0 * math.exp(-10.0 * spd.e0)
    assert z == pytest.approx(oracle, rel=1e-11)


DEGENERATE_CASES = [
    # (wall kind, field, beta, fermi-level index): mu deep inside the ladder
    (WallKind.ROBIN_REPULSIVE, 10.0, 1.0, 500_000),
    (WallKind.ROBIN_ATTRACTIVE, 1e-2, 2.0, 400_000),
    (WallKind.NEUMANN, 1e-4, 3.0, 100_000),
    (WallKind.NEUMANN, 1e-4, 30.0, 30_000),
    # a sea closed past the first direct block, ending ~110 levels below a
    # Fermi edge too sparse for the tail closure (beta dE/dn ~ 0.4)
    (WallKind.ROBIN_ATTRACTIVE, 1e-3, 200.0, 3000),
    # the Fermi level 73 units above level 20 and 435 below level 21: the
    # distribution sums are e^-73 and live on the last filled level alone
    (WallKind.ROBIN_REPULSIVE, 19.79, 101.9, 20),
    # past the first direct block: the Fermi level 140 units above level 399
    # and 47 below level 400, which carries the distribution sums alone
    (WallKind.ROBIN_REPULSIVE, 20.0, 100.0, 399.75),
]


@pytest.mark.parametrize("wall_kind,field,beta,mu_idx", DEGENERATE_CASES)
def test_degenerate_fermi_sea_matches_brute_force(wall_kind, field, beta, mu_idx):
    # the filled sea is closed by the same Euler-Maclaurin formula as the
    # tail; compare against literal summation through the whole sea
    sp = build_spectrum(WallSpec(wall_kind, field), count=64)
    mu = float(sp.tail.energy(mu_idx))
    gamma = beta * (sp.e0 - mu)
    hyb = pick(sp, beta, OCC, FERMI, (0, 1), gamma=gamma)
    ref = brute_force(sp, beta, OCC, FERMI, gamma=gamma, powers=(0, 1))
    for h, r in zip(hyb, ref):
        assert h == pytest.approx(r, rel=1e-10, abs=0.0)
    hyb = pick(sp, beta, DIST, FERMI, (0, 2), gamma=gamma)
    ref = brute_force(sp, beta, DIST, FERMI, gamma=gamma, powers=(0, 2))
    for h, r in zip(hyb, ref):
        assert h == pytest.approx(r, rel=1e-10, abs=0.0)


def test_small_exponent_bose_quadrature_matches_brute_force():
    # gapless wall at high temperature: the closure starts at exponents near
    # zero, where the Bose kernel is 1/x-like and the panels split by octaves
    sp = build_spectrum(WallSpec(WallKind.NEUMANN, 1e-3), count=64)
    for beta, gamma in ((0.05, 1e-4), (0.05, 2.0), (0.3, 1e-6)):
        hyb = ladder_sums(sp, beta, Statistics.BOSE_EINSTEIN, gamma=gamma)
        ref = family_brute_force(sp, beta, BOSE, gamma)
        for h, r in zip(hyb, ref, strict=True):
            assert h == pytest.approx(r, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("kind", [WallKind.ROBIN_ATTRACTIVE, WallKind.DIRICHLET],
                         ids=lambda k: k.value)
def test_short_root_block_matches_brute_force(kind):
    # with two root-solved levels the closure could start right after them,
    # where the ladder bends hardest
    # (the attractive tail law is undefined at level 0, two levels back)
    sp = build_spectrum(WallSpec(kind, 0.1), count=2, n_exact=2)
    for beta in (0.005, 0.05):
        hyb = ladder_sums(sp, beta, Statistics.CANONICAL)
        ref = brute_force(sp, beta, BOLTZ_KIND, BOLTZ, powers=BOLTZ_POWERS)
        for h, r in zip(hyb, ref, strict=True):
            assert h == pytest.approx(r, rel=1e-10, abs=0.0)
    for gamma in (-50.0, -200.0):
        hyb = pick(sp, 1.0, OCC, FERMI, (0, 1), gamma=gamma)
        ref = brute_force(sp, 1.0, OCC, FERMI, gamma=gamma, powers=(0, 1))
        for h, r in zip(hyb, ref):
            assert h == pytest.approx(r, rel=1e-10, abs=0.0)


def em_integral(spectrum, beta, gamma, n0, sign, planned_at=None):
    """The engine's closure integrals of one lane over [n0, inf) at gamma:
    the closure's one node set (a block of that lane), planned at gamma or
    else at ``planned_at``, with the end correction's weights set to 0."""
    beta, gamma, n0 = (np.atleast_1d(a) for a in (beta, gamma, n0))
    plan_gamma = gamma if planned_at is None else np.atleast_1d(planned_at)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ladder, "_EDGES", {s: 0.0 * e for s, e in ladder._EDGES.items()})
        (rows, d, w, gamma0), = ladder._closure(spectrum, beta, plan_gamma, n0,
                                                np.array([np.inf]), STATS[sign])
    assert rows.tolist() == [0]
    return ladder._node_sums(d, w, beta, gamma, gamma0, STATS[sign])[:, 0]


def argument(tail, m):
    """The power law's argument 4(m + j0) - k_off at the real index m."""
    return 4.0 * (m + tail.j0) - tail.k_off


def closure_args(spectrum, beta, gamma):
    """(sigma, rho, n0) of the closure that ladder_sums engages: the
    exponent beta * tau * v + sigma and moment beta * tau * v + rho, in
    units of kT about max(E_0, mu), of a level with v = argument^(2/3), and
    the closure index."""
    tail = spectrum.tail
    return (beta * (tail.shift - spectrum.e0) + gamma,
            beta * (tail.shift - spectrum.e0) + min(gamma, 0.0),
            ladder._dense_index(spectrum, beta))


def mpmath_closure(tail, beta, sigma, rho, n0, sign):
    """(N0, N1, D0..D3, (D f)0..(D f)3) closure integrals in the ladder variable
    v = argument(m)^(2/3), (3/8) int_{v0}^inf sqrt(v) (beta tau v + rho)^p
    F(beta tau v + sigma) dv, by mpmath's tanh-sinh rule at 30 digits."""
    with mpmath.workdps(30):
        tau = mpmath.mpf(tail.tau)
        bt = beta * tau
        v0 = mpmath.mpf(float(argument(tail, n0))) ** (mpmath.mpf(2) / 3)
        x0 = bt * v0 + sigma
        cuts = [(x - sigma) / bt for x in (0, 1, 2, 5, 10, 20, 40, 80, 160) if x > x0]
        points = [v0] + cuts + [mpmath.inf]

        def occ(x):
            return 1 / (mpmath.exp(x) + sign)

        def dist(x):
            return mpmath.exp(x) / (mpmath.exp(x) + sign) ** 2

        def dist_occ(x):
            return dist(x) * occ(x)

        out = []
        for kernel, p in ((occ, 0), (occ, 1), *((k, p) for k in (dist, dist_occ)
                                                for p in range(4))):
            def f(v, kernel=kernel, p=p):
                return 0.375 * mpmath.sqrt(v) * (bt * v + rho) ** p * kernel(bt * v + sigma)
            out.append(float(mpmath.quad(f, points)))
    return out


@pytest.mark.parametrize("field,sign,beta,gamma", [
    (2.5119e-7, FERMI, 0.015924, -4.2912),
    (6.3096e-7, BOSE, 0.020131, 0.20701),
    # Fermi closures from x0 = 1.5e-28, 0.15 and 0.3 (beta F^(2/3) = 1e-30,
    # 1e-3 and 1e-8), their tail panels straight from x0
    (1e-3, FERMI, 1e-28, 0.0),
    (1e-3, FERMI, 0.1, 0.0),
    (1e-3, FERMI, 1e-6, 0.3),
])
def test_closure_matches_mpmath(field, sign, beta, gamma):
    # robin- points where the closure starts at x0 < 0.5; at the weak fields
    # its first panel is ~1e5 times wider than v0: there sqrt(v) is far from
    # a polynomial, which cost the v-panels 4.8e-6 of N0 and 1.4e-6 of D0.
    # Seen: 3.1e-15 at the Fermi points from x0 in (0, 0.5)
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field), count=64)
    full = ladder_sums(sp, beta, STATS[sign], gamma=gamma)
    sigma, rho, n0 = closure_args(sp, beta, gamma)
    mine = em_integral(sp, beta, gamma, n0, sign)
    ref = mpmath_closure(sp.tail, beta, sigma, rho, n0, sign)
    for m, r, f in zip(mine, ref, full):
        assert abs(m - r) <= 1e-12 * abs(f)


WINDOW_CASES = [
    # (wall kind, field, statistics, beta, gamma or Fermi-level index)
    (WallKind.NEUMANN, 1e-4, FERMI, 30.0, ("sea", 30_000)),  # a filled Fermi sea
    (WallKind.NEUMANN, 1e-3, FERMI, 0.3, -5.0),  # the Fermi edge inside the closure
    (WallKind.NEUMANN, 1e-3, BOSE, 0.3, 0.1),  # closure nodes from x ~ 0.24, near the pole
    (WallKind.ROBIN_ATTRACTIVE, 1e-7, BOLTZ, 11.455, 0.0),
]


@pytest.mark.parametrize("edge", [-1.0, 1.0], ids=["below", "above"])
@pytest.mark.parametrize("wall_kind,field,sign,beta,gamma", WINDOW_CASES)
def test_plan_holds_across_its_window(wall_kind, field, sign, beta, gamma, edge):
    # a lane planned at gamma and summed at either edge of its window (one
    # reach away, where a mu solve's Newton pass still reuses the plan)
    # against brute force at that gamma, and the closure nodes planned at
    # gamma against mpmath there
    sp = build_spectrum(WallSpec(wall_kind, field), count=64)
    if isinstance(gamma, tuple):
        gamma = beta * (sp.e0 - float(sp.tail.energy(gamma[1])))
        assert gamma < -ladder.X_DEAD
    plan = ladder._Plan(sp, np.array([beta]), np.array([gamma]), STATS[sign])
    g = gamma + edge * plan.reach[0]
    if abs(g - gamma) > plan.reach[0]:
        g = np.nextafter(g, gamma)
    with reading() as work:
        sums = ladder._sums(plan, np.array([0]), np.array([g]))[:, 0]
    assert not work["plans"]  # no _Plan built during the sum
    if sign == BOLTZ:
        ref = brute_force(sp, beta, BOLTZ_KIND, sign, g, powers=BOLTZ_POWERS)
    else:
        ref = family_brute_force(sp, beta, sign, g)
    for s, r in zip(sums, ref, strict=True):
        assert s == pytest.approx(r, rel=1e-10, abs=0.0)
    sigma, rho, n0 = closure_args(sp, beta, g)
    mine = em_integral(sp, beta, g, n0, sign, planned_at=gamma)
    ref = mpmath_closure(sp.tail, beta, sigma, rho, n0, sign)
    full = ladder_sums(sp, beta, STATS[sign], gamma=g)
    if sign == BOLTZ:  # e^-x is the reference's distribution kernel at sign 0
        ref = ref[2:6]
    for m, r, f in zip(mine, ref, full):
        assert abs(m - r) <= 1e-12 * abs(f)


def test_lanes_past_their_reach_sum_as_a_fresh_plan():
    # a Bose batch of 40 lanes: each of its first 32 lanes leaves its
    # window toward the kernel's pole, from gamma = 5 to 3, and the sums are
    # bit for bit those of a batch planned at the new gammas (at either gamma
    # every closure starts above x = 2, where no octave panels are laid, so
    # both batches pad their node sets to the same width)
    sp = build_spectrum(WallSpec(WallKind.NEUMANN, 1e-3), count=64)
    beta, lanes = np.geomspace(0.1, 1.0, 40), np.arange(40)
    plan = ladder._Plan(sp, beta, np.full(40, 5.0), Statistics.BOSE_EINSTEIN)
    assert np.all(plan.reach == 1.0)
    stale = lanes < 32
    gamma = 5.0 - np.where(stale, 2.0 * plan.reach, 0.0)
    with reading() as work:
        sums = ladder._sums(plan, lanes, gamma)
    assert work["stale_lanes"] == 32
    fresh = ladder._Plan(sp, beta, gamma, Statistics.BOSE_EINSTEIN)
    assert np.array_equal(sums, ladder._sums(fresh, lanes, gamma))


@pytest.mark.parametrize("wall_kind", list(WallKind), ids=lambda k: k.value)
def test_bose_plans_hold_as_gamma_rises(wall_kind):
    # a Bose plan holds for any rise of gamma: every exponent moves up alike,
    # the direct range ends where that of E_1 passes X_DEAD, and the closure
    # panels laid out for the pole only grow finer than they need.  Over 5
    # fields, 16 temperatures (beta F^(2/3) from 1e-5 to 30) and 6 planned
    # gammas (1e-6 to 2), sums moved up by 1 to 30 count no stale lane and
    # match a plan made there (seen: 5.2e-15) and brute force (8.2e-16)
    y, gamma0 = np.geomspace(1e-5, 30.0, 16), np.geomspace(1e-6, 2.0, 6)
    for field in (1e-7, 1e-5, 1e-3, 1e-1, 10.0):
        sp = build_spectrum(WallSpec(wall_kind, field), count=64)
        beta = np.repeat(y, len(gamma0)) * field ** (-2.0 / 3.0)
        planned, lanes = np.tile(gamma0, len(y)), np.arange(beta.size)
        plan = ladder._Plan(sp, beta, planned, Statistics.BOSE_EINSTEIN)
        for up in (1.0, 3.0, 10.0, 30.0):
            gamma = planned + up
            with reading() as work:
                moved = ladder._sums(plan, lanes, gamma)
            assert work["stale_lanes"] == 0 and not work["plans"]
            fresh = ladder._Plan(sp, beta, gamma, Statistics.BOSE_EINSTEIN)
            assert np.all(np.abs(moved - ladder._sums(fresh, lanes, gamma))
                          <= 1e-12 * moved)
            # the lanes cold enough to sum by brute force (beta F^(2/3) >= 0.05)
            for i in (54, 59, 77, 95):
                ref = family_brute_force(sp, beta[i], BOSE, gamma[i])
                for s, r in zip(moved[:, i], ref, strict=True):
                    assert s == pytest.approx(r, rel=1e-10, abs=0.0)


def interleaved_batch(sign):
    """test_stale_and_held_lanes_interleaved's batch: a plan of 40 lanes,
    the 33 lanes it is summed at in shuffled order, their gammas, and which
    of them (every third) are past their reach."""
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3), count=64)
    rng = np.random.default_rng(5)
    beta = np.geomspace(0.1, 3.0, 40)
    # fermions: some lanes with a filled sea; bosons leave their reach only
    # toward the kernel's pole, so their stale lanes move down
    gamma0 = np.full(40, 3.0) if sign == BOSE else rng.uniform(-60.0, 5.0, 40)
    plan = ladder._Plan(sp, beta, gamma0, STATS[sign])
    lanes = rng.permutation(40)[:33]
    stale = np.arange(len(lanes)) % 3 == 0
    held = rng.uniform(-0.9, 0.9, len(lanes))
    return plan, lanes, gamma0[lanes] + plan.reach[lanes] * np.where(stale, 2.0 * sign, held), stale


@pytest.mark.parametrize("sign", [FERMI, BOSE])
def test_stale_and_held_lanes_interleaved(sign):
    # a 40-lane batch summed at a subset of its lanes in shuffled order,
    # every third one past its reach: each stale lane's column is bit for
    # bit the sums of a plan made at its own gamma, and each other column
    # those of the original plan at its gamma
    plan, lanes, gamma, stale = interleaved_batch(sign)
    sums = ladder._sums(plan, lanes, gamma)
    fresh = ladder._Plan(plan.spectrum, plan.beta[lanes[stale]], gamma[stale], STATS[sign])
    assert np.array_equal(sums[:, stale], ladder._sums(fresh, np.arange(stale.sum()), gamma[stale]))
    assert np.array_equal(sums[:, ~stale], ladder._sums(plan, lanes[~stale], gamma[~stale]))


def test_every_node_set_within_the_pair_budget():
    # one plan per batch: the root block, each closure (the tail and the
    # filled seas) and the direct windows, one row per lane, of a 300-lane
    # batch are cut into runs of lanes of at most _PAIRS (lane, node) pairs,
    # and every lane is served by one root block
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3), count=64)
    beta = np.geomspace(1.0, 100.0, 300)
    # a Fermi level at level 2000: the colder lanes fill a sea past the floor
    gamma = beta * (sp.e0 - float(sp.tail.energy(2000)))
    with reading() as work:
        fd = ladder._Plan(sp, beta, gamma, Statistics.FERMI_DIRAC)
    assert work["sea_lanes"] > 0 and work["tail_lanes"] > 0
    canonical = ladder._Plan(sp, beta, np.zeros(300), Statistics.CANONICAL)
    with reading() as work:
        sums = ladder_sums(sp, beta, Statistics.CANONICAL)
    # ladder_sums makes one plan, and sums to the bit over the one above
    assert work["plans"] == 1 and np.array_equal(
        sums, ladder._sums(canonical, np.arange(300), np.zeros(300)))
    for plan in (fd, canonical):
        assert max(d.size for _, d, *_ in plan.sets) <= ladder._PAIRS
        root = [rows for rows, d, *_ in plan.sets if d.strides[0] == 0]
        assert len(root) > 1  # 300 rows of the root block exceed the budget
        assert np.array_equal(np.sort(np.concatenate(root)), np.arange(300))


def test_sea_closures_sized_after_their_dead_panels_drop():
    # the 300-lane FD plan above, cooled to beta in [1, 200] (to beta = 100
    # only 100 lanes close a sea past the closure floor): past its sea's end
    # each lane's closure keeps 1-2 panels (30-50 nodes), so its 126 sea
    # closures fit 1 block of _PAIRS (lane, node) pairs.  Sized by the padded
    # panel count before the drop they took 7 blocks.  Every lane sums as it
    # does alone, up to rounding, its moments taken about E_0, where no sum
    # cancels
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3), count=64)
    beta = np.geomspace(1.0, 200.0, 300)
    gamma = beta * (sp.e0 - float(sp.tail.energy(2000)))
    with reading() as work:
        batch = ladder_sums(sp, beta, Statistics.FERMI_DIRAC, gamma=gamma)
    # one plan, so one sea closure
    assert work["plans"] == 1 and work["sea_lanes"] > 100 and work["sea_blocks"] <= 3
    batch = about_e0(batch, gamma, Statistics.FERMI_DIRAC)
    for i in range(0, 300, 5):
        one = about_e0(ladder_sums(sp, beta[i], Statistics.FERMI_DIRAC, gamma=gamma[i]),
                       gamma[i], Statistics.FERMI_DIRAC)
        for b, o in zip(batch, one):
            assert b[i] == pytest.approx(o, rel=1e-15, abs=0.0)


def warm_canonical_work(spectrum, beta):
    """The work counts and the peak traced memory (tracemalloc, bytes) of a
    warm ``ladder_sums`` call on canonical lanes ``beta``."""
    ladder_sums(spectrum, beta, Statistics.CANONICAL)
    tracemalloc.start()
    try:
        with reading() as work:
            sums = ladder_sums(spectrum, beta, Statistics.CANONICAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return np.array(sums), work, peak


def test_a_lane_costs_its_own_node_sets():
    # work-count gate: 1,000 canonical lanes log-spaced on beta in [1e-2, 1e2]
    # and the same lanes with one more at beta = 1e-100 or 1e-200.  Each
    # lane's node sets are cut by their own width, and a canonical closure
    # takes its tail panels straight from its first exponent however hot,
    # so the larger batch makes no more _node_sums calls than the 1,000
    # alone, at most 1.01x their kernel elements and 1.2x their warm traced
    # peak (seen: 20/20 calls, 146,769/146,638 elements, 1.6/1.6 MB).  With
    # octave panels up to x = 0.5 the lane at 1e-200 took about 660: 23/22
    # calls, 1.049x the elements and 14.6/1.9 MB.  The 1,000 lanes sum bit
    # for bit as in their batch alone
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
    beta = np.geomspace(1e-2, 1e2, 1000)
    alone, work, peak = warm_canonical_work(sp, beta)
    for extra in (1e-100, 1e-200):
        sums, more, more_peak = warm_canonical_work(sp, np.append(beta, extra))
        assert more["node_sums"] <= work["node_sums"]
        assert more["kernel_elements"] <= 1.01 * work["kernel_elements"]
        assert more_peak <= 1.2 * peak
        assert sums[:, :1000].tobytes() == alone.tobytes()
        assert np.isfinite(sums[:, 1000]).all()


def test_canonical_batch_closes_at_the_switch():
    # work-count gate: 3,000 canonical lanes (robin-, F = 1e-3, beta
    # log-spaced on [1e-2, 1e2]) take at most 440,000 kernel elements:
    # 427,300, their direct windows ending where beta dE/dn falls to
    # DENSE_THRESHOLD = 0.1 and their closures without octave panels
    # (473,596 with octaves up to x = 0.5, 852,216 with the switch at 0.02
    # and octaves up to x = 2)
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
    with reading() as work:
        ladder_sums(sp, np.geomspace(1e-2, 1e2, 3000), Statistics.CANONICAL)
    assert work["kernel_elements"] <= 440_000


def layout_batch():
    """800 Fermi lanes at robin-, F = 1, beta = 1, whose tail closures start
    at exponents spread over [-60, 3]: (spectrum, beta, gamma)."""
    rng = np.random.default_rng(0)
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1.0))
    beta = np.full(800, 1.0)
    x_em = beta * (sp.energies(ladder._dense_index(sp, beta)) - sp.e0)
    return sp, beta, rng.uniform(-60.0, 3.0, 800) - x_em


def test_closure_runs_within_the_pair_budget_where_lanes_differ_in_layout():
    # Fermi tail closures whose first exponents lie between -60 and 3: some
    # lanes take octaves across a filled sea, others equal steps across the
    # transition layer from where they start.  Each run of lanes is cut by
    # the lanes' own widths and, where its live panels (those of any of its
    # lanes) outnumber its widest lane's own, cut again at its live width:
    # with octaves off x = 0 for Fermi closures a run here held 9,900 pairs
    # cut by own widths alone.  Without them the recut splits no run of this
    # batch; it still splits hot ones, where a deep lane's sea octaves round
    # away (beta <= 1e-20, gamma in [-60, 3]).  A few lanes sum as they do
    # alone
    sp, beta, gamma = layout_batch()
    with reading() as work:
        plan = ladder._Plan(sp, beta, gamma, Statistics.FERMI_DIRAC)
    assert work["tail_lanes"] > 700 and work["tail_blocks"] > 1
    assert max(d.size for _, d, *_ in plan.sets) <= ladder._PAIRS
    batch = about_e0(ladder._sums(plan, np.arange(800), gamma), gamma, Statistics.FERMI_DIRAC)
    for i in range(0, 800, 50):
        one = about_e0(ladder_sums(sp, beta[i], Statistics.FERMI_DIRAC, gamma=gamma[i]),
                       gamma[i], Statistics.FERMI_DIRAC)
        for b, o in zip(batch, one):
            assert b[i] == pytest.approx(o, rel=1e-13, abs=0.0)


def test_closure_panels_are_wider_than_rounding():
    # a deep Fermi lane (gamma0 != 0) without a filled sea took its sea
    # columns as (d0 - off) + off, which rounds 1 ulp off d0: a panel of 20
    # nodes 5.6e-17 wide.  Over the Fermi batches of
    # test_stale_and_held_lanes_interleaved and layout_batch, every closure
    # panel of positive width is wider than 1e-12 of its upper break (seen:
    # 4.4e-4; 2.3e-16 with the ulp panels)
    breaks, panel_breaks = [], ladder._panel_breaks

    def spy(*args):
        breaks.append(panel_breaks(*args))
        return breaks[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ladder, "_panel_breaks", spy)
        plan, lanes, gamma, _ = interleaved_batch(FERMI)
        ladder._sums(plan, lanes, gamma)  # its stale lanes in a plan of their own
        ladder._Plan(*layout_batch(), Statistics.FERMI_DIRAC)
    assert len(breaks) == 4
    for b in breaks:
        width = np.diff(b)
        positive = width > 0.0
        assert positive.any(axis=1).all()
        assert np.all(width[positive] > 1e-12 * np.abs(b[:, 1:][positive]))


def series_closure(tail, beta, sigma, rho, n0, kind, sign):
    """The closure integrals by the geometric expansion of the kernels,
    occupation = sum_k a_k e^{-kx} and distribution = sum_k k a_k e^{-kx}
    (a_k = 1 for bosons, (-1)^(k+1) for fermions), and their product
    sum_k b_k e^{-kx}, b_k = -a_k k(k - 1)/2 for fermions and k(k - 1)/2 for
    bosons (D f = -(f^2)'/2): order k is a sum of
    upper incomplete gammas Gamma(j + 3/2, k beta tau v0), j = 0 .. 3.
    Converges like e^{-k x0}, so it needs a positive starting exponent."""
    tau = tail.tau
    v0 = float(argument(tail, n0)) ** (2.0 / 3.0)
    assert beta * tau * v0 + sigma > 0.0
    rows = tuple((0, p) for p in BOLTZ_POWERS) if kind == BOLTZ_KIND else \
        ((0, 0), (0, 1), *((kern, p) for kern in (1, 2) for p in range(4)))
    totals = np.zeros(len(rows))
    for k in range(1, 10_000):
        lam = k * beta * tau
        g = []
        for a in (1.5, 2.5, 3.5, 4.5):
            q = sp.gammaincc(a, lam * v0)
            assert q > 0.0
            g.append(math.exp(math.log(q) + math.lgamma(a) - a * math.log(lam) - k * sigma))
        # moments of (beta tau v + rho)^p over the tail measure, 3/8 Jacobian
        mom = [0.375 * sum(math.comb(p, j) * rho ** (p - j) * (beta * tau) ** j * g[j]
                           for j in range(p + 1)) for p in range(4)]
        if kind == BOLTZ_KIND:
            return mom
        alt = 1.0 if (sign == BOSE or k % 2 == 1) else -1.0
        coef = (1.0, k, 0.5 * k * (k - 1) * (1.0 if sign == BOSE else -1.0))
        terms = np.array([alt * coef[kern] * mom[p] for kern, p in rows])
        totals += terms
        if np.all(np.abs(terms) <= 1e-17 * np.abs(totals)):
            return list(totals)
    raise AssertionError("geometric expansion did not settle")


SERIES_CASES = [(OCC, FERMI), (OCC, BOSE), (BOLTZ_KIND, BOLTZ)]


def series_inputs(kind):
    """(spectrum, beta, gamma) of test_closure_matches_incomplete_gamma_series:
    at robin-, F = 1e-4, starting exponents x0 from 0.5 to above 100 and a
    Bose gamma of 90; for the canonical kernel also the hot lanes
    beta F^(2/3) = 1e-60 .. 0.2 (gamma = 0, x0 down to 1e-58) on every wall
    at F = 1e-7 .. 1e3, whose closures take their tail panels straight from
    x0 (the series overflows past about 1e-60)."""
    spec = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-4), count=64)
    for beta in (0.8, 2.0, 5.0):
        _, _, n0 = closure_args(spec, beta, 0.0)
        u0 = beta * (float(spec.tail.energy(n0)) - spec.e0)
        for gamma in [x0 - u0 for x0 in (0.5, 0.9, 3.0, 12.0, 40.0, 105.0)] + [90.0]:
            yield spec, beta, gamma
    if kind == BOLTZ_KIND:
        for wall_kind, field in itertools.product(WallKind, (1e-7, 1e-3, 1.0, 1e3)):
            spec = build_spectrum(WallSpec(wall_kind, field), count=64)
            for y in (1e-60, 1e-30, 1e-8, 1e-3, 0.05, 0.2):
                yield spec, y * field ** (-2.0 / 3.0), 0.0


@pytest.mark.parametrize("kind,sign", SERIES_CASES)
def test_closure_matches_incomplete_gamma_series(kind, sign):
    # where the geometric series converges (x0 > 0); the tail panels are
    # laid out from x0, so they reach e^-77 of the integrand wherever it
    # starts.  Seen: 8.0e-14 over the hot canonical lanes
    for spec, beta, gamma in series_inputs(kind):
        sigma, rho, n0 = closure_args(spec, beta, gamma)
        mine = em_integral(spec, beta, gamma, n0, sign)
        ref = series_closure(spec.tail, beta, sigma, rho, n0, kind, sign)
        assert len(mine) == len(ref)
        for m, r in zip(mine, ref):
            assert m == pytest.approx(r, rel=1e-12, abs=0.0)


def capped_tail_panels(cap):
    """Exponent offsets of geometric tail panels from 0.5 up to ``cap``."""
    y = [0.5]
    while y[-1] < cap:
        y.append(min(1.7 * y[-1] + 2.0, cap))
    return np.array(y[1:])


def reference_rule_sums(spectrum, beta, statistics, *, gamma):
    """``ladder_sums`` with every closure on a 64-node rule, graded in
    octaves up to x = 2 as a Bose closure is whatever its statistics, with
    tail panels to e^-119."""
    panel_breaks = ladder._panel_breaks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ladder, "_RULES", {s: np.polynomial.legendre.leggauss(64)
                                         for s in Statistics})
        patch.setattr(ladder, "_TAIL_Y", capped_tail_panels(120.0))
        patch.setattr(ladder, "_panel_breaks", lambda *args: panel_breaks(
            *args[:-1], Statistics.BOSE_EINSTEIN))
        return ladder_sums(spectrum, beta, statistics, gamma=gamma)


@pytest.mark.parametrize("wall_kind", list(WallKind), ids=lambda k: k.value)
def test_closure_quadrature_is_converged(wall_kind):
    # the shipped closure (its rule per statistics, 12 nodes a panel for
    # canonical, 14 for BE and 20 for FD, and tail panels up to the last edge
    # below X_DEAD) against a 64-node rule whose tail panels reach e^-119,
    # over the closed tails and filled Fermi seas of 40 temperatures per
    # field and statistics (beta F^(2/3) from 1e-3 to 30, and for bosons
    # from 1e-7, each at 5 gammas from 1e-7 to 3: Table 1's hottest Bose
    # lanes reach 1e-5).  The reference grades every closure in octaves up
    # to x = 2, the shipped one only a Bose closure: Bose octaves that stopped
    # at x = 0.5 left a first tail panel [x0, x0 + 2.35] too wide for
    # D f ~ 1/x^3 next to the pole (3.6e-10 in G_0 at beta F^(2/3) = 1e-7,
    # gamma = 0.5), while canonical and FD closures take theirs straight
    # from x0 (seen: 3.0e-15).  For FD lanes also the moments about mu that
    # c is built from, D_2/D_0 - (D_1/D_0)^2 and N_1/N_0, from the raw sums,
    # which about_e0 dilutes (seen: 2.2e-15 and 2.6e-15)
    with reading() as work:
        for field in (1e-7, 1e-5, 1e-3, 1e-1, 10.0):
            sp = build_spectrum(WallSpec(wall_kind, field), count=64)
            beta = np.geomspace(1e-3, 30.0, 40) * field ** (-2.0 / 3.0)
            hot = np.repeat(np.geomspace(1e-7, 30.0, 40), 5) * field ** (-2.0 / 3.0)
            fermi_level = sp.tail.energy(np.geomspace(70.0, 3e4, 40))
            for statistics, beta, gamma in (
                    (Statistics.CANONICAL, beta, 0.0),
                    (Statistics.FERMI_DIRAC, beta, beta * (sp.e0 - fermi_level)),
                    (Statistics.BOSE_EINSTEIN, hot, np.tile([1e-7, 1e-3, 0.1, 0.5, 3.0], 40))):
                shipped = ladder_sums(sp, beta, statistics, gamma=gamma)
                ref = reference_rule_sums(sp, beta, statistics, gamma=gamma)
                # about E_0 every sum is one of terms >= 0
                for s, r in zip(about_e0(shipped, gamma, statistics),
                                about_e0(ref, gamma, statistics)):
                    assert np.all(np.abs(s - r) <= 1e-13 * r)
                if statistics is Statistics.FERMI_DIRAC:
                    for s, r in zip(fermi_moments(shipped), fermi_moments(ref)):
                        assert np.all(np.abs(s - r) <= 1e-13 * np.abs(r))
    assert work["tail_lanes"] > 200 and work["sea_lanes"] > 50


def fermi_moments(sums):
    """(D_2/D_0 - (D_1/D_0)^2, N_1/N_0) of Fermi-Dirac ``ladder_sums``."""
    n0, n1, d0, d1, d2 = sums[:5]
    return d2 / d0 - (d1 / d0) ** 2, n1 / n0


def switch_betas(spectrum, fractions=(0.5, 1.0 - 1e-9)):
    """beta of lanes whose tail closure starts at the closure floor, with
    beta dE/dn there (the tail law's slope) at ``fractions`` of
    DENSE_THRESHOLD."""
    tail, first = spectrum.tail, ladder._closure_floor(spectrum)
    slope = 8.0 * tail.tau / (3.0 * argument(tail, first) ** (1.0 / 3.0))
    beta = np.array(fractions) * ladder.DENSE_THRESHOLD / slope
    assert (ladder._dense_index(spectrum, beta) == first).all()
    return beta


def switch_errors(wall_kind):
    """(worst relative error against brute force, worst against the 64-node
    rule) of the sums at the switch on ``wall_kind``: lanes whose closure
    starts at the floor (``switch_betas``) at F = 1e-3 and 1, canonical, FD
    over a shallow and a deep sea (the Fermi level at the floor's level,
    where the end stencil meets the transition layer, and gamma = -1000)
    and BE at gamma = 1e-7 and 1; and test_closure_quadrature_is_converged's
    FD lane 25 at F = 1e-7 (beta F^(2/3) = 0.74, the Fermi level at level
    3,400, gamma = -3.5e4 at robin-), its transition in its tail closure,
    with the moments about E_0, where every sum is one of terms >= 0."""
    brute = 0.0
    for field in (1e-3, 1.0):
        sp = build_spectrum(WallSpec(wall_kind, field), count=64)
        beta = switch_betas(sp)
        shallow = beta * (sp.e0 - sp.level(ladder._closure_floor(sp)))
        for statistics, sign, gamma in ((Statistics.CANONICAL, BOLTZ, 0.0),
                                        (Statistics.FERMI_DIRAC, FERMI, shallow),
                                        (Statistics.FERMI_DIRAC, FERMI, -1e3),
                                        (Statistics.BOSE_EINSTEIN, BOSE, 1e-7),
                                        (Statistics.BOSE_EINSTEIN, BOSE, 1.0)):
            gamma = np.broadcast_to(gamma, beta.shape)
            sums = np.array(ladder_sums(sp, beta, statistics, gamma=gamma))
            for i, (b, g) in enumerate(zip(beta, gamma)):
                ref = (brute_force(sp, b, BOLTZ_KIND, sign, powers=BOLTZ_POWERS) if sign == BOLTZ
                       else family_brute_force(sp, b, sign, g))
                brute = max(brute, float(np.max(np.abs(sums[:, i] - ref) / np.abs(ref))))
    sp = build_spectrum(WallSpec(wall_kind, 1e-7), count=64)
    beta = np.geomspace(1e-3, 30.0, 40)[25] * 1e-7 ** (-2.0 / 3.0)
    gamma = beta * (sp.e0 - float(sp.tail.energy(np.geomspace(70.0, 3e4, 40)[25])))
    shipped, ref = (about_e0(sums(sp, beta, Statistics.FERMI_DIRAC, gamma=gamma), gamma,
                             Statistics.FERMI_DIRAC) for sums in (ladder_sums, reference_rule_sums))
    return brute, max(abs(s - r) / r for s, r in zip(shipped, ref))


@pytest.mark.parametrize("wall_kind", list(WallKind), ids=lambda k: k.value)
def test_closure_at_the_switch(wall_kind):
    # a tail closure from the floor, where beta dE/dn is half or just under
    # DENSE_THRESHOLD, matches brute force at the 1e-10 contract in every
    # statistics (seen: 7.2e-12), the Fermi transition at the floor included
    # (a five-level end stencil left 2.2e-8 there); and a deep Fermi sea
    # whose transition lies in its tail closure matches the 64-node rule to
    # 1e-13 (seen: 5.8e-16), its nodes taken above its Fermi level.  Taken
    # above E_0, beta (E - E_0) + gamma rounds to 1e-16 |gamma|: 4.9e-13 at
    # robin-
    brute, rule = switch_errors(wall_kind)
    assert brute <= 1e-10
    assert rule <= 1e-13


FUSED_CASES = [
    # (wall kind, field, statistics, beta, gamma or Fermi-level index)
    (WallKind.ROBIN_ATTRACTIVE, 1e-3, FERMI, 3.0, -2.0),
    (WallKind.ROBIN_ATTRACTIVE, 1e-3, FERMI, 6.0, 4.0),
    (WallKind.NEUMANN, 1e-4, FERMI, 30.0, ("sea", 30_000)),
    (WallKind.ROBIN_ATTRACTIVE, 1e-2, FERMI, 2.0, ("sea", 400_000)),
    (WallKind.ROBIN_ATTRACTIVE, 1e-3, BOSE, 2.0, 0.3),
    (WallKind.ROBIN_ATTRACTIVE, 1e-3, BOSE, 3.0, 1e-7),
    (WallKind.NEUMANN, 1e-3, BOSE, 0.3, 5e-7),
]


@pytest.mark.parametrize("wall_kind,field,sign,beta,gamma", FUSED_CASES)
def test_fused_sums_match_brute_force(wall_kind, field, sign, beta, gamma):
    # one pass gives N_0, N_1 (occupation), D_0..D_3 (distribution) and
    # (D f)_0..(D f)_3, through a filled Fermi sea and next to Bose
    # condensation (gamma < 1e-6)
    sp = build_spectrum(WallSpec(wall_kind, field), count=64)
    if isinstance(gamma, tuple):
        gamma = beta * (sp.e0 - float(sp.tail.energy(gamma[1])))
        assert gamma < -ladder.X_DEAD
    fused = planned_sums(sp, beta, STATS[sign], gamma)[:, 0]
    ref = family_brute_force(sp, beta, sign, gamma)
    for f, r in zip(fused, ref, strict=True):
        assert f == pytest.approx(r, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("direct", [False, True])
@pytest.mark.parametrize("temperature", [0.0321, 0.025])
def test_direct_range_covers_every_sum(direct, temperature, monkeypatch):
    # the ground level holds nearly all of S_0 while S_1 and S_2 live on the
    # excited levels e^-31 below it: a direct range cut from the ground
    # level's exponent would truncate them
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1.233e-5), count=64)
    beta = 1.0 / temperature
    if direct:
        force_direct(monkeypatch)
    s0, s1, s2, _ = ladder_sums(sp, beta, Statistics.CANONICAL)
    c = s2 / s0 - (s1 / s0) ** 2
    levels = sp.energies(np.arange(400_000))
    assert beta * (levels[-1] - levels[1]) > 80.0
    w = np.exp(-beta * (levels - sp.e0))
    z = math.fsum(w)
    mean = math.fsum(w * levels) / z
    c_direct = beta * beta * math.fsum(w * (levels - mean) ** 2) / z
    assert c == pytest.approx(c_direct, rel=1e-9, abs=0.0)


def test_ladder_sums_are_plain_floats(spectrum_m3):
    for sums in (ladder_sums(spectrum_m3, 2.0, Statistics.CANONICAL),
                 ladder_sums(spectrum_m3, 2.0, Statistics.FERMI_DIRAC, gamma=-1.0)):
        assert all(type(v) is float for v in sums)


@pytest.mark.parametrize("statistics", [7, "occ", 0, "fd", None])
def test_unknown_statistics_rejected(spectrum_m3, statistics):
    # a Statistics member only: neither the reference's signs nor the names
    with pytest.raises(DomainError):
        ladder_sums(spectrum_m3, 1.0, statistics, gamma=0.5)


@pytest.mark.parametrize("start", [300, 400, -1, 1.5])
def test_start_index_must_lie_in_the_root_block(start):
    # robin-, F = 1e-3, beta = 0.5: starts past the root-solved block once
    # returned N0 = 382.3086 for both 300 and 400
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
    with pytest.raises(DomainError):
        ladder_sums(sp, 0.5, Statistics.FERMI_DIRAC, start_index=start)


def test_start_index_in_the_root_block_matches_brute_force(spectrum_m3):
    for start in (0, 1, spectrum_m3.n_exact - 1):
        sums = ladder_sums(spectrum_m3, 0.5, Statistics.FERMI_DIRAC, start_index=start)
        ref = family_brute_force(spectrum_m3, 0.5, FERMI, start=start)
        for h, r in zip(sums, ref, strict=True):
            assert h == pytest.approx(r, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0, [], [1.0, math.nan],
                                  [[1.0, 2.0]]])
def test_beta_checked(spectrum_m3, beta):
    # a 2-D beta was summed as a batch of its elements
    with pytest.raises(DomainError, match="beta"):
        ladder_sums(spectrum_m3, beta, Statistics.FERMI_DIRAC, gamma=0.5)


@pytest.mark.parametrize("gamma", [math.inf, -math.inf, math.nan, [0.5, math.nan],
                                   [[0.5, 1.0]], []],
                         ids=["inf", "-inf", "nan", "nan-lane", "2-D", "empty"])
def test_gamma_checked(spectrum_m3, gamma):
    # checked before planning: an infinite gamma once allocated until
    # MemoryError, a NaN failed on a negative level index, a 2-D gamma was
    # summed as a batch of its elements, and an empty one was blamed on beta
    with pytest.raises(DomainError, match="gamma"):
        ladder_sums(spectrum_m3, 1.0, Statistics.FERMI_DIRAC, gamma=gamma)


def test_scalar_and_1d_arguments_broadcast(spectrum_m3):
    # a scalar beta or gamma against a 1-D other gives one lane per element,
    # each the sums of its scalar call
    betas, gammas = [0.5, 2.0], [-1.0, 0.5]
    for beta, gamma in ((betas, 0.5), (2.0, gammas), (betas, gammas)):
        sums = ladder_sums(spectrum_m3, beta, Statistics.FERMI_DIRAC, gamma=gamma)
        assert all(s.shape == (2,) for s in sums)
        for i, (b, g) in enumerate(np.broadcast(beta, gamma)):
            one = ladder_sums(spectrum_m3, float(b), Statistics.FERMI_DIRAC, gamma=float(g))
            assert [s[i] for s in sums] == pytest.approx(one, rel=1e-13, abs=0.0)


def test_huge_fermion_number_is_fast_and_validated():
    # worst corner found by randomized stress: 1e8 fermions, strong field
    import time
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 8.7), count=64)
    from robinwall.grand_canonical import EnsembleSpec, Statistics, thermo_point
    t0 = time.monotonic()
    p = thermo_point(sp, 0.958, EnsembleSpec(Statistics.FERMI_DIRAC, 10 ** 8))
    assert time.monotonic() - t0 < 5.0
    assert p.heat_capacity >= 0.0
    assert p.mu > sp.level(63)  # mu sits deep in the ladder


def test_direct_window_spans_two_dead_zones_at_most():
    # below the closure index every level raises the exponent by more than
    # DENSE_THRESHOLD, so a lane's direct window, from X_DEAD below the
    # Fermi level to X_DEAD above the first level at or above it, spans at
    # most 2 X_DEAD / DENSE_THRESHOLD levels, plus the sea's 5-level early
    # end and the rounding of both ends; Fermi levels midway between levels
    # 1 .. 1e6 and next to condensation over six decades of temperature.
    # The widest window comes within 10% of the bound (862 of 908 levels)
    bound = 2.0 * ladder.X_DEAD / ladder.DENSE_THRESHOLD + 8.0
    widest = 0
    for wall_kind in WallKind:
        for field in (1e-7, 1.0):
            sp = build_spectrum(WallSpec(wall_kind, field))
            beta = np.geomspace(1e-3, 1e3, 80) * field ** (-2.0 / 3.0)
            m = np.unique(np.geomspace(1.0, 1e6, 40).astype(np.int64))
            mu = 0.5 * (sp.energies(m) + sp.energies(m + 1))
            fermi_beta = np.tile(beta, len(mu))
            for statistics, b, gamma in (
                    (Statistics.CANONICAL, beta, np.zeros(80)),
                    (Statistics.BOSE_EINSTEIN, beta, np.geomspace(1e-9, 30.0, 80)),
                    (Statistics.FERMI_DIRAC, fermi_beta,
                     fermi_beta * (sp.e0 - np.repeat(mu, 80)))):
                _, sea, stop = ladder._direct_range(sp, b, gamma, statistics, 0)
                widest = max(widest, int((stop - sea).max()))
    assert 0.9 * bound < widest <= bound


def test_bose_positive_exponent_guard(spectrum_m3):
    with pytest.raises(SolverError):
        ladder_sums(spectrum_m3, 1.0, Statistics.BOSE_EINSTEIN, gamma=-0.5)



@pytest.mark.parametrize("kind,sign", [(BOLTZ_KIND, BOLTZ), (OCC, FERMI), (OCC, BOSE)])
def test_batched_lanes_match_single_lanes(kind, sign):
    # 50 lanes in one call give each lane's own one-lane sums; the lanes
    # cover direct ranges that end before the closure index, the
    # Euler-Maclaurin closure of the tail and (fermions) that of a filled sea
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3), count=64)
    rng = np.random.default_rng(7)
    beta = np.geomspace(0.05, 400.0, 50)
    rng.uniform(size=50)  # the gammas below are the stream's draws after these 50
    if kind == BOLTZ_KIND:
        gamma = np.zeros(50)
    elif sign == FERMI:
        sea = beta * (sp.e0 - float(sp.tail.energy(3000)))
        gamma = np.where(np.arange(50) % 3 == 0, sea, rng.uniform(-5.0, 5.0, 50))
    else:
        gamma = 10.0 ** rng.uniform(-7.0, 1.0, 50)
    with reading() as work:
        batch = planned_sums(sp, beta, STATS[sign], gamma)
    assert 0 < work["tail_lanes"] < 50  # some lanes closed, the others stopped
    assert (work["sea_lanes"] > 0) == (sign == FERMI)
    assert all(s.shape == (50,) for s in batch)
    for i in range(50):
        one = planned_sums(sp, beta[i], STATS[sign], gamma[i])[:, 0]
        for b, o in zip(batch, one):
            assert b[i] == pytest.approx(o, rel=1e-13, abs=0.0)


def test_sea_ending_just_past_the_first_block_matches_brute_force():
    # seas that end 1..4 levels past the first direct block, which ends at
    # the closure floor, so the closure over [first, sea) is shorter than its
    # nine-level stencils; one batch
    # (beta = 50: colder, at beta = 20 the closure index is the floor itself)
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3), count=64)
    beta = 50.0
    first = ladder._closure_floor(sp)
    # the Fermi level puts level first + early + k + 1/2 at exponent -X_DEAD:
    # the sea holds the levels up to first + early + k, and its closure ends
    # early = 5 levels early, one more than its stencil's half-width
    early = len(ladder._EDGES[Statistics.FERMI_DIRAC]) // 2 + 1
    mu = np.array([float(sp.tail.energy(first + early + 0.5 + k)) for k in range(1, 5)]) \
        + ladder.X_DEAD / beta
    gamma = beta * (sp.e0 - mu)
    n_em, sea, _ = ladder._direct_range(sp, np.full(4, beta), gamma, Statistics.FERMI_DIRAC, 0)
    assert (sea - first).tolist() == [1, 2, 3, 4]
    assert (n_em > sea).all()
    batch = planned_sums(sp, beta, Statistics.FERMI_DIRAC, gamma)
    for i, g in enumerate(gamma):
        ref = family_brute_force(sp, beta, FERMI, g)
        for b, r in zip(batch, ref, strict=True):
            assert b[i] == pytest.approx(r, rel=1e-10, abs=0.0)


def edge_brute_force(spectrum, beta, gamma, lo):
    """(N0, D0) of a filled Fermi sea whose levels below lo lie at exponents
    below -X_DEAD: those count 1 each to N0 and at most e^-45 each to D0;
    the rest is summed literally."""
    e0 = spectrum.e0
    assert beta * (spectrum.level(lo - 1) - e0) + gamma <= -ladder.X_DEAD
    n0 = float(lo)
    d0 = 0.0
    while True:
        m = np.arange(lo, lo + (1 << 14))
        x = beta * (spectrum.energies(m) - e0) + gamma
        n0 += math.fsum(_kernel(x, OCC, FERMI))
        d0 += math.fsum(_kernel(x, DIST, FERMI))
        if x[-1] > 55.0:
            return n0, d0
        lo += 1 << 14


def test_deep_sea_is_not_summed_level_by_level():
    # work-count gate: 50-lane passes with a Fermi level between levels
    # n_fermi - 1 and n_fermi.  Each lane sums directly its first block and
    # the levels from its sea's end to its stop, ~1e3 (1e4 at N = 1e8)
    # around the Fermi edge; evaluating whole blocks past the sea would
    # take 3.3e6 and 2.9e7 summands
    for field, n_fermi, betas in ((1e-3, 10 ** 5, (150.0, 300.0)), (8.7, 10 ** 8, (0.5, 2.0))):
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field), count=64)
        beta = np.linspace(*betas, 50)
        gamma = beta * (sp.e0 - 0.5 * (sp.level(n_fermi - 1) + sp.level(n_fermi)))
        with reading() as work:
            batch = ladder_sums(sp, beta, Statistics.FERMI_DIRAC, gamma=gamma)
        assert work["kernel_elements"] <= 250_000
        for i in (0, 49):
            if n_fermi <= 10 ** 5:
                ref = brute_force(sp, beta[i], OCC, FERMI, gamma[i], powers=(0, 1))
                for b, r in zip(batch, ref):
                    assert b[i] == pytest.approx(r, rel=1e-10, abs=0.0)
            lo = int(sp.tail.index(sp.e0 + (-ladder.X_DEAD - gamma[i]) / beta[i]))
            n0, d0 = edge_brute_force(sp, beta[i], gamma[i], lo)
            assert batch[0][i] == pytest.approx(n0, rel=1e-10, abs=0.0)
            assert batch[2][i] == pytest.approx(d0, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("wall_kind", list(WallKind), ids=lambda k: k.value)
@pytest.mark.parametrize("kind,sign", [(BOLTZ_KIND, BOLTZ), (OCC, FERMI), (OCC, BOSE)])
def test_strong_field_sparse_range_matches_brute_force(wall_kind, kind, sign):
    # strong fields at high temperature: the direct range ends past the first
    # block (at the closure floor) but before the closure index, and the
    # levels past it are dropped
    for field in (1.0, 10.0, 30.0):
        sp = build_spectrum(WallSpec(wall_kind, field), count=64)
        first = ladder._closure_floor(sp)
        beta = 25.0 / (sp.level(first) - sp.e0)
        gamma = {BOLTZ: 0.0, FERMI: -5.0, BOSE: 0.4}[sign]
        n_em, _, stop = ladder._direct_range(sp, np.array([beta]), np.array([gamma]),
                                             STATS[sign], 0)
        assert first < stop[0] < n_em[0]
        sums = planned_sums(sp, beta, STATS[sign], gamma)[:, 0]
        if kind == BOLTZ_KIND:
            ref = brute_force(sp, beta, kind, sign, gamma, powers=BOLTZ_POWERS)
        else:
            ref = family_brute_force(sp, beta, sign, gamma)
        for h, r in zip(sums, ref, strict=True):
            assert h == pytest.approx(r, rel=1e-10, abs=0.0)


def test_gauss_rules_are_exact():
    # each closure rule integrates x^k on [-1, 1] exactly for every k < 2n,
    # to 1e-15 summed exactly (math.fsum)
    for nodes, weights in ladder._RULES.values():
        n = len(nodes)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(weights * nodes ** k) - exact) <= 1e-15, (n, k)


def test_gauss_rules_match_leggauss():
    # the rules as numpy.polynomial.legendre.leggauss gives them, which the
    # package no longer imports: nodes to 1e-15, weights to 1e-13 relative
    for statistics, n in ((Statistics.CANONICAL, 12), (Statistics.FERMI_DIRAC, 20),
                          (Statistics.BOSE_EINSTEIN, 14)):
        nodes, weights = ladder._RULES[statistics]
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert len(nodes) == n
        assert np.abs(nodes - ref_nodes).max() <= 1e-15
        assert np.abs(weights / ref_weights - 1.0).max() <= 1e-13


@pytest.mark.parametrize("wall_kind,field,ensemble,bad,message", [
    *((k, 1e-7, None, [1e-307, 1e-305], "dc/d ln beta = nan are not finite")
      for k in (WallKind.DIRICHLET, WallKind.NEUMANN, WallKind.ROBIN_REPULSIVE)),
    (WallKind.ROBIN_ATTRACTIVE, 1e3, (Statistics.FERMI_DIRAC, 2 ** 63 - 1), [1e293],
     "particle-number residual nan N, as its particle-number sums are not finite"),
], ids=["dirichlet", "neumann", "robin+", "fd-sea"])
def test_lanes_past_the_float_range_fail_alone(wall_kind, field, ensemble, bad, message):
    # a lane whose sums run past the float range raised a bare
    # OverflowError for the whole batch.  A hot canonical lane's tail panels
    # start at its first closure exponent, which underflows, and their
    # energies x / beta overflow to inf, which the closure quadrature turns
    # into NaN nodes; the full Fermi sea's exponents overflow in its sums
    # (gamma = -6.2e307 at beta = 1e293).  Each fails as a lane, NaN with
    # a message, alone, one lane each and in a batch, and the other lanes'
    # states are those of a batch without it, bit for bit.  A Fermi lane's
    # message says that its sums are not finite, where it read as a residual
    # past the tolerance.  The numpy RuntimeWarnings on the way are allowed
    # (ROADMAP item 21)
    sp = build_spectrum(WallSpec(wall_kind, field))
    ens = EnsembleSpec(*(ensemble or (Statistics.CANONICAL, 1)))
    good = np.array([1e-3, 0.3, 1.0, 10.0])
    mixed = np.concatenate([bad[:1], good, bad[1:]])
    is_bad = np.isin(mixed, bad)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        alone = thermo_point(sp, good, ens)
        for beta in [*([b] for b in bad), bad, mixed]:
            p = thermo_point(sp, np.array(beta), ens)
            for i, b in enumerate(beta):
                if b in bad:
                    assert f"beta={b}" in p.errors[i] and p.errors[i].endswith(message)
                    assert np.isnan(p.mean_energy[i]) and np.isnan(p.heat_capacity[i])
        if ensemble is None:
            sums = np.array(ladder_sums(sp, mixed, Statistics.CANONICAL))
            assert np.isnan(sums[:, is_bad]).all() and np.isfinite(sums[:, ~is_bad]).all()
    assert all(e is None for e in alone.errors)
    assert [p.errors[i] for i in (~is_bad).nonzero()[0]] == [None] * len(good)
    for name in ("mean_energy", "heat_capacity", "mu", "heat_capacity_slope"):
        if getattr(alone, name) is not None:
            assert getattr(p, name)[~is_bad].tobytes() == getattr(alone, name).tobytes()
