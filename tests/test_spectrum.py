import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import optimize
from scipy import special as sps

from robinwall import spectrum as spm
from robinwall._work import reading
from robinwall.errors import DomainError, RobinWallError, SolverError
from robinwall.grand_canonical import EnsembleSpec, Statistics
from robinwall.limits import asymptotic_beta_cr
from robinwall.specfun import AiryZeroKind, airy_zero, interlacing_ok
from robinwall.spectrum import (
    Spectrum,
    WallKind,
    WallSpec,
    build_spectrum,
    level_gaps,
)
from robinwall.sweep import SweepSpec

ATTR = WallKind.ROBIN_ATTRACTIVE
REP = WallKind.ROBIN_REPULSIVE


def attractive(field, count=8):
    return build_spectrum(WallSpec(ATTR, field), count=count)


def repulsive(field, count=8):
    return build_spectrum(WallSpec(REP, field), count=count)


def ground_level(kind, field):
    return build_spectrum(WallSpec(kind, field)).e0


# 10 fields a decade from 1e-31 to 1e-10 and one ulp below each whole decade
WEAK_FIELDS = ([10.0 ** (k / 10) for k in range(-310, -99)]
               + [math.nextafter(10.0 ** k, 0.0) for k in range(-31, -9)])


def weak_field_tally():
    """The fields of WEAK_FIELDS where robin- builds its ground level at the
    first-order -1 + F/2 to 1e-11, where it raises, and where it builds
    another level."""
    right, raising, wrong = [], [], []
    for field in WEAK_FIELDS:
        try:
            e0 = ground_level(ATTR, field)
        except RobinWallError:
            raising.append(field)
            continue
        (right if abs(e0 - (-1.0 + field / 2.0)) <= 1e-11 else wrong).append(field)
    return right, raising, wrong


class TestWallSpec:
    def test_zero_field_rejected(self):
        with pytest.raises(DomainError):
            WallSpec(ATTR, 0.0)
        with pytest.raises(DomainError):
            WallSpec(WallKind.DIRICHLET, -1.0)

    @pytest.mark.parametrize("field", ["abc", "1e-3", [1], None, math.nan, math.inf, 0.0, -1e-3])
    def test_field_must_be_a_real_number(self, field):
        # a DomainError, not the ValueError or TypeError of float(), and no
        # text read as a number
        with pytest.raises(DomainError, match="field must be a finite real number"):
            WallSpec(ATTR, field)

    def test_field_of_any_real_type_is_a_float(self):
        for field in (1, np.float64(1e-3), np.int64(2)):
            wall = WallSpec(ATTR, field)
            assert type(wall.field) is float and wall.field == field

    def test_lambda_values(self):
        assert WallSpec(ATTR, 1.0).lam == -1
        assert WallSpec(REP, 1.0).lam == 1
        assert WallSpec(WallKind.DIRICHLET, 1.0).lam is None


class TestDirichletNeumann:
    def test_unit_field_ground_levels(self):
        assert ground_level(WallKind.DIRICHLET, 1.0) == pytest.approx(2.3381, abs=5e-5)
        assert ground_level(WallKind.NEUMANN, 1.0) == pytest.approx(1.0188, abs=5e-5)

    def test_field_scaling(self):
        e1 = ground_level(WallKind.DIRICHLET, 1.0)
        e2 = ground_level(WallKind.DIRICHLET, 1e-3)
        assert e2 == pytest.approx(e1 * 1e-2, rel=1e-14)


class TestRobinLevels:
    def test_bound_state_weak_field_expansion(self):
        sp = attractive(1e-3)
        assert sp.e0 == pytest.approx(-0.999500125, abs=1e-6)
        sp = attractive(1e-5)
        assert sp.e0 == pytest.approx(-1 + 0.5e-5 - 1e-10 / 8, abs=1e-11)

    def test_first_excited_weak_field_shift(self):
        # the quasi-continuum sits at -a_n F^(2/3) MINUS lam*F: the shift is
        # +F for the attractive wall, -F for the repulsive one
        field = 1e-3
        base = -airy_zero(1) * field ** (2.0 / 3.0)
        e1 = attractive(field).level(1)
        assert e1 > base  # sign of the shift
        assert e1 == pytest.approx(base + field, rel=1e-3)
        e0r = repulsive(field).level(0)
        assert e0r < base
        assert e0r == pytest.approx(base - field, rel=1e-3)

    def test_split_off_structure_weak_field(self):
        for field in (1e-2, 1e-4, 1e-6):
            sp = attractive(field)
            assert sp.level(0) < 0.0 < sp.level(1)
            gap_ref = 1.0 - airy_zero(1) * field ** (2.0 / 3.0)
            assert sp.level(1) - sp.level(0) == pytest.approx(gap_ref, abs=0.02)

    def test_no_bound_state_strong_field(self):
        assert attractive(100.0).e0 > 0.0

    def test_strong_field_reflecting_limit(self):
        # E_0 -> -a'_1 F^(2/3) [1 -+ F^(-1/3)/a'_1^2]; next order is
        # O(F^(-2/3)) ~ 4.6% of the correction scale at F=100
        ap1 = airy_zero(1, AiryZeroKind.DerivativeZero)
        for field, tol in ((100.0, 0.03), (1000.0, 0.01)):
            ref_rep = -ap1 * field ** (2 / 3) * (1 + field ** (-1 / 3) / ap1 ** 2)
            ref_att = -ap1 * field ** (2 / 3) * (1 - field ** (-1 / 3) / ap1 ** 2)
            assert repulsive(field).e0 == pytest.approx(ref_rep, rel=tol)
            assert attractive(field).e0 == pytest.approx(ref_att, rel=tol)

    @pytest.mark.parametrize("field", [1e-5, 1e-2, 1.0])
    @pytest.mark.parametrize("kind", [ATTR, REP])
    def test_eigenvalue_residuals(self, field, kind):
        # F^(1/3) Ai'/Ai - 1/lam at every root-solved level, from scipy's
        # Ai and Ai' (scaled by e^zeta on xi > 0, which cancels in the ratio)
        wall = WallSpec(kind, field)
        xi = -build_spectrum(wall).exact_levels * field ** (-2.0 / 3.0)
        ai, aip = np.empty_like(xi), np.empty_like(xi)
        pos = xi > 0.0
        ai[pos], aip[pos] = sps.airye(xi[pos])[:2]
        ai[~pos], aip[~pos] = sps.airy(xi[~pos])[:2]
        worst = np.abs(field ** (1.0 / 3.0) * aip / ai - 1.0 / wall.lam).max()
        assert worst < 1e-10

    # 64-level blocks across the field domain, and 512-level ones at the
    # strong fields where a level's start on its phase is furthest from the
    # weak-field start a + lam F^(1/3)
    @pytest.mark.parametrize("field,n_exact", [
        *(pytest.param(f, 64, id=repr(f)) for f in (1e-7, 1e-3, 0.1, 1.0, 10.0)),
        *(pytest.param(f, 512, id=f"{f!r}-512") for f in (1.0, 10.0))])
    @pytest.mark.parametrize("kind", [ATTR, REP])
    def test_levels_against_scipy_brentq(self, field, n_exact, kind):
        # independent oracle: brentq on the smooth g = lam F^(1/3) Ai' - Ai
        # (scaled by e^zeta for xi >= 0, which keeps its sign), bracketed by
        # scipy's Ai zeros; level n must lie in its own bracket (a_{n+1}, a_n)
        # and the ground level in (a_1, inf)
        lam, fc = WallSpec(kind, field).lam, field ** (1.0 / 3.0)

        def g(xi):
            ai, aip = (sps.airye(xi) if xi >= 0.0 else sps.airy(xi))[:2]
            return lam * fc * aip - ai

        sp = build_spectrum(WallSpec(kind, field), count=n_exact, n_exact=n_exact)
        assert sp.n_exact == n_exact
        a = sps.ai_zeros(n_exact)[0]
        uppers = [4.0 * field ** (-2.0 / 3.0) + 4.0, *a[:-1]]
        for n in range(n_exact):
            xi = optimize.brentq(g, a[n], uppers[n], xtol=1e-300, rtol=1e-15)
            ref = -xi * field ** (2.0 / 3.0)
            assert sp.exact_levels[n] == pytest.approx(ref, rel=1e-12, abs=0)

    def test_airy_calls_per_level(self):
        # every Airy evaluation of the Robin solve, bracket checks included:
        # the points evaluated per level, and the array calls per build, the
        # bracket ends and the starts in one (seen: 5.625 points, 4.875 at
        # weak fields, and 7 calls, 4 at weak fields)
        for n_exact, field, kind in itertools.product(
                (8, 64, 512), (1e-7, 1e-5, 1e-3, 0.1, 1.0, 10.0), (ATTR, REP)):
            with reading() as work:
                sp = build_spectrum(WallSpec(kind, field), count=n_exact, n_exact=n_exact)
            per_level = work["airy_points"] / sp.n_exact
            assert per_level <= 6.0
            assert 1 <= work["airy_calls"] <= 7
            if field <= 1e-5:
                assert per_level <= 5.0
                assert work["airy_calls"] <= 4

    @pytest.mark.parametrize("field", [1e-7, 1e-5, 1e-3, 1e-2, 1.0, 1e2, 1e6])
    def test_tail_handoff(self, field):
        # the tail law follows the Ai zeros' leading power law, offset to
        # meet the last root at its exact zero: at index 63 the two differ
        # by the law's next order, ~1.2e-6 relative, at every field
        for sp in (attractive(field, count=64), repulsive(field, count=64)):
            assert sp.n_exact == 64
            last = sp.n_exact - 1
            rel = abs(sp.exact_levels[last] - sp.tail.energy(last)) / abs(sp.exact_levels[last])
            assert rel <= 2e-6

    def test_dirichlet_limit(self):
        # attractive levels approach the hard-wall ladder shifted by +F
        field = 1e-4
        sp = attractive(field, count=12)
        for n in range(1, 11):
            ref = -airy_zero(n) * field ** (2.0 / 3.0) + field
            assert sp.level(n) == pytest.approx(ref, rel=1e-3)

    def test_monotone_in_field(self):
        for f1, f2 in ((1e-4, 1e-3), (0.5, 1.0), (1.0, 10.0)):
            lv1 = attractive(f1, count=20).levels
            lv2 = attractive(f2, count=20).levels
            mask = lv1 > 0
            assert np.all(lv2[mask] > lv1[mask])

    def test_levels_strictly_increasing(self):
        # every materialized level of every wall, the hand-off to the tail
        # law included, across the field domain and the root-block sizes
        for kind, k, n_exact in itertools.product(
                WallKind, np.arange(-7.0, 6.25, 0.5), (2, 3, 8, 64, 512)):
            sp = build_spectrum(WallSpec(kind, 10.0 ** k), count=n_exact + 64,
                                n_exact=n_exact)
            assert np.all(np.diff(sp.levels) > 0.0), (kind, k, n_exact)
            if kind.is_robin:
                assert sp.n_exact == n_exact

    def test_weak_field_ground_level_is_right_or_raises(self):
        # the bound state builds at its first-order level or raises, never
        # at a wrong level; 62 of the 233 fields raise, none above 1.6e-15
        right, raising, wrong = weak_field_tally()
        assert wrong == []
        assert len(raising) == 62 and len(right) == 171
        assert max(raising) < 1.6e-15

    def test_repulsive_wall_builds_at_weak_fields(self):
        # no bound state splits off the repulsive wall, and every field of
        # the grid builds with its ground level inside (0, |a_1| F^(2/3))
        a1 = abs(airy_zero(1, AiryZeroKind.FunctionZero))
        for field in WEAK_FIELDS:
            e0 = ground_level(REP, field)
            assert 0.0 < e0 < a1 * field ** (2.0 / 3.0)

    def test_tail_below_last_root_rejected(self):
        sp = attractive(1e-3, count=8)
        low = sp.tail._replace(shift=sp.tail.shift - 1.0)
        with pytest.raises(SolverError):
            dataclasses.replace(sp, tail=low)

    def test_levels_read_only(self):
        sp = attractive(1e-3)
        with pytest.raises(ValueError):
            sp.levels[0] = 0.0

    def test_energies_materialization(self):
        # count beyond the root-solved block continues with the tail law
        sp = attractive(1e-3, count=100)
        lv = sp.levels
        assert len(lv) == 100
        assert np.all(np.diff(lv) > 0)
        assert lv[3] == attractive(1e-3, count=4).levels[3]
        assert np.array_equal(lv[:sp.n_exact], sp.exact_levels)
        assert np.array_equal(lv[sp.n_exact:], sp.tail.energy(np.arange(sp.n_exact, 100)))


class TestLevelGaps:
    def test_first_ratio_is_unity(self):
        gaps = level_gaps(attractive(1e-3), 3)
        assert gaps[0].n == 1
        assert gaps[0].ratio == 1.0

    def test_weak_field_attractive_ratio(self):
        field = 1e-6
        gaps = level_gaps(attractive(field), 5)
        ref = 1.0 + (airy_zero(1) - airy_zero(5)) * field ** (2.0 / 3.0)
        assert abs(gaps[4].ratio - ref) < 1e-5

    def test_weak_field_repulsive_ratio(self):
        gaps = level_gaps(repulsive(1e-6), 2)
        ref = (airy_zero(1) - airy_zero(3)) / (airy_zero(1) - airy_zero(2))
        assert gaps[1].ratio == pytest.approx(ref, rel=1e-3)

    def test_strong_field_neumann_ratio(self):
        # both Robin signs collapse onto the reflecting-wall ratio
        ap = lambda n: airy_zero(n, AiryZeroKind.DerivativeZero)  # noqa: E731
        ref = (ap(1) - ap(4)) / (ap(1) - ap(2))
        for kind in (ATTR, REP):
            gaps = level_gaps(build_spectrum(WallSpec(kind, 1e6), count=8), 3)
            assert gaps[2].ratio == pytest.approx(ref, rel=5e-3)

    @pytest.mark.parametrize("kind,field,n_max", [
        (ATTR, 1e-3, 100), (REP, 1.0, 3), (WallKind.DIRICHLET, 0.5, 80)])
    def test_equals_per_level_formula(self, kind, field, n_max):
        # across the hand-off from the root-solved block to the tail law
        sp = build_spectrum(WallSpec(kind, field), count=8)
        d1 = sp.level(1) - sp.e0
        ref = [spm.LevelGap(n, sp.level(n) - sp.e0, (sp.level(n) - sp.e0) / d1)
               for n in range(1, n_max + 1)]
        gaps = level_gaps(sp, n_max)
        assert gaps == ref
        assert all(type(g.delta) is float and type(g.ratio) is float for g in gaps)

    def test_deltas_positive(self):
        gaps = level_gaps(attractive(1e-4), 10)
        assert all(g.delta > 0 for g in gaps)
        ratios = [g.ratio for g in gaps]
        assert ratios == sorted(ratios)


WALL = WallSpec(ATTR, 1e-3)
SP8 = build_spectrum(WALL, count=8, n_exact=8)
FD = Statistics.FERMI_DIRAC

BAD_INDEX_CALLS = {
    "airy_zero(1.5)": lambda: airy_zero(1.5),
    "airy_zero(65.5)": lambda: airy_zero(65.5),
    "airy_zero(0)": lambda: airy_zero(0),
    "airy_zero(nan)": lambda: airy_zero(math.nan),
    "airy_zero('2')": lambda: airy_zero("2"),
    "interlacing_ok(2.5)": lambda: interlacing_ok(2.5),
    "build_spectrum(count=2.5)": lambda: build_spectrum(WALL, count=2.5),
    "build_spectrum(count=0)": lambda: build_spectrum(WALL, count=0),
    "build_spectrum(n_exact=2.5)": lambda: build_spectrum(WALL, n_exact=2.5),
    "build_spectrum(n_exact=1)": lambda: build_spectrum(WALL, n_exact=1),
    "level(1.5)": lambda: SP8.level(1.5),
    "level(-1)": lambda: SP8.level(-1),
    "level_gaps(2.5)": lambda: level_gaps(SP8, 2.5),
    "EnsembleSpec(2.5)": lambda: EnsembleSpec(FD, 2.5),
    "EnsembleSpec(inf)": lambda: EnsembleSpec(FD, math.inf),
    "asymptotic_beta_cr(N=0)": lambda: asymptotic_beta_cr(1e-3, 0),
    "SweepSpec(points=2.5)": lambda: SweepSpec(WALL, None, 0.1, 1.0, points=2.5),
}


@pytest.mark.parametrize("call", BAD_INDEX_CALLS.values(), ids=BAD_INDEX_CALLS.keys())
def test_indices_and_counts_must_be_integers(call):
    with pytest.raises(DomainError):
        call()


def test_integral_floats_are_accepted():
    assert airy_zero(2.0) == airy_zero(2)
    sp = build_spectrum(WALL, count=8.0, n_exact=8.0)
    assert sp.n_exact == 8 and np.array_equal(sp.levels, SP8.levels)
    assert sp.level(3.0) == sp.level(3)
    assert len(level_gaps(sp, 3.0)) == 3
    assert EnsembleSpec(FD, 2.0).n_particles == 2


class TestEnergies:
    def test_negative_index_rejected(self):
        # as ``level(-1)``: no wrap-around to the end of the root block
        sp = build_spectrum(WallSpec(ATTR, 1e-3))
        with pytest.raises(DomainError):
            sp.energies(np.array([-1]))
        with pytest.raises(DomainError):
            sp.energies(np.array([[3, 70], [-2, 80]]))

    @pytest.mark.parametrize("kind", list(WallKind))
    @pytest.mark.filterwarnings("error")
    def test_block_straddling_the_root_block(self, kind):
        # the law is never evaluated below its start (robin- at m = 0 would
        # take a negative power), and every level is its own source's, bit
        # for bit, in the block's shape
        sp = build_spectrum(WallSpec(kind, 1e-3))
        m = np.arange(2 * sp.n_exact).reshape(4, -1)[:, ::-1]
        e = sp.energies(m)
        assert e.shape == m.shape
        low = m < sp.n_exact
        assert np.array_equal(e[low], sp.exact_levels[m[low]])
        assert np.array_equal(e[~low], sp.tail.energy(m[~low]))


class TestValidation:
    def test_wall_kind_must_be_a_member(self):
        with pytest.raises(DomainError, match="kind must be a WallKind"):
            WallSpec("robin-", 1.0)

    def test_root_block_size_is_bounded(self):
        with pytest.raises(DomainError, match=r"n_exact must be an integer in \[2, 512\]"):
            build_spectrum(WALL, n_exact=513)
