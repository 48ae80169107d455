import fractions
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from robinwall import specfun as sf
from robinwall import spectrum as spm
from robinwall._work import reading
from robinwall.canonical import find_extrema, universal_dn_curve
from robinwall.errors import DomainError, SolverError
from robinwall.grand_canonical import EnsembleSpec, Statistics, be_critical, thermo_point
from robinwall.ladder import ladder_sums
from robinwall.limits import (asymptotic_beta_cr, asymptotic_mu_cn, resonance_predictors,
                              weak_field_composite, zero_field_attractive)
from robinwall.specfun import AiryZeroKind
from robinwall.spectrum import WallKind, WallSpec, build_spectrum, level_gaps
from robinwall.sweep import SweepSpec, locate_peak

AI0 = 0.35502805388781723926
AIP0 = -0.25881940379280679840
A1 = -2.33810741045976704
A2 = -4.08794944413097061
AP1 = -1.01879297164747216
AP2 = -3.24819758217983656


def maclaurin_airy(x, terms=30):
    """Independent oracle: the two power series of y'' = x y summed term by
    term, combined with the exact values at the origin."""
    c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
    x3 = x ** 3
    f = tf = 1.0
    g = tg = x
    fp = tfp = 0.0
    gp = tgp = 1.0
    for k in range(terms):
        tf = tf * x3 / ((3 * k + 2) * (3 * k + 3))
        tg = tg * x3 / ((3 * k + 3) * (3 * k + 4))
        f += tf
        g += tg
        # derivative series: f' has terms x^{3k+2}/..., g' has x^{3k}/...
        tfp = tf / x * (3 * k + 3) if x else 0.0
        tgp = tg / x * (3 * k + 4) if x else 0.0
        fp += tfp
        gp += tgp
    ai = c1 * f - c2 * g
    aip = c1 * fp - c2 * gp
    return ai, aip


class TestAiry:
    def test_values_at_origin(self):
        ai, aip = sf.airy(0.0)
        assert ai == pytest.approx(AI0, rel=1e-14)
        assert aip == pytest.approx(AIP0, rel=1e-14)
        # closed forms recomputed from gamma
        assert ai == pytest.approx(3 ** (-2 / 3) / math.gamma(2 / 3), rel=1e-14)
        assert aip == pytest.approx(-(3 ** (-1 / 3)) / math.gamma(1 / 3), rel=1e-14)

    def test_matches_series_oracle(self):
        for x in np.linspace(-2.0, 2.0, 41):
            ai_ref, aip_ref = maclaurin_airy(float(x))
            ai, aip = sf.airy(float(x))
            assert ai == pytest.approx(ai_ref, rel=1e-12, abs=1e-14)
            assert aip == pytest.approx(aip_ref, rel=1e-12, abs=1e-14)

    def test_against_scipy_negative_axis(self):
        for x in np.linspace(-100.0, 0.0, 1001):
            ai, aip = sf.airy(float(x))
            rai, raip, _, _ = sp.airy(x)
            env = max(abs(x), 1.0) ** -0.25
            assert abs(ai - rai) <= 1e-12 * env
            assert abs(aip - raip) <= 1e-12 / env

    def test_against_scipy_positive_axis(self):
        for x in np.linspace(0.0, 12.0, 301):
            ai, aip = sf.airy(float(x))
            rai, raip, _, _ = sp.airy(x)
            assert ai == pytest.approx(rai, rel=1e-12)
            assert aip == pytest.approx(raip, rel=1e-12)

    def test_scaled_against_scipy(self):
        # the raw pair the Robin solve reads: scaled by e^zeta past x = 12
        for x in np.geomspace(1e-3, 1e5, 121):
            (s_ai,), (s_aip,) = sf._airy_pair(np.array([x]))
            e_ai, e_aip, _, _ = sp.airye(x) if x > 12.0 else sp.airy(x)
            assert s_ai == pytest.approx(e_ai, rel=1e-12)
            assert s_aip == pytest.approx(e_aip, rel=1e-12)

    def test_airy_at_first_zeros(self):
        ai, _ = sf.airy(sf.airy_zero(1, AiryZeroKind.FunctionZero))
        assert abs(ai) < 1e-9
        _, aip = sf.airy(sf.airy_zero(1, AiryZeroKind.DerivativeZero))
        assert abs(aip) < 1e-9

    def test_underflow_is_graceful(self):
        ai, aip = sf.airy(200.0)
        assert ai == 0.0 and aip == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            sf.airy(bad)

    def test_series_cut_below_double_precision(self):
        # each fixed-length series stops where its first omitted term falls
        # below 2^-53 of its largest, at the seam zeta(12) = 27.7 where its
        # terms fall slowest: the asymptotic sums in 1/zeta (leading term 1,
        # the odd rows of the oscillatory ones times 1/zeta), and each table
        # node's Taylor rows at the march's step, the largest offset used
        eps, zeta = 2.0 ** -53, (2.0 / 3.0) * 12.0 ** 1.5
        pos, neg = sf._POS_SERIES.shape[-1], sf._NEG_SERIES.shape[-1]
        u, v = sf._build_uv(max(pos, 2 * neg + 1) + 1)
        for c in (u, v):
            assert abs(c[pos]) / zeta ** pos < eps
            assert abs(c[2 * neg]) / zeta ** (2 * neg) < eps
            assert abs(c[2 * neg + 1]) / zeta ** (2 * neg + 1) < eps
        k = sf._TABLE_COEF.shape[-1]
        h = sf._TABLE_STEP ** np.arange(k + 1)
        for x0, (ai_row, aip_row) in zip(sf._TABLE_X, sf._TABLE_COEF):
            c = list(ai_row)
            for j in (k, k + 1):  # c_{j} = (x0 c_{j-2} + c_{j-3}) / ((j-1) j)
                c.append((x0 * c[j - 2] + c[j - 3]) / ((j - 1) * j))
            omitted = (abs(c[k]) * h[k], (k + 1) * abs(c[k + 1]) * h[k])
            for row, first in zip((ai_row, aip_row), omitted):
                assert first < eps * np.abs(row * h[:k]).max()

    @pytest.mark.parametrize("x", [-12.5, 11.5])
    def test_against_mpmath_at_the_seams(self, x):
        # the branches on both sides of x = -12 and x = +12 against 30-digit
        # mpmath (seen: 5.8e-15 of the envelope on the negative side, 2.1e-15
        # relative on the positive, the raw pair scaled by e^zeta past 12)
        grid = np.append(np.linspace(x, x + 1.0, 81), [np.sign(x) * 12.0 + d for d in (-1e-9, 1e-9)])
        ai, aip = sf._airy_pair(grid)
        with mpmath.workdps(30):
            for xi, a, b in zip(grid.tolist(), ai.tolist(), aip.tolist()):
                ref_a, ref_b = mpmath.airyai(xi), mpmath.airyai(xi, 1)
                if xi > 12.0:
                    scale = mpmath.exp(mpmath.mpf(2) / 3 * mpmath.mpf(xi) ** 1.5)
                    ref_a, ref_b = ref_a * scale, ref_b * scale
                if xi < 0.0:  # the oscillation's envelopes of Ai and Ai'
                    env = abs(xi) ** 0.25 / math.sqrt(math.pi)
                    assert abs(a - float(ref_a)) <= 1e-14 / env
                    assert abs(b - float(ref_b)) <= 1e-14 * env
                else:
                    assert a == pytest.approx(float(ref_a), rel=1e-14, abs=0.0)
                    assert b == pytest.approx(float(ref_b), rel=1e-14, abs=0.0)

    def test_ode_consistency(self):
        # Ai'' = x Ai via central difference of Ai'
        h = 1e-4
        for x in np.linspace(-10.0, 10.0, 81):
            _, aip_p = sf.airy(float(x) + h)
            _, aip_m = sf.airy(float(x) - h)
            ai, _ = sf.airy(float(x))
            ref = x * ai
            if abs(ref) > 1e-6:
                assert (aip_p - aip_m) / (2 * h) == pytest.approx(ref, rel=1e-6)


# crosses the +-12 seams, every table node and the midpoints between nodes
ARRAY_GRID = np.unique(np.concatenate([
    np.linspace(-200.0, 100.0, 3001),
    np.arange(-12.5, 12.6, 0.125),
    [-12.0 - 1e-9, -12.0 + 1e-9, 12.0 - 1e-9, 12.0 + 1e-9],
]))


class TestAiryArrays:
    def test_against_scipy(self):
        x = ARRAY_GRID
        ai, aip = sf.airy(x)
        rai, raip, _, _ = sp.airy(x)
        neg, pos = x < 0.0, x >= 0.0
        env = np.abs(x[neg]) ** -0.25
        assert np.all(np.abs(ai - rai)[neg] <= 2e-12 * np.maximum(env, 1.0))
        assert np.all(np.abs(aip - raip)[neg] <= 2e-12 / np.minimum(env, 1.0))
        assert np.all(np.abs(ai / rai - 1.0)[pos] <= 1e-12)
        assert np.all(np.abs(aip / raip - 1.0)[pos] <= 1e-12)
        scaled = x > 12.0  # the raw pair is scaled there
        s_ai, s_aip = sf._airy_pair(x[scaled])
        e_ai, e_aip, _, _ = sp.airye(x[scaled])
        assert np.all(np.abs(s_ai / e_ai - 1.0) <= 1e-12)
        assert np.all(np.abs(s_aip / e_aip - 1.0) <= 1e-12)

    def test_elements_equal_scalar_calls(self):
        x = ARRAY_GRID
        ai, aip = sf.airy(x)
        for xi, a, b in zip(x.tolist(), ai.tolist(), aip.tolist()):
            assert sf.airy(xi) == (a, b)
        ai, aip = sf._airy_pair(x)
        for xi, a, b in zip(x.tolist(), ai.tolist(), aip.tolist()):
            assert [v.tolist() for v in sf._airy_pair(np.array([xi]))] == [[a], [b]]

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64, 600, 1536, 4000])
    def test_batches_equal_one_point_calls(self, n):
        # _series contracts without BLAS, whose sums round a one-lane call
        # differently from a batch; a batch of each branch alone and one
        # mixing all three, the i-th point in branch i mod 3
        u = (np.arange(n) * 0.6180339887498949 + 0.5) % 1.0
        lo, span = np.array([-12.0, -60.0, 12.5]), np.array([24.0, 47.5, 47.5])
        mixed = lo[np.arange(n) % 3] + span[np.arange(n) % 3] * u
        for x in (mixed, *(lo[k] + span[k] * u for k in range(3))):
            ai, aip = sf._airy_pair(x)
            one = np.array([sf._airy_pair(x[i:i + 1]) for i in range(n)])[:, :, 0]
            assert np.array_equal(one, np.stack([ai, aip], axis=1))

    def test_peak_memory_of_a_call(self):
        # the power table contracted with the coefficients, not a stored
        # (points, rows, terms) product: 221 KB peak on numpy 2.4, 472 KB
        # with the product
        x = np.linspace(-60.0, 60.0, 1536)
        sf._airy_pair(x)
        tracemalloc.start()
        try:
            sf._airy_pair(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 320_000, peak

    def test_shapes_and_types(self):
        for zero_d in (0.5, np.float64(0.5), np.array(0.5)):
            ai, aip = sf.airy(zero_d)
            assert type(ai) is float and type(aip) is float
        ai, aip = sf.airy(np.linspace(-20.0, 20.0, 6).reshape(2, 3))
        assert ai.shape == aip.shape == (2, 3)
        assert ai[1, 2] == sf.airy(20.0)[0]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_one_bad_element_rejected(self, bad):
        with pytest.raises(DomainError):
            sf.airy(np.array([0.5, bad, 2.0]))


def _cos_step(x, lanes):
    """cos with its slope, no f'' (Newton's steps) and the Newton point as
    payload."""
    return np.cos(x), -np.sin(x), np.zeros_like(x), x + np.cos(x) / np.sin(x)


def _step_below(rtol):
    return lambda f, df, x: np.abs(f / df) <= rtol * np.maximum(1.0, np.abs(x))


class TestNewtonRoot:
    # one root of cos per bracket (k pi, (k+1) pi), lanes converging at
    # different passes
    K = np.arange(9.0)
    LO, HI, START = K * np.pi, (K + 1) * np.pi, K * np.pi + 0.1 * K + 0.3

    def test_lanes_equal_single_solves(self):
        roots, _, met = sf._newton_root(_cos_step, self.LO, self.HI, self.START,
                                        _step_below(1e-15))
        assert met.all()
        for i, r in enumerate(roots):
            one, _, one_met = sf._newton_root(_cos_step, self.LO[i], self.HI[i],
                                              self.START[i], _step_below(1e-15))
            assert one.tolist() == [r] and one_met.tolist() == [True]
        assert np.allclose(roots, (self.K + 0.5) * np.pi, rtol=1e-15, atol=0)

    def test_halley_steps_from_the_second_derivative(self):
        # f'' = 0 takes Newton's steps: 5 passes over 9, 9, 9, 9 and 8 lanes,
        # as the Newton-only solver did; with cos's own f'' = -cos the last
        # pass has 6 lanes.  Each lane returns its last step's point x - f/s
        def passes(curvature):
            seen = []

            def fn(x, lanes):
                seen.append(lanes.size)
                return np.cos(x), -np.sin(x), -curvature * np.cos(x), x

            _, roots, met = sf._newton_root(fn, self.LO, self.HI, self.START,
                                            _step_below(1e-15))
            assert met.all()
            assert np.allclose(roots, (self.K + 0.5) * np.pi, rtol=1e-15, atol=0)
            return seen

        assert passes(0.0) == [9, 9, 9, 9, 8]
        halley = passes(1.0)
        assert len(halley) <= 5 and sum(halley) < 44

    def test_nan_lane_leaves_after_one_pass(self):
        seen = []

        def fn(x, lanes):
            seen.append(lanes.tolist())
            f, df, ddf, pay = _cos_step(x, lanes)
            return np.where(lanes == 4, np.nan, f), df, ddf, pay

        roots, _, met = sf._newton_root(fn, self.LO, self.HI, self.START, _step_below(1e-15))
        clean, _, _ = sf._newton_root(_cos_step, self.LO, self.HI, self.START,
                                      _step_below(1e-15))
        assert 4 in seen[0] and all(4 not in lanes for lanes in seen[1:])
        assert met.tolist() == [i != 4 for i in range(9)]
        keep = np.arange(9) != 4
        assert roots[keep].tolist() == clean[keep].tolist()

    def test_handed_starts_equal_evaluated_ones(self, monkeypatch):
        # fn's output at the starts handed in as ``first`` gives the roots,
        # payloads and met flags of the solve that evaluates the starts
        # itself, bit for bit, with one fn call fewer: 64 brackets of cos,
        # and the 512-level robin- solve at F = 1e-3 as build_spectrum sets
        # it up
        k = np.arange(64.0)
        lo = k * np.pi
        solves = [(_cos_step, lo, lo + np.pi, lo + np.pi * (0.05 + 0.9 * (k % 9) / 8),
                   _step_below(1e-15))]

        def polished_roots(fn, lo, hi, x, rtol, first=None):
            solves.append((lambda x, lanes: (*fn(x), x), lo, hi, x, _step_below(rtol)))
            return polished(fn, lo, hi, x, rtol, first)

        polished = spm._polished_roots
        monkeypatch.setattr(spm, "_polished_roots", polished_roots)
        build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3), count=512, n_exact=512)
        assert len(solves) == 2 and solves[1][1].size == 512
        for fn, lo, hi, x, done in solves:
            calls = []

            def counted(x, lanes):
                calls.append(lanes.size)
                return fn(x, lanes)

            evaluated = sf._newton_root(counted, lo, hi, x, done)
            passes = len(calls)
            handed = sf._newton_root(counted, lo, hi, x, done, fn(x, np.arange(x.size)))
            assert len(calls) == 2 * passes - 1
            for a, b in zip(evaluated, handed):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert evaluated[2].all()

    def test_open_bracket_named(self):
        # done never holds: lane 1, with no root in (3, 5), leaves unmet once
        # its bracket collapses on 3; lane 0 bisects toward its root at 0 and
        # is still open after 200 passes, so its final bracket is named
        with pytest.raises(SolverError, match=re.escape(f"in (0.0, {2.0 ** -198!r})")):
            sf._newton_root(lambda x, lanes: (x, np.ones_like(x), np.zeros_like(x), x),
                            [-2.0, 3.0], [2.0, 5.0], [1.0, 4.0],
                            lambda f, df, x: np.zeros(f.shape, dtype=bool))


    def test_stalled_lane_named(self):
        # lane 1 has no root in (2, 3): its bracket collapses on 2 before
        # the step test holds
        with pytest.raises(SolverError, match="stalled short of its test in lane 1"):
            sf._polished_roots(lambda x: (x - 0.5, np.ones_like(x), np.zeros_like(x)),
                               [0.0, 2.0], [1.0, 3.0], [0.2, 2.7], 1e-15)


class TestAiryZeros:
    def test_first_zeros(self):
        assert sf.airy_zero(1) == pytest.approx(A1, rel=1e-12)
        assert sf.airy_zero(2) == pytest.approx(A2, rel=1e-12)
        assert sf.airy_zero(1, AiryZeroKind.DerivativeZero) == pytest.approx(AP1, rel=1e-12)
        assert sf.airy_zero(2, AiryZeroKind.DerivativeZero) == pytest.approx(AP2, rel=1e-12)

    def test_four_digit_values(self):
        assert sf.airy_zero(1) == pytest.approx(-2.3381, abs=5e-5)
        assert sf.airy_zero(1, AiryZeroKind.DerivativeZero) == pytest.approx(-1.0188, abs=5e-5)
        assert sf.airy_zero(1) - sf.airy_zero(2) == pytest.approx(1.7498, abs=1e-4)
        ap = AiryZeroKind.DerivativeZero
        assert sf.airy_zero(1, ap) - sf.airy_zero(2, ap) == pytest.approx(2.2294, abs=1e-4)

    def test_against_scipy(self):
        a_ref, ap_ref, _, _ = sp.ai_zeros(100)
        for n in list(range(1, 65)) + [70, 100]:
            assert sf.airy_zero(n) == pytest.approx(a_ref[n - 1], rel=5e-12)
            assert sf.airy_zero(n, AiryZeroKind.DerivativeZero) == pytest.approx(
                ap_ref[n - 1], rel=5e-12)

    def test_law_handoff_at_switch(self):
        for kind in AiryZeroKind:
            exact = sf.airy_zero(sf.N_EXACT_ZEROS, kind)
            law = sf._zero_law(sf.N_EXACT_ZEROS, kind)
            assert abs(law - exact) / abs(exact) <= 1e-8

    @pytest.mark.parametrize("kind", list(AiryZeroKind), ids=lambda k: k.value)
    def test_one_zero_as_the_table_gives_it(self, kind):
        # one path for the zero law: airy_zero(n) is its element of
        # _airy_zeros bit for bit (a scalar law differed in the last bit at
        # 1,123 of the first 20,000 Ai zeros and 1,146 of the Ai' zeros)
        table = sf._airy_zeros(20_000, kind)
        one = np.array([sf.airy_zero(n, kind) for n in range(1, 20_001)])
        assert one.tobytes() == table.tobytes()

    def test_interlacing(self):
        assert sf.interlacing_ok(50)

    def test_zero_index_rejected(self):
        with pytest.raises(DomainError):
            sf.airy_zero(0)

    @pytest.mark.parametrize("n", [3, 100])
    @pytest.mark.parametrize("kind", ["function", "derivative", 0, None])
    def test_kind_that_is_not_a_member_rejected(self, n, kind):
        # an AiryZeroKind only: airy_zero(100, "function") gave the Ai' zero
        # -60.2533 (the Ai zero is -60.4556), and airy_zero(3, "function")
        # raised KeyError
        with pytest.raises(DomainError, match="AiryZeroKind"):
            sf.airy_zero(n, kind)


class TestLambertW:
    def test_fixed_points(self):
        assert sf.lambert_w(0.0) == 0.0
        assert sf.lambert_w(math.e) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_round_trip_identity(self, t):
        assert sf.lambert_w(t * math.exp(t)) == pytest.approx(t, rel=1e-13)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=80, deadline=None)
    def test_residual_property(self, log10x):
        x = 10.0 ** log10x
        w = sf.lambert_w(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * x

    def test_against_scipy(self):
        for x in np.geomspace(1e-6, 1e6, 25):
            assert sf.lambert_w(float(x)) == pytest.approx(
                float(sp.lambertw(x).real), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            sf.lambert_w(-0.1)


@pytest.fixture(scope="module")
def real_arguments():
    """(what, call, good) for every real argument of the package: ``call(x)``
    passes x as that argument, whose DomainError names it ``what``, and
    ``good`` is a value it takes."""
    wall = WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3)
    spectrum = build_spectrum(wall)
    canonical, fd = EnsembleSpec(Statistics.CANONICAL, 1), EnsembleSpec(Statistics.FERMI_DIRAC, 2)

    def sweep(**bound):
        return SweepSpec(wall, canonical, **{"beta_inv_min": 0.1, "beta_inv_max": 1.0, **bound},
                         points=5)

    def never(beta, rows):
        raise AssertionError("find_extrema evaluated a grid it should have refused")

    def scan(x):  # a grid of three or more points ending in the elements of x
        return [1.0, 2.0, *np.ravel(x)], [0.0] * (2 + np.size(x)), [0.0] * (2 + np.size(x))

    return [
        ("airy: argument", sf.airy, 1.0),
        ("lambert_w: argument", sf.lambert_w, 3.0),
        ("beta", lambda x: thermo_point(spectrum, x), 2.0),
        ("beta", lambda x: ladder_sums(spectrum, x, Statistics.FERMI_DIRAC), 2.0),
        ("gamma", lambda x: ladder_sums(spectrum, 1.0, Statistics.FERMI_DIRAC, gamma=x), -1.0),
        ("field", lambda x: WallSpec(WallKind.ROBIN_ATTRACTIVE, x), 1.0),
        ("field", resonance_predictors, 1e-3),
        ("field", lambda x: asymptotic_beta_cr(x, 10), 1e-3),
        ("beta_inv_min", lambda x: sweep(beta_inv_min=x), 0.5),
        ("beta_inv_max", lambda x: sweep(beta_inv_max=x), 2.0),
        ("t_centers", lambda x: locate_peak(spectrum, [canonical] * np.size(x), list(np.ravel(x))),
         0.5),
        ("beta_grid", lambda x: find_extrema(*scan(x), never), 4.0),
        ("y", lambda x: universal_dn_curve(x, WallKind.NEUMANN), 1.0),
        ("beta", zero_field_attractive, 2.0),
        ("beta", lambda x: weak_field_composite(x, 1e-3), 2.0),
        ("beta", lambda x: asymptotic_mu_cn(x, 1e-3, fd), 2.0),
    ]


class TestRealArguments:
    @pytest.mark.parametrize("bad", [True, False, "3", "1", np.bool_(True),
                                     np.array([True, False]), np.array(["1.0"])],
                             ids=["True", "False", "text-3", "text-1", "numpy-bool",
                                  "bool-array", "text-array"])
    def test_bools_and_text_rejected(self, bad, real_arguments):
        # one check, specfun._check_real, for every real argument: lambert_w(True)
        # gave W(1), airy("1") Ai(1), gamma "3" and True summed at 3 and 1,
        # t_centers [True] scanned about T = 1, and a beta_grid of text passed
        for what, call, _ in real_arguments:
            with pytest.raises(DomainError, match=re.escape(what) + ".* not a bool or text"):
                call(bad)

    def test_numpy_numbers_accepted(self, real_arguments):
        # numpy numbers are numbers: each gives the result of its float, and an
        # integer one that of its int
        for what, call, good in real_arguments:
            assert call(np.float64(good)) == call(good), what
            if good == int(good):
                assert call(np.int64(good)) == call(int(good)) == call(good), what
        # float32(1e-3) is not 1e-3, so float32 is checked at a value it holds
        assert sf.airy(np.float32(1.0)) == sf.airy(1.0) == sf.airy(1)
        ai, aip = sf.airy(np.array([1, 2], dtype=np.int32))
        assert ai.tolist() == [sf.airy(1.0)[0], sf.airy(2.0)[0]]
        assert aip.tolist() == [sf.airy(1.0)[1], sf.airy(2.0)[1]]

    def test_numbers_numpy_keeps_as_objects_accepted(self, real_arguments):
        # a Fraction and an int past int64 are real numbers, which numpy keeps
        # as objects: each gives the result of its float
        for what, call, good in real_arguments:
            assert call(fractions.Fraction(good)) == call(good), what
        assert sf.lambert_w(10 ** 20) == sf.lambert_w(1e20)
        assert sf._check_real([np.array(2.0), 1], "beta", ndim=1).tolist() == [2.0, 1.0]
        assert WallSpec(WallKind.NEUMANN, 10 ** 20).field == 1e20
        with pytest.raises(DomainError, match="field must be a finite real number > 0"):
            WallSpec(WallKind.NEUMANN, 10 ** 400)  # past the float range

    def test_array_for_a_scalar_argument_names_its_shape(self):
        for call in (sf.lambert_w, lambda x: universal_dn_curve(x, WallKind.NEUMANN),
                     zero_field_attractive, lambda x: weak_field_composite(x, 1e-3)):
            with pytest.raises(DomainError, match=r"expected a scalar .*, got shape \(2,\)"):
                call(np.array([1.0, 2.0]))
        spectrum = build_spectrum(WallSpec(WallKind.NEUMANN, 1.0))
        with pytest.raises(DomainError, match=r"non-empty, at most 1-D beta, got shape \(0,\)"):
            ladder_sums(spectrum, [], Statistics.CANONICAL)

    def test_inputs_let_through_before_are_rejected(self):
        # each was taken, or raised another error (a hang for the infinite grid)
        spectrum = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
        canonical = [EnsembleSpec(Statistics.CANONICAL, 1)]
        for call in (lambda: ladder_sums(spectrum, 1.0, Statistics.FERMI_DIRAC, gamma="3"),
                     lambda: ladder_sums(spectrum, 1.0, Statistics.FERMI_DIRAC, gamma=True),
                     lambda: locate_peak(spectrum, canonical, [True]),
                     lambda: locate_peak(spectrum, canonical, ["1"]),
                     lambda: locate_peak(spectrum, canonical * 2, [0.3, True]),
                     lambda: thermo_point(spectrum, [np.array(True), 1.0]),
                     # a scan end past the float range: an infinite or NaN Bose
                     # beta reached the plan (1e-309), or math.log(0) (1e308)
                     lambda: locate_peak(spectrum, [EnsembleSpec(Statistics.BOSE_EINSTEIN, 10)],
                                         [1e-309]),
                     lambda: locate_peak(spectrum, [EnsembleSpec(Statistics.BOSE_EINSTEIN, 10)],
                                         [1e308]),
                     lambda: zero_field_attractive(np.array([1.0, 2.0])),
                     lambda: weak_field_composite(np.array([1.0, 2.0]), 1e-3),
                     lambda: asymptotic_mu_cn(np.array([1.0, 2.0]), 1e-3,
                                              EnsembleSpec(Statistics.FERMI_DIRAC, 2))):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("call, message", [
        (lambda s: build_spectrum("robin-"), "wall must be a WallSpec, got 'robin-'"),
        (lambda s: AiryZeroKind("bogus"), "unknown Airy zero kind 'bogus'"),
        (lambda s: WallKind("robin"), "unknown wall 'robin'"),
        (lambda s: Statistics("bose"), "unknown ensemble 'bose'"),
        (lambda s: thermo_point(s, 1.0, Statistics.FERMI_DIRAC),
         "ensemble must be an EnsembleSpec, got <Statistics.FERMI_DIRAC"),
        (lambda s: locate_peak(s, ["canonical"], [0.25]),
         "ensemble must be an EnsembleSpec, got 'canonical'"),
        (lambda s: build_spectrum(s.wall, n_exact=513),
         re.escape("n_exact must be an integer in [2, 512], got 513")),
        (lambda s: EnsembleSpec(Statistics.FERMI_DIRAC, 2 ** 63),
         re.escape(f"n_particles must be an integer in [1, {2 ** 63 - 1}]")),
        (lambda s: ladder_sums(s, 1.0, Statistics.FERMI_DIRAC, start_index=s.n_exact),
         re.escape("start_index must be an integer in [0, 63], got 64")),
        (lambda s: SweepSpec(s.wall, EnsembleSpec(Statistics.CANONICAL, 1), 0.1, 1.0, 5,
                             log_grid="no"), "log_grid must be a bool, got 'no'"),
        (lambda s: SweepSpec("robin-", EnsembleSpec(Statistics.CANONICAL, 1), 0.1, 1.0, 5),
         "wall must be a WallSpec"),
        (lambda s: ladder_sums("x", 1.0, Statistics.CANONICAL),
         "spectrum must be a Spectrum, got 'x'"),
        (lambda s: thermo_point("x", 1.0), "spectrum must be a Spectrum, got 'x'"),
        (lambda s: be_critical("x", 10), "spectrum must be a Spectrum, got 'x'"),
        (lambda s: level_gaps("x", 3), "spectrum must be a Spectrum, got 'x'"),
        (lambda s: locate_peak(s, EnsembleSpec(Statistics.CANONICAL, 1), [0.25]),
         "ensembles must be a Sequence, got EnsembleSpec"),
        (lambda s: asymptotic_mu_cn(1.0, 1e-3, "fd"), "ensemble must be an EnsembleSpec, got 'fd'"),
    ], ids=["spectrum-wall", "airy-zero-kind", "wall-name", "ensemble-name",
            "thermo-point-statistics", "locate-peak-name", "n-exact", "n-particles",
            "start-index", "log-grid", "sweep-wall", "ladder-spectrum", "thermo-point-spectrum",
            "be-critical-spectrum", "level-gaps-spectrum", "locate-peak-one-ensemble",
            "mu-cn-ensemble"])
    def test_other_kinds_rejected_before_any_work(self, call, message):
        # each count, index and N passes specfun._check_index, each type and
        # flag _check_member, and each name the one enum base; of these
        # build_spectrum("robin-") and the two ensembles that are no
        # EnsembleSpec raised AttributeError or a message on the ensembles'
        # statistics, AiryZeroKind("bogus") a ValueError, and a sweep took
        # the wall "robin-"; a spectrum given as text raised AttributeError,
        # one ensemble not in a list TypeError, and an ensemble name handed
        # to asymptotic_mu_cn AttributeError
        spectrum = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
        with reading() as work:
            with pytest.raises(DomainError, match=message):
                call(spectrum)
        assert not work, work

    @pytest.mark.parametrize("grid", [[1.0, 2.0, np.inf], [1.0, 2.0, 0.0], ["1", "2", "3"],
                                      [1.0, 2.0, True]], ids=["inf", "zero", "text", "bool"])
    def test_bad_beta_grid_rejected_before_any_evaluation(self, grid):
        def never(beta, rows):
            raise AssertionError("find_extrema evaluated a grid it should have refused")

        with pytest.raises(DomainError, match="beta_grid"):
            find_extrema(grid, [1.0, 2.0, 1.0], [1.0, -1.0, 1.0], never)

    def test_lambert_w_takes_a_scalar(self):
        with pytest.raises(DomainError, match="finite real number"):
            sf.lambert_w(np.array([3.0]))

    def test_against_mpmath_over_the_float_range(self, monkeypatch):
        # W to 2.5e-16 relative from 1e-300 to 1.7e308, where w e^w would
        # overflow above its root, and at subnormal x, with no RuntimeWarning;
        # every solve starts strictly inside (0, log1p(x)), except at 5e-324,
        # where no float lies strictly inside
        starts = []

        def polished_roots(fn, lo, hi, x, rtol):
            starts.append((lo, x, hi))
            return polished(fn, lo, hi, x, rtol)

        polished = sf._polished_roots
        monkeypatch.setattr(sf, "_polished_roots", polished_roots)
        xs = np.geomspace(1e-300, 1.7e308, 400).tolist() + [5e-324, 1e-310]
        with warnings.catch_warnings(), mpmath.workdps(30):
            warnings.simplefilter("error", RuntimeWarning)
            for x in xs:
                w, ref = sf.lambert_w(x), mpmath.lambertw(mpmath.mpf(x))
                assert abs((w - ref) / ref) <= 2.5e-16, x
        assert len(starts) == len(xs)
        for (lo, start, hi), x in zip(starts, xs):
            assert lo < start < hi or x == 5e-324 and lo <= start <= hi


class TestBoseFunctions:
    def test_against_mpmath_polylog(self):
        # g_{3/2} and g_{1/2} at fugacity e^{-alpha}, on both sides of the
        # alpha = 1 switch from Robinson's expansion to the power series
        alpha = np.concatenate([np.geomspace(1e-10, 50.0, 200), [1.0 - 1e-12, 1.0]])
        g32, g12 = sf._bose_g(alpha)
        with mpmath.workdps(30):
            for a, x, y in zip(alpha.tolist(), g32.tolist(), g12.tolist()):
                z = mpmath.exp(-mpmath.mpf(a))
                assert x == pytest.approx(float(mpmath.polylog(1.5, z)), rel=1e-8)
                assert y == pytest.approx(float(mpmath.polylog(0.5, z)), rel=1e-8)

    def test_shape_and_deep_tail(self):
        g32, g12 = sf._bose_g(np.array([[0.5, 2.0], [800.0, 1e-3]]))
        assert g32.shape == g12.shape == (2, 2)
        assert g32[1, 0] == g12[1, 0] == 0.0  # e^-800 underflows quietly


def reference_tables():
    """The import-time builds as they were made before: the Taylor march
    taking a fresh power row of its step at every node, and one solve per
    kind of zero."""
    xs, coef = sf._TABLE_X, np.empty_like(sf._TABLE_COEF)
    f, fp = (v[0] * math.exp(-sf._TWO_THIRDS * sf._ASYM_SWITCH ** 1.5)
             for v in sf._asymptotic_pos_scaled(np.array([sf._ASYM_SWITCH])))
    for i in range(len(xs) - 1, -1, -1):
        coef[i] = sf._taylor_coefs(xs[i], f, fp)
        f, fp = sf._series(coef[i], np.array([-sf._TABLE_STEP]))[0]
    zeros = {}
    for kind in AiryZeroKind:
        def fn(x, kind=kind):
            ai, aip = sf._airy_pair(x)
            if kind is AiryZeroKind.FunctionZero:
                return ai, aip, x * ai
            return aip, x * ai, ai + x * aip

        guess = sf._zero_law(np.arange(1, sf.N_EXACT_ZEROS + 1), kind)
        quarter = 0.25 * math.pi / np.sqrt(np.abs(guess))
        zeros[kind] = sf._polished_roots(fn, guess - quarter, guess + quarter, guess, 1e-15)
    return coef, zeros


class TestImportBuilds:
    def test_tables_equal_their_reference_build(self):
        # the march with one power row of its step, and both kinds of zero in
        # one lockstep solve, give the tables of the builds they replace, bit
        # for bit: a lane's Halley path and its Airy values are its own
        coef, zeros = reference_tables()
        assert sf._TABLE_COEF.tobytes() == coef.tobytes()
        assert set(sf._ZEROS) == set(AiryZeroKind)
        for kind, zs in zeros.items():
            assert sf._ZEROS[kind].dtype == zs.dtype and sf._ZEROS[kind].tobytes() == zs.tobytes()
            assert not sf._ZEROS[kind].flags.writeable
