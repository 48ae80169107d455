import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from robinwall import specfun as sf
from robinwall.errors import DomainError, SolverError
from robinwall.specfun import AiryZeroKind

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


class TestRealArguments:
    @pytest.mark.parametrize("bad", [True, False, "3", "1", np.bool_(True),
                                     np.array([True, False]), np.array(["1.0"])],
                             ids=["True", "False", "text-3", "text-1", "numpy-bool",
                                  "bool-array", "text-array"])
    def test_bools_and_text_rejected(self, bad):
        # lambert_w(True) gave W(1), lambert_w("3") 1.0499, and airy("1") and
        # airy(True) Ai(1) and Ai'(1); beta's check took "3" as 3
        for fn in (sf.airy, sf._check_beta):
            with pytest.raises(DomainError, match="not a bool or text"):
                fn(bad)
        with pytest.raises(DomainError, match="finite real number"):
            sf.lambert_w(bad)

    def test_numpy_numbers_accepted(self):
        assert sf.lambert_w(np.float64(3.0)) == sf.lambert_w(np.int64(3)) == sf.lambert_w(3.0)
        assert sf.airy(np.float32(1.0)) == sf.airy(1.0) == sf.airy(1)
        ai, aip = sf.airy(np.array([1, 2], dtype=np.int32))
        assert ai.tolist() == [sf.airy(1.0)[0], sf.airy(2.0)[0]]
        assert aip.tolist() == [sf.airy(1.0)[1], sf.airy(2.0)[1]]

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
