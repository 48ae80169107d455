"""Real-argument special functions used by the spectrum and thermodynamics code.

Everything here is self-contained: Airy Ai and Ai' (plus exponentially scaled
forms for large positive argument), their negative zeros, the principal
branch of the Lambert W function on the nonnegative axis, the safeguarded
Newton solver that finds every Airy zero and Robin level, and the integer
check shared by every index and count of the package.

Evaluation scheme for Ai/Ai':

* ``|x| <= 12`` -- local Taylor expansion of the ODE ``y'' = x y`` around the
  nearest node of a precomputed table.  The table itself is generated once by
  marching the same Taylor recurrence downward from ``x = +12`` (where the
  exponential asymptotic series is converged to machine precision).  Marching
  toward negative ``x`` follows the growing solution, so relative accuracy is
  preserved; marching upward would be unstable for Ai.
* ``x > 12`` -- exponential asymptotic series, evaluated in scaled form
  ``Ai(x) e^{zeta}`` with ``zeta = (2/3) x^{3/2}`` so the bound-state root
  solve can form ratios at arguments ~1e5 without underflow.
* ``x < -12`` -- oscillatory asymptotic series.

The two asymptotic branches agree with the table to ~1e-14 at the seams.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

from .errors import DomainError, SolverError

__all__ = [
    "AiryZeroKind",
    "airy",
    "airy_scaled",
    "airy_zero",
    "lambert_w",
]

_TWO_THIRDS = 2.0 / 3.0
_SQRT_PI = math.sqrt(math.pi)

# Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
AI_ZERO_VALUE = 0.3550280538878172
AIP_ZERO_VALUE = -0.2588194037928068

_ASYM_SWITCH = 12.0  # |x| above which the asymptotic series are used
_TABLE_STEP = 0.25
_TAYLOR_TERMS = 30


def _check_index(value, minimum: int, what: str) -> int:
    """An index or count as int; DomainError unless it is an integer >= minimum."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and value == int(value) >= minimum):
        raise DomainError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


class AiryZeroKind(enum.Enum):
    """Selects zeros of Ai (FunctionZero) or of Ai' (DerivativeZero)."""

    FunctionZero = "function"
    DerivativeZero = "derivative"


# ---------------------------------------------------------------------------
# asymptotic series coefficients u_k, v_k
# ---------------------------------------------------------------------------

def _build_uv(count: int) -> tuple[np.ndarray, np.ndarray]:
    u = np.empty(count)
    v = np.empty(count)
    u[0] = v[0] = 1.0
    for k in range(count - 1):
        u[k + 1] = u[k] * (6 * k + 1) * (6 * k + 5) / (72.0 * (k + 1))
        v[k + 1] = u[k + 1] * (6 * (k + 1) + 1) / (1 - 6 * (k + 1))
    return u, v


_U_COEF, _V_COEF = _build_uv(48)


def _asymptotic_series(coefs: np.ndarray, inv_zeta: float, alternate: bool) -> float:
    """Sum coefs[k] * (-+1)^k * inv_zeta^k with optimal (smallest-term) stop."""
    total = coefs[0]
    power = 1.0
    prev = abs(coefs[0])
    for k in range(1, len(coefs)):
        power *= inv_zeta
        term = coefs[k] * power
        if alternate and k % 2:
            term = -term
        mag = abs(term)
        if mag > prev:  # divergent tail reached
            break
        total += term
        if mag < 1e-18 * abs(total):
            break
        prev = mag
    return total


def _asymptotic_pos_scaled(x: float) -> tuple[float, float]:
    """(Ai, Ai') at x >= _ASYM_SWITCH, both multiplied by e^{zeta}."""
    zeta = _TWO_THIRDS * x ** 1.5
    inv = 1.0 / zeta
    su = _asymptotic_series(_U_COEF, inv, alternate=True)
    sv = _asymptotic_series(_V_COEF, inv, alternate=True)
    root4 = x ** 0.25
    return su / (2.0 * _SQRT_PI * root4), -root4 * sv / (2.0 * _SQRT_PI)


def _asymptotic_neg(x: float) -> tuple[float, float]:
    """(Ai, Ai') at x <= -_ASYM_SWITCH via the oscillatory expansions."""
    z = -x
    zeta = _TWO_THIRDS * z ** 1.5
    inv2 = 1.0 / (zeta * zeta)
    ue = _asymptotic_series(_U_COEF[0::2], inv2, alternate=True)
    uo = _asymptotic_series(_U_COEF[1::2], inv2, alternate=True) / zeta
    ve = _asymptotic_series(_V_COEF[0::2], inv2, alternate=True)
    vo = _asymptotic_series(_V_COEF[1::2], inv2, alternate=True) / zeta
    theta = zeta - 0.25 * math.pi
    c, s = math.cos(theta), math.sin(theta)
    root4 = z ** 0.25
    ai = (c * ue + s * uo) / (_SQRT_PI * root4)
    aip = root4 * (s * ve - c * vo) / _SQRT_PI
    return ai, aip


# ---------------------------------------------------------------------------
# table on [-12, 12] via downward Taylor marching
# ---------------------------------------------------------------------------

def _taylor_advance(x0: float, f: float, fp: float, delta: float,
                    terms: int = _TAYLOR_TERMS) -> tuple[float, float]:
    """Advance (Ai, Ai') from x0 to x0+delta with the y''=xy recurrence."""
    c = [0.0] * terms
    c[0] = f
    c[1] = fp
    c[2] = 0.5 * x0 * f
    for k in range(1, terms - 2):
        c[k + 2] = (x0 * c[k] + c[k - 1]) / ((k + 1) * (k + 2))
    val = 0.0
    dval = 0.0
    for k in range(terms - 1, -1, -1):  # Horner from the top
        val = val * delta + c[k]
        if k:
            dval = dval * delta + k * c[k]
    return val, dval


class _AiryTable:
    def __init__(self) -> None:
        n_nodes = int(round(2 * _ASYM_SWITCH / _TABLE_STEP)) + 1
        xs = np.linspace(-_ASYM_SWITCH, _ASYM_SWITCH, n_nodes)
        ai = np.empty(n_nodes)
        aip = np.empty(n_nodes)
        zeta = _TWO_THIRDS * _ASYM_SWITCH ** 1.5
        scale = math.exp(-zeta)
        f, fp = _asymptotic_pos_scaled(_ASYM_SWITCH)
        f, fp = f * scale, fp * scale
        ai[-1], aip[-1] = f, fp
        for i in range(n_nodes - 2, -1, -1):
            f, fp = _taylor_advance(xs[i + 1], f, fp, -_TABLE_STEP)
            ai[i], aip[i] = f, fp
        self.xs = xs
        self.ai = ai
        self.aip = aip

    def eval(self, x: float) -> tuple[float, float]:
        idx = int(round((x + _ASYM_SWITCH) / _TABLE_STEP))
        idx = min(max(idx, 0), len(self.xs) - 1)
        x0 = self.xs[idx]
        return _taylor_advance(x0, self.ai[idx], self.aip[idx], x - x0)


_table: _AiryTable | None = None


def _get_table() -> _AiryTable:
    global _table
    if _table is None:
        _table = _AiryTable()
    return _table


# ---------------------------------------------------------------------------
# public Airy API
# ---------------------------------------------------------------------------

def airy(x: float) -> tuple[float, float]:
    """Return (Ai(x), Ai'(x)).

    Relative accuracy is ~1e-13 wherever the values do not underflow; for
    x beyond ~105 the unscaled Ai underflows to 0.0 and ``airy_scaled``
    should be used instead.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"airy: argument must be finite, got {x!r}")
    if x > _ASYM_SWITCH:
        ai_s, aip_s = _asymptotic_pos_scaled(x)
        zeta = _TWO_THIRDS * x ** 1.5
        if zeta > 700.0:
            # e^{-zeta} underflows; return the graceful limit
            return 0.0, -0.0
        scale = math.exp(-zeta)
        return ai_s * scale, aip_s * scale
    if x < -_ASYM_SWITCH:
        return _asymptotic_neg(x)
    return _get_table().eval(x)


def airy_scaled(x: float) -> tuple[float, float]:
    """Return (Ai(x)*e^{zeta}, Ai'(x)*e^{zeta}) with zeta = (2/3) x^{3/2}.

    Only defined for x >= 0, where the scaling removes the exponential decay.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"airy_scaled: argument must be finite and >= 0, got {x!r}")
    if x > _ASYM_SWITCH:
        return _asymptotic_pos_scaled(x)
    ai, aip = _get_table().eval(x)
    scale = math.exp(_TWO_THIRDS * x ** 1.5)
    return ai * scale, aip * scale


# ---------------------------------------------------------------------------
# safeguarded Newton and the zeros of Ai and Ai'
# ---------------------------------------------------------------------------

def _newton_root(fn, lo: float, hi: float, x: float, rtol: float) -> float:
    """Root of a function monotone on (lo, hi) by Newton safeguarded by the
    bracket (Numerical Recipes, 2nd ed., section 9.4, "rtsafe").  ``fn(x)``
    returns the value and the slope; the start x lies inside and neither end
    is evaluated.  Each evaluated point becomes the bracket end on its side
    of the root (the signs of value and slope tell which), and a step that
    would leave the bracket bisects it instead.  Returns x - step once
    |step| <= rtol * max(1, |x|)."""
    for _ in range(200):
        f, df = fn(x)
        if (f > 0.0) == (df > 0.0):
            hi = x
        else:
            lo = x
        step = f / df
        if not lo <= x - step <= hi:
            step = x - 0.5 * (lo + hi)
        if abs(step) <= rtol * max(1.0, abs(x)):
            return x - step
        x -= step
    raise SolverError(f"safeguarded Newton did not converge in ({lo}, {hi})")


N_EXACT_ZEROS = 64  # Newton-refined below; asymptotic law beyond


def _zero_law(n: int, kind: AiryZeroKind) -> float:
    """Large-index expansion of the n-th zero (McMahon-style)."""
    if kind is AiryZeroKind.FunctionZero:
        t = 3.0 * math.pi * (4 * n - 1) / 8.0
        ti2 = 1.0 / (t * t)
        return -(t ** _TWO_THIRDS) * (1.0 + ti2 * (5.0 / 48.0 - ti2 * 5.0 / 36.0))
    t = 3.0 * math.pi * (4 * n - 3) / 8.0
    ti2 = 1.0 / (t * t)
    return -(t ** _TWO_THIRDS) * (1.0 - ti2 * (7.0 / 48.0 - ti2 * 35.0 / 288.0))


def _refine_zero(guess: float, kind: AiryZeroKind) -> float:
    """Newton from the large-index estimate, inside +-1/4 of the local zero
    spacing pi/sqrt|x|."""
    def fn(x):
        ai, aip = airy(x)
        return (ai, aip) if kind is AiryZeroKind.FunctionZero else (aip, x * ai)  # Ai'' = x Ai

    quarter = 0.25 * math.pi / math.sqrt(abs(guess))
    x = _newton_root(fn, guess - quarter, guess + quarter, guess, 1e-15)
    resid = fn(x)[0]
    if abs(resid) > 1e-12:
        raise SolverError(
            f"airy zero refinement stalled at x={x} (residual {resid:.3e})")
    return x


_zero_cache: dict[AiryZeroKind, list[float]] = {}


def _exact_zeros(kind: AiryZeroKind) -> list[float]:
    zs = _zero_cache.get(kind)
    if zs is None:
        zs = [_refine_zero(_zero_law(n, kind), kind)
              for n in range(1, N_EXACT_ZEROS + 1)]
        _zero_cache[kind] = zs
    return zs


def airy_zero(n: int, kind: AiryZeroKind = AiryZeroKind.FunctionZero) -> float:
    """n-th negative zero a_n of Ai (or a'_n of Ai'), n >= 1 an integer.

    The first 64 are found by safeguarded Newton from the large-index
    expansion and checked to |Ai| (or |Ai'|) <= 1e-12; larger indices use
    the expansion itself, which matches the refined values to better than
    1e-8 relative at the switch.
    """
    n = _check_index(n, 1, "airy_zero index")
    if n <= N_EXACT_ZEROS:
        return _exact_zeros(kind)[n - 1]
    return _zero_law(n, kind)


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def lambert_w(x: float) -> float:
    """Principal-branch Lambert W on x >= 0: solves w e^w = x.

    Logarithmic initial guess refined by Halley iteration; the round-trip
    residual |w e^w - x| / x is below 1e-12 over the whole domain.
    """
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise DomainError(f"lambert_w: argument must be finite and >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if x < 1.0:
        w = x * (1.0 - x)  # series start, adequate basin for Halley
    else:
        lx = math.log(x)
        w = lx - math.log(lx) if lx > 1.0 else 0.5 * lx + 0.45
    for _ in range(60):
        ew = math.exp(w)
        err = w * ew - x
        denom = ew * (w + 1.0) - (w + 2.0) * err / (2.0 * w + 2.0)
        dw = err / denom
        w -= dw
        if abs(dw) <= 1e-14 * (1.0 + abs(w)):
            break
    if abs(w * math.exp(w) - x) > 1e-12 * x:
        raise SolverError(f"lambert_w failed to converge for x={x}")
    return w


def interlacing_ok(n_max: int = 50) -> bool:
    """Check a'_n > a_n > a'_{n+1} for n <= n_max (used by the selftest)."""
    for n in range(1, _check_index(n_max, 1, "n_max") + 1):
        apn = airy_zero(n, AiryZeroKind.DerivativeZero)
        an = airy_zero(n, AiryZeroKind.FunctionZero)
        apn1 = airy_zero(n + 1, AiryZeroKind.DerivativeZero)
        if not (apn > an > apn1):
            return False
    return True
