"""Real-argument special functions used by the spectrum and thermodynamics code.

Everything here is self-contained: Airy Ai and Ai' (plus exponentially scaled
forms for large positive argument), their negative zeros, the principal
branch of the Lambert W function on the nonnegative axis, the Bose
functions g_{3/2} and g_{1/2}, the safeguarded Newton solver of every root
of the package (Airy zeros, Robin levels, the chemical potential and the
condensation temperature), and the checks shared by every index and count
and every inverse temperature of the package.

``airy`` and ``airy_scaled`` take float arrays (a scalar gives floats, as a
one-element batch of the same code) and route each element to its branch;
each element is summed in a fixed order, so it equals its scalar call bit for
bit.

* ``|x| <= 12`` -- local Taylor expansion of the ODE ``y'' = x y``: one gather
  from a table of the 30 Taylor coefficients of (Ai, Ai') at every node,
  summed as powers of the offset from the node.  The table is built at import
  by marching the same Taylor expansion downward from ``x = +12`` (where the
  exponential asymptotic series is converged to machine precision).  Marching
  toward negative ``x`` follows the growing solution, so relative accuracy is
  preserved; marching upward would be unstable for Ai.
* ``x > 12`` -- exponential asymptotic series (48 terms in 1/zeta), evaluated
  in scaled form ``Ai(x) e^{zeta}`` with ``zeta = (2/3) x^{3/2}`` so the
  bound-state root solve can form ratios at arguments ~1e5 without underflow.
* ``x < -12`` -- oscillatory asymptotic series (ue, uo, ve, vo: 24 terms in
  zeta^-2 each).

The series have fixed length: for ``|x| >= 12``, ``zeta >= 27.7`` and the
ratio of consecutive terms is about k/(2 zeta) < 1 for every k < 48, so all
terms decrease and the dropped tail is below 1e-24.  Every branch is one
power sum (``_series``): the (lanes x terms) powers times a (sums x terms)
coefficient matrix, shared by all lanes or gathered per lane, summed along
each lane's row.  The branches agree to ~1e-14 at the seams.  The first 64
zeros of Ai and of Ai' are refined at import too.
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

_ASYM_SWITCH = 12.0  # |x| above which the asymptotic series are used
_TABLE_STEP = 0.25
_TAYLOR_TERMS = 30


def _check_index(value, minimum: int, what: str) -> int:
    """An index or count as int; DomainError unless it is an integer >= minimum."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and value == int(value) >= minimum):
        raise DomainError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_beta(beta: float | np.ndarray) -> float | np.ndarray:
    """beta as a float, or a float array for a batch; DomainError unless
    each is finite and > 0."""
    b = np.asarray(beta, dtype=float)
    if not (b.size and (np.isfinite(b) & (b > 0.0)).all()):
        raise DomainError(f"beta must be finite and > 0, got {beta!r}")
    return float(b) if b.ndim == 0 else b


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
_SIGNS = (-1.0) ** np.arange(48)
# rows: the alternating series of u and v in 1/zeta, and ue, uo, ve, vo in zeta^-2
_POS_SERIES = np.stack([_SIGNS * _U_COEF, _SIGNS * _V_COEF])
_NEG_SERIES = np.stack([_SIGNS[:24] * c for c in
                        (_U_COEF[0::2], _U_COEF[1::2], _V_COEF[0::2], _V_COEF[1::2])])


def _series(coef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k coef[j, k] w^k for every lane and row j, as (lanes, rows):
    ``coef`` is one (rows, terms) matrix for all lanes or one per lane,
    (lanes, rows, terms)."""
    powers = np.empty((len(w), coef.shape[-1]))
    powers[:, 0] = 1.0
    powers[:, 1:] = w[:, None]
    np.cumprod(powers, axis=1, out=powers)
    return (powers[:, None, :] * coef).sum(axis=-1)


def _asymptotic_pos_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') at x >= _ASYM_SWITCH, both multiplied by e^{zeta}."""
    zeta = _TWO_THIRDS * x ** 1.5
    su, sv = _series(_POS_SERIES, 1.0 / zeta).T
    root4 = x ** 0.25
    return su / (2.0 * _SQRT_PI * root4), -root4 * sv / (2.0 * _SQRT_PI)


def _asymptotic_neg(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') at x <= -_ASYM_SWITCH via the oscillatory expansions."""
    z = -x
    zeta = _TWO_THIRDS * z ** 1.5
    ue, uo, ve, vo = _series(_NEG_SERIES, 1.0 / (zeta * zeta)).T
    theta = zeta - 0.25 * math.pi
    c, s = np.cos(theta), np.sin(theta)
    root4 = z ** 0.25
    ai = (c * ue + s * (uo / zeta)) / (_SQRT_PI * root4)
    aip = root4 * (s * ve - c * (vo / zeta)) / _SQRT_PI
    return ai, aip


# ---------------------------------------------------------------------------
# table on [-12, 12] via downward Taylor marching
# ---------------------------------------------------------------------------

def _taylor_coefs(x0: float, f: float, fp: float) -> np.ndarray:
    """Taylor coefficients at x0 of the y''=xy solution through (f, fp), as
    rows [c_k of y] and [c_{k+1} (k+1) of y'] for k < _TAYLOR_TERMS."""
    c = [0.0] * (_TAYLOR_TERMS + 1)
    c[0] = f
    c[1] = fp
    c[2] = 0.5 * x0 * f
    for k in range(1, _TAYLOR_TERMS - 2):
        c[k + 2] = (x0 * c[k] + c[k - 1]) / ((k + 1) * (k + 2))
    return np.array([c[:-1], [(k + 1) * c[k + 1] for k in range(_TAYLOR_TERMS)]])


def _build_table() -> tuple[np.ndarray, np.ndarray]:
    """The table's nodes and their (nodes, 2, terms) Taylor coefficients,
    marched down from x = +12 by one step of each node's own expansion."""
    xs = np.linspace(-_ASYM_SWITCH, _ASYM_SWITCH, int(round(2 * _ASYM_SWITCH / _TABLE_STEP)) + 1)
    coef = np.empty((len(xs), 2, _TAYLOR_TERMS))
    f, fp = (v[0] * math.exp(-_TWO_THIRDS * _ASYM_SWITCH ** 1.5)
             for v in _asymptotic_pos_scaled(np.array([_ASYM_SWITCH])))
    for i in range(len(xs) - 1, -1, -1):
        coef[i] = _taylor_coefs(xs[i], f, fp)
        f, fp = _series(coef[i], np.array([-_TABLE_STEP]))[0]
    return xs, coef


_TABLE_X, _TABLE_COEF = _build_table()


def _taylor(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') at |x| <= _ASYM_SWITCH from the nearest table node."""
    idx = np.rint((x + _ASYM_SWITCH) / _TABLE_STEP).astype(int)
    return tuple(_series(_TABLE_COEF[idx], x - _TABLE_X[idx]).T)


# ---------------------------------------------------------------------------
# public Airy API
# ---------------------------------------------------------------------------

def _airy_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') at every element of the finite 1-D array x, both multiplied
    by e^{zeta} where x > _ASYM_SWITCH: each branch's own output, before any
    rescaling."""
    ai, aip = np.empty_like(x), np.empty_like(x)
    pos, neg = x > _ASYM_SWITCH, x < -_ASYM_SWITCH
    for mask, branch in ((~(pos | neg), _taylor), (neg, _asymptotic_neg),
                         (pos, _asymptotic_pos_scaled)):
        if mask.any():
            ai[mask], aip[mask] = branch(x[mask])
    return ai, aip


def _airy_lanes(x, scaled: bool):
    """(Ai, Ai') of every element of x, multiplied by e^{zeta} if scaled, in
    x's shape (floats for a scalar)."""
    arr = np.asarray(x, dtype=float)
    lanes = arr.ravel()
    bad = ~np.isfinite(lanes) | (scaled & (lanes < 0.0))
    if bad.any():
        raise DomainError(("airy_scaled: argument must be finite and >= 0" if scaled else
                           "airy: argument must be finite") + f", got {float(lanes[bad][0])!r}")
    ai, aip = _airy_pair(lanes)
    rescale = (lanes > _ASYM_SWITCH) != scaled  # the branches whose scaling differs
    if rescale.any():
        zeta = _TWO_THIRDS * lanes[rescale] ** 1.5
        # past zeta = 700, e^{-zeta} underflows: the graceful limit (0.0, -0.0)
        scale = np.exp(zeta) if scaled else np.where(zeta > 700.0, 0.0, np.exp(-zeta))
        ai[rescale] *= scale
        aip[rescale] *= scale
    if arr.ndim == 0:
        return float(ai[0]), float(aip[0])
    return ai.reshape(arr.shape), aip.reshape(arr.shape)


def airy(x):
    """Return (Ai(x), Ai'(x)) for a float or an array of floats.

    Arrays come out in x's shape, a scalar gives floats; every element equals
    its scalar call bit for bit.  Relative accuracy is ~1e-13 wherever the
    values do not underflow; for x beyond ~105 the unscaled Ai underflows to
    0.0 and ``airy_scaled`` should be used instead.  DomainError if any
    element is not finite.
    """
    return _airy_lanes(x, scaled=False)


def airy_scaled(x):
    """Return (Ai(x)*e^{zeta}, Ai'(x)*e^{zeta}) with zeta = (2/3) x^{3/2}.

    Only defined for x >= 0, where the scaling removes the exponential decay;
    takes arrays as ``airy`` does, and raises DomainError if any element is
    negative or not finite.
    """
    return _airy_lanes(x, scaled=True)


# ---------------------------------------------------------------------------
# safeguarded Newton and the zeros of Ai and Ai'
# ---------------------------------------------------------------------------

def _newton_root(fn, lo, hi, x, done) -> tuple[np.ndarray, np.ndarray]:
    """Roots of fn, monotone on each bracket (lo, hi), one lane per element,
    by Newton safeguarded by the bracket (Numerical Recipes, 2nd ed.,
    section 9.4, "rtsafe"), all lanes in lockstep.

    ``fn(x, lanes)`` evaluates the lanes ``lanes`` (indices into the
    batch) at the points x and returns arrays of values, slopes and a
    payload whose last axis runs over those lanes; the starts x lie inside
    and no bracket end is evaluated.  In each lane every evaluated point
    becomes the bracket end on its side of the root (the signs of value and
    slope tell which).  A Newton step is taken when it lands strictly inside
    the bracket and is at most half the step before last; otherwise the
    bracket is bisected.  A lane leaves at its first point where
    ``done(value, slope, x)`` holds, at a NaN value, or once its bracket has
    collapsed to one float, keeping that point's payload.  Returns the
    payloads and, per lane, whether it met ``done``; SolverError names the
    first bracket still open after 200 passes."""
    lo, hi, x = (np.array(v, dtype=float, ndmin=1) for v in np.broadcast_arrays(lo, hi, x))
    met, live, out = np.zeros(x.size, dtype=bool), np.arange(x.size), None
    last = older = hi - lo  # the last step and the one before it
    for _ in range(200):
        f, df, pay = fn(x, live)
        out = np.empty(pay.shape[:-1] + met.shape) if out is None else out
        up = (f > 0.0) == (df > 0.0)
        hi, lo = np.where(up, x, hi), np.where(up, lo, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
            x_new = x - step
            newton = (lo < x_new) & (x_new < hi) & (np.abs(step) <= 0.5 * np.abs(older))
        step = np.where(newton, step, x - 0.5 * (lo + hi))
        x_new = x - step
        ok = done(f, df, x)
        leave = ok | np.isnan(f) | (x_new == x)  # x_new == x: a collapsed bracket
        met[live[ok]] = True
        out[..., live[leave]] = pay[..., leave]
        if leave.all():
            return out, met
        stay = ~leave
        live, lo, hi, x, older, last = (a[stay] for a in (live, lo, hi, x_new, last, step))
    raise SolverError(f"safeguarded Newton did not converge in ({lo[0]}, {hi[0]})")


def _polished_roots(fn, lo, hi, x, rtol: float) -> np.ndarray:
    """Roots of ``fn(x) -> (f, f')`` by ``_newton_root``: each lane returns
    x - f/f' at its first point where |f/f'| <= rtol * max(1, |x|), and
    SolverError names a lane that stopped short of it."""
    def step(x, lanes):
        f, df = fn(x)
        return f, df, x - f / df

    roots, met = _newton_root(step, lo, hi, x, lambda f, df, x: (
        np.abs(f / df) <= rtol * np.maximum(1.0, np.abs(x))))
    if not met.all():
        raise SolverError(f"safeguarded Newton stalled short of its test in lane {np.argmin(met)}")
    return roots


N_EXACT_ZEROS = 64  # Newton-refined below; asymptotic law beyond


def _zero_law(n, kind: AiryZeroKind):
    """Large-index expansion of the n-th zero (McMahon-style); n may be an
    integer array."""
    if kind is AiryZeroKind.FunctionZero:
        t = 3.0 * math.pi * (4 * n - 1) / 8.0
        ti2 = 1.0 / (t * t)
        return -(t ** _TWO_THIRDS) * (1.0 + ti2 * (5.0 / 48.0 - ti2 * 5.0 / 36.0))
    t = 3.0 * math.pi * (4 * n - 3) / 8.0
    ti2 = 1.0 / (t * t)
    return -(t ** _TWO_THIRDS) * (1.0 - ti2 * (7.0 / 48.0 - ti2 * 35.0 / 288.0))


def _refined_zeros(kind: AiryZeroKind) -> np.ndarray:
    """The first N_EXACT_ZEROS zeros as a read-only array: one lockstep Newton
    from the large-index estimates, each inside +-1/4 of the local zero
    spacing pi/sqrt|x|, checked to |residual| <= 1e-12."""
    def fn(x):
        ai, aip = _airy_pair(x)
        return (ai, aip) if kind is AiryZeroKind.FunctionZero else (aip, x * ai)  # Ai'' = x Ai

    guess = _zero_law(np.arange(1, N_EXACT_ZEROS + 1), kind)
    quarter = 0.25 * math.pi / np.sqrt(np.abs(guess))
    zs = _polished_roots(fn, guess - quarter, guess + quarter, guess, 1e-15)
    resid = np.abs(fn(zs)[0])
    if resid.max() > 1e-12:
        i = int(np.argmax(resid))
        raise SolverError(f"airy zero refinement stalled at x={zs[i]} (residual {resid[i]:.3e})")
    zs.flags.writeable = False
    return zs


_ZEROS = {kind: _refined_zeros(kind) for kind in AiryZeroKind}


def _airy_zeros(count: int, kind: AiryZeroKind = AiryZeroKind.FunctionZero) -> np.ndarray:
    """The zeros 1..count as an array: refined up to N_EXACT_ZEROS, the
    large-index expansion beyond (as ``airy_zero``)."""
    law = _zero_law(np.arange(N_EXACT_ZEROS + 1, count + 1), kind)
    return np.concatenate([_ZEROS[kind][:count], law])


def airy_zero(n: int, kind: AiryZeroKind = AiryZeroKind.FunctionZero) -> float:
    """n-th negative zero a_n of Ai (or a'_n of Ai'), n >= 1 an integer.

    The first 64 are found by safeguarded Newton from the large-index
    expansion and checked to |Ai| (or |Ai'|) <= 1e-12; larger indices use
    the expansion itself, which matches the refined values to better than
    1e-8 relative at the switch.
    """
    n = _check_index(n, 1, "airy_zero index")
    if n <= N_EXACT_ZEROS:
        return float(_ZEROS[kind][n - 1])
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


# ---------------------------------------------------------------------------
# Bose functions
# ---------------------------------------------------------------------------

# zeta(3/2 - k) / k!, k = 0..10: Robinson's expansion of the Bose functions
_ROBINSON = np.array([
    2.6123753486854883, -1.4603545088095868, -0.10394311248867728,
    -4.247533648305506e-3, 3.5487203241043044e-4, 3.7008427795661933e-5,
    -4.293985065577547e-6, -5.3005119442444933e-7, 6.8124204849624721e-8,
    9.0085967057986663e-9, -1.2169402758501129e-9])
_POWERS = np.arange(1, 21)  # terms of the power series, used at alpha >= 1


def _bose_g(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bose functions (g_{3/2}, g_{1/2}) at fugacity z = e^{-alpha}, alpha > 0,
    g_s(z) = sum_{j>=1} z^j / j^s, to ~1e-9 relative: the power series for
    alpha >= 1 (z <= 1/e, 20 terms), and below Robinson's expansion
    g_s(e^{-alpha}) = Gamma(1-s) alpha^{s-1} + sum_k zeta(s-k) (-alpha)^k / k!
    (Pathria & Beale, appendix D), which carries the branch points at z = 1.
    g_{1/2} = -dg_{3/2}/dalpha, term by term."""
    a = np.asarray(alpha, dtype=float)[..., None]
    with np.errstate(under="ignore"):
        zj = np.exp(-a * _POWERS)
    series = (zj @ _POWERS ** -1.5, zj @ _POWERS ** -0.5)
    x = np.minimum(a[..., 0], 1.0)
    k = np.arange(_ROBINSON.size)
    terms = _ROBINSON * (-x[..., None]) ** k
    robinson = (terms.sum(-1) - 2.0 * _SQRT_PI * np.sqrt(x),
                _SQRT_PI / np.sqrt(x) - (terms[..., 1:] / x[..., None]) @ k[1:])
    small = a[..., 0] < 1.0
    return tuple(np.where(small, r, s) for r, s in zip(robinson, series))


def interlacing_ok(n_max: int = 50) -> bool:
    """Check a'_n > a_n > a'_{n+1} for n <= n_max (used by the selftest)."""
    a = _airy_zeros(_check_index(n_max, 1, "n_max"))
    ap = _airy_zeros(len(a) + 1, AiryZeroKind.DerivativeZero)
    return bool(((ap[:-1] > a) & (a > ap[1:])).all())
