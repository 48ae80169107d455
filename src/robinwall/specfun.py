"""Real-argument special functions, self-contained: Airy Ai and Ai' and
their negative zeros, the principal branch of Lambert W on x >= 0, the Bose
functions g_{3/2} and g_{1/2}, the package's one root solver
(``_newton_root``), and the package's one check per kind of argument: an
index or count, a real number, a type or flag, and an enum's name.

Each element of an Airy argument goes to one branch, each a power sum
(``_series``): one ``np.einsum`` contraction of the element's powers with
the coefficients, summed in a fixed order whatever the batch, so an element
of an array call equals its scalar call bit for bit.  A BLAS product would
be faster still, but rounds a one-element call differently from a batch:
``specfun`` calls no BLAS.

* ``|x| <= _ASYM_SWITCH``: the Taylor expansion of y'' = x y about the
  nearest node of a table, built at import by marching down from
  ``_ASYM_SWITCH`` along the growing solution, which keeps Ai's relative
  accuracy (marching up would not).
* ``x > _ASYM_SWITCH``: the exponential asymptotic series, _POS_TERMS terms
  in 1/zeta, zeta = (2/3) x^{3/2}, as ``Ai(x) e^{zeta}``, which stays finite
  where Ai underflows.
* ``x < -_ASYM_SWITCH``: the oscillatory series, _NEG_TERMS terms in zeta^-2.

Each series (and _TAYLOR_TERMS) is cut where its first dropped term is
below 2^-53 of its largest where terms fall slowest: at the seam, or a
table step from a node (test_series_cut_below_double_precision).
``_airy_pair`` gives each branch's output as it is, as the root solves of
``spectrum`` read it; ``airy`` undoes the scaling.
"""

from __future__ import annotations

import contextlib
import enum
import math
import numbers

import numpy as np

from .errors import DomainError, SolverError

__all__ = [
    "AiryZeroKind",
    "airy",
    "airy_zero",
    "lambert_w",
]

_TWO_THIRDS = 2.0 / 3.0
_SQRT_PI = math.sqrt(math.pi)

_ASYM_SWITCH = 12.0  # |x| above which the asymptotic series are used
_TABLE_STEP = 0.25
_TAYLOR_TERMS = 24


def _is_real(value) -> bool:
    """A real number that is not a bool (which ``numbers.Real`` takes in)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_index(value, minimum: int, what: str, maximum: float = math.inf) -> int:
    """An index, count or N as int; DomainError unless an integer in [minimum, maximum]."""
    if not (_is_real(value) and math.isfinite(value) and minimum <= value == int(value) <= maximum):
        raise DomainError(f"{what} must be an integer in [{minimum}, {maximum}], got {value!r}")
    return int(value)


def _check_real(x, what: str, *, ndim: int = 0, sign: str | None = "> 0"):
    """``x`` as a float, or a float array where up to ``ndim`` dimensions
    are allowed (then not empty); DomainError unless real numbers, not bools
    or text, each finite and of ``sign`` ("> 0", ">= 0" or None: any)."""
    a = np.asarray(x)
    if a.dtype.kind == "O" or a.ndim and not isinstance(x, np.ndarray):
        # numpy reads the bools of a list of numbers as numbers ([0.5, True] is
        # float) and keeps an int past int64 or a Fraction as an object
        items = np.asarray(x, dtype=object)
        real = all(_is_real(np.asarray(v).item()) for v in items.flat)  # a 0-d array too
        with contextlib.suppress(OverflowError):  # past the float range it is not finite
            a = items.astype(float) if real else items
    if not (a.dtype.kind in "iuf" and np.isfinite(a).all()
            and (sign is None or (a > 0.0 if sign == "> 0" else a >= 0.0).all())):
        raise DomainError(f"{what} must be a finite real number{' ' + sign if sign else ''}, "
                          f"not a bool or text, got {x!r}")
    if a.ndim > ndim or not a.size:
        shape = f"a non-empty, at most {ndim}-D" if ndim else "a scalar"
        raise DomainError(f"{what} must be a finite real number: expected {shape} {what}, "
                          f"got shape {a.shape}")
    return float(a) if a.ndim == 0 else np.asarray(a, dtype=float)


def _check_member(value, kind: type, what: str):
    """``value``; DomainError naming it ``what`` unless it is a ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{what} must be {article} {kind.__name__}, got {value!r}")
    return value


class _Names(enum.Enum):
    """An enum of names; an unknown name raises DomainError, with the class keyword ``noun``."""

    def __init_subclass__(cls, noun: str, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._noun = noun

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown {cls._noun} {value!r}")


class AiryZeroKind(_Names, noun="Airy zero kind"):
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


_POS_TERMS, _NEG_TERMS = 20, 10  # the cut at the seam (module docstring)
_U_COEF, _V_COEF = _build_uv(max(_POS_TERMS, 2 * _NEG_TERMS))
_SIGNS = (-1.0) ** np.arange(len(_U_COEF))
# rows: the alternating series of u and v in 1/zeta, and ue, uo, ve, vo in zeta^-2
_POS_SERIES = np.stack([_SIGNS[:_POS_TERMS] * c[:_POS_TERMS] for c in (_U_COEF, _V_COEF)])
_NEG_SERIES = np.stack([_SIGNS[:_NEG_TERMS] * c[k::2][:_NEG_TERMS]
                        for c in (_U_COEF, _V_COEF) for k in (0, 1)])


def _powers(w: np.ndarray, terms: int) -> np.ndarray:
    """The (lanes, terms) power table 1, w, w^2, ... of the 1-D ``w``."""
    powers = np.empty((len(w), terms), dtype=w.dtype)
    powers[:, 0] = 1.0
    powers[:, 1:] = w[:, None]
    return powers.cumprod(axis=1, out=powers)


def _series(coef: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k coef[j, k] w^k per lane and row j, as (lanes, rows); ``coef``
    is (rows, terms) for all lanes or (lanes, rows, terms), ``w`` the 1-D
    lanes or their ``_powers`` table.  One einsum contraction of the power
    table with ``coef``, without ``optimize`` (which may hand it to BLAS):
    no (lanes, rows, terms) product is stored, and each lane's terms are
    added in one order whatever the batch (test_batches_equal_one_point_calls)."""
    powers = w if w.ndim == 2 else _powers(w, coef.shape[-1])
    return np.einsum("lt,rt->lr" if coef.ndim == 2 else "lt,lrt->lr", powers, coef)


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
# the Taylor table on [-_ASYM_SWITCH, _ASYM_SWITCH], marched down
# ---------------------------------------------------------------------------

def _taylor_coefs(x0: float, f: float, fp: float) -> np.ndarray:
    """Taylor coefficients at x0 of the y'' = x y solution through (f, fp),
    rows [c_k of y] and [(k+1) c_{k+1} of y'], k < _TAYLOR_TERMS."""
    c = [0.0] * (_TAYLOR_TERMS + 1)
    c[0] = f
    c[1] = fp
    c[2] = 0.5 * x0 * f
    for k in range(1, _TAYLOR_TERMS - 1):
        c[k + 2] = (x0 * c[k] + c[k - 1]) / ((k + 1) * (k + 2))
    return np.array([c[:-1], [(k + 1) * c[k + 1] for k in range(_TAYLOR_TERMS)]])


def _build_table() -> tuple[np.ndarray, np.ndarray]:
    """The table's nodes and their (nodes, 2, terms) Taylor coefficients,
    marched down from _ASYM_SWITCH by one step of each node's expansion."""
    xs = np.linspace(-_ASYM_SWITCH, _ASYM_SWITCH, int(round(2 * _ASYM_SWITCH / _TABLE_STEP)) + 1)
    coef = np.empty((len(xs), 2, _TAYLOR_TERMS))
    f, fp = (v[0] * math.exp(-_TWO_THIRDS * _ASYM_SWITCH ** 1.5)
             for v in _asymptotic_pos_scaled(np.array([_ASYM_SWITCH])))
    step = _powers(np.array([-_TABLE_STEP]), _TAYLOR_TERMS)
    for i in range(len(xs) - 1, -1, -1):
        coef[i] = _taylor_coefs(xs[i], f, fp)
        f, fp = _series(coef[i], step)[0]
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


def airy(x):
    """(Ai(x), Ai'(x)) for a float, as floats, or an array, in its shape,
    each element its scalar call bit for bit; within 1e-12 of scipy
    (TestAiry); (0.0, -0.0) once zeta > 700.  DomainError for an element
    that is not a finite real number, or no element (``_check_real``).
    """
    arr = np.asarray(_check_real(x, "airy: argument", ndim=np.ndim(x), sign=None))  # any shape
    lanes = arr.ravel()
    ai, aip = _airy_pair(lanes)
    pos = lanes > _ASYM_SWITCH  # the scaled lanes
    zeta = _TWO_THIRDS * lanes[pos] ** 1.5
    scale = np.where(zeta > 700.0, 0.0, np.exp(-zeta))
    ai[pos] *= scale
    aip[pos] *= scale
    if arr.ndim == 0:
        return float(ai[0]), float(aip[0])
    return ai.reshape(arr.shape), aip.reshape(arr.shape)


# ---------------------------------------------------------------------------
# the root solver and the zeros of Ai and Ai'
# ---------------------------------------------------------------------------

def _newton_root(fn, lo, hi, x, done, first=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of fn, monotone on each bracket (lo, hi), a lane per element,
    by Halley's steps safeguarded by the bracket (Numerical Recipes, 2nd
    ed., section 9.4, "rtsafe"), all lanes in lockstep.

    ``fn(x, lanes)`` returns f, f', f'' (0 where not known) and a payload
    whose last axis runs over the lanes ``lanes``, at starts x inside the
    brackets; no bracket end is evaluated.  A caller that has fn's output
    at the starts over all lanes (from one call with the bracket ends, say)
    hands it in as ``first``, the first pass's, with the same results bit
    for bit (test_handed_starts_equal_evaluated_ones).  The step is
    Newton's with the slope s = f'(1 - a), a = f f''/(2 f'^2), where
    |a| < 1/2, else s = f', so the sign of s never flips.  Every point
    becomes the bracket end on its side; a step that leaves the bracket or
    is over half the step before last bisects instead.  A lane leaves
    where ``done(f, s, x)`` holds, at a NaN f, or once its bracket is one
    float.  Returns the payloads, each lane's x - f/s where it left, and
    whether it met ``done``; SolverError names a bracket still open after
    200 passes."""
    # a row per lane quantity: lo, hi, x, the last step and the one before it
    n = np.broadcast(lo, hi, x).size
    state = np.empty((5, n))
    state[0], state[1], state[2] = lo, hi, x
    state[3:] = state[1] - state[0]
    met, live, out, roots = np.zeros(n, dtype=bool), np.arange(n), None, np.empty(n)
    for _ in range(200):
        lo, hi, x, last, older = state
        f, df, ddf, pay = fn(x, live) if first is None else first
        first = None
        out = np.empty(pay.shape[:-1] + met.shape) if out is None else out
        up = (f > 0.0) == (df > 0.0)
        np.copyto(hi, x, where=up)
        np.copyto(lo, x, where=~up)
        with np.errstate(all="ignore"):
            a = f * ddf / (2.0 * df * df)
            slope = df * np.where(np.abs(a) < 0.5, 1.0 - a, 1.0)  # a NaN a fails the test
            step = f / slope
            halley = x - step
            inside = (lo < halley) & (halley < hi) & (np.abs(step) <= 0.5 * np.abs(older))
            ok = done(f, slope, x)
        step = np.where(inside, step, x - 0.5 * (lo + hi))
        x_new = x - step
        leave = ok | np.isnan(f) | (x_new == x)  # x_new == x: a collapsed bracket
        gone = live[leave]
        if gone.size:  # before the rows move: the payload may be row x itself
            met[gone] = ok[leave]
            out[..., gone] = pay[..., leave]
            roots[gone] = halley[leave]
            if gone.size == live.size:
                return out, roots, met
        state[4], state[3], state[2] = last, step, x_new  # row 4 first: last is row 3
        if gone.size:
            stay = ~leave
            state, live = state[:, stay], live[stay]
    raise SolverError(f"safeguarded Newton did not converge in ({state[0, 0]}, {state[1, 0]})")


def _polished_roots(fn, lo, hi, x, rtol: float, first=None) -> np.ndarray:
    """Roots of ``fn(x) -> (f, f', f'')`` by ``_newton_root``, each x - f/s
    at the first point with |f/s| <= rtol max(1, |x|), ``first`` fn's
    output at the start array x where the caller has it; SolverError names
    a lane that stopped short of it."""
    first = None if first is None else (*first, x)
    _, roots, met = _newton_root(lambda x, lanes: (*fn(x), x), lo, hi, x, lambda f, s, x: (
        np.abs(f / s) <= rtol * np.maximum(1.0, np.abs(x))), first)
    if not met.all():
        raise SolverError(f"safeguarded Newton stalled short of its test in lane {np.argmin(met)}")
    return roots


N_EXACT_ZEROS = 64  # root-refined below; asymptotic law beyond


# each kind's (k, c1, c2) in McMahon's law -t^(2/3) (1 + c1/t^2 - c2/t^4), t = 3 pi (4n - k)/8
_ZERO_LAW = dict(zip(AiryZeroKind, ((1, 5.0 / 48.0, 5.0 / 36.0), (3, -7.0 / 48.0, -35.0 / 288.0))))


def _zero_law(n: np.ndarray, kind: AiryZeroKind) -> np.ndarray:
    """Large-index (McMahon) expansion of the n-th zeros, n an array."""
    k, c1, c2 = _ZERO_LAW[kind]
    t = 3.0 * math.pi * (4 * n - k) / 8.0
    ti2 = 1.0 / (t * t)
    return -(t ** _TWO_THIRDS) * (1.0 + ti2 * (c1 - ti2 * c2))


def _refined_zeros() -> dict[AiryZeroKind, np.ndarray]:
    """The first N_EXACT_ZEROS zeros of each kind, read-only: one lockstep
    solve, a lane a zero (those of Ai first), from the large-index
    estimates, each within a quarter of the local spacing pi/sqrt|x|, to
    the step test of ``_polished_roots`` at 1e-15; SolverError unless every
    lane meets it with a residual <= 1e-12."""
    def fn(x, lanes):
        ai, aip = _airy_pair(x)  # Ai'' = x Ai and Ai''' = Ai + x Ai'
        rows = np.array([ai, aip, x * ai, ai + x * aip])
        # (f, f', f'') of a zero of Ai: rows 0-2; of a zero of Ai': rows 1-3
        return (*np.where(lanes >= N_EXACT_ZEROS, rows[1:], rows[:-1]), x)

    guess = np.concatenate([_zero_law(np.arange(1, N_EXACT_ZEROS + 1), kind)
                            for kind in AiryZeroKind])
    quarter = 0.25 * math.pi / np.sqrt(np.abs(guess))
    _, zs, met = _newton_root(fn, guess - quarter, guess + quarter, guess, lambda f, s, x: (
        np.abs(f / s) <= 1e-15 * np.maximum(1.0, np.abs(x))))
    resid = np.where(met, np.abs(fn(zs, np.arange(zs.size))[0]), np.inf)
    if resid.max() > 1e-12:
        i = int(np.argmax(resid))
        raise SolverError(f"airy zero refinement stalled at x={zs[i]} (residual {resid[i]:.3e})")
    zs.flags.writeable = False
    return dict(zip(AiryZeroKind, np.split(zs, 2)))


_ZEROS = _refined_zeros()


def _airy_zeros(count: int, kind: AiryZeroKind = AiryZeroKind.FunctionZero) -> np.ndarray:
    """The zeros 1..count as an array, as ``airy_zero`` gives them."""
    law = _zero_law(np.arange(N_EXACT_ZEROS + 1, count + 1), kind)
    return np.concatenate([_ZEROS[kind][:count], law])


def airy_zero(n: int, kind: AiryZeroKind = AiryZeroKind.FunctionZero) -> float:
    """n-th negative zero a_n of Ai (or a'_n of Ai'), n >= 1 an integer:
    refined up to N_EXACT_ZEROS, past it the large-index expansion, which
    meets the refined zero there to 1e-8 (test_law_handoff_at_switch).
    """
    n = _check_index(n, 1, "airy_zero index")
    _check_member(kind, AiryZeroKind, "kind")
    if n <= N_EXACT_ZEROS:
        return float(_ZEROS[kind][n - 1])
    return float(_zero_law(np.array([float(n)]), kind)[0])  # as ``_airy_zeros`` gives it


# ---------------------------------------------------------------------------
# Lambert W
# ---------------------------------------------------------------------------

def lambert_w(x: float) -> float:
    """Principal-branch Lambert W on x >= 0: w with w e^w = x, the root of
    f(w) = w - x e^{-w} on (0, log1p(x)), which cannot overflow, from
    Winitzki's L (1 - log1p(L)/(2 + L)), L = log1p(x) (Corless et al., Adv.
    Comput. Math. 5, 329 (1996)).  DomainError unless x is a finite real
    scalar >= 0; SolverError unless |w e^w - x| / x <= 1e-12.
    """
    x = _check_real(x, "lambert_w: argument", sign=">= 0")
    if x == 0.0:
        return 0.0
    top = math.log1p(x)
    start = top * (1.0 - math.log1p(top) / (2.0 + top))
    # at the smallest x the start rounds onto the bracket's top
    start = start if start < top else 0.5 * top

    def fn(w):
        t = x * np.exp(-w)
        return w - t, 1.0 + t, -t

    w = float(_polished_roots(fn, 0.0, top, start, 1e-15)[0])
    # |w e^w - x| / x = |f(w)| / w at the root
    if not abs(w - x * math.exp(-w)) <= 1e-12 * w:
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
_POWERS = np.arange(1, 21)  # terms of the power series of g_s


def _bose_g(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bose functions (g_{3/2}, g_{1/2}), g_s(z) = sum_{j>=1} z^j / j^s, at
    z = e^{-alpha}, alpha > 0, within 1e-8 of mpmath
    (test_against_mpmath_polylog): the power series ``_POWERS`` for
    alpha >= 1, below it Robinson's expansion (Pathria & Beale, appendix D)
    g_s(e^{-alpha}) = Gamma(1-s) alpha^{s-1} + sum_k zeta(s-k) (-alpha)^k / k!,
    which carries the branch point at z = 1; g_{1/2} = -dg_{3/2}/dalpha."""
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
    """Whether a'_n > a_n > a'_{n+1} for n <= n_max (the selftest's check)."""
    a = _airy_zeros(_check_index(n_max, 1, "n_max"))
    ap = _airy_zeros(len(a) + 1, AiryZeroKind.DerivativeZero)
    return bool(((ap[:-1] > a) & (a > ap[1:])).all())
