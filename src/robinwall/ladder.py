"""Infinite sums over a level ladder: direct summation plus an
Euler-Maclaurin closure of the power-law tail.

Every thermodynamic quantity in this package is a sum of the form

    S_p = sum_n (E_n - ref)^p * F(beta * (E_n - E_0) + gamma)

with F a Boltzmann factor ``e^{-x}``, an occupation number
``1/(e^x +- 1)``, or the occupation-derivative (distribution) kernel
``e^x/(e^x +- 1)^2``.  Exponents are always formed relative to the ground
level (plus the offset ``gamma = beta*(E_0 - mu)``), which keeps them finite
for any temperature.

One call evaluates a whole kernel family in one pass: the Boltzmann sums
S_0, S_1, S_2, or, for quantum statistics, the occupation sums N_0, N_1
together with the distribution sums D_0, D_1, D_2.  Both occupation kernels
come from the same exponentials, so a grand-canonical state (N, dN/dgamma,
<E> and the heat-capacity moments) costs a single ladder pass.

The low levels are summed directly (vectorized, ascending order, with an
early stop once eight consecutive summands of every returned sum drop below
1e-16 of that sum's running total).  Once the ladder is dense on the
thermal scale (beta * dE/dn below a threshold) the remainder is closed with
the Euler-Maclaurin formula over the exact power-law tail
E(m) = tau * (4(m+j0)-k)^(2/3) + shift.  The closure integral is evaluated
one way for every kernel and every starting exponent: Gauss-Legendre in
s = sqrt(v), v = (4(m+j0)-k)^(2/3), where the level measure is a polynomial,
on panels matched to the kernel (a filled Fermi sea, the transition layer
around x = 0, and geometric panels down the exponential tail from wherever
it starts).  A sparse filled Fermi sea in front of the dense region is
summed in closed form as polynomial ladder moments.  Every path is
validated against brute-force summation to ~1e-10 relative; the payoff is
that the worst evaluation in the whole parameter domain costs ~1e4 kernel
evaluations instead of ~1e8 exp() calls.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError, SolverError
from .spectrum import Spectrum

__all__ = ["BOLTZ", "FERMI", "BOSE", "OCC", "ladder_sums", "array_sums"]

# kernel families
OCC = "occ"         # occupations together with their distribution kernel
BOLTZ_KIND = "boltz"

# statistics signs for OCC; BOLTZ ignores it
FERMI = +1
BOSE = -1
BOLTZ = 0

STOP_REL = 1e-16          # stop rule: summand below this fraction of its sum
STOP_RUN = 8              # ... for this many consecutive levels
STOP_MIN_X = 30.0         # ... and only once exponents are this large
DENSE_THRESHOLD = 0.02    # beta*dE/dn below this => Euler-Maclaurin regime
LEVEL_BUDGET = 10 ** 8    # hard cap on directly summed levels

# the sums one call returns, as (kernel index, moment power) pairs: kernel 0
# is e^{-x} (BOLTZ_KIND) or the occupation, kernel 1 the distribution
_ROWS = {
    BOLTZ_KIND: ((0, 0), (0, 1), (0, 2)),
    OCC: ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2)),
}


# ---------------------------------------------------------------------------
# stable weight kernels
# ---------------------------------------------------------------------------

def _kernels(x: np.ndarray, kind: str, sign: int) -> list[np.ndarray]:
    """The kernels of ``kind`` at exponents x, from one exponential:
    [e^{-x}] for BOLTZ_KIND, [1/(e^x +- 1), e^x/(e^x +- 1)^2] for OCC."""
    if kind == BOLTZ_KIND:
        return [np.exp(-x)]
    if sign == FERMI:
        t = np.exp(-np.abs(x))
        inv = 1.0 / (1.0 + t)
        return [np.where(x >= 0.0, t * inv, inv), t * inv * inv]
    # Bose statistics: exponents are strictly positive (mu < E0)
    if np.any(x <= 0.0):
        raise SolverError("bose weights need strictly positive exponents (mu < E0)")
    inv = 1.0 / -np.expm1(-x)  # 1/(1 - e^{-x}), exact for small x
    occ = np.exp(-x) * inv
    return [occ, occ * inv]


def _kernel_slopes(x: np.ndarray, kind: str, sign: int) -> list[np.ndarray]:
    """d/dx of each kernel of ``_kernels``."""
    if kind == BOLTZ_KIND:
        return [-np.exp(-x)]
    _, dist = _kernels(x, kind, sign)
    if sign == FERMI:
        t = np.exp(-np.abs(x))
        return [-dist, -np.sign(x) * dist * (1.0 - t) / (1.0 + t)]
    t = np.exp(-x)
    return [-dist, -dist * (1.0 + t) / -np.expm1(-x)]


def _summands(x: np.ndarray, d: np.ndarray, kind: str, sign: int) -> np.ndarray:
    """Summands of every returned sum, one row per sum: d^p * kernel(x)."""
    kern = _kernels(x, kind, sign)
    return np.stack([kern[k] * d ** p if p else kern[k] for k, p in _ROWS[kind]])


# ---------------------------------------------------------------------------
# the Euler-Maclaurin closure
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def _v_panel_breaks(v0: float, bt: float, sigma: float) -> list[float]:
    """Panel edges for the closure integral, matched to the kernel's
    structure: octave panels in v across a filled Fermi sea (the kernel is
    constant there to e^-40), a finely split transition layer, octave
    panels through a 1/x-like Bose region, and geometric panels down the
    exponential tail, laid out from the exponent where the tail starts."""
    x0 = bt * v0 + sigma

    def v_of(x: float) -> float:
        return (x - sigma) / bt

    breaks = [v0]
    x = x0
    if x < -40.0:
        v_end = v_of(-40.0)
        v = v0
        while v < v_end:
            v = min(2.0 * v, v_end)
            breaks.append(v)
        x = -40.0
    if x < 0.5:
        if x <= 0.0:
            n = int(math.ceil((0.5 - x) / 5.0))
            xs = np.linspace(x, 0.5, n + 1)[1:]
        else:
            xs = []
            while x < 0.5:
                x = min(2.0 * x, 0.5)
                xs.append(x)
        breaks.extend(v_of(float(xx)) for xx in xs)
        x = 0.5
    # the tail panels span 119.5 exponent units above x, wherever x lies
    y = 0.5
    while y < 120.0:
        y = min(1.7 * y + 2.0, 120.0)
        breaks.append(v_of(x + y - 0.5))
    return breaks


def _em_integral(tail, beta: float, sigma: float, ds_ref: float,
                 n0: int, kind: str, sign: int) -> list[float]:
    """integral_{n0}^inf (E(m)-ref)^p F(beta(E(m)-E0)+gamma) dm for each sum.

    sigma  = beta*(tail.shift - E0) + gamma   (exponent offset of the tail)
    ds_ref = tail.shift - ref                 (moment offset of the tail)

    With v = argument(m)^(2/3) and s = sqrt(v) the integral is

        (3/4) * integral_{s0}^inf s^2 (tau s^2 + ds_ref)^p
                    F(beta tau s^2 + sigma) ds,

    evaluated by Gauss-Legendre on the panels of ``_v_panel_breaks`` mapped
    to s, where the integrand is smooth down to the lower end for any
    starting exponent (a degenerate Fermi sea included)."""
    tau = tail.tau
    bt = beta * tau
    v0 = float(tail.argument(n0)) ** (2.0 / 3.0)
    s_breaks = np.sqrt(_v_panel_breaks(v0, bt, sigma))
    lo = s_breaks[:-1, None]
    half = 0.5 * (s_breaks[1:, None] - lo)
    s = (half * (_GL_NODES + 1.0) + lo).ravel()
    v = s * s
    w = 0.75 * (half * _GL_WEIGHTS).ravel() * v
    return [float(np.dot(w, f)) for f in _summands(bt * v + sigma, tau * v + ds_ref,
                                                   kind, sign)]


_STENCIL = np.arange(-2.0, 3.0)  # m - 2 .. m + 2


def _em_edge(f: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """Euler-Maclaurin end correction f/2 - f'/12 + f'''/720 at a point,
    from f on the five-point stencil around it (one row per sum; f''' by
    central differences) and the exact slope fp there."""
    f3 = 0.5 * (f[:, 4] - 2.0 * f[:, 3] + 2.0 * f[:, 1] - f[:, 0])
    return 0.5 * f[:, 2] - fp / 12.0 + f3 / 720.0


def _em_boundary(tail, beta: float, sigma: float, ds_ref: float, n0: int,
                 kind: str, sign: int) -> np.ndarray:
    """Boundary correction of the infinite tail from n0, for every sum."""
    tau = tail.tau
    v = tail.argument(n0 + _STENCIL) ** (2.0 / 3.0)
    x = beta * tau * v + sigma
    d = tau * v + ds_ref
    f = _summands(x, d, kind, sign)
    # exact slope at n0: dE/dm (p d^{p-1} F + beta d^p F')
    x0, d0 = x[2:3], float(d[2])
    kern = _kernels(x0, kind, sign)
    dkern = _kernel_slopes(x0, kind, sign)
    de_dm = float(tail.denergy(n0))
    fp = np.array([de_dm * float((p * d0 ** (p - 1) if p else 0.0) * kern[k][0]
                                 + beta * d0 ** p * dkern[k][0])
                   for k, p in _ROWS[kind]])
    return _em_edge(f, fp)


def _dense_index(tail, beta: float) -> int:
    """Smallest tail index where beta * dE/dn <= DENSE_THRESHOLD."""
    arg = (8.0 * beta * tail.tau / (3.0 * DENSE_THRESHOLD)) ** 3
    m = (arg + tail.k_off) / 4.0 - tail.j0
    return max(tail.start + 2, int(math.ceil(m)))


X_DEAD = 45.0  # |x| beyond which occupations are 0/1 to better than 1e-19


def _sea_index(tail, beta: float, sigma: float) -> int:
    """Largest tail index with exponent still below -X_DEAD (0 if none):
    every level before it sits in the filled Fermi sea."""
    if sigma >= -X_DEAD:
        return 0
    w = ((-X_DEAD - sigma) / (beta * tail.tau)) ** 1.5
    m = (w + tail.k_off) / 4.0 - tail.j0
    return max(0, int(m))


def _filled_block(spectrum, moment_offset: float, a: int, b: int) -> np.ndarray:
    """Occupation sums (N_0, N_1, 0, 0, 0) of a filled block of levels
    a <= m < b, where every occupation is 1 and every distribution weight 0.

    The exact root-solved part is summed directly; the power-law part uses
    the finite Euler-Maclaurin identity
        sum_{A}^{B-1} f = int_A^B f + edge(A) - edge(B),
    edge = f/2 - f'/12 + f'''/720, which is closed-form for the ladder's
    power moments.
    """
    tail = spectrum.tail
    tau = tail.tau
    e0 = spectrum.e0
    ds = tail.shift - e0 + moment_offset
    totals = np.zeros(len(_ROWS[OCC]))
    hi_exact = min(b, spectrum.n_exact)
    if a < hi_exact:
        mom = spectrum.exact_levels[a:hi_exact] - e0 + moment_offset
        totals[:2] += (len(mom), math.fsum(mom))
    lo = max(a, spectrum.n_exact)
    if lo >= b:
        return totals

    def edge(m: int) -> np.ndarray:
        d = tau * tail.argument(m + _STENCIL) ** (2.0 / 3.0) + ds
        f = np.stack([np.ones(5), d])
        return _em_edge(f, np.array([0.0, float(tail.denergy(m))]))

    va = float(tail.argument(lo)) ** (2.0 / 3.0)
    vb = float(tail.argument(b)) ** (2.0 / 3.0)
    # int (tau v + ds)^p dm with dm = (3/8) sqrt(v) dv
    integral = np.array([0.25 * (vb ** 1.5 - va ** 1.5),
                         ds * 0.25 * (vb ** 1.5 - va ** 1.5)
                         + tau * 0.15 * (vb ** 2.5 - va ** 2.5)])
    totals[:2] += integral + edge(lo) - edge(b)
    return totals


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def ladder_sums(spectrum: Spectrum, beta: float, kind: str, sign: int = BOLTZ,
                *, gamma: float = 0.0, moment_offset: float = 0.0,
                start_index: int = 0, budget: int = LEVEL_BUDGET,
                force_direct: bool = False) -> tuple[float, ...]:
    """All sums of one kernel family over n >= start_index, in one pass.

    With x_n = beta*(E_n - E_0) + gamma and moments about
    ref = E_0 - moment_offset:

    * ``kind=BOLTZ_KIND``: (S_0, S_1, S_2), S_p = sum (E_n - ref)^p e^{-x_n};
    * ``kind=OCC``: (N_0, N_1, D_0, D_1, D_2) with
      N_p = sum (E_n - ref)^p / (e^{x_n} +- 1) and
      D_p = sum (E_n - ref)^p e^{x_n} / (e^{x_n} +- 1)^2, the upper sign for
      ``sign=FERMI`` and the lower for ``sign=BOSE``.

    ``force_direct`` disables the Euler-Maclaurin closure (test hook; the
    stop rule and the level budget then govern alone).
    """
    if beta <= 0.0:
        raise SolverError(f"beta must be > 0, got {beta}")
    if kind not in _ROWS:
        raise SolverError(f"ladder_sums kind must be {BOLTZ_KIND!r} or {OCC!r}, "
                          f"got {kind!r}")
    rows = _ROWS[kind]
    tail = spectrum.tail
    e0 = spectrum.e0
    sigma = beta * (tail.shift - e0) + gamma
    ds_ref = tail.shift - e0 + moment_offset
    parts = [np.zeros(len(rows))]
    running = np.zeros(len(rows))

    n_em = _dense_index(tail, beta)
    if force_direct:
        n_em = budget + 1

    # a deeply submerged Fermi sea (exponents below -X_DEAD) carries unit
    # occupations and no distribution weight: sum it in closed form instead
    # of level by level
    scan_start = start_index
    if sign == FERMI and kind == OCC and gamma < -X_DEAD:
        x_exact = beta * (spectrum.exact_levels - e0) + gamma
        if x_exact[-1] <= -X_DEAD:
            m_sea = max(spectrum.n_exact, _sea_index(tail, beta, sigma))
        else:
            m_sea = int(np.searchsorted(x_exact, -X_DEAD))
        block_end = min(m_sea, n_em)
        if block_end > start_index:
            blk = _filled_block(spectrum, moment_offset, start_index, block_end)
            parts.append(blk)
            running += blk
            scan_start = block_end

    def add_block(dE: np.ndarray, x: np.ndarray) -> bool:
        """Accumulate one block; True if the stop rule fired at its end."""
        nonlocal running
        terms = _summands(x, dE + moment_offset, kind, sign)
        block = terms.sum(axis=1)
        parts.append(block)
        running = running + block
        if x[-1] < STOP_MIN_X:
            return False
        last = np.abs(terms[:, -STOP_RUN:])
        return bool(np.all(last <= STOP_REL * np.abs(running)[:, None]))

    # exact (root-solved) block
    lo = scan_start
    hi = min(spectrum.n_exact, n_em)
    stopped = False
    if lo < hi:
        dE = spectrum.exact_levels[lo:hi] - e0
        stopped = add_block(dE, beta * dE + gamma)
        lo = hi

    # tail blocks up to the closure index
    chunk = 4096
    while not stopped and lo < n_em:
        if lo >= budget:
            raise BudgetError(f"level sum did not converge within {budget} levels")
        hi = min(lo + chunk, n_em)
        dE = tail.energy(np.arange(lo, hi, dtype=float)) - e0
        stopped = add_block(dE, beta * dE + gamma)
        lo = hi
        chunk = min(2 * chunk, 1 << 20)

    if not stopped:
        if force_direct:
            raise BudgetError(f"level sum did not converge within {budget} levels")
        parts.append(np.asarray(_em_integral(tail, beta, sigma, ds_ref, n_em,
                                             kind, sign)))
        parts.append(_em_boundary(tail, beta, sigma, ds_ref, n_em, kind, sign))

    return tuple(math.fsum(col) for col in zip(*parts))


def array_sums(levels: np.ndarray, beta: float,
               powers=(0,), *,
               weights: np.ndarray | None = None) -> list[float]:
    """Boltzmann sums over an explicit finite level list (toy spectra,
    discretized continua).  Moments are taken about the lowest level, and
    every exponent is shifted by it: S_p = sum w_i (E_i-E_0)^p e^{-beta(E_i-E_0)}."""
    lv = np.asarray(levels, dtype=float)
    if lv.ndim != 1 or lv.size == 0:
        raise SolverError("array_sums expects a non-empty 1-d level list")
    e0 = float(lv.min())
    dE = lv - e0
    boltz = np.exp(-beta * dE)
    if weights is not None:
        boltz = boltz * np.asarray(weights, dtype=float)
    return [float(np.sum(dE ** p * boltz)) for p in powers]
