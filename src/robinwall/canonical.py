"""Canonical-ensemble thermodynamics of the walled particle.

Exact truncated sums over a Spectrum, the universal Dirichlet/Neumann
curves in the variable y = beta * F^(2/3), and a grid-scan extremum locator
for any c(beta), refined by Brent's parabolic search in lockstep over
extrema.  The closed forms of the two-term model are in ``limits``.

Every Boltzmann weight is formed as exp(-beta*(E_n - E_0)) so the attractive
wall's negative ground level can never overflow the sums; means and
variances are reconstructed exactly from the shifted moments.  The heat
capacity is the fluctuation form c = beta^2 * (<E^2> - <E>^2), which equals
-beta^2 d<E>/dbeta for these sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import DomainError, SolverError
from .ladder import Statistics, ladder_sums
from .spectrum import Spectrum, WallKind, WallSpec, build_spectrum
from .specfun import _check_beta

__all__ = [
    "ThermoPoint",
    "ExtremumReport",
    "thermo_point",
    "universal_dn_curve",
    "find_extrema",
]

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0   # golden-section fraction of Brent's method
_SQRT_EPS = math.sqrt(2.0 ** -52)


@dataclass(frozen=True)
class ThermoPoint:
    """One evaluated state, or arrays of them over a batch of temperatures:
    mean energy <E> of all the particles, heat capacity per particle (in
    units of k_B), for the grand-canonical ensembles mu and the Bose
    ground-level fraction n0, and for a batch each lane's error message
    (None, or why its values are NaN); None where a field does not apply."""

    beta: float
    mean_energy: float
    heat_capacity: float
    mu: float | None = None
    n0: float | None = None
    errors: tuple[str | None, ...] | None = None


@dataclass(frozen=True)
class ExtremumReport:
    """Located heat-capacity extrema on a temperature scan."""

    beta_inv_at_max: float | None = None
    c_max: float | None = None
    beta_inv_at_min: float | None = None
    c_min: float | None = None


def thermo_point(spectrum: Spectrum, beta: float | np.ndarray) -> ThermoPoint:
    """Mean energy <E> = sum E_n w_n / sum w_n and heat capacity
    c = beta^2 (<E^2> - <E>^2) of one particle (arrays for an array of beta,
    summed as one batch).  A lane whose <E> or c is not finite is NaN with
    its message in ``errors``; a scalar beta raises SolverError instead."""
    beta = _check_beta(beta)
    s0, s1, s2 = ladder_sums(spectrum, beta, Statistics.CANONICAL)
    m = s1 / s0
    energy, c = np.atleast_1d(spectrum.e0 + m, beta * beta * (s2 / s0 - m * m))
    ok = np.isfinite(energy) & np.isfinite(c)
    errors = tuple(None if good else f"canonical sums at beta={b}: <E> = {e} and c = {cb} "
                   "are not finite" for good, b, e, cb in zip(ok, np.ravel(beta), energy, c))
    if np.ndim(beta) == 0:
        if errors[0]:
            raise SolverError(errors[0])
        return ThermoPoint(beta, float(energy[0]), float(c[0]))
    return ThermoPoint(beta, np.where(ok, energy, np.nan), np.where(ok, c, np.nan),
                       errors=errors)


# ---------------------------------------------------------------------------
# universal Dirichlet/Neumann curves
# ---------------------------------------------------------------------------

def universal_dn_curve(y: float, kind: WallKind) -> tuple[float, float]:
    """(<E>/F^(2/3), c) for the hard or reflecting wall as functions of the
    single collapsed variable y = beta * F^(2/3)."""
    if kind not in (WallKind.DIRICHLET, WallKind.NEUMANN):
        raise DomainError(f"universal curve is defined for Dirichlet/Neumann, got {kind}")
    tp = thermo_point(build_spectrum(WallSpec(kind, 1.0)), y)
    return tp.mean_energy, tp.heat_capacity


# ---------------------------------------------------------------------------
# extremum location
# ---------------------------------------------------------------------------

def _brent(a: float, fa: float, x: float, fx: float, b: float,
           fb: float) -> Generator[float, float, tuple[float, float]]:
    """Minimum of fn on [a, b] by Brent's method (Brent 1973, "Algorithms
    for Minimization without Derivatives", ch. 5): parabolic interpolation
    through the three best points, with a golden-section step whenever the
    parabola is untrustworthy.  Starts from a bracketing triple a < x < b
    with fx below fa and fb, all three values already known, so the first
    step is the parabola through them; stops once the bracket around the
    best point is about 1e-6 wide.  A generator: it yields each point u
    to evaluate and is sent fn(u), and returns (x, fn(x)) of the best
    point evaluated."""
    (w, fw), (v, fv) = sorted(((a, fa), (b, fb)), key=lambda p: p[1])
    d, e = 0.0, b - a
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + 0.25e-6
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                parabolic = True
                if (x + d) - a < tol2 or b - (x + d) < tol2:
                    d = tol1 if x < m else -tol1
        if not parabolic:
            e = (b - x) if x < m else (a - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = yield u
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def find_extrema(beta_grid: Sequence, c_grid: Sequence,
                 c_fn: Callable[[np.ndarray, np.ndarray], Sequence[float]]
                 ) -> ExtremumReport | tuple[ExtremumReport, ...]:
    """Locate the heat-capacity extrema of one scan, or of several as
    rows: ``c_grid`` holds c(beta) on the monotone ``beta_grid``, evaluated
    by the caller.  Every interior extremum of every scan is refined by
    Brent's method from its grid point (relative 1e-6 in beta), all in
    lockstep: a pass is one call ``c_fn(beta, rows)`` with the next point
    of each open refinement and its scan's row, returning their c values.

    A report per scan (a tuple of them for rows) carries the global maximum
    and minimum found; a scan without interior extrema yields an empty
    report (not an error).
    """
    betas, cs = np.asarray(beta_grid, dtype=float), np.asarray(c_grid, dtype=float)
    if betas.ndim not in (1, 2) or betas.shape[-1] < 3:
        raise DomainError("beta_grid must be monotone with at least 3 points")
    d = np.diff(np.atleast_2d(betas))
    if not np.all((d > 0).all(axis=1) | (d < 0).all(axis=1)):
        raise DomainError("beta_grid must be strictly monotone")
    if cs.shape != betas.shape:
        raise DomainError(f"c_grid has shape {cs.shape} for beta_grid of shape {betas.shape}")

    runs = []  # (row, sign, Brent generator) per interior extremum
    rows = list(zip(np.atleast_2d(betas).tolist(), np.atleast_2d(cs).tolist()))
    for row, (b, c) in enumerate(rows):
        for i in range(1, len(b) - 1):
            sign = (c[i - 1] < c[i] > c[i + 1]) - (c[i - 1] > c[i] < c[i + 1])
            if not sign:
                continue
            lo, hi = sorted(((math.log(b[i - 1]), -sign * c[i - 1]),
                             (math.log(b[i + 1]), -sign * c[i + 1])))
            runs.append((row, sign, _brent(*lo, math.log(b[i]), -sign * c[i], *hi)))
    best = {}  # (row, sign) -> (1/beta, c) of the scan's global extremum
    sent = dict.fromkeys(range(len(runs)))  # the value each open one is sent next
    while sent:
        pending = {}
        for j, fu in sent.items():
            try:
                pending[j] = runs[j][2].send(fu)
            except StopIteration as stop:
                row, sign, _ = runs[j]
                c = -sign * stop.value[1]
                if (row, sign) not in best or sign * c > sign * best[row, sign][1]:
                    best[row, sign] = (1.0 / math.exp(stop.value[0]), c)
        values = c_fn(np.array([math.exp(u) for u in pending.values()]),
                      np.array([runs[j][0] for j in pending], dtype=int)) if pending else ()
        sent = {j: -runs[j][1] * float(cj) for j, cj in zip(pending, values)}

    reports = tuple(ExtremumReport(*best.get((row, 1), (None, None)),
                                   *best.get((row, -1), (None, None)))
                    for row in range(len(rows)))
    return reports[0] if betas.ndim == 1 else reports
