"""Canonical-ensemble thermodynamics of the walled particle.

Exact truncated sums over a Spectrum, the universal Dirichlet/Neumann
curves in the variable y = beta * F^(2/3), and a grid-scan extremum locator
for any c(beta) that comes with its slope, refined in lockstep over
extrema on the cubic Hermite through the values and slopes of a bracket.
The closed forms of the two-term model are in ``limits``.

Every Boltzmann weight is formed as exp(-beta*(E_n - E_0)) so the attractive
wall's negative ground level can never overflow the sums; means and
central moments are reconstructed exactly from the shifted moments.  The
heat capacity is the fluctuation form c = beta^2 kappa_2, which equals
-beta^2 d<E>/dbeta for these sums, and its slope
beta dc/dbeta = 2c - beta^3 kappa_3 follows from dkappa_2/dbeta = -kappa_3,
with kappa_2 and kappa_3 the second and third cumulants of the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

import numpy as np

from . import _work
from .errors import DomainError, SolverError
from .ladder import Statistics, ladder_sums
from .spectrum import Spectrum, WallKind, WallSpec, build_spectrum
from .specfun import _check_beta

__all__ = [
    "ThermoPoint",
    "ExtremumReport",
    "universal_dn_curve",
    "find_extrema",
]

_SQRT_EPS = math.sqrt(2.0 ** -52)


@dataclass(frozen=True)
class ThermoPoint:
    """One evaluated state, or arrays of them over a batch of temperatures:
    mean energy <E> of all the particles, heat capacity per particle (in
    units of k_B), for the grand-canonical ensembles mu and the Bose
    ground-level fraction n0, for a batch each lane's error message
    (None, or why its values are NaN), and the slope of the heat capacity,
    dc/d ln beta = -T dc/dT; None where a field does not apply or was not
    evaluated."""

    beta: float
    mean_energy: float
    heat_capacity: float
    mu: float | None = None
    n0: float | None = None
    errors: tuple[str | None, ...] | None = None
    heat_capacity_slope: float | None = None


@dataclass(frozen=True)
class ExtremumReport:
    """Located heat-capacity extrema on a temperature scan."""

    beta_inv_at_max: float | None = None
    c_max: float | None = None
    beta_inv_at_min: float | None = None
    c_min: float | None = None


def _canonical(spectrum: Spectrum, beta: np.ndarray) -> ThermoPoint:
    """Mean energy <E> = sum E_n w_n / sum w_n, heat capacity
    c = beta^2 (<E^2> - <E>^2) of one particle and its slope
    dc/d ln beta = 2c - beta^3 kappa_3, as arrays over the 1-D ``beta``,
    summed as one batch.  A lane whose <E> or c is not finite is NaN with
    its message in ``errors``."""
    _work.counts.update(batches=1, batch_lanes=beta.size)
    s0, s1, s2, s3 = ladder_sums(spectrum, beta, Statistics.CANONICAL)
    m, m2 = s1 / s0, s2 / s0
    kappa2 = m2 - m * m
    kappa3 = s3 / s0 - m * (3.0 * m2 - 2.0 * m * m)
    energy, c = spectrum.e0 + m, beta * beta * kappa2
    ok = np.isfinite(energy) & np.isfinite(c)
    errors = tuple(None if good else f"canonical sums at beta={b}: <E> = {e} and c = {cb} "
                   "are not finite" for good, b, e, cb in zip(ok, beta, energy, c))
    return ThermoPoint(beta, *(np.where(ok, a, np.nan) for a in (energy, c)), errors=errors,
                       heat_capacity_slope=np.where(ok, 2.0 * c - beta ** 3 * kappa3, np.nan))


# ---------------------------------------------------------------------------
# universal Dirichlet/Neumann curves
# ---------------------------------------------------------------------------

def universal_dn_curve(y: float, kind: WallKind) -> tuple[float, float]:
    """(<E>/F^(2/3), c) for the hard or reflecting wall as functions of the
    single collapsed variable y = beta * F^(2/3), a finite scalar > 0."""
    if kind not in (WallKind.DIRICHLET, WallKind.NEUMANN):
        raise DomainError(f"universal curve is defined for Dirichlet/Neumann, got {kind}")
    if np.ndim(y):
        raise DomainError(f"universal curve takes a scalar y, got shape {np.shape(y)}")
    p = _canonical(build_spectrum(WallSpec(kind, 1.0)), np.array([_check_beta(y)]))
    if p.errors[0]:
        raise SolverError(p.errors[0])
    return float(p.mean_energy[0]), float(p.heat_capacity[0])


# ---------------------------------------------------------------------------
# extremum location
# ---------------------------------------------------------------------------

def _cubic_min(a: float, fa: float, ga: float, b: float, fb: float, gb: float) -> float:
    """Minimiser of the cubic Hermite through the values f and slopes g at
    the ends of a bracket a < b with ga < 0 <= gb (Nocedal & Wright, eq.
    3.59), or the midpoint where rounding puts it outside (a, b)."""
    d1 = ga + gb - 3.0 * (fb - fa) / (b - a)
    d2 = math.sqrt(d1 * d1 - ga * gb)
    v = b - (b - a) * (gb + d2 - d1) / (gb - ga + 2.0 * d2)
    return v if a < v < b else 0.5 * (a + b)


def _refine(a: float, fa: float, ga: float, b: float, fb: float,
            gb: float) -> Generator[list[float], list[tuple], tuple[float, float]]:
    """Minimum of f on [a, b] in a few multi-point passes, from a bracket
    a < b whose slopes change sign, ga < 0 <= gb, values and slopes known.
    Each pass evaluates the minimiser v of the cubic Hermite on the bracket
    (``_cubic_min``), v +- max(tol1, w/1000) on a bracket of width w, and
    its midpoint a + w/2, those inside it, and the next bracket is the pair of
    neighbours among its ends and these points whose slopes change sign,
    next to the lowest value.  Stops by Brent's (1973) rule, once the
    bracket is within 4 tol1, tol1 = sqrt(eps)|x| + 2.5e-7 at the end x of
    the lower value, and returns (v, f(x)), v the root of the slope's secant
    on that last bracket (at that width the differences of the values are
    rounding noise, which would move a minimiser fitted to them).  A
    generator: it yields each pass's points u and is sent the list of
    (f(u), f'(u))."""
    while True:
        x, fx = (a, fa) if fa <= fb else (b, fb)
        tol1, w = _SQRT_EPS * abs(x) + 0.25e-6, b - a
        if w <= 4.0 * tol1:
            return a - ga * w / (gb - ga), fx
        v, h = _cubic_min(a, fa, ga, b, fb, gb), max(tol1, w / 1000.0)
        us = sorted({u for u in (v - h, v, v + h, a + 0.5 * w) if a < u < b})
        points = [(a, fa, ga), *((u, *fg) for u, fg in zip(us, (yield us))), (b, fb, gb)]
        brackets = [(min(lo[1], hi[1]), lo, hi) for lo, hi in zip(points, points[1:])
                    if lo[2] < 0.0 <= hi[2]]
        if not brackets:  # a slope that is not a number: the lowest point
            return min(((u, f) for u, f, _ in points), key=lambda p: p[1])
        _, (a, fa, ga), (b, fb, gb) = min(brackets, key=lambda t: t[0])


def find_extrema(beta_grid: Sequence, c_grid: Sequence, slope_grid: Sequence,
                 fn: Callable[[np.ndarray, np.ndarray], tuple[Sequence[float], Sequence[float]]]
                 ) -> ExtremumReport | tuple[ExtremumReport, ...]:
    """Locate the heat-capacity extrema of one scan, or of several as
    rows: ``c_grid`` and ``slope_grid`` hold c and dc/d ln beta on the
    monotone ``beta_grid``, evaluated by the caller.  Each extremum is
    bracketed by neighbouring scan points between which the slope changes
    sign, and every one of every scan is refined by ``_refine``, all in
    lockstep: a pass is one call ``fn(beta, rows)`` with the points of that
    pass of every open refinement (up to 4) and their scans' rows, returning
    their (c, dc/d ln beta); a smooth peak takes 2 passes.  An extremum
    lies at the root of the slope's secant on its last bracket, ~1e-6 wide
    in ln beta.

    A report per scan (a tuple of them for rows) carries the global maximum
    and minimum found; a scan without interior extrema yields an empty
    report (not an error).
    """
    betas, cs = np.asarray(beta_grid, dtype=float), np.asarray(c_grid, dtype=float)
    slopes = np.asarray(slope_grid, dtype=float)
    if betas.ndim not in (1, 2) or betas.shape[-1] < 3:
        raise DomainError("beta_grid must be monotone with at least 3 points")
    d = np.diff(np.atleast_2d(betas))
    if not np.all((d > 0).all(axis=1) | (d < 0).all(axis=1)):
        raise DomainError("beta_grid must be strictly monotone")
    if not cs.shape == slopes.shape == betas.shape:
        raise DomainError(f"c_grid and slope_grid have shapes {cs.shape} and {slopes.shape} "
                          f"for beta_grid of shape {betas.shape}")

    runs = []  # (row, sign, refinement generator) per interior extremum
    scans = list(zip(*(np.atleast_2d(a).tolist() for a in (betas, cs, slopes))))
    for row, scan in enumerate(scans):
        points = sorted(zip(*scan))  # ascending in beta, so in u = ln beta
        for (b0, c0, s0), (b1, c1, s1) in zip(points, points[1:]):
            # a maximum where the slope falls through 0, a minimum where it rises
            for sign in (1.0, -1.0):
                if sign * s0 > 0.0 >= sign * s1:
                    runs.append((row, sign, _refine(math.log(b0), -sign * c0, -sign * s0,
                                                    math.log(b1), -sign * c1, -sign * s1)))
    best = {}  # (row, sign) -> (1/beta, c) of the scan's global extremum
    sent = dict.fromkeys(range(len(runs)))  # the values each open one is sent next
    while sent:
        pending = {}  # the points of each open one's next pass
        for j, fu in sent.items():
            try:
                pending[j] = runs[j][2].send(fu)
            except StopIteration as stop:
                row, sign, _ = runs[j]
                c = -sign * stop.value[1]
                if (row, sign) not in best or sign * c > sign * best[row, sign][1]:
                    best[row, sign] = (1.0 / math.exp(stop.value[0]), c)
        lanes = [(j, u) for j, us in pending.items() for u in us]
        if lanes:
            _work.counts.update(refine_passes=1, refine_lanes=len(lanes))
        values = iter(zip(*fn(np.array([math.exp(u) for _, u in lanes]),
                              np.array([runs[j][0] for j, _ in lanes], dtype=int)))
                      if lanes else ())
        sent = {j: [(-runs[j][1] * float(c), -runs[j][1] * float(g))
                    for c, g in (next(values) for _ in us)] for j, us in pending.items()}

    reports = tuple(ExtremumReport(*best.get((row, 1), (None, None)),
                                   *best.get((row, -1), (None, None)))
                    for row in range(len(scans)))
    return reports[0] if betas.ndim == 1 else reports
