"""Canonical thermodynamics of one particle from the Boltzmann sums of
``ladder``, finite for any ground level, with moments in units of kT about
E_0: from their mean m and cumulants kappa_2, kappa_3, <E> = E_0 + m/beta,
c = kappa_2 = -beta^2 d<E>/dbeta and dc/d ln beta = 2c - kappa_3.
Also the universal Dirichlet/Neumann curves in y = beta F^(2/3), and the
extremum search on c(beta) of every sweep and peak search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    """A state, or arrays of them over a batch: <E> of all the particles, c
    per particle (units of k_B), mu and the Bose ground fraction n0 (None
    where they do not apply), per lane of a batch None or why its values
    are NaN, and dc/d ln beta = -T dc/dT."""

    beta: float
    mean_energy: float
    heat_capacity: float
    mu: float | None = None
    n0: float | None = None
    errors: tuple[str | None, ...] | None = None
    heat_capacity_slope: float | None = None


@dataclass(frozen=True)
class ExtremumReport:
    """The largest and smallest c of a scan's interior extrema and their
    temperatures; None where it has none."""

    beta_inv_at_max: float | None = None
    c_max: float | None = None
    beta_inv_at_min: float | None = None
    c_min: float | None = None


def _checked(p: ThermoPoint, what: Callable[[int], str]) -> ThermoPoint:
    """The finished batch ``p`` with every failed lane NaN in all its values:
    a lane with a message, and a lane whose <E>, c or dc/d ln beta is not
    finite, which gets one naming it by ``what(lane)``."""
    values = (p.mean_energy, p.heat_capacity, p.heat_capacity_slope)
    bad = ~np.isfinite(values).all(axis=0)
    errors = tuple(e or (f"{what(i)}: <E> = {values[0][i]}, c = {values[1][i]} and "
                         f"dc/d ln beta = {values[2][i]} are not finite" if bad[i] else None)
                   for i, e in enumerate(p.errors))
    failed = np.array([e is not None for e in errors])
    return replace(p, errors=errors, **{f: np.where(failed, np.nan, getattr(p, f)) for f in (
        "mean_energy", "heat_capacity", "mu", "n0", "heat_capacity_slope")
        if getattr(p, f) is not None})


def _canonical(spectrum: Spectrum, beta: np.ndarray) -> ThermoPoint:
    """<E>, c and dc/d ln beta of one particle over the 1-D ``beta``, one
    batch of ladder sums, each failed lane checked by ``_checked``."""
    _work.counts.update(batches=1, batch_lanes=beta.size)
    s0, s1, s2, s3 = ladder_sums(spectrum, beta, Statistics.CANONICAL)
    m, m2 = s1 / s0, s2 / s0
    c = m2 - m * m  # kappa_2
    kappa3 = s3 / s0 - m * (3.0 * m2 - 2.0 * m * m)
    return _checked(ThermoPoint(beta, spectrum.e0 + m / beta, c, errors=(None,) * beta.size,
                                heat_capacity_slope=2.0 * c - kappa3),
                    lambda i: f"canonical sums at beta={beta[i]}")


# ---------------------------------------------------------------------------
# universal Dirichlet/Neumann curves
# ---------------------------------------------------------------------------

def universal_dn_curve(y: float, kind: WallKind) -> tuple[float, float]:
    """(<E>/F^(2/3), c) of the hard or reflecting wall at the scalar
    y = beta F^(2/3) > 0, on which both depend alone."""
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
    the ends of a < b, ga < 0 <= gb (Nocedal & Wright, eq. 3.59), or the
    midpoint where rounding puts it outside (a, b)."""
    d1 = ga + gb - 3.0 * (fb - fa) / (b - a)
    d2 = math.sqrt(d1 * d1 - ga * gb)
    v = b - (b - a) * (gb + d2 - d1) / (gb - ga + 2.0 * d2)
    return v if a < v < b else 0.5 * (a + b)


def _refine(a: float, fa: float, ga: float, b: float, fb: float,
            gb: float) -> Generator[list[float], list[tuple], tuple[float, float]]:
    """Minimum of f on a bracket a < b with ga < 0 <= gb, as a generator
    that yields each pass's points u and is sent their (f(u), f'(u)).  A
    pass evaluates, inside the bracket of width w, the ``_cubic_min`` v,
    v +- max(tol1, w/1000) and a + w/2; the next bracket is the adjacent
    pair whose slopes change sign next to the lowest value.  Once w <= 4 tol1
    (Brent, 1973), tol1 = sqrt(eps)|x| + 2.5e-7 at the lower end x, returns
    (root of the slope's secant on the bracket, f(x)): at that width the
    values differ by rounding alone."""
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
    """The ``ExtremumReport`` of a scan, or a tuple of them for scans as rows,
    from c and dc/d ln beta on a strictly monotone ``beta_grid`` of at least
    3 points (else DomainError).  Neighbours whose slopes change sign
    bracket an extremum, refined by ``_refine`` in ln beta, all in lockstep:
    a pass is one call ``fn(beta, rows)`` returning (c, dc/d ln beta) at the
    points of every open refinement.
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
