"""Canonical-ensemble thermodynamics of the walled particle.

Exact truncated sums over a Spectrum, the universal Dirichlet/Neumann
curves in the variable y = beta * F^(2/3), and a grid-scan extremum locator
for any c(beta), refined in lockstep over extrema by parabolic passes of
a few points each.  The closed forms of the two-term model are in ``limits``.

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

from . import _work
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
    _work.counts.update(batches=1, batch_lanes=np.size(beta))
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

def _refine(a: float, fa: float, x: float, fx: float, b: float,
            fb: float) -> Generator[list[float], list[float], tuple[float, float]]:
    """Minimum of fn on [a, b] in a few multi-point passes, from a
    bracketing triple a < x < b with fx below fa and fb, all three values
    already known.  Each pass evaluates the vertex v of the parabola through
    the best point x and its two neighbours among the points evaluated (v
    snapped to x within tol1 of it), probes at v +- |v - x|/5, or at
    v +- tol1 once |v - x| <= 20 tol1, and, after a pass that did not halve
    the bracket (a Bose cusp, where the parabola misleads), 5 points evenly
    across it; points outside the bracket or within tol1/2 of another are
    skipped.  Stops by Brent's (1973) rule, once both sides of the bracket
    around x are within 2 tol1, tol1 = sqrt(eps)|x| + 2.5e-7.  A generator:
    it yields each pass's points u and is sent the list fn(u), and returns
    (x, fn(x)) of the best point evaluated."""
    points, zoom = [(a, fa), (x, fx), (b, fb)], False
    while True:
        tol1 = _SQRT_EPS * abs(x) + 0.25e-6
        if max(x - a, b - x) <= 2.0 * tol1:
            return x, fx
        p, q = (x - a) * (fx - fb), (x - b) * (fx - fa)
        v = x - 0.5 * ((x - a) * p - (x - b) * q) / (p - q) if p != q else x
        v = x if abs(v - x) < tol1 else v
        h = abs(v - x) / 5.0 if abs(v - x) > 20.0 * tol1 else tol1
        taken = [a, x, b]
        for u in [v, v - h, v + h] + ([a + k * (b - a) / 6.0 for k in range(1, 6)]
                                      if zoom else []):
            if a < u < b and min(abs(u - t) for t in taken) >= 0.5 * tol1:
                taken.append(u)
        if len(taken) == 3:
            return x, fx
        points += zip(taken[3:], (yield taken[3:]))
        points.sort()
        i = min(range(len(points)), key=lambda k: points[k][1])
        width, ((a, fa), (x, fx), (b, fb)) = b - a, points[i - 1:i + 2]
        zoom = b - a > 0.5 * width


def find_extrema(beta_grid: Sequence, c_grid: Sequence,
                 c_fn: Callable[[np.ndarray, np.ndarray], Sequence[float]]
                 ) -> ExtremumReport | tuple[ExtremumReport, ...]:
    """Locate the heat-capacity extrema of one scan, or of several as
    rows: ``c_grid`` holds c(beta) on the monotone ``beta_grid``, evaluated
    by the caller.  Every interior extremum of every scan is refined from
    its grid point (relative 1e-6 in beta) by ``_refine``, all in lockstep:
    a pass is one call ``c_fn(beta, rows)`` with the points of that pass of
    every open refinement (3 for a smooth peak, 8 when a cusp needs a zoom)
    and their scans' rows, returning their c values; a smooth peak takes 3
    or 4 passes.

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

    runs = []  # (row, sign, refinement generator) per interior extremum
    rows = list(zip(np.atleast_2d(betas).tolist(), np.atleast_2d(cs).tolist()))
    for row, (b, c) in enumerate(rows):
        for i in range(1, len(b) - 1):
            sign = (c[i - 1] < c[i] > c[i + 1]) - (c[i - 1] > c[i] < c[i + 1])
            if not sign:
                continue
            lo, hi = sorted(((math.log(b[i - 1]), -sign * c[i - 1]),
                             (math.log(b[i + 1]), -sign * c[i + 1])))
            runs.append((row, sign, _refine(*lo, math.log(b[i]), -sign * c[i], *hi)))
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
        _work.counts["refine_passes"] += bool(lanes)
        values = iter(c_fn(np.array([math.exp(u) for _, u in lanes]),
                           np.array([runs[j][0] for j, _ in lanes], dtype=int)) if lanes else ())
        sent = {j: [-runs[j][1] * float(next(values)) for _ in us] for j, us in pending.items()}

    reports = tuple(ExtremumReport(*best.get((row, 1), (None, None)),
                                   *best.get((row, -1), (None, None)))
                    for row in range(len(rows)))
    return reports[0] if betas.ndim == 1 else reports
