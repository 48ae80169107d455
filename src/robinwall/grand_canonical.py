"""Fermi-Dirac and Bose-Einstein thermodynamics over a wall spectrum.

The chemical potential is solved from the particle-number sum

    N = sum_n 1/(e^{(E_n - mu) beta} +- 1)

(upper sign fermions, lower bosons; at most one fermion per level, spin
degeneracy 1).  Internally the solve runs in the shifted variable
gamma = beta*(E_0 - mu), which is exactly the quantity that must stay
positive for bosons and keeps every exponent well conditioned when mu
crowds the ground level to within 1e-14.  Newton runs on ln N, nearly
linear over most of the domain, in the solve's coordinate u (gamma for
fermions, ln gamma for bosons, whose gamma spans decades), safeguarded by
the bracket of the points already evaluated: ``specfun._newton_root``,
which also finds every Airy zero, Robin level and condensation
temperature.  It runs on a batch of temperatures in lockstep: every pass
is one fused ladder pass over the unsolved lanes giving N,
dN/dgamma = -D_0 and the energy moments together.  A lane stops at
|N - N_target| <= 1e-12 N_target or once its bracket has collapsed, and
its last iterate is its result if it meets |N - N_target| <= 1e-10
N_target: its sums give <E> and c directly.  The result depends on the
start within the 1e-12 target: c at FD, N = 10, F = 1e-7, beta = 9.532
spreads by ~1e-13 relative over starts.

One evaluator, ``_Evaluator``, runs every solve and starts each lane from
the states already solved in its cell.  A cell's first lanes start cold,
with no ladder pass, from the root of the two-term balance

    N = 1/(e^gamma +- 1) + A g(-(gamma + beta Delta))

of the ground level and the tail law's quasi-continuum of density
sqrt(E - shift)/(pi F) above shift, A = 1/(2 sqrt(pi) F beta^{3/2}) and
Delta = shift - E_0 (the model of ``limits``, whose continuum weight and
Boltzmann balance they read), the continuum in the lanes' own statistics:
g = f_{3/2}, the complete Fermi-Dirac integral, for fermions, which holds
a filled sea (``_fermi_start``), and g = g_{3/2} for bosons
(``_bose_start``).  A fermion lane whose Fermi edge is frozen (half the
gap E_N - E_{N-1} past ln(2e12) kT) starts at mid-gap, where the two edge
levels hold as many holes as particles and the first pass meets the
1e-12 target, so mu lands on the exact two-level value.  ``gc_point`` is
the evaluator's cold, one-call form.

The heat capacity uses the implicit-function temperature derivative of mu:
with w_n = e^{x_n}/(e^{x_n} +- 1)^2 and x_n = beta (E_n - mu),

    beta dmu/dbeta = sum (E_n - mu) w_n / sum w_n,

which collapses the full expression to the variance form
c = beta^2 (D2 - D1^2/D0) over the w-weighted moments.  The same sums
give each state's slope dgamma/dbeta = -sum (E_n - E_0) w_n / sum w_n,
from which the evaluator starts the solves of nearby temperatures; both
read 0 where every weight underflows (D0 = 0).  The moments are taken
about the level where w peaks (the upper of E_0 and mu), so D1 is small
and the variance does not cancel when one level holds nearly all of the
weight, as the Bose ground level does deep in the condensate.  About a
mid-gap mu the two levels around a frozen Fermi edge hold the weight
symmetrically, D1 vanishes, and c is tiny and positive (robin-, F = 1,
FD, N = 1: c = 8.8e-35 at beta = 50 and 2.0e-72 at beta = 100).  A warm
start, or a lane that thaws across a grid, can still stop at a mu away
from mid-gap that meets the target, where the variance can cancel to a
tiny c of either sign with no error message (ROADMAP.md, open item 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .canonical import ThermoPoint
from .errors import DomainError, SolverError
from .ladder import Statistics, _Plan, _check_statistics, _sums, ladder_sums
from .limits import _ln_weight, _two_term_log_t, asymptotic_beta_cr
from .spectrum import Spectrum
from .specfun import _SQRT_PI, _bose_g, _check_beta, _check_index, _fermi_f, _newton_root

__all__ = [
    "Statistics",
    "EnsembleSpec",
    "CondensateReport",
    "gc_point",
    "be_critical",
]

_N_RESIDUAL = 1e-10  # relative particle-number residual of every accepted state
_N_TARGET = 1e-12  # the residual the Newton iteration aims at


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble: statistics plus particle number N >= 1 (N = 1 canonical)."""

    statistics: Statistics
    n_particles: int

    def __post_init__(self) -> None:
        _check_statistics(self.statistics)
        object.__setattr__(self, "n_particles",
                           _check_index(self.n_particles, 1, "n_particles"))
        if self.statistics is Statistics.CANONICAL and self.n_particles != 1:
            raise DomainError(f"the canonical ensemble is computed for 1 particle, "
                              f"got {self.n_particles!r}")


@dataclass(frozen=True)
class CondensateReport:
    """Condensation threshold of a Bose system."""

    beta_cr: float
    t_cr: float
    asymptotic_beta_cr: float


# ---------------------------------------------------------------------------
# particle-number solves: mu in gamma = beta (E_0 - mu), and beta_cr
# ---------------------------------------------------------------------------

def _solve_n(fn, u, lo, hi, n_target: np.ndarray, what):
    """Roots of N(u) = N_target for strictly decreasing N(u), one per lane
    and each with its own ``n_target``: ``specfun._newton_root`` on
    ln(N / N_target) from the starts ``u`` in the brackets (lo, hi), a lane
    done at |N - N_target| <= 1e-12 N_target.
    ``fn(u, lanes)`` evaluates the lanes ``lanes`` at ``u`` and returns
    arrays ``(N, dN/du, payload)``, one payload column per lane; N <= 0
    (every occupation underflowed) counts as ln N = -inf.  A lane's last
    point is accepted if it meets the 1e-10 contract (a NaN residual fails
    at once).  Returns the payloads and, per lane, None or the message
    ``what(lane)`` of a failed lane."""
    def log_n(x, lanes):
        n, dn_du, pay = fn(x, lanes)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.log(np.maximum(n, 0.0) / n_target[lanes])
            slope = np.where(n > 0.0, dn_du / n, np.nan)  # d ln N / du
        return r, slope, np.vstack([r, pay])

    payload, _ = _newton_root(log_n, lo, hi, u,
                              lambda r, slope, x: np.abs(np.expm1(r)) <= _N_TARGET)
    err = np.abs(np.expm1(payload[0]))
    errors = [None if e <= _N_RESIDUAL else
              f"{what(i)}: particle-number residual {e:.3e} N exceeds tolerance "
              f"{_N_RESIDUAL:.0e} N" for i, e in enumerate(err.tolist())]
    return payload[1:], errors


_GAMMA_MAX = 750.0  # beyond it every occupation underflows: N(gamma) = 0


# past this half-gap in units of kT a frozen Fermi edge's top hole and first
# particle each hold below half the particle-number target: at mid-gap the
# solve's first pass meets it
_FROZEN_HALF_GAP = math.log(2.0 / _N_TARGET)


def _fermi_start(spectrum: Spectrum, beta: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Cold gamma of fermions: the root of the two-term balance
    N = 1/(e^gamma + 1) + A f_{3/2}(eta) in eta = -(gamma + beta Delta),
    whose complete Fermi-Dirac integral f_{3/2} holds a filled sea, to 1e-6
    by ``_newton_root`` on the log-ratio of the continuum A f_{3/2} to the
    N - 1/(e^gamma + 1) particles it must hold, which stays nearly linear in
    gamma where the ground level holds most of N.  The root lies between the
    Boltzmann root (f_{3/2}(eta) < e^eta) and the zero-temperature edge
    eta = (Gamma(5/2) N/A)^{2/3} (f_{3/2}(eta) > eta^{3/2}/Gamma(5/2)), and
    Newton starts from the first where its eta <= 0 and from the second
    where the sea is degenerate.  On a ladder whose spacings do not grow, mu
    lies at or below mid-gap, mu = (E_{N-1} + E_N)/2, where the two levels
    around the Fermi edge hold as many holes as particles and every deeper
    hole is outweighed by a particle above, so no start puts mu above it.
    A lane whose edge is frozen, beta (E_N - E_{N-1})/2 > _FROZEN_HALF_GAP,
    starts at mid-gap."""
    e_top, e_next = spectrum.energies(np.stack([n - 1, n])) - spectrum.e0
    start = -0.5 * beta * (e_top + e_next)  # mid-gap
    thaw = (0.5 * beta * (e_next - e_top) <= _FROZEN_HALF_GAP).nonzero()[0]
    if not thaw.size:
        return start
    n, beta = n[thaw], beta[thaw]
    ln_a = _ln_weight(spectrum.wall.field, beta)
    bd = beta * (spectrum.tail.shift - spectrum.e0)
    boltzmann = -_two_term_log_t(ln_a - bd, n, Statistics.FERMI_DIRAC)
    edge = -np.exp((np.log(0.75 * _SQRT_PI * n) - ln_a) / 1.5) - bd

    def log_ratio(gamma, lanes):
        f32, f12 = _fermi_f(-(gamma + bd[lanes]))
        t = np.exp(-np.abs(gamma))
        rest = n[lanes] - 1.0 + np.where(gamma >= 0.0, 1.0, t) / (1.0 + t)  # N - ground
        r = ln_a[lanes] + np.log(f32) - np.log(rest)
        return r, -f12 / f32 - t / (1.0 + t) ** 2 / rest, gamma[None]

    root = _newton_root(log_ratio, edge - 1.0, boltzmann + 1.0,
                        np.where(boltzmann + bd >= 0.0, boltzmann, edge),
                        lambda r, slope, v: np.abs(r) <= 1e-6)[0][0]
    start[thaw] = np.maximum(root, start[thaw])
    return start


def _bose_start(spectrum: Spectrum, beta: np.ndarray, n: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
    """Cold ln gamma of bosons: the root of the two-term balance
    N = 1/(e^gamma - 1) + A g_{3/2}(-(gamma + beta Delta)), whose g_{3/2}
    holds about twice what the Boltzmann continuum e^eta does near
    condensation, with Delta raised to 0 where the tail law starts below E_0
    (so the fugacity stays below 1).  Found to 1e-6 in N by ``_newton_root``
    in ln gamma on the bracket (lo, hi), from the Boltzmann root
    (``_two_term_log_t``), on the closed forms of g_{3/2} and
    g_{1/2} = -dg_{3/2}/dalpha."""
    ln_a = _ln_weight(spectrum.wall.field, beta)
    bd = beta * max(spectrum.tail.shift - spectrum.e0, 0.0)

    def log_n(v, lanes):
        gamma = np.exp(v)
        g32, g12 = _bose_g(gamma + bd[lanes])
        with np.errstate(all="ignore"):  # ground = 0 and ln N = -inf past e^750
            a = np.exp(ln_a[lanes])
            ground = 1.0 / np.expm1(gamma)
            total = ground + a * g32
            # dN/d ln gamma, with -d(ground)/dgamma = e^gamma/(e^gamma - 1)^2
            slope = -gamma * (ground / -np.expm1(-gamma) + a * g12)
            return np.log(total / n[lanes]), slope / total, v[None]

    with np.errstate(divide="ignore"):
        start = np.log(-_two_term_log_t(ln_a - bd, n, Statistics.BOSE_EINSTEIN))
    start = np.fmax(np.fmin(start, hi), lo)
    return _newton_root(log_n, lo, hi, start, lambda r, slope, v: np.abs(r) <= 1e-6)[0][0]


def _moment_offset(beta, gamma):
    """Moment offset E_0 - ref of the grand-canonical sums, for moments about
    ref = max(E_0, mu), where the distribution kernel e^x/(e^x +- 1)^2
    peaks over the levels.  About it the first distribution moment is
    small, so the variance D_2 - D_1^2/D_0 does not cancel against a
    dominant level (the Bose ground level, or the two levels around a
    frozen Fermi level)."""
    return np.minimum(gamma, 0.0) / beta


class _Evaluator:
    """Grand-canonical states of batches of temperatures as one
    ``ThermoPoint`` of arrays, lane i of ``beta`` in the cell ``cells[i]``
    with the ensemble ``ensembles[cells[i]]`` (all FD, or all BE).  A failed
    lane does not raise: its mu, energy, heat capacity and n0 are NaN and
    its message, naming its beta and N, is in ``errors``.

    ``states[k]`` holds the solved states of cell k as a (3, m) array, one
    column each: ln beta, and u and du/d ln beta of its solve (u = gamma =
    beta (E_0 - mu), or ln gamma for bosons), stably sorted by ln beta, so
    states of equal ln beta stay in the order solved.  A lane starts from
    the cubic Hermite through its cell's two states nearest in ln beta (on
    a tie, the first in that order: a state below the lane before one
    above it), or the Taylor step from one, or else cold (``_fermi_start``,
    ``_bose_start``); a start is clipped into its lane's bracket.  One plan,
    made at the starts, serves every Newton pass of a call."""

    def __init__(self, spectrum: Spectrum, ensembles: Sequence[EnsembleSpec]) -> None:
        if {getattr(e, "statistics", None) for e in ensembles} not in (
                {Statistics.FERMI_DIRAC}, {Statistics.BOSE_EINSTEIN}):
            raise DomainError(f"the grand-canonical solve needs every ensemble FD, or every "
                              f"one BE; got {ensembles!r}")
        self.spectrum, self.statistics = spectrum, ensembles[0].statistics
        self.n = np.array([e.n_particles for e in ensembles])
        self.states = [np.empty((3, 0)) for _ in ensembles]

    def _starts(self, beta: np.ndarray, cells: np.ndarray) -> np.ndarray:
        start = np.full(len(beta), np.nan)
        for k in {k for k in cells.tolist() if self.states[k].size}:
            lb, u, slope = self.states[k]
            lane = cells == k
            x = np.log(beta[lane])
            # the two nearest, on a tie the first in ``states[k]``; one state: twice
            near = np.argsort(np.abs(x[:, None] - lb), axis=1, kind="stable")
            near = near[:, [0, min(1, lb.size - 1)]].T
            (l0, l1), (u0, u1), (s0, s1) = (row[near] for row in (lb, u, slope))
            h, d = l1 - l0, x - l0
            t = np.divide(d, h, out=np.zeros_like(d), where=h != 0.0)
            du = u1 - u0
            # Taylor from the nearest state, plus the Hermite terms if two
            start[lane] = u0 + s0 * d + t * t * (3.0 * du - h * (2.0 * s0 + s1)
                                                 + t * (h * (s0 + s1) - 2.0 * du))
        return start

    def __call__(self, beta: np.ndarray, cells: np.ndarray) -> ThermoPoint:
        sp, n = self.spectrum, self.n[cells]
        log_space = self.statistics is Statistics.BOSE_EINSTEIN
        if log_space:
            # the ground level alone holds N at gamma = ln(1 + 1/N), so the root
            # lies above it, deep in a condensate by ~1e-12: a low end 1e-9
            # below it keeps the Newton steps landing there inside the bracket
            lo, hi = np.log(np.log1p(1.0 / n)) - 1e-9, np.full(n.shape, math.log(_GAMMA_MAX))
        else:
            # mu between E_0 - hi/beta and E_N + pad/beta, hi = pad past the
            # Boltzmann continuum's root gamma = ln(A/N) where that is > 0 (hot fermions)
            pad = 50.0 + np.log(n + 2.0)
            lo = -(beta * (sp.energies(n) - sp.e0) + pad)
            hi = pad + np.maximum(_ln_weight(sp.wall.field, beta) - np.log(n), 0.0)
        start = self._starts(beta, cells)
        cold = np.isnan(start)
        if cold.any():
            start[cold] = (_bose_start(sp, beta[cold], n[cold], lo[cold], hi[cold]) if log_space
                           else _fermi_start(sp, beta[cold], n[cold]))
        start = np.fmax(np.fmin(start, hi), lo)
        plan = _Plan(sp, beta, np.exp(start) if log_space else start, self.statistics)

        def step(u: np.ndarray, lanes: np.ndarray):
            gamma = np.exp(u) if log_space else u
            sums = _sums(plan, lanes, gamma, _moment_offset(beta[lanes], gamma))
            # dN/du with dN/dgamma = -D_0
            return sums[0], -sums[2] * (gamma if log_space else 1.0), np.vstack([u, sums])

        (u, n_sum, n1, d0, d1, d2), errors = _solve_n(
            step, start, lo, hi, n,
            lambda i: f"particle-number solve at beta={beta[i]}, N={n[i]}")
        gamma = np.exp(u) if log_space else u
        e0, moff = sp.e0, _moment_offset(beta, gamma)
        energy = (e0 - moff) * n_sum + n1
        with np.errstate(divide="ignore", invalid="ignore"):
            # where every weight underflowed (D0 = D1 = D2 = 0), c lies below
            # the float range and N pins no gamma: both read 0
            c = np.where(d0 > 0.0, beta * beta * (d2 - d1 * d1 / d0) / n, 0.0)
            slope = beta * np.where(d0 > 0.0, moff - d1 / d0, 0.0)  # dgamma/d ln beta
            du = slope / gamma if log_space else slope  # du/d ln beta
        mu = e0 - gamma / beta
        n0 = None
        if log_space:
            n0 = 1.0 / np.expm1(gamma) / n
            # gamma, not mu - E_0: deep in a condensate mu rounds to E_0
            for i in ((gamma <= 0.0) | (n0 < 0.0) | (n0 > 1.0 + 1e-9)).nonzero()[0]:
                errors[i] = errors[i] or (f"bose state at beta={beta[i]}, N={n[i]} with "
                                          f"gamma = beta (E_0 - mu) = {gamma[i]} and ground "
                                          f"occupation {n0[i]} (need gamma > 0, n0 in [0, 1])")
            n0 = np.minimum(n0, 1.0)  # clip the last-ulp overshoot of a full condensate
        ok = np.array([e is None for e in errors])
        for k in set(cells[ok].tolist()):
            new = ok & (cells == k)
            states = np.hstack([self.states[k], [np.log(beta[new]), u[new], du[new]]])
            self.states[k] = states[:, np.argsort(states[0], kind="stable")]
        for a in (mu, energy, c) if n0 is None else (mu, energy, c, n0):
            a[~ok] = np.nan
        return ThermoPoint(beta, energy, c, mu, n0, tuple(errors))


def gc_point(spectrum: Spectrum, beta: float | np.ndarray,
             ensemble: EnsembleSpec) -> ThermoPoint:
    """Mean energy <E> of the N particles, heat capacity per particle, mu
    and, for bosons, the ground-level fraction n0 at one temperature, or at
    a batch of temperatures solved cold in lockstep: the one-call form of
    ``_Evaluator``.

    The returned state has been validated: the occupation sum reproduces N
    to 1e-10 relative, and for bosons gamma = beta (E_0 - mu) > 0 (mu may
    round to E_0 deep in a condensate) with n0 in [0, 1].  With a 1-D array
    ``beta`` every field is an array over the lanes, and a failed lane is
    NaN with its message in ``errors``; a scalar ``beta`` gives plain floats
    and raises SolverError instead.
    """
    beta = _check_beta(beta)
    if np.ndim(beta) > 1:
        raise DomainError(f"gc_point takes a scalar or 1-D beta, got shape {np.shape(beta)}")
    lanes = np.ravel(beta)
    p = _Evaluator(spectrum, [ensemble])(lanes, np.zeros(lanes.size, dtype=int))
    if np.ndim(beta) > 0:
        return p
    if p.errors[0]:
        raise SolverError(p.errors[0])
    return ThermoPoint(beta, *(float(a[0]) for a in (p.mean_energy, p.heat_capacity, p.mu)),
                       n0=None if p.n0 is None else float(p.n0[0]))


# ---------------------------------------------------------------------------
# Bose condensation
# ---------------------------------------------------------------------------

def be_critical(spectrum: Spectrum, n_particles: int) -> CondensateReport:
    """Largest temperature at which the condensate survives: beta_cr solves
    sum_{n>=1} 1/(e^{(E_n-E_0) beta} - 1) = N (chemical potential pinned at
    the ground level with no particles left in it), by safeguarded Newton
    on ln N in ln beta from the Lambert-W estimate, clipped into the
    bracket: the first excited level alone holds N at
    beta = ln(1 + 1/N)/(E_1 - E_0), so the root lies above it, and every
    occupation underflows at beta = _GAMMA_MAX/(E_1 - E_0)."""
    n_particles = _check_index(n_particles, 1, "n_particles")
    n_target = float(n_particles)
    beta_a = asymptotic_beta_cr(spectrum.wall.field, n_particles)
    ln_gap = math.log(spectrum.level(1) - spectrum.e0)
    lo, hi = math.log(math.log1p(1.0 / n_target)) - ln_gap, math.log(_GAMMA_MAX) - ln_gap

    def step(u: np.ndarray, lanes: np.ndarray):
        beta = np.exp(u)
        n, _, _, d1, _ = ladder_sums(spectrum, beta, Statistics.BOSE_EINSTEIN, gamma=0.0,
                                     start_index=1)
        # dN/d ln beta with dN/dbeta = -sum Delta_n w_n = -D_1
        return n, -beta * d1, beta[None]

    payload, errors = _solve_n(step, min(max(math.log(beta_a), lo), hi), lo, hi,
                               np.array([n_target]),
                               lambda i: f"condensation solve at N={n_particles}")
    if errors[0]:
        raise SolverError(errors[0])
    beta_cr = float(payload[0, 0])
    return CondensateReport(beta_cr=beta_cr, t_cr=1.0 / beta_cr,
                            asymptotic_beta_cr=beta_a)
