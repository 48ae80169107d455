"""Fermi-Dirac and Bose-Einstein thermodynamics over a wall spectrum.

The chemical potential solves the particle number (spin degeneracy 1)

    N = sum_n 1/(e^{(E_n - mu) beta} +- 1)      (upper sign fermions)

in gamma = beta (E_0 - mu), which bosons need > 0 and which stays exact as
mu rounds to E_0 deep in a condensate, by ``_solve_n`` in u = gamma, or
ln gamma for bosons, in lockstep over lanes, each pass one ladder pass
that also gives the moments.  ``_Evaluator`` runs every solve, from its
cell's solved states or cold from the two-term balance of ``limits``.

The ladder's moments are in y_n = x_n - max(gamma, 0) = beta (E_n - ref),
units of kT about ref = max(E_0, mu), x_n = beta (E_n - mu); so
<E> = E_0 N + (N_1 - min(gamma, 0) N)/beta.  With w_n = e^{x_n}/(e^{x_n} +- 1)^2,
the implicit temperature derivative of mu,

    beta dmu/dbeta = sum (E_n - mu) w_n / sum w_n,

gives c = (D_2 - D_1^2/D_0) / N over the w-weighted moments and the slope
dgamma/d ln beta = min(gamma, 0) - D_1/D_0 that warm starts read.  At
fixed N each exponent moves as dx_n/d ln beta = eps_n, y_n about its
w-weighted mean, so with V = sum eps_n^2 w_n and dw/dx = -w +- 2 w f,

    dV = sum eps_n^3 (-w_n +- 2 w_n f_n),
    dc/d ln beta = 2c + dV / N,

from D_0..D_3 and G_0..G_3 of the same pass.  A frozen Fermi edge solved at
mid-gap has c tiny and positive; a warm start that stops away from mid-gap
within the target can cancel c to a tiny value of either sign with no
error (ROADMAP.md, open item 3).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _work
from .canonical import ThermoPoint, _canonical, _checked
from .errors import DomainError, SolverError
from .ladder import EnsembleSpec, Statistics, _Plan, _sums, ladder_sums
from .limits import _ln_weight, _two_term_log_t, asymptotic_beta_cr
from .spectrum import Spectrum
from .specfun import _SQRT_PI, _bose_g, _check_index, _check_member, _check_real, _newton_root

__all__ = [
    "Statistics",
    "EnsembleSpec",
    "CondensateReport",
    "thermo_point",
    "be_critical",
]

_N_RESIDUAL = 1e-10  # relative particle-number residual of every accepted state
_N_TARGET = 1e-12  # the residual the Newton iteration aims at


class CondensateReport(NamedTuple):
    """Condensation threshold of a Bose system: beta_cr, T_cr = 1/beta_cr,
    and the weak-field Lambert-W estimate of beta_cr."""

    beta_cr: float
    t_cr: float
    asymptotic_beta_cr: float


# ---------------------------------------------------------------------------
# particle-number solves: mu in gamma = beta (E_0 - mu), and beta_cr
# ---------------------------------------------------------------------------

def _solve_n(fn, u, lo, hi, n_target: np.ndarray, what):
    """Roots of N(u) = n_target for N(u) strictly decreasing, a lane each:
    ``specfun._newton_root`` on g = ln(N / n_target) from the starts ``u``
    in the brackets (lo, hi), a lane done at _N_TARGET.  ``fn(u, lanes)``
    returns ``(N, dN/du, d2N/du2, payload)`` over the lanes ``lanes``, a
    payload column per lane (d2N/du2 = 0: Newton's steps); N <= 0 is
    ln N = -inf.  Returns the payloads and per lane None, or, where the last
    point misses _N_RESIDUAL or its sums are not finite, a message starting
    ``what(lane)``."""
    def log_n(x, lanes):
        n, n_u, n_uu, pay = fn(x, lanes)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.log(np.maximum(n, 0.0) / n_target[lanes])
            g1 = np.where(n > 0.0, n_u / n, np.nan)
            return g, g1, n_uu / n - g1 * g1, np.vstack([g, pay])

    payload, _, _ = _newton_root(log_n, lo, hi, u,
                                 lambda g, slope, x: np.abs(np.expm1(g)) <= _N_TARGET)
    err = np.abs(np.expm1(payload[0]))
    errors = [None if e <= _N_RESIDUAL else
              f"{what(i)}: particle-number residual {e:.3e} N exceeds tolerance "
              f"{_N_RESIDUAL:.0e} N" if math.isfinite(e) else
              f"{what(i)}: particle-number residual {e} N, as its particle-number "
              "sums are not finite" for i, e in enumerate(err.tolist())]
    return payload[1:], errors


_GAMMA_MAX = 750.0  # e^-750 underflows: past it N(gamma) = 0

# past this half-gap in units of kT a frozen Fermi edge's top hole and first
# particle each hold below half of _N_TARGET: at mid-gap the first pass meets it
_FROZEN_HALF_GAP = math.log(2.0 / _N_TARGET)


def _fermi_start(spectrum: Spectrum, beta: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Cold gamma of fermions from the two-term balance
    N = 1/(e^gamma + 1) + A f_{3/2}(eta), eta = -(gamma + beta Delta), with
    A and Delta = shift - E_0 of ``limits``: the Boltzmann root gamma_B
    (``_two_term_log_t``) moved by the next term of f_{3/2}'s classical
    series to gamma_B - ln(1 + e^{eta_B}/2^{3/2}) where eta_B <= 0, else the
    zero-temperature edge eta = (Gamma(5/2) N/A)^{2/3}; never above
    mid-gap, mu = (E_{N-1} + E_N)/2, which bounds mu on a ladder whose
    spacings do not grow.  A lane with beta (E_N - E_{N-1})/2 past
    _FROZEN_HALF_GAP starts at mid-gap."""
    e_top, e_next = spectrum.energies(np.stack([n - 1, n])) - spectrum.e0
    start = -0.5 * beta * (e_top + e_next)  # mid-gap
    thaw = (0.5 * beta * (e_next - e_top) <= _FROZEN_HALF_GAP).nonzero()[0]
    if not thaw.size:
        return start
    n, beta = n[thaw], beta[thaw]
    ln_a = _ln_weight(spectrum.wall.field, beta)
    bd = beta * (spectrum.tail.shift - spectrum.e0)
    boltzmann = -_two_term_log_t(ln_a - bd, n, Statistics.FERMI_DIRAC)
    eta = -(boltzmann + bd)
    classical = boltzmann - np.log1p(np.exp(np.minimum(eta, 0.0)) / 2.0 ** 1.5)
    edge = -np.exp((np.log(0.75 * _SQRT_PI * n) - ln_a) / 1.5) - bd
    start[thaw] = np.maximum(np.where(eta <= 0.0, classical, edge), start[thaw])
    return start


def _bose_start(spectrum: Spectrum, beta: np.ndarray, n: np.ndarray, lo: np.ndarray,
                hi: np.ndarray) -> np.ndarray:
    """Cold ln gamma of bosons: the root in (lo, hi) of the two-term balance
    N = 1/(e^gamma - 1) + A g_{3/2}(-(gamma + beta Delta)), Delta >= 0 so
    that the fugacity stays below 1, by ``_solve_n`` from the Boltzmann
    root (``_two_term_log_t``).  A lane that misses the target keeps its
    last point: it is only a start."""
    ln_a = _ln_weight(spectrum.wall.field, beta)
    bd = beta * max(spectrum.tail.shift - spectrum.e0, 0.0)

    def balance(v, lanes):
        gamma = np.exp(v)
        g32, g12 = _bose_g(gamma + bd[lanes])
        with np.errstate(all="ignore"):  # ground = 0 and N = 0 past _GAMMA_MAX
            a = np.exp(ln_a[lanes])
            ground = 1.0 / np.expm1(gamma)
            # dN/d ln gamma, with -d(ground)/dgamma = e^gamma/(e^gamma - 1)^2
            slope = -gamma * (ground / -np.expm1(-gamma) + a * g12)
            return ground + a * g32, slope, np.zeros_like(v), v[None]

    root = -_two_term_log_t(ln_a - bd, n, Statistics.BOSE_EINSTEIN)
    # a root at 0, a condensate, starts at lo; one rounded below 0 (at N near
    # 2^63, where the balance's 1 - t is below rounding) has no digits left,
    # and starts at hi
    with np.errstate(divide="ignore"):
        start = np.clip(np.log(np.where(root < 0.0, np.inf, root)), lo, hi)
    return _solve_n(balance, start, lo, hi, n, str)[0][0]


class _Evaluator:
    """Called with (beta, cells), the ``ThermoPoint`` of arrays of the batch,
    lane i in ``ensembles[cells[i]]``, all of one statistics (else
    DomainError), each failed lane checked by ``canonical._checked``; the
    canonical sums are ``canonical._canonical``.  ``states[k]`` holds
    cell k's solved (ln beta, u, du/d ln beta) as columns, stably sorted by
    ln beta; a lane starts on the cubic Hermite through its cell's two
    nearest (on a tie, the first), the Taylor step from one, or else cold,
    clipped into its bracket.  One plan, made at the starts, serves a call."""

    def __init__(self, spectrum: Spectrum, ensembles: Sequence[EnsembleSpec]) -> None:
        self.spectrum = _check_member(spectrum, Spectrum, "spectrum")
        kinds = {_check_member(e, EnsembleSpec, "ensemble").statistics for e in ensembles}
        if len(kinds) != 1:
            raise DomainError(f"the ensembles of one evaluation need one statistics, "
                              f"got {ensembles!r}")
        self.statistics, = kinds
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
        if self.statistics is Statistics.CANONICAL:
            return _canonical(self.spectrum, beta)
        sp, n = self.spectrum, self.n[cells]

        def what(i: int) -> str:
            return f"{self.statistics.value} state at beta={beta[i]}, N={n[i]}"

        log_space = self.statistics is Statistics.BOSE_EINSTEIN
        pm = -1.0 if log_space else 1.0  # the sign of e^x +- 1
        if log_space:
            # the ground level alone holds N at gamma = ln(1 + 1/N), so the root
            # lies above it, deep in a condensate within rounding of the N
            # target: the low end's margin keeps Newton steps there inside
            lo, hi = np.log(np.log1p(1.0 / n)) - 1e-9, np.full(n.shape, math.log(_GAMMA_MAX))
        else:
            # mu between E_0 - hi/beta and E_N + pad/beta, hi = pad past the
            # Boltzmann continuum's root gamma = ln(A/N) where that is > 0 (hot fermions)
            pad = 50.0 + np.log(n + 2.0)
            with np.errstate(over="ignore"):
                lo = -(beta * (sp.energies(n) - sp.e0) + pad)
            hi = pad + np.maximum(_ln_weight(sp.wall.field, beta) - np.log(n), 0.0)
            # a lane whose bracket leaves the float range fails unsolved, and
            # the others solve as a batch of their own
            wild = np.isinf(lo)
            if wild.any():
                vals = np.full((4, len(beta)), np.nan)  # <E>, c, mu, dc/d ln beta
                errors = np.array([f"{what(i)}: its mu bracket beta (E_N - E_0) leaves the "
                                   "float range" for i in range(len(beta))], dtype=object)
                if not wild.all():
                    q = self(beta[~wild], cells[~wild])
                    vals[:, ~wild] = q.mean_energy, q.heat_capacity, q.mu, q.heat_capacity_slope
                    errors[~wild] = q.errors
                return _checked(ThermoPoint(beta, *vals[:3], None, tuple(errors), vals[3]), what)
        start = self._starts(beta, cells)
        cold = np.isnan(start)
        _work.counts.update(batches=1, batch_lanes=len(beta), cold_lanes=int(cold.sum()))
        if cold.any():
            start[cold] = (_bose_start(sp, beta[cold], n[cold], lo[cold], hi[cold]) if log_space
                           else _fermi_start(sp, beta[cold], n[cold]))
        start = np.fmax(np.fmin(start, hi), lo)
        plan = _Plan(sp, beta, np.exp(start) if log_space else start, self.statistics)

        def step(u: np.ndarray, lanes: np.ndarray):
            gamma = np.exp(u) if log_space else u
            sums = _sums(plan, lanes, gamma)
            n_sum, d0 = sums[0], sums[2]
            # dN/du and d2N/du2, with dN/dgamma = -D_0 and
            # d2N/dgamma2 = D_0 -+ 2 G_0 (fermions -, bosons +)
            n_u, n_uu = -d0, d0 - pm * 2.0 * sums[6]
            if log_space:
                n_u, n_uu = gamma * n_u, gamma * (n_u + gamma * n_uu)
            return n_sum, n_u, n_uu, np.vstack([u, sums])

        (u, n_sum, n1, d0, d1, d2, d3, g0, g1, g2, g3), errors = _solve_n(
            step, start, lo, hi, n,
            lambda i: f"particle-number solve at beta={beta[i]}, N={n[i]}")
        gamma = np.exp(u) if log_space else u
        e0, low = sp.e0, np.minimum(gamma, 0.0)
        energy = e0 * n_sum + (n1 - low * n_sum) / beta
        with np.errstate(divide="ignore", invalid="ignore"):
            # where every weight underflowed (D0 = D1 = D2 = 0), c lies below
            # the float range and N pins no gamma: all read 0
            c = np.where(d0 > 0.0, (d2 - d1 * d1 / d0) / n, 0.0)
            # dV of the module docstring, eps = y - a
            a = np.where(d0 > 0.0, d1 / d0, 0.0)
            dv = (2.0 * pm * (g3 - a * (3.0 * g2 - a * (3.0 * g1 - a * g0)))
                  - (d3 - a * (3.0 * d2 - 2.0 * a * d1)))
            c_slope = 2.0 * c + dv / n  # dc/d ln beta
            # du/d ln beta from dgamma/d ln beta = min(gamma, 0) - D_1/D_0
            du = np.where(d0 > 0.0, low - a, 0.0) / (gamma if log_space else 1.0)
        mu = e0 - gamma / beta
        # n0 from gamma, not mu - E_0: deep in a condensate mu rounds to E_0
        n0 = 1.0 / np.expm1(gamma) / n if log_space else None
        p = _checked(ThermoPoint(beta, energy, c, mu, n0, tuple(errors), c_slope), what)
        ok = np.array([e is None for e in p.errors])
        for k in set(cells[ok].tolist()):
            new = ok & (cells == k)
            states = np.hstack([self.states[k], [np.log(beta[new]), u[new], du[new]]])
            self.states[k] = states[:, np.argsort(states[0], kind="stable")]
        return p

    def c(self, beta: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(c, dc/d ln beta) of the batch, as ``canonical.find_extrema``
        refines them; SolverError names the first failed lane."""
        p = self(beta, cells)
        for e in filter(None, p.errors):
            raise SolverError(e)
        return p.heat_capacity, p.heat_capacity_slope


def thermo_point(spectrum: Spectrum, beta: float | np.ndarray,
                 ensemble: EnsembleSpec = EnsembleSpec(Statistics.CANONICAL, 1)) -> ThermoPoint:
    """The state of ``ensemble`` at ``beta``, a scalar or a 1-D batch solved
    cold: <E> of the N particles, c per particle, dc/d ln beta, and mu and
    the Bose ground fraction n0 where they apply.  A grand-canonical state
    meets N to _N_RESIDUAL, and a Bose one has gamma = beta (E_0 - mu) > 0
    and n0 in [0, 1].  A batch gives arrays, a failed lane NaN with its
    message in ``errors``; a scalar gives floats, or raises SolverError."""
    beta = _check_real(beta, "beta", ndim=1)
    lanes = np.ravel(beta)
    p = _Evaluator(spectrum, [ensemble])(lanes, np.zeros(lanes.size, dtype=int))
    if np.ndim(beta) > 0:
        return p
    if p.errors[0]:
        raise SolverError(p.errors[0])
    return ThermoPoint(beta, *(None if a is None else float(a[0]) for a in (
        p.mean_energy, p.heat_capacity, p.mu, p.n0)),
        heat_capacity_slope=float(p.heat_capacity_slope[0]))


# ---------------------------------------------------------------------------
# Bose condensation
# ---------------------------------------------------------------------------

def be_critical(spectrum: Spectrum, n_particles: int) -> CondensateReport:
    """Condensation threshold of N bosons: beta_cr solves
    sum_{n>=1} 1/(e^{(E_n - E_0) beta} - 1) = N (mu at E_0, the ground
    level empty), by ``_solve_n`` in ln beta from the Lambert-W estimate,
    on the bracket from beta = ln(1 + 1/N)/(E_1 - E_0), where E_1 alone
    holds N, to _GAMMA_MAX/(E_1 - E_0).  SolverError if it fails."""
    _check_member(spectrum, Spectrum, "spectrum")
    n_particles = _check_index(n_particles, 1, "n_particles")
    n_target = float(n_particles)
    beta_a = asymptotic_beta_cr(spectrum.wall.field, n_particles)
    ln_gap = math.log(spectrum.level(1) - spectrum.e0)
    lo, hi = math.log(math.log1p(1.0 / n_target)) - ln_gap, math.log(_GAMMA_MAX) - ln_gap

    def step(u: np.ndarray, lanes: np.ndarray):
        beta = np.exp(u)
        n, _, _, d1, d2, _, _, _, g2, _ = ladder_sums(spectrum, beta, Statistics.BOSE_EINSTEIN,
                                                      gamma=0.0, start_index=1)
        # dN/d ln beta = -sum y_n w_n = -D_1, y_n = beta (E_n - E_0), and with
        # dw/dx = -w - 2 w f: d2N/d(ln beta)^2 = D_2 + 2 G_2 - D_1
        return n, -d1, d2 + 2.0 * g2 - d1, beta[None]

    payload, errors = _solve_n(step, min(max(math.log(beta_a), lo), hi), lo, hi,
                               np.array([n_target]),
                               lambda i: f"condensation solve at N={n_particles}")
    if errors[0]:
        raise SolverError(errors[0])
    beta_cr = float(payload[0, 0])
    return CondensateReport(beta_cr=beta_cr, t_cr=1.0 / beta_cr,
                            asymptotic_beta_cr=beta_a)
