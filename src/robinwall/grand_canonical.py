"""Fermi-Dirac and Bose-Einstein thermodynamics over a wall spectrum.

The chemical potential is solved from the particle-number sum

    N = sum_n 1/(e^{(E_n - mu) beta} +- 1)

(upper sign fermions, lower bosons; at most one fermion per level, spin
degeneracy 1).  Internally the solve runs in the shifted variable
gamma = beta*(E_0 - mu), which is exactly the quantity that must stay
positive for bosons and keeps every exponent well conditioned when mu
crowds the ground level to within 1e-14.  It is a safeguarded Newton
iteration on ln N (in gamma for fermions, in ln gamma for bosons) that
starts from the caller's hint or the two-term balance and bisects only
when a Newton step leaves the bracket built from the points already
evaluated.  It runs on a batch of temperatures in lockstep: every step is
one fused ladder pass over the unsolved lanes giving N, dN/dgamma and the
energy moments together, and each lane's iterate that meets
|N - N_target| <= 1e-10 N_target is its result: its sums give <E> and c
directly.

The heat capacity uses the implicit-function temperature derivative of mu:
with w_n = e^{x_n}/(e^{x_n} +- 1)^2 and x_n = beta (E_n - mu),

    beta dmu/dbeta = sum (E_n - mu) w_n / sum w_n,

which collapses the full expression to the variance form
c = beta^2 (D2 - D1^2/D0) over the w-weighted moments.  They are taken
about the level where w peaks (the upper of E_0 and mu), so D1 is small
and the variance stays nonnegative even when one level holds nearly all
of the weight, as the Bose ground level does deep in the condensate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .canonical import _check_weak_field, _check_weak_regime
from .errors import DomainError, SolverError
from .ladder import BOSE, FERMI, ladder_sums
from .spectrum import Spectrum, _check_field
from .specfun import _SQRT_PI, _check_beta, _check_index, lambert_w

__all__ = [
    "Statistics",
    "EnsembleSpec",
    "GcPoint",
    "CondensateReport",
    "solve_mu",
    "gc_point",
    "fd_plateau",
    "fd_single_peak",
    "asymptotic_mu_cn",
    "be_critical",
    "ground_occupation",
]

_N_RESIDUAL = 1e-10


class Statistics(enum.Enum):
    FERMI_DIRAC = "fd"
    BOSE_EINSTEIN = "be"


@dataclass(frozen=True)
class EnsembleSpec:
    """Grand-canonical ensemble: statistics plus particle number N >= 1."""

    statistics: Statistics
    n_particles: int

    def __post_init__(self) -> None:
        if not isinstance(self.statistics, Statistics):
            raise DomainError(f"statistics must be a Statistics value, got {self.statistics!r}")
        object.__setattr__(self, "n_particles",
                           _check_index(self.n_particles, 1, "n_particles"))

    @property
    def sign(self) -> int:
        return FERMI if self.statistics is Statistics.FERMI_DIRAC else BOSE


@dataclass(frozen=True)
class GcPoint:
    """One evaluated grand-canonical state."""

    beta: float
    mu: float
    mean_energy: float
    heat_capacity_per_particle: float
    n0: float | None = None  # ground-level fraction, Bose systems only
    errors: tuple[str | None, ...] | None = None  # per lane, batched calls only


@dataclass(frozen=True)
class CondensateReport:
    """Condensation threshold of a Bose system."""

    beta_cr: float
    t_cr: float
    asymptotic_beta_cr: float


# ---------------------------------------------------------------------------
# safeguarded Newton, one lane per root
# ---------------------------------------------------------------------------

_MAX_STEPS = 200
_N_TARGET = 1e-12  # relative occupation residual the Newton iteration aims at


def _rtsafe(fn, u, lo, hi, n_target: float, what):
    """Roots of N(u) = N_target for strictly decreasing N(u), one per lane,
    by safeguarded Newton on ln(N / N_target) (Numerical Recipes, 2nd ed.,
    section 9.4, "rtsafe") run on all lanes in lockstep.

    ``u``, ``lo`` and ``hi`` (broadcast) are each lane's start and bracket,
    whose ends are never evaluated up front.
    ``fn(u, lanes)`` evaluates the lanes ``lanes`` at ``u`` and returns
    arrays ``(N, dN/du, payload)``, one payload column per lane; N <= 0
    (every occupation underflowed) counts as ln N = -inf.  A lane leaves
    the passes at its first point with |N - N_target| <= 1e-12 N_target.
    Each evaluated point becomes an end of its lane's bracket.  A Newton
    step is taken when it stays inside the bracket and is less than half
    the step before last; otherwise the bracket is bisected.  A lane whose
    bracket collapses to one float, or that runs out of steps, keeps its
    best point if that meets the 1e-10 contract.
    Returns the accepted payloads and, per lane, None or the message
    ``what(lane)`` of a failed lane (a NaN residual fails at once).
    """
    u, lo, hi = (np.array(a, dtype=float).ravel() for a in np.broadcast_arrays(u, lo, hi))
    dx = hi - lo
    dx_old = dx.copy()
    best = np.full(u.size, np.inf)
    payload = None
    lanes = np.arange(u.size)
    for _ in range(_MAX_STEPS):
        if not len(lanes):
            break
        n, dn_du, pay = fn(u[lanes], lanes)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.log(np.maximum(n, 0.0) / n_target)
            slope = np.where(n > 0.0, dn_du / n, np.nan)  # d ln N / du
        if payload is None:
            payload = np.full((len(pay), u.size), np.nan)
        err = np.abs(np.expm1(r))
        better = err < best[lanes]
        best[lanes[better]] = err[better]
        payload[:, lanes[better]] = pay[:, better]
        best[lanes[np.isnan(r)]] = np.nan
        go = ~(err <= _N_TARGET) & ~np.isnan(r)
        lanes, r, slope = lanes[go], r[go], slope[go]
        x = u[lanes]
        low = np.where(r > 0.0, x, lo[lanes])
        high = np.where(r > 0.0, hi[lanes], x)
        lo[lanes], hi[lanes] = low, high
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(slope < 0.0, -r / slope, np.nan)
            inside = (low < x + newton) & (x + newton < high)
            shrinking = np.abs(newton) <= 0.5 * np.abs(dx_old[lanes])
            step = np.where(inside & shrinking, newton, 0.5 * (low + high) - x)
        dx_old[lanes], dx[lanes] = dx[lanes], step
        u[lanes] = x + step
        lanes = lanes[x + step != x]  # a lane whose bracket collapsed to one float
    errors = [None] * u.size
    for i in (~(best <= _N_RESIDUAL)).nonzero()[0]:
        errors[i] = (f"{what(i)}: particle-number residual {best[i]:.3e} N exceeds "
                     f"tolerance {_N_RESIDUAL:.0e} N")
    return payload, errors


# ---------------------------------------------------------------------------
# chemical-potential solve in gamma = beta (E_0 - mu)
# ---------------------------------------------------------------------------

_GAMMA_MAX = 750.0  # beyond it every occupation underflows: N(gamma) = 0


def _two_term_log_t(ln_a, n: float, sign: int):
    """ln t, t = e^{-gamma}, of the two-term balance N = 1/(1/t +- 1) + a t
    (the ground level, upper sign fermions, plus a Boltzmann quasi-continuum
    of weight a = e^{ln_a}; for bosons the root t < 1), subtraction-free."""
    with np.errstate(all="ignore"):
        a = np.exp(ln_a)
        if sign == FERMI:
            b = 1.0 + a - n
            r1 = np.sqrt(b * b + 4.0 * a * n)
            return np.where(b >= 0.0, np.log(2.0 * n / (r1 + b)),
                            np.log(0.5 * (r1 - b)) - ln_a)
        s = 1.0 + a + n
        return np.log(2.0 * n / (s + np.sqrt(s * s - 4.0 * a * n)))


def _solve_gamma(spectrum: Spectrum, beta: np.ndarray, ensemble: EnsembleSpec, hint=None):
    """gamma = beta (E_0 - mu) satisfying the particle-number sum to
    |N - N_target| <= 1e-10 N_target for every lane of ``beta``, and the
    ladder sums (N_0, N_1, D_0, D_1, D_2) of that gamma, with moments about
    the upper of E_0 and mu (``_moment_offset``).  Returns
    ``(gamma, sums, errors)`` with one column of ``sums`` and one entry of
    ``errors`` (None, or the message of a failed lane) per lane.

    Newton runs on ln N, which is nearly linear in gamma for fermions and
    in ln gamma for bosons over most of the domain; each step is one fused
    ladder pass over the lanes still unsolved, which gives N and
    dN/dgamma = -D_0 together.  A lane starts from its ``hint`` gamma (None
    or NaN: no hint) or else from the two-term balance of ``asymptotic_mu_cn``,
    made for any wall: the ground level plus the tail law's quasi-continuum,
    of density n'(E) = sqrt(E - shift) / (pi F), in Boltzmann statistics;
    either start is clipped into the bracket.
    """
    n_target = float(ensemble.n_particles)
    sign = ensemble.sign
    e0 = spectrum.e0
    log_space = sign == BOSE
    if log_space:
        # the ground level alone holds N at gamma = ln(1 + 1/N), so the
        # root lies above it
        lo, hi = math.log(math.log1p(1.0 / n_target)), math.log(_GAMMA_MAX)
    else:
        # mu between E_0 - pad/beta and E_N + pad/beta
        pad = 50.0 + math.log(n_target + 2.0)
        lo = -(beta * (spectrum.level(ensemble.n_particles) - e0) + pad)
        hi = pad
    ln_a = (-math.log(2.0 * _SQRT_PI * spectrum.wall.field) - 1.5 * np.log(beta)
            - beta * (spectrum.tail.shift - e0))
    start = -_two_term_log_t(ln_a, n_target, sign)
    if hint is not None:
        start = np.where(np.isnan(hint), start, hint)
    with np.errstate(divide="ignore", invalid="ignore"):
        start = np.fmax(np.fmin(np.log(start) if log_space else start, hi), lo)

    def step(u: np.ndarray, lanes: np.ndarray):
        gamma = np.exp(u) if log_space else u
        b = beta[lanes]
        sums = np.array(ladder_sums(spectrum, b, sign, gamma=gamma,
                                    moment_offset=_moment_offset(b, gamma)))
        # dN/du with dN/dgamma = -D_0
        return sums[0], -sums[2] * (gamma if log_space else 1.0), np.vstack([gamma, sums])

    payload, errors = _rtsafe(
        step, start, lo, hi, n_target,
        lambda i: f"particle-number solve at beta={beta[i]}, N={ensemble.n_particles}")
    return payload[0], payload[1:], errors


def _moment_offset(beta, gamma):
    """Moment offset E_0 - ref of the grand-canonical sums, for moments about
    ref = max(E_0, mu), where the distribution kernel e^x/(e^x +- 1)^2
    peaks over the levels.  About it the first distribution moment is
    small, so the variance D_2 - D_1^2/D_0 does not cancel against a
    dominant level (the Bose ground level, or the two levels around a
    frozen Fermi level)."""
    return np.minimum(gamma, 0.0) / beta


def solve_mu(spectrum: Spectrum, beta: float, ensemble: EnsembleSpec) -> float:
    """Chemical potential with |sum occupations - N| <= 1e-10 N.

    The occupation sum is strictly increasing in mu for both statistics, so
    the bracketed solve cannot miss; for bosons mu < E_0 strictly.
    """
    return gc_point(spectrum, beta, ensemble).mu


def gc_point(spectrum: Spectrum, beta: float | np.ndarray, ensemble: EnsembleSpec,
             hint_gamma: float | np.ndarray | None = None) -> GcPoint:
    """Mean energy and specific heat per particle at one temperature, or
    at a batch of temperatures solved in lockstep.

    The returned state has been validated: the occupation sum reproduces N
    to 1e-10 relative, and mu < E_0 strictly for bosons.  Energy and heat
    capacity come from the ladder sums of the accepted solve iterate.

    With a 1-D array ``beta`` (and ``hint_gamma`` None, or an array with
    NaN for no hint) every field is an array over the lanes, and a lane whose
    solve fails does not raise: its values are NaN and its message is in
    ``errors``.  A scalar ``beta`` gives plain floats and raises
    SolverError instead.
    """
    beta = _check_beta(beta)
    lanes = np.ravel(beta)
    n_target = float(ensemble.n_particles)
    gamma, (n_sum, n1, d0, d1, d2), errors = _solve_gamma(spectrum, lanes, ensemble,
                                                          hint_gamma)
    e0 = spectrum.e0
    energy = (e0 - _moment_offset(lanes, gamma)) * n_sum + n1
    c = lanes * lanes * (d2 - d1 * d1 / d0) / n_target
    mu = e0 - gamma / lanes
    n0 = None
    if ensemble.sign == BOSE:
        n0 = 1.0 / np.expm1(gamma) / n_target
        for i in ((mu >= e0) | (n0 < 0.0) | (n0 > 1.0 + 1e-9)).nonzero()[0]:
            errors[i] = errors[i] or (f"bose state with mu - E_0 = {mu[i] - e0} and ground "
                                      f"occupation {n0[i]} (need mu < E_0, n0 in [0, 1])")
        n0 = np.minimum(n0, 1.0)  # clip the last-ulp overshoot of a full condensate
    if np.ndim(beta) > 0:
        return GcPoint(beta, mu, energy, c, n0, errors=tuple(errors))
    if errors[0]:
        raise SolverError(errors[0])
    return GcPoint(beta, *(float(a[0]) for a in (mu, energy, c)),
                   n0=None if n0 is None else float(n0[0]))


# ---------------------------------------------------------------------------
# closed-form fermion results
# ---------------------------------------------------------------------------

def fd_plateau(n_particles: int) -> float:
    """Low-temperature shelf of the fermionic specific heat per particle,
    3 (N-1) / (2 N): the N-1 particles sitting in the dense positive levels
    are classical while the split-off one is frozen out."""
    n = _check_index(n_particles, 1, "n_particles")
    return 1.5 * (n - 1) / n


def fd_single_peak(field: float) -> tuple[float, float]:
    """Lambert-W predictor for the single-fermion heat-capacity peak of the
    attractive wall: beta solves 8 sqrt(pi) F beta^{3/2} e^beta = 1, and
    c_max = beta^2 / (sqrt(2) (sqrt(2)+1)^2)."""
    field = _check_weak_field(field)
    beta = 1.5 * lambert_w(1.0 / (6.0 * math.pi ** (1.0 / 3.0) * field ** (2.0 / 3.0)))
    c_max = beta * beta / (math.sqrt(2.0) * (math.sqrt(2.0) + 1.0) ** 2)
    return beta, c_max


def asymptotic_mu_cn(beta: float, field: float,
                     ensemble: EnsembleSpec) -> tuple[float, float]:
    """Weak-field closed forms for the attractive wall: the chemical
    potential from the two-term (bound level + quasi-continuum) particle
    balance, and the large-N specific heat per particle

        c_N = 3/2 + sqrt(pi) beta^{5/2} F (2 beta + 3) e^{-beta}
                    / (2 sqrt(pi) beta^{3/2} F N +- e^{-beta})^2.

    Valid for field <= 1e-2 and beta * field^(2/3) <= 0.1.  The fugacity is
    the root of  r z^2 +- z (1 + r e^{-beta} -+ N) -+ N e^{-beta} = 0 with
    r = 1/(2 sqrt(pi) beta^{3/2} F), evaluated in subtraction-free form; for
    bosons this is the root with mu < E_0.
    """
    beta, field = _check_weak_regime(beta, field)
    n = float(ensemble.n_particles)
    r = 0.5 / (_SQRT_PI * beta ** 1.5 * field)
    emb = math.exp(-beta)
    # the ground level at E_0 = -1: e^{beta mu} = t e^{-beta}
    mu = float(_two_term_log_t(math.log(r) - beta, n, ensemble.sign)) / beta - 1.0
    denom = 2.0 * _SQRT_PI * beta ** 1.5 * field * n + ensemble.sign * emb
    c_n = 1.5 + (_SQRT_PI * beta ** 2.5 * field * (2.0 * beta + 3.0) * emb
                 / (denom * denom))
    return mu, c_n


# ---------------------------------------------------------------------------
# Bose condensation
# ---------------------------------------------------------------------------

def asymptotic_beta_cr(field: float, n_particles: int) -> float:
    """Weak-field Lambert-W form of the condensation temperature:
    beta_cr = (3/2) W(4^(2/3) / (6 pi^(1/3) (N F)^(2/3)))."""
    field = _check_field(field)
    n = _check_index(n_particles, 1, "n_particles")
    arg = 4.0 ** (2.0 / 3.0) / (6.0 * math.pi ** (1.0 / 3.0)
                                * (n * field) ** (2.0 / 3.0))
    return 1.5 * lambert_w(arg)


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
        n, _, _, d1, _ = ladder_sums(spectrum, beta, BOSE, gamma=0.0, start_index=1)
        # dN/d ln beta with dN/dbeta = -sum Delta_n w_n = -D_1
        return n, -beta * d1, beta[None]

    payload, errors = _rtsafe(step, min(max(math.log(beta_a), lo), hi), lo, hi, n_target,
                              lambda i: f"condensation solve at N={n_particles}")
    if errors[0]:
        raise SolverError(errors[0])
    beta_cr = float(payload[0, 0])
    return CondensateReport(beta_cr=beta_cr, t_cr=1.0 / beta_cr,
                            asymptotic_beta_cr=beta_a)


def ground_occupation(spectrum: Spectrum, beta: float, n_particles: int) -> float:
    """Bose ground-level fraction n_0 = N_0/N with N_0 = 1/(e^{(E_0-mu)beta}-1)."""
    ens = EnsembleSpec(Statistics.BOSE_EINSTEIN, n_particles)
    return gc_point(spectrum, beta, ens).n0
