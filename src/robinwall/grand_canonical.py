"""Fermi-Dirac and Bose-Einstein thermodynamics over a wall spectrum.

The chemical potential is solved from the particle-number sum

    N = sum_n 1/(e^{(E_n - mu) beta} +- 1)

(upper sign fermions, lower bosons; at most one fermion per level, spin
degeneracy 1).  Internally the solve runs in the shifted variable
gamma = beta*(E_0 - mu), which is exactly the quantity that must stay
positive for bosons and keeps every exponent well conditioned when mu
crowds the ground level to within 1e-14.  It is a safeguarded Newton
iteration on ln N (in gamma for fermions, in ln gamma for bosons) that
starts from the caller's hint and bisects only when a Newton step leaves
the bracket built from the points already evaluated.  Every step is one
fused ladder pass giving N, dN/dgamma and the energy moments together, and
the iterate that meets |N - N_target| <= 1e-10 N_target is the result:
its sums give <E> and c directly.

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

from .canonical import _check_beta, _check_weak_field
from .errors import DomainError, SolverError
from .ladder import BOSE, FERMI, OCC, ladder_sums
from .spectrum import Spectrum
from .specfun import lambert_w

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

_SQRT_PI = math.sqrt(math.pi)
_N_RESIDUAL = 1e-10


def _check_particles(n_particles: int) -> int:
    n = int(n_particles)
    if n < 1 or n != n_particles:
        raise DomainError(f"n_particles must be a positive integer, got {n_particles!r}")
    return n


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
        object.__setattr__(self, "n_particles", _check_particles(self.n_particles))

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


@dataclass(frozen=True)
class CondensateReport:
    """Condensation threshold of a Bose system."""

    beta_cr: float
    t_cr: float
    asymptotic_beta_cr: float


# ---------------------------------------------------------------------------
# safeguarded Newton
# ---------------------------------------------------------------------------

_MAX_STEPS = 200
_N_TARGET = 1e-12  # relative occupation residual the Newton iteration aims at


def _rtsafe(fn, u: float, lo: float, hi: float, what: str):
    """Root of ln(N(u) / N_target) = 0 for a strictly decreasing N(u), by
    safeguarded Newton (Numerical Recipes, 2nd ed., section 9.4, "rtsafe").

    ``fn(u)`` returns ``(ln(N / N_target), its slope in u, payload)``.  The
    iteration stops at the first point with |N - N_target| <= 1e-12 N_target
    and returns ``(u, payload)`` of it.  ``(lo, hi)`` brackets the root,
    either end possibly infinite; it is never evaluated up front.  Each
    evaluated point becomes the new lower or upper end.  A Newton step is
    taken when it stays inside the bracket and is less than half the step
    before last; otherwise the bracket is bisected, or, while it is still
    open on the side the residual points to, the step doubles outward.  If
    the bracket collapses to one float first, the best point evaluated is
    returned when it meets the 1e-10 contract, and SolverError is raised
    otherwise.
    """
    dx = dx_old = hi - lo
    best = (math.inf, u, None)
    for _ in range(_MAX_STEPS):
        r, slope, payload = fn(u)
        err = abs(math.expm1(r))
        if err <= _N_TARGET:
            return u, payload
        if err < best[0]:
            best = (err, u, payload)
        if r > 0.0:
            lo = u
        else:
            hi = u
        newton = -r / slope if slope < 0.0 else math.nan
        inside = lo < u + newton < hi
        if inside and abs(newton) <= 0.5 * abs(dx_old):
            step = newton
        elif math.isfinite(lo) and math.isfinite(hi):
            step = 0.5 * (lo + hi) - u
        elif inside:
            step = newton  # open bracket: nothing to bisect yet
        else:
            step = math.copysign(max(1.0, 2.0 * abs(dx)) if math.isfinite(dx) else 1.0, r)
        dx_old, dx = dx, step
        if u + step == u:
            break  # the bracket has collapsed to one float
        u += step
    err, u, payload = best
    if err <= _N_RESIDUAL:
        return u, payload
    raise SolverError(f"{what}: particle-number residual {err:.3e} N exceeds "
                      f"tolerance {_N_RESIDUAL:.0e} N")


# ---------------------------------------------------------------------------
# chemical-potential solve in gamma = beta (E_0 - mu)
# ---------------------------------------------------------------------------

_GAMMA_MAX = 750.0  # beyond it every occupation underflows: N(gamma) = 0


def _solve_gamma(spectrum: Spectrum, beta: float, ensemble: EnsembleSpec,
                 hint: float | None = None) -> tuple[float, tuple[float, ...]]:
    """gamma = beta (E_0 - mu) satisfying the particle-number sum to
    |N - N_target| <= 1e-10 N_target, and the ladder sums
    (N_0, N_1, D_0, D_1, D_2) of that gamma, with moments about the upper
    of E_0 and mu (``_moment_offset``).

    Newton runs on ln N, which is nearly linear in gamma for fermions and
    in ln gamma for bosons over most of the domain; each step is one fused
    ladder pass, which gives N and dN/dgamma = -D_0 together.
    """
    n_target = float(ensemble.n_particles)
    sign = ensemble.sign
    e0 = spectrum.e0
    log_space = sign == BOSE
    if log_space:
        # the ground level alone holds N at gamma = ln(1 + 1/N), so the
        # root lies above it
        lo, hi = math.log(math.log1p(1.0 / n_target)), math.log(_GAMMA_MAX)
        start = lo
    else:
        # mu between E_0 - pad/beta and E_N + pad/beta; start at the
        # zero-temperature Fermi level
        pad = 50.0 + math.log(n_target + 2.0)
        n = ensemble.n_particles
        lo = -(beta * (spectrum.level(n) - e0) + pad)
        hi = pad
        start = beta * (e0 - 0.5 * (spectrum.level(n - 1) + spectrum.level(n)))
    if hint is not None and (hint > 0.0 or not log_space):
        u_hint = math.log(hint) if log_space else hint
        if lo < u_hint < hi:
            start = u_hint

    def step(u: float):
        gamma = math.exp(u) if log_space else u
        sums = ladder_sums(spectrum, beta, OCC, sign, gamma=gamma,
                           moment_offset=_moment_offset(beta, gamma))
        n = sums[0]
        if n <= 0.0:
            return -math.inf, math.nan, (gamma, sums)
        # d ln N / du with dN/dgamma = -D_0
        slope = -sums[2] / n * (gamma if log_space else 1.0)
        return math.log(n / n_target), slope, (gamma, sums)

    _, (gamma, sums) = _rtsafe(
        step, start, lo, hi,
        f"particle-number solve at beta={beta}, N={ensemble.n_particles}")
    if sign == BOSE and not e0 - gamma / beta < e0:
        raise SolverError("bose chemical potential must stay below the ground level")
    return gamma, sums


def _moment_offset(beta: float, gamma: float) -> float:
    """Moment offset E_0 - ref of the grand-canonical sums, for moments about
    ref = max(E_0, mu), where the distribution kernel e^x/(e^x +- 1)^2
    peaks over the levels.  About it the first distribution moment is
    small, so the variance D_2 - D_1^2/D_0 does not cancel against a
    dominant level (the Bose ground level, or the two levels around a
    frozen Fermi level)."""
    return min(gamma, 0.0) / beta


def solve_mu(spectrum: Spectrum, beta: float, ensemble: EnsembleSpec,
             hint_gamma: float | None = None) -> float:
    """Chemical potential with |sum occupations - N| <= 1e-10 N.

    The occupation sum is strictly increasing in mu for both statistics, so
    the bracketed solve cannot miss; for bosons mu < E_0 strictly.
    """
    beta = _check_beta(beta)
    gamma, _ = _solve_gamma(spectrum, beta, ensemble, hint_gamma)
    return spectrum.e0 - gamma / beta


def gc_point(spectrum: Spectrum, beta: float, ensemble: EnsembleSpec,
             hint_gamma: float | None = None) -> GcPoint:
    """Mean energy and specific heat per particle at one temperature.

    The returned state has been validated: the occupation sum reproduces N
    to 1e-10 relative, and mu < E_0 strictly for bosons.  Energy and heat
    capacity come from the ladder sums of the accepted solve iterate.
    """
    beta = _check_beta(beta)
    n_target = float(ensemble.n_particles)
    gamma, (n_sum, n1, d0, d1, d2) = _solve_gamma(spectrum, beta, ensemble, hint_gamma)
    e0 = spectrum.e0
    energy = (e0 - _moment_offset(beta, gamma)) * n_sum + n1
    c_total = beta * beta * (d2 - d1 * d1 / d0)

    n0 = None
    if ensemble.sign == BOSE:
        n0 = 1.0 / math.expm1(gamma) / n_target
        if not 0.0 <= n0 <= 1.0 + 1e-9:
            raise SolverError(f"ground occupation {n0} escaped [0, 1]")
        n0 = min(n0, 1.0)  # clip the last-ulp overshoot of a full condensate
    return GcPoint(beta=beta, mu=e0 - gamma / beta, mean_energy=energy,
                   heat_capacity_per_particle=c_total / n_target, n0=n0)


# ---------------------------------------------------------------------------
# closed-form fermion results
# ---------------------------------------------------------------------------

def fd_plateau(n_particles: int) -> float:
    """Low-temperature shelf of the fermionic specific heat per particle,
    3 (N-1) / (2 N): the N-1 particles sitting in the dense positive levels
    are classical while the split-off one is frozen out."""
    n = _check_particles(n_particles)
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
    beta = _check_beta(beta)
    field = _check_weak_field(field)
    if beta * field ** (2.0 / 3.0) > 0.1:
        raise DomainError(
            f"asymptotic form needs beta * field^(2/3) <= 0.1, got {beta * field ** (2/3):.3g}")
    n = float(ensemble.n_particles)
    r = 0.5 / (_SQRT_PI * beta ** 1.5 * field)
    emb = math.exp(-beta)
    if ensemble.sign == FERMI:
        b = 1.0 + r * emb - n
        r1 = math.sqrt(b * b + 4.0 * r * n * emb)
        z = 2.0 * n * emb / (r1 + b) if b >= 0.0 else (r1 - b) / (2.0 * r)
        denom = 2.0 * _SQRT_PI * beta ** 1.5 * field * n + emb
    else:
        s = 1.0 + r * emb + n
        r1 = math.sqrt(s * s - 4.0 * r * n * emb)
        z = 2.0 * n * emb / (s + r1)
        denom = 2.0 * _SQRT_PI * beta ** 1.5 * field * n - emb
    mu = math.log(z) / beta
    c_n = 1.5 + (_SQRT_PI * beta ** 2.5 * field * (2.0 * beta + 3.0) * emb
                 / (denom * denom))
    return mu, c_n


# ---------------------------------------------------------------------------
# Bose condensation
# ---------------------------------------------------------------------------

def asymptotic_beta_cr(field: float, n_particles: int) -> float:
    """Weak-field Lambert-W form of the condensation temperature:
    beta_cr = (3/2) W(4^(2/3) / (6 pi^(1/3) (N F)^(2/3)))."""
    n = _check_particles(n_particles)
    arg = 4.0 ** (2.0 / 3.0) / (6.0 * math.pi ** (1.0 / 3.0)
                                * (n * field) ** (2.0 / 3.0))
    return 1.5 * lambert_w(arg)


def be_critical(spectrum: Spectrum, n_particles: int) -> CondensateReport:
    """Largest temperature at which the condensate survives: beta_cr solves
    sum_{n>=1} 1/(e^{(E_n-E_0) beta} - 1) = N (chemical potential pinned at
    the ground level with no particles left in it), by safeguarded Newton
    on ln N in ln beta from the Lambert-W estimate."""
    n_particles = _check_particles(n_particles)
    n_target = float(n_particles)
    beta_a = asymptotic_beta_cr(spectrum.wall.field, n_particles)

    def step(u: float):
        beta = math.exp(u)
        n, _, _, d1, _ = ladder_sums(spectrum, beta, OCC, BOSE, gamma=0.0,
                                     start_index=1)
        if n <= 0.0:
            return -math.inf, math.nan, beta
        # d ln N / d ln beta with dN/dbeta = -sum Delta_n w_n = -D_1
        return math.log(n / n_target), -beta * d1 / n, beta

    _, beta_cr = _rtsafe(step, math.log(beta_a), -math.inf, math.inf,
                         f"condensation solve at N={n_particles}")
    return CondensateReport(beta_cr=beta_cr, t_cr=1.0 / beta_cr,
                            asymptotic_beta_cr=beta_a)


def ground_occupation(spectrum: Spectrum, beta: float, n_particles: int) -> float:
    """Bose ground-level fraction n_0 = N_0/N with N_0 = 1/(e^{(E_0-mu)beta}-1)."""
    ens = EnsembleSpec(Statistics.BOSE_EINSTEIN, n_particles)
    return gc_point(spectrum, beta, ens).n0
