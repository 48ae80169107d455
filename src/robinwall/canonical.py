"""Canonical-ensemble thermodynamics of the walled particle.

Exact truncated sums over a Spectrum, the closed-form zero-field results,
the universal Dirichlet/Neumann curves in the variable y = beta * F^(2/3),
the classical high-temperature limit, the weak-field resonance predictors
built on the Lambert W function, and a grid-scan extremum locator for any
c(beta), refined by Brent's parabolic search.

Every Boltzmann weight is formed as exp(-beta*(E_n - E_0)) so the attractive
wall's negative ground level can never overflow the sums; means and
variances are reconstructed exactly from the shifted moments.  The heat
capacity is the fluctuation form c = beta^2 * (<E^2> - <E>^2), which equals
-beta^2 d<E>/dbeta for these sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .ladder import BOLTZ, ladder_sums
from .spectrum import Spectrum, WallKind, WallSpec, _check_field, build_spectrum
from .specfun import _SQRT_PI, _check_beta, lambert_w

__all__ = [
    "ThermoPoint",
    "ExtremumReport",
    "mean_energy",
    "heat_capacity",
    "thermo_point",
    "zero_field_attractive",
    "zero_field_free",
    "classical_limit",
    "universal_dn_curve",
    "resonance_predictors",
    "weak_field_composite",
    "find_extrema",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
WEAK_FIELD_MAX = 1e-2          # contract bound for the asymptotic predictors
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0   # golden-section fraction of Brent's method
_SQRT_EPS = math.sqrt(2.0 ** -52)


@dataclass(frozen=True)
class ThermoPoint:
    """One evaluated canonical state (heat capacity in units of k_B)."""

    beta: float
    mean_energy: float
    heat_capacity: float


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
    summed as one batch)."""
    beta = _check_beta(beta)
    s0, s1, s2 = ladder_sums(spectrum, beta, BOLTZ)
    m = s1 / s0
    return ThermoPoint(beta=beta, mean_energy=spectrum.e0 + m,
                       heat_capacity=beta * beta * (s2 / s0 - m * m))


def mean_energy(spectrum: Spectrum, beta: float) -> float:
    """Canonical mean energy of one particle."""
    return thermo_point(spectrum, beta).mean_energy


def heat_capacity(spectrum: Spectrum, beta: float) -> float:
    """Canonical heat capacity of one particle."""
    return thermo_point(spectrum, beta).heat_capacity


# ---------------------------------------------------------------------------
# zero-field closed forms
# ---------------------------------------------------------------------------

def zero_field_attractive(beta: float) -> ThermoPoint:
    """Zero-field attractive wall: bound level at -1 plus the free
    continuum, Z = e^beta + sqrt(2 pi / beta).

    The heat capacity is the analytic second log-derivative of Z, arranged
    so the near-cancellation at low temperature is done symbolically:
    with q = sqrt(2 pi / beta) e^{-beta},

        <E> = -(1 - q/(2 beta)) / (1 + q)
        c   = beta^2 (q + a + a q + 2 b - b^2) / (1+q)^2,
              a = 3q/(4 beta^2),  b = q/(2 beta).
    """
    beta = _check_beta(beta)
    q = _SQRT_2PI / math.sqrt(beta) * math.exp(-beta) if beta < 700 else 0.0
    a = 0.75 * q / (beta * beta)
    b = 0.5 * q / beta
    e = -(1.0 - b) / (1.0 + q)
    c = beta * beta * (q + a + a * q + 2.0 * b - b * b) / (1.0 + q) ** 2
    return ThermoPoint(beta=beta, mean_energy=e, heat_capacity=c)


def zero_field_free(beta: float) -> ThermoPoint:
    """Zero-field hard, reflecting, or repulsive wall: free-particle values
    <E> = 1/(2 beta), c = 1/2."""
    beta = _check_beta(beta)
    return ThermoPoint(beta=beta, mean_energy=0.5 / beta, heat_capacity=0.5)


def classical_limit(beta: float, field: float) -> tuple[float, float, float]:
    """Classical configurational quantities in the linear potential:
    Z_pot = 1/(beta F), <V> = 1/beta, c_pot = 1.

    Together with the kinetic 1/2 this makes the total high-temperature
    specific heat 3/2.
    """
    beta = _check_beta(beta)
    field = _check_field(field)
    return 1.0 / (beta * field), 1.0 / beta, 1.0


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
# weak-field resonance analytics
# ---------------------------------------------------------------------------

def _check_weak_field(field: float) -> float:
    field = _check_field(field)
    if field > WEAK_FIELD_MAX:
        raise DomainError(
            f"weak-field asymptotics require 0 < field <= {WEAK_FIELD_MAX}, got {field!r}")
    return field


def _check_weak_regime(beta: float, field: float) -> tuple[float, float]:
    """(beta, field) checked for the weak-field closed forms: field <=
    WEAK_FIELD_MAX and beta * field^(2/3) <= 0.1."""
    beta, field = _check_beta(beta), _check_weak_field(field)
    if beta * field ** (2.0 / 3.0) > 0.1:
        raise DomainError(
            f"weak-field form needs beta * field^(2/3) <= 0.1, got {beta * field ** (2/3):.3g}")
    return beta, field


def resonance_predictors(field: float) -> tuple[float, float, float]:
    """Lambert-W predictors for the attractive wall's weak-field resonance.

    Returns (beta at which <E> crosses zero, beta of the heat-capacity
    maximum, predicted peak height beta_max^2/4).  The two temperatures
    solve beta^{5/2} e^beta = 3/(4 sqrt(pi) F) and
    2 sqrt(pi) F beta^{3/2} e^beta = 1 exactly.
    """
    field = _check_weak_field(field)
    a_zero = 3.0 / (4.0 * _SQRT_PI * field)
    beta_zero = 2.5 * lambert_w(0.4 * a_zero ** 0.4)
    beta_max = 1.5 * lambert_w((2.0 / 3.0) * (0.5 / (_SQRT_PI * field)) ** (2.0 / 3.0))
    return beta_zero, beta_max, 0.25 * beta_max * beta_max


def weak_field_composite(beta: float, field: float) -> tuple[float, float]:
    """Closed-form weak-field mean energy and heat capacity of the
    attractive wall (split-off level plus quasi-continuum):

        <E> = (-e^beta + (3/4)/(sqrt(pi) F beta^{5/2}))
              / (e^beta + (1/2)/(sqrt(pi) F beta^{3/2}))
        c   = (1/2) (3 + u (4 beta^2 + 12 beta + 15)) / (1 + 2u)^2,
              u = sqrt(pi) F beta^{3/2} e^beta.

    Valid for field <= 1e-2 and beta * field^(2/3) <= 0.1.
    """
    beta, field = _check_weak_regime(beta, field)
    emb = math.exp(-beta) if beta < 700 else 0.0
    e = ((-1.0 + 0.75 * emb / (_SQRT_PI * field * beta ** 2.5))
         / (1.0 + 0.5 * emb / (_SQRT_PI * field * beta ** 1.5)))
    ln_u = math.log(_SQRT_PI * field) + 1.5 * math.log(beta) + beta
    poly = 4.0 * beta * beta + 12.0 * beta + 15.0
    if ln_u < 250.0:
        u = math.exp(ln_u)
        c = 0.5 * (3.0 + u * poly) / (1.0 + 2.0 * u) ** 2
    else:  # u enormous: c -> poly/(8u)
        c = math.exp(math.log(poly / 8.0) - ln_u)
    return e, c


# ---------------------------------------------------------------------------
# extremum location
# ---------------------------------------------------------------------------

def _brent(fn: Callable[[float], float], a: float, fa: float, x: float, fx: float,
           b: float, fb: float) -> tuple[float, float]:
    """Minimum of fn on [a, b] by Brent's method (Brent 1973, "Algorithms
    for Minimization without Derivatives", ch. 5): parabolic interpolation
    through the three best points, with a golden-section step whenever the
    parabola is untrustworthy.  Starts from a bracketing triple a < x < b
    with fx below fa and fb, all three values already known, so the first
    step is the parabola through them; stops once the bracket around the
    best point is about 1e-6 wide.  Returns (x, fn(x)) of the best point
    evaluated."""
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
        fu = fn(u)
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


def find_extrema(beta_grid: Sequence[float], c_grid: Sequence[float],
                 c_fn: Callable[[float], float]) -> ExtremumReport:
    """Locate the heat-capacity extrema of a scan: ``c_grid`` holds c(beta)
    on the monotone ``beta_grid``, evaluated by the caller (typically as
    one batch), and every interior extremum of the scan is refined by
    Brent's method from its grid point (relative 1e-6 in beta), calling
    ``c_fn(beta)`` one point at a time.

    The report carries the global maximum and minimum found; a grid
    without interior extrema yields an empty report (not an error).
    """
    betas = np.asarray(list(beta_grid), dtype=float)
    if betas.ndim != 1 or len(betas) < 3:
        raise DomainError("beta_grid must be monotone with at least 3 points")
    d = np.diff(betas)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise DomainError("beta_grid must be strictly monotone")
    cs = [float(c) for c in c_grid]
    if len(cs) != len(betas):
        raise DomainError(f"c_grid has {len(cs)} values for {len(betas)} grid points")

    best_max: tuple[float, float] | None = None
    best_min: tuple[float, float] | None = None
    for i in range(1, len(betas) - 1):
        if cs[i] > cs[i - 1] and cs[i] > cs[i + 1]:
            sign = 1.0
        elif cs[i] < cs[i - 1] and cs[i] < cs[i + 1]:
            sign = -1.0
        else:
            continue
        (a, fa), (b, fb) = sorted(((math.log(betas[i - 1]), -sign * cs[i - 1]),
                                   (math.log(betas[i + 1]), -sign * cs[i + 1])))
        u, f = _brent(lambda u: -sign * c_fn(math.exp(u)), a, fa,
                      math.log(betas[i]), -sign * cs[i], b, fb)
        beta, c = math.exp(u), -sign * f
        if sign > 0.0 and (best_max is None or c > best_max[1]):
            best_max = (beta, c)
        elif sign < 0.0 and (best_min is None or c < best_min[1]):
            best_min = (beta, c)
    return ExtremumReport(
        beta_inv_at_max=1.0 / best_max[0] if best_max else None,
        c_max=best_max[1] if best_max else None,
        beta_inv_at_min=1.0 / best_min[0] if best_min else None,
        c_min=best_min[1] if best_min else None,
    )
