"""Closed forms of the two-term model of the attractive wall: the split-off
level near E_0 = -1 against the field's quasi-continuum of level density
sqrt(E)/(pi F) above zero energy, whose Boltzmann weight against a level at
its bottom is A = 1/(2 sqrt(pi) F beta^{3/2}) (``_ln_weight``).  It gives
<E> and c, the Lambert-W predictors of the resonance, the fermion shelf,
mu, c_N and T_cr, and, through ``_two_term_log_t``, the cold starts of the
mu solves; at zero field the continuum is the free one.  ``_check_weak``
bounds the weak-field regime, over which each form stays finite.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .canonical import ThermoPoint
from .errors import DomainError
from .ladder import Statistics
from .specfun import _SQRT_PI, _check_index, _check_member, _check_real, lambert_w

if TYPE_CHECKING:
    from .grand_canonical import EnsembleSpec

__all__ = ["zero_field_attractive", "resonance_predictors", "weak_field_composite",
           "fd_plateau", "fd_single_peak", "asymptotic_mu_cn", "asymptotic_beta_cr"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN2 = math.log(2.0)
WEAK_FIELD_MAX = 1e-2          # the largest field of the weak-field forms


def _check_weak(field: float, beta: float | None = None) -> float:
    """``field`` as float; DomainError unless 0 < F <= WEAK_FIELD_MAX and,
    with ``beta``, beta F^(2/3) <= 0.1."""
    field = _check_real(field, "field")
    if field > WEAK_FIELD_MAX:
        raise DomainError(
            f"weak-field asymptotics require 0 < field <= {WEAK_FIELD_MAX}, got {field!r}")
    if beta is not None and beta * field ** (2.0 / 3.0) > 0.1:
        raise DomainError(
            f"weak-field form needs beta * field^(2/3) <= 0.1, got {beta * field ** (2/3):.3g}")
    return field


def _ln_weight(field: float, beta):
    """ln A, A = 1/(2 sqrt(pi) F beta^{3/2})."""
    return -math.log(2.0 * _SQRT_PI * field) - 1.5 * np.log(beta)


def _two_term_log_t(ln_a, n: float, statistics: Statistics):
    """ln t, t = e^{-gamma}, of the balance N = 1/(1/t +- 1) + a t of the
    ground level (upper sign fermions) and a Boltzmann continuum of weight
    a = e^{ln_a}, subtraction-free; for bosons the root t < 1.  Past
    a = e^300, where a^2 overflows, ln t = ln N - ln a; below e^-300, where
    a lone fermion's 4 a N underflows, ln t = -ln a / 2."""
    with np.errstate(all="ignore"):
        a = np.exp(ln_a)
        if statistics is Statistics.FERMI_DIRAC:
            b = 1.0 + a - n
            r1 = np.sqrt(b * b + 4.0 * a * n)
            lone = np.where(ln_a < -300.0, -0.5 * ln_a, np.log(2.0 * n / (r1 + b)))
            ln_t = np.where(b >= 0.0, lone, np.log(0.5 * (r1 - b)) - ln_a)
        else:
            s = 1.0 + a + n
            ln_t = np.log(2.0 * n / (s + np.sqrt(s * s - 4.0 * a * n)))
        return np.where(ln_a > 300.0, np.log(n) - ln_a, ln_t)


def zero_field_attractive(beta: float) -> ThermoPoint:
    """The zero-field attractive wall, Z = e^beta + sqrt(2 pi / beta): with
    the continuum's share p = q/(1+q), q = sqrt(2 pi / beta) e^{-beta},

        <E> = p/(2 beta) - (1-p),   c = p [(beta^2 + beta)(1-p) + 3/4 - p/4],

    and dc/d ln beta exact from dp/d ln beta = -p (1-p)(beta + 1/2)."""
    beta = _check_real(beta, "beta")
    q = _SQRT_2PI / math.sqrt(beta) * math.exp(-beta)
    p, level = q / (1.0 + q), 1.0 / (1.0 + q)
    e = 0.5 * p / beta - level
    mix = p * level
    c = mix * beta * (beta + 1.0) + 0.25 * p * (3.0 - p)
    dp = -mix * (beta + 0.5)  # dp/d ln beta
    slope = (dp * (level - p) * (beta + 1.0) + mix * (2.0 * beta + 1.0)) * beta \
        + 0.25 * dp * (3.0 - 2.0 * p)
    return ThermoPoint(beta=beta, mean_energy=e, heat_capacity=c, heat_capacity_slope=slope)


def resonance_predictors(field: float) -> tuple[float, float, float]:
    """(beta where <E> = 0, beta_max of the c peak, its height beta_max^2/4)
    of the weak-field resonance, the betas solving
    beta^{5/2} e^beta = 3/(4 sqrt(pi) F) and 2 sqrt(pi) F beta^{3/2} e^beta = 1.
    """
    field = _check_weak(field)
    a_zero = 3.0 / (4.0 * _SQRT_PI * field)
    beta_zero = 2.5 * lambert_w(0.4 * a_zero ** 0.4)
    beta_max = 1.5 * lambert_w((2.0 / 3.0) * (0.5 / (_SQRT_PI * field)) ** (2.0 / 3.0))
    return beta_zero, beta_max, 0.25 * beta_max * beta_max


def weak_field_composite(beta: float, field: float) -> tuple[float, float]:
    """Weak-field (<E>, c) of the two-term model, within ``_check_weak``:

        <E> = (3/(4 beta) - u) / (u + 1/2)
        c   = (1/2) (3 + u (4 beta^2 + 12 beta + 15)) / (1 + 2u)^2,

    u = e^beta / (2A); <E> in 1/u where u > 1, and past u = e^250 c is its
    limit (4 beta^2 + 12 beta + 15)/(8u), in logs.
    """
    beta = _check_real(beta, "beta")
    field = _check_weak(field, beta)
    ln_u = beta - _ln_weight(field, beta) - _LN2
    v = math.exp(-abs(ln_u))  # u, or 1/u where u > 1
    e = ((0.75 / beta - v) / (v + 0.5) if ln_u <= 0.0
         else (0.75 * v / beta - 1.0) / (1.0 + 0.5 * v))
    if ln_u < 250.0:
        u = math.exp(ln_u)
        c = 0.5 * (3.0 + u * (4.0 * beta * beta + 12.0 * beta + 15.0)) / (1.0 + 2.0 * u) ** 2
    else:
        c = math.exp(2.0 * math.log(beta) + math.log(0.5 + (1.5 + 1.875 / beta) / beta) - ln_u)
    return e, c


def fd_plateau(n_particles: int) -> float:
    """The fermion shelf of c, 3 (N-1) / (2 N): N-1 classical particles in
    the continuum, the split-off level's one frozen."""
    n = _check_index(n_particles, 1, "n_particles")
    return 1.5 * (n - 1) / n


def fd_single_peak(field: float) -> tuple[float, float]:
    """(beta, c_max) of one fermion's c peak: beta solves
    8 sqrt(pi) F beta^{3/2} e^beta = 1, c_max = beta^2/(sqrt(2) (sqrt(2)+1)^2)."""
    field = _check_weak(field)
    beta = 1.5 * lambert_w(1.0 / (6.0 * math.pi ** (1.0 / 3.0) * field ** (2.0 / 3.0)))
    c_max = beta * beta / (math.sqrt(2.0) * (math.sqrt(2.0) + 1.0) ** 2)
    return beta, c_max


def asymptotic_mu_cn(beta: float, field: float,
                     ensemble: EnsembleSpec) -> tuple[float, float]:
    """Weak-field (mu, c_N) of the two-term model, within ``_check_weak``:
    mu from its particle balance (``_two_term_log_t``; for bosons mu < E_0)
    and the large-N specific heat

        c_N = 3/2 + beta (2 beta + 3) u / (2 u N +- 1)^2,

    u = e^beta / (2A), taken in 1/u where u > 1.  DomainError for the
    canonical ensemble, or where the Bose c_N diverges.
    """
    from .grand_canonical import EnsembleSpec  # here: grand_canonical imports limits

    if _check_member(ensemble, EnsembleSpec, "ensemble").statistics is Statistics.CANONICAL:
        raise DomainError("asymptotic_mu_cn needs a grand-canonical ensemble")
    beta = _check_real(beta, "beta")
    field = _check_weak(field, beta)
    n = float(ensemble.n_particles)
    ln_a = _ln_weight(field, beta)
    # the ground level at E_0 = -1: e^{beta mu} = t e^{-beta}
    mu = float(_two_term_log_t(ln_a - beta, n, ensemble.statistics)) / beta - 1.0
    sign = 1.0 if ensemble.statistics is Statistics.FERMI_DIRAC else -1.0
    ln_u = beta - ln_a - _LN2
    v = math.exp(-abs(ln_u))  # u, or 1/u where u > 1
    denom = 2.0 * n * v + sign if ln_u <= 0.0 else 2.0 * n + sign * v
    if denom == 0.0:
        raise DomainError(f"the Bose c_N diverges at 2 u N = 1, beta = {beta!r}")
    return mu, 1.5 + beta * (v / (denom * denom)) * (2.0 * beta + 3.0)


def asymptotic_beta_cr(field: float, n_particles: int) -> float:
    """Weak-field condensation threshold
    beta_cr = (3/2) W(4^(2/3) / (6 pi^(1/3) (N F)^(2/3)))."""
    field = _check_real(field, "field")
    n = _check_index(n_particles, 1, "n_particles")
    arg = 4.0 ** (2.0 / 3.0) / (6.0 * math.pi ** (1.0 / 3.0)
                                * (n * field) ** (2.0 / 3.0))
    return 1.5 * lambert_w(arg)
