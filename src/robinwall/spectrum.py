"""Dimensionless energy spectra of a particle on the half-line pressed to the
wall by a uniform field.

The wall is either hard (Dirichlet), reflecting (Neumann), or a Robin wall
with extrapolation length +1 (repulsive) or -1 (attractive).  With the field
``F > 0`` the eigenvalue condition for a Robin wall reads

    F^(1/3) * Ai'(xi) = (1/lam) * Ai(xi),      xi = -E * F^(-2/3),

solved here in logarithmic-derivative form.  Low-lying levels are bracketed
between consecutive zeros of Ai (where Ai'/Ai sweeps the whole real line
exactly once) and bisected; the attractive wall's split-off state is
bracketed on xi > 0 using the scaled Airy forms, which stay finite up to
xi ~ 1e5.  High levels follow the zero-law tail: a pure power law in the
level index shifted by the first-order wall correction -lam*F, which keeps
every infinite thermodynamic sum closed-form integrable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError, SolverError
from .specfun import (
    AiryZeroKind,
    airy,
    airy_scaled,
    airy_zero,
    airy_log_deriv,
)

__all__ = [
    "WallKind",
    "WallSpec",
    "TailLaw",
    "Spectrum",
    "LevelGap",
    "build_spectrum",
    "level_gaps",
    "qw_threshold",
    "qw_single_bound_window",
]

_ZERO_LAW_PREF = (3.0 * math.pi / 8.0) ** (2.0 / 3.0)
DEFAULT_N_EXACT = 64
_MAX_N_EXACT = 512


class WallKind(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN_ATTRACTIVE = "robin-"
    ROBIN_REPULSIVE = "robin+"

    @property
    def is_robin(self) -> bool:
        return self in (WallKind.ROBIN_ATTRACTIVE, WallKind.ROBIN_REPULSIVE)


@dataclass(frozen=True)
class WallSpec:
    """One physical configuration: wall kind plus dimensionless field."""

    kind: WallKind
    field: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, WallKind):
            raise DomainError(f"WallSpec: kind must be a WallKind, got {self.kind!r}")
        f = float(self.field)
        if not math.isfinite(f) or f <= 0.0:
            raise DomainError(
                "WallSpec: field must be finite and > 0 (zero-field walls are "
                f"handled by the closed-form thermodynamics), got {self.field!r}")
        object.__setattr__(self, "field", f)

    @property
    def lam(self) -> int | None:
        """Extrapolation length in dimensionless units; None for Dirichlet/Neumann."""
        if self.kind is WallKind.ROBIN_ATTRACTIVE:
            return -1
        if self.kind is WallKind.ROBIN_REPULSIVE:
            return 1
        return None


@dataclass(frozen=True)
class TailLaw:
    """High-index level law E(m) = tau * (4*(m + j0) - k_off)^(2/3) + shift.

    ``tau`` absorbs the zero-law prefactor and the field scaling; the pure
    power-law form is what makes the Euler-Maclaurin closure of the
    thermodynamic sums exact (see ladder.py).  Valid for m >= start.
    """

    tau: float
    j0: int
    k_off: int
    shift: float
    start: int

    def argument(self, m):
        return 4.0 * (np.asarray(m, dtype=float) + self.j0) - self.k_off

    def energy(self, m):
        return self.tau * self.argument(m) ** (2.0 / 3.0) + self.shift

    def denergy(self, m):
        """dE/dm along the tail."""
        return self.tau * (8.0 / 3.0) * self.argument(m) ** (-1.0 / 3.0)


@dataclass(frozen=True)
class LevelGap:
    """Gap above the ground state and its ratio to the first gap."""

    n: int
    delta: float
    ratio: float


@dataclass(frozen=True)
class Spectrum:
    """Ordered energy levels for one wall configuration.

    ``levels`` holds the materialized levels that were requested;
    ``exact_levels`` always holds the full root-solved block (``n_exact``
    entries) that the summation engine relies on, with the ``tail`` law
    generating every level beyond it on demand.
    """

    wall: WallSpec
    levels: np.ndarray = dc_field(repr=False)
    n_exact: int
    tail_rule: str
    exact_levels: np.ndarray = dc_field(repr=False)
    tail: TailLaw = dc_field(repr=False)

    def __post_init__(self) -> None:
        for name in ("levels", "exact_levels"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        diffs = np.diff(self.exact_levels)
        if len(diffs) and diffs.min() <= 0.0:
            raise SolverError("Spectrum: root-solved levels are not strictly increasing")

    @property
    def e0(self) -> float:
        return float(self.exact_levels[0])

    def level(self, n: int) -> float:
        if n < 0:
            raise DomainError(f"level index must be >= 0, got {n}")
        if n < self.n_exact:
            return float(self.exact_levels[n])
        return float(self.tail.energy(n))


# ---------------------------------------------------------------------------
# Robin root solving
# ---------------------------------------------------------------------------

def _log_deriv(xi: float) -> float:
    """Ai'(xi)/Ai(xi) without pole guards; +-inf near zeros is fine for
    bisection sign tests."""
    if xi > 12.0:
        return airy_log_deriv(xi)
    ai, aip = airy_scaled(xi) if xi >= 0.0 else airy(xi)
    if ai == 0.0:
        return math.copysign(math.inf, aip)
    return aip / ai


def _robin_h(xi: float, field_cbrt: float, lam: int) -> float:
    return field_cbrt * _log_deriv(xi) - 1.0 / lam


def _solve_bracket(field: float, lam: int, lo: float, hi: float) -> float:
    """Bisect h(xi) on (lo, hi) where it decreases from +inf to -inf, then
    polish with one or two Newton steps (dL/dxi = xi - L^2)."""
    fc = field ** (1.0 / 3.0)
    h_lo = _robin_h(lo, fc, lam)
    h_hi = _robin_h(hi, fc, lam)
    if not (h_lo > 0.0 > h_hi):
        raise SolverError(
            f"robin level bracket failed on ({lo}, {hi}): h={h_lo:.3e}, {h_hi:.3e}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _robin_h(mid, fc, lam) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(lo), abs(hi)):
            break
    xi = 0.5 * (lo + hi)
    for _ in range(2):
        ld = _log_deriv(xi)
        h = fc * ld - 1.0 / lam
        dh = fc * (xi - ld * ld)
        if dh != 0.0:
            step = h / dh
            if abs(step) < hi - lo:
                xi -= step
    return xi


def _robin_exact_levels(wall: WallSpec, n_exact: int) -> np.ndarray:
    field = wall.field
    lam = wall.lam
    assert lam is not None
    fc23 = field ** (2.0 / 3.0)
    zeros = [airy_zero(n, AiryZeroKind.FunctionZero) for n in range(1, n_exact + 2)]
    eps = 1e-12
    xis = np.empty(n_exact)

    # ground level: the attractive wall's root may sit far on the positive
    # axis (split-off bound state); the repulsive one always lies in (a_1, 0)
    if lam < 0:
        hi = max(4.0, 2.0 * field ** (-2.0 / 3.0))
    else:
        hi = 0.0
    lo = zeros[0] + eps * abs(zeros[0])  # just above a_1
    xis[0] = _solve_bracket(field, lam, lo, hi)

    for n in range(1, n_exact):
        a_hi, a_lo = zeros[n - 1], zeros[n]  # a_n > a_{n+1}
        margin = eps * max(1.0, abs(a_lo))
        xis[n] = _solve_bracket(field, lam, a_lo + margin, a_hi - margin)

    return -xis * fc23


def _tail_for(wall: WallSpec, n_exact: int) -> tuple[TailLaw, str]:
    f23 = wall.field ** (2.0 / 3.0)
    tau = _ZERO_LAW_PREF * f23
    kind = wall.kind
    if kind is WallKind.DIRICHLET:
        law = TailLaw(tau=tau, j0=1, k_off=1, shift=0.0, start=n_exact)
        rule = "E(n) = -a(n+1) F^(2/3), asymptotic Ai zeros"
    elif kind is WallKind.NEUMANN:
        law = TailLaw(tau=tau, j0=1, k_off=3, shift=0.0, start=n_exact)
        rule = "E(n) = -a'(n+1) F^(2/3), asymptotic Ai' zeros"
    elif kind is WallKind.ROBIN_ATTRACTIVE:
        law = TailLaw(tau=tau, j0=0, k_off=1, shift=wall.field, start=n_exact)
        rule = "E(n) = -a(n) F^(2/3) + F, asymptotic Ai zeros"
    else:
        law = TailLaw(tau=tau, j0=1, k_off=1, shift=-wall.field, start=n_exact)
        rule = "E(n) = -a(n+1) F^(2/3) - F, asymptotic Ai zeros"
    return law, rule


def _handoff_bound(field: float) -> float:
    # the first-order tail misses O(F) relative terms
    return max(1e-4, 0.5 * field)


def build_spectrum(wall: WallSpec, count: int = DEFAULT_N_EXACT,
                   n_exact: int = DEFAULT_N_EXACT) -> Spectrum:
    """Construct the spectrum for any wall kind.

    ``count`` is how many levels to materialize in ``levels``; ``n_exact``
    is the size of the root-solved block (Robin walls) or refined-zero block
    (Dirichlet/Neumann).  The constructor asserts that the root-solved block
    hands off to the tail law smoothly.
    """
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if not 2 <= n_exact <= _MAX_N_EXACT:
        raise DomainError(f"n_exact must be in [2, {_MAX_N_EXACT}], got {n_exact}")

    if wall.kind.is_robin:
        while True:
            exact = _robin_exact_levels(wall, n_exact)
            tail, rule = _tail_for(wall, n_exact)
            last = n_exact - 1
            rel = abs(exact[last] - tail.energy(last)) / abs(exact[last])
            if rel <= _handoff_bound(wall.field) or n_exact >= _MAX_N_EXACT:
                break
            n_exact = min(2 * n_exact, _MAX_N_EXACT)
        if rel > _handoff_bound(wall.field) and wall.field <= 1e-2:
            raise SolverError(
                f"tail handoff mismatch {rel:.2e} at n={n_exact} for {wall}")
    else:
        kind = (AiryZeroKind.FunctionZero if wall.kind is WallKind.DIRICHLET
                else AiryZeroKind.DerivativeZero)
        n_exact = min(n_exact, DEFAULT_N_EXACT)
        f23 = wall.field ** (2.0 / 3.0)
        exact = np.array([-airy_zero(n, kind) * f23 for n in range(1, n_exact + 1)])
        tail, rule = _tail_for(wall, n_exact)

    levels = np.concatenate([
        exact[:count],
        tail.energy(np.arange(n_exact, count)) if count > n_exact else np.empty(0),
    ])
    return Spectrum(wall=wall, levels=levels, n_exact=n_exact,
                    tail_rule=rule, exact_levels=exact, tail=tail)


def level_gaps(spectrum: Spectrum, n_max: int) -> list[LevelGap]:
    """Gaps Delta_n = E_n - E_0 and ratios R_n = Delta_n / Delta_1, n=1..n_max."""
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    e0 = spectrum.e0
    delta1 = spectrum.level(1) - e0
    out = []
    for n in range(1, n_max + 1):
        delta = spectrum.level(n) - e0
        out.append(LevelGap(n=n, delta=delta, ratio=delta / delta1))
    return out


def residual(spectrum: Spectrum, n: int) -> float:
    """Eigenvalue-equation residual of a root-solved level, in the
    logarithmic-derivative form F^(1/3) Ai'/Ai - 1/lam."""
    wall = spectrum.wall
    if wall.lam is None:
        raise DomainError("residual is defined for Robin walls only")
    if not 0 <= n < spectrum.n_exact:
        raise DomainError(f"level {n} is not root-solved")
    xi = -spectrum.exact_levels[n] * wall.field ** (-2.0 / 3.0)
    return _robin_h(float(xi), wall.field ** (1.0 / 3.0), wall.lam)


# ---------------------------------------------------------------------------
# square-well realization of the same zero-field spectrum
# ---------------------------------------------------------------------------

def qw_threshold(n: int, x0: float) -> float:
    """Depth at which the n-th bound state of the asymmetric square well
    (width x0, hard wall on one side) detaches from the continuum, in units
    with hbar^2/m = 1: (n - 1/2)^2 pi^2 / (2 x0^2)."""
    if n < 1:
        raise DomainError(f"threshold index must be >= 1, got {n}")
    x0 = float(x0)
    if x0 <= 0.0:
        raise DomainError(f"well width must be > 0, got {x0}")
    return (n - 0.5) ** 2 * math.pi ** 2 / (2.0 * x0 ** 2)


def qw_single_bound_window(x0: float) -> tuple[float, float]:
    """Depth window (lo, hi) in which the well holds exactly one bound state."""
    return qw_threshold(1, x0), qw_threshold(2, x0)
