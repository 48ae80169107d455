"""Dimensionless energy spectra of a particle on the half-line pressed to the
wall by a uniform field F > 0.

The wall is hard (Dirichlet), reflecting (Neumann), or Robin with
extrapolation length lam = +1 (repulsive) or -1 (attractive), whose levels
solve F^(1/3) Ai'(xi) = (1/lam) Ai(xi), xi = -E F^(-2/3), in a phase form
finite at the zeros of Ai (``_robin_psi``), by one lockstep solve over the
levels' brackets (``_robin_exact_levels``): within 1e-12 of scipy's brentq
(test_levels_against_scipy_brentq), from at most 6 Airy points a level
(test_airy_calls_per_level).  Past the root-solved block the levels follow
the ``TailLaw``, the Airy zeros' power law shifted to meet the block.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from . import _work
from .errors import DomainError, SolverError
from .specfun import (
    N_EXACT_ZEROS,
    AiryZeroKind,
    _airy_pair,
    _airy_zeros,
    _check_field,
    _check_index,
    _polished_roots,
)

__all__ = [
    "WallKind",
    "WallSpec",
    "Spectrum",
    "LevelGap",
    "build_spectrum",
    "level_gaps",
]

_ZERO_LAW_PREF = (3.0 * math.pi / 8.0) ** (2.0 / 3.0)
DEFAULT_N_EXACT = 64
_MAX_N_EXACT = 512


def _check_n_exact(n_exact: int) -> int:
    """n_exact as int; DomainError unless an integer in [2, _MAX_N_EXACT]."""
    n = _check_index(n_exact, 2, "n_exact")
    if n > _MAX_N_EXACT:
        raise DomainError(f"n_exact must be in [2, {_MAX_N_EXACT}], got {n_exact!r}")
    return n


class WallKind(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN_ATTRACTIVE = "robin-"
    ROBIN_REPULSIVE = "robin+"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown wall {value!r}")

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
        object.__setattr__(self, "field", _check_field(self.field))

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
    """Level law past the root-solved block,
    E(m) = tau (4 (m + j0) - k_off)^(2/3) + shift, tau holding the zero
    law's prefactor and F^(2/3).  Its methods are all that ``ladder`` knows
    of a level law."""

    tau: float
    j0: int
    k_off: int
    shift: float

    def energy(self, m):
        """E(m) at real m; np.power, not **, so a scalar rounds as an array."""
        a = 4.0 * (np.asarray(m, dtype=float) + self.j0) - self.k_off
        return self.tau * np.power(a, 2.0 / 3.0) + self.shift

    def index(self, e):
        """The real m with energy(m) == e (the lower end, E = shift, for an e
        below it)."""
        a = (np.maximum(np.asarray(e, dtype=float) - self.shift, 0.0) / self.tau) ** 1.5
        return (a + self.k_off) / 4.0 - self.j0

    def spacing_index(self, g):
        """The real m where the spacing dE/dm has fallen to g."""
        a = (8.0 * self.tau / (3.0 * np.asarray(g, dtype=float))) ** 3
        return (a + self.k_off) / 4.0 - self.j0

    def quadrature(self, breaks, nodes, weights):
        """(energies, weights) of integral f(E(m)) dm over the panels between
        ``breaks`` (ascending energies, a row per lane): the rule ``nodes``,
        ``weights`` on [-1, 1] in s = sqrt((E - shift)/tau), where
        dm = (3/4) s^2 ds is a polynomial."""
        # a break at the law's lower end can round below shift (robin-, E_0 = -1, shift ~F)
        s = np.sqrt(np.maximum(breaks - self.shift, 0.0) / self.tau)
        lo = s[:, :-1, None]
        half = 0.5 * (s[:, 1:, None] - lo)
        s = (half * (nodes + 1.0) + lo).reshape(len(s), -1)
        v = s * s
        return self.tau * v + self.shift, 0.75 * (half * weights).reshape(len(s), -1) * v


def _energies(exact: np.ndarray, tail: TailLaw, m: np.ndarray) -> np.ndarray:
    """``Spectrum.energies`` of the root-solved block ``exact`` and ``tail``;
    DomainError for an index < 0."""
    n = len(exact)
    low = m < n
    if not low.any():
        return tail.energy(m)
    below = m[low]
    if below.min() < 0:
        raise DomainError(f"level indices must be >= 0, got {below.min()}")
    out = tail.energy(np.maximum(m, n))
    out[low] = exact[below]
    return out


class LevelGap(NamedTuple):
    """Gap above the ground state and its ratio to the first gap."""

    n: int
    delta: float
    ratio: float


@dataclass(frozen=True)
class Spectrum:
    """The levels of one wall: ``levels`` the ones requested, read-only,
    ``exact_levels`` the root-solved block of ``n_exact``, the ``tail`` law
    past it; SolverError unless the block and the first tail level ascend.
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
        diffs = np.diff(np.append(self.exact_levels, self.tail.energy(self.n_exact)))
        if diffs.min() <= 0.0:
            raise SolverError("Spectrum: root-solved levels and the first tail level "
                              "are not strictly increasing")

    @property
    def e0(self) -> float:
        return float(self.exact_levels[0])

    def energies(self, m: np.ndarray) -> np.ndarray:
        """Levels at the int array m >= 0, in its shape: the root-solved
        block below ``n_exact``, the tail law from there."""
        return _energies(self.exact_levels, self.tail, m)

    def level(self, n: int) -> float:
        return float(self.energies(np.array([_check_index(n, 0, "level index")]))[0])


# ---------------------------------------------------------------------------
# Robin root solving
# ---------------------------------------------------------------------------

def _robin_psi(xi: np.ndarray, field_cbrt: float, lam: int) -> tuple[np.ndarray, ...]:
    """psi(xi) = atan(F^(1/3) Ai'/Ai) - atan(1/lam) and its first two
    derivatives from the raw pair of ``specfun._airy_pair``: with
    N = xi Ai^2 - Ai'^2 and D = Ai^2 + F^(2/3) Ai'^2, psi' = F^(1/3) N/D and
    psi'' = F^(1/3) (Ai^2 D - 2 N Ai Ai' (1 + F^(2/3) xi))/D^2, homogeneous
    in the pair, so that its scaling cancels."""
    _work.counts.update(airy_calls=1, airy_points=np.size(xi))
    ai, aip = _airy_pair(xi)
    d = field_cbrt * aip
    psi = np.arctan2(d * np.copysign(1.0, ai), np.abs(ai)) - math.atan(1.0 / lam)
    n, den = xi * ai * ai - aip * aip, ai * ai + d * d
    curve = ai * ai * den - 2.0 * n * ai * aip * (1.0 + field_cbrt * field_cbrt * xi)
    return psi, field_cbrt * n / den, field_cbrt * curve / (den * den)


def _robin_exact_levels(wall: WallSpec, stop: int) -> np.ndarray:
    """Levels 0..stop-1, the roots of psi on their brackets by one lockstep
    Halley solve (``_polished_roots``).  Level n >= 1 starts on the
    leading-order phase of its Airy zero a (DLMF 9.7.9, 9.7.11:
    Ai'/Ai ~ -sqrt|xi| cot(zeta + pi/4)), zeta = (2/3)|a|^(3/2) -
    atan(lam F^(1/3) sqrt|a|), the ground level at a_1 + lam F^(1/3), and a
    start outside its bracket at the midpoint.  SolverError names a bracket
    without a sign change, or on the attractive wall a ground level across
    which psi does not change sign."""
    lam, fc = wall.lam, wall.field ** (1.0 / 3.0)
    zeros = _airy_zeros(stop)
    # level n >= 1 lies in (a_{n+1}, a_n), near a_n on the attractive wall
    # and near a_{n+1} on the repulsive one.  The ground level lies above
    # a_1: below 0 on the repulsive wall, possibly far out on the positive
    # axis (split-off bound state) on the attractive one.
    tops = np.concatenate([[max(4.0, 2.0 * wall.field ** (-2.0 / 3.0)) if lam < 0 else 0.0],
                           zeros[:-1]])
    near = np.concatenate([zeros[:1], zeros[:-1] if lam < 0 else zeros[1:]])
    margin = 1e-12 * np.maximum(1.0, np.abs(zeros))
    lo, hi = zeros + margin, tops - margin
    psi_lo, psi_hi = np.split(_robin_psi(np.concatenate([lo, hi]), fc, lam)[0], 2)
    if not ((psi_lo > 0.0) & (psi_hi < 0.0)).all():
        i = int(np.argmin((psi_lo > 0.0) & (psi_hi < 0.0)))
        raise SolverError(f"robin level bracket failed on ({lo[i]}, {hi[i]}): "
                          f"psi={psi_lo[i]:.3e}, {psi_hi[i]:.3e}")
    a = np.abs(near[1:])
    x = np.concatenate([near[:1] + lam * fc,
                        -(a ** 1.5 - 1.5 * np.arctan(lam * fc * np.sqrt(a))) ** (2.0 / 3.0)])
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    xis = _polished_roots(lambda xi: _robin_psi(xi, fc, lam), lo, hi, x, 1e-13)
    if lam < 0.0:
        # at a weak field the slope of psi cancels to noise near the
        # split-off state, and the step test on |psi/slope| can pass far
        # from its root
        d = 1e-10 * max(1.0, abs(xis[0]))
        psi_0 = _robin_psi(np.array([xis[0] - d, xis[0] + d]), fc, lam)[0]
        if not psi_0[0] > 0.0 > psi_0[1]:
            raise SolverError(f"robin ground level at field {wall.field!r}: psi does not change "
                              f"sign across the root xi={xis[0]} ({psi_0[0]:.3e}, {psi_0[1]:.3e})")
    return -xis * wall.field ** (2.0 / 3.0)


# per wall: the tail's (j0, k_off), the kind of Airy zero it follows, and
# its rule; level n follows the zero of index n + j0
_TAILS = {
    WallKind.DIRICHLET: (1, 1, AiryZeroKind.FunctionZero,
                         "E(n) = -a(n+1) F^(2/3), asymptotic Ai zeros"),
    WallKind.NEUMANN: (1, 3, AiryZeroKind.DerivativeZero,
                       "E(n) = -a'(n+1) F^(2/3), asymptotic Ai' zeros"),
    WallKind.ROBIN_ATTRACTIVE: (0, 1, AiryZeroKind.FunctionZero,
                                "E(n) = -a(n) F^(2/3) + shift, asymptotic Ai zeros, "
                                "shift from the last root"),
    WallKind.ROBIN_REPULSIVE: (1, 1, AiryZeroKind.FunctionZero,
                               "E(n) = -a(n+1) F^(2/3) + shift, asymptotic Ai zeros, "
                               "shift from the last root"),
}


def build_spectrum(wall: WallSpec, count: int = DEFAULT_N_EXACT,
                   n_exact: int = DEFAULT_N_EXACT) -> Spectrum:
    """The spectrum of ``wall`` with ``count`` levels in ``levels`` and a
    root-solved block of ``n_exact`` (Dirichlet/Neumann: refined Airy zeros,
    at most N_EXACT_ZEROS); the tail law's shift is the block's last level
    less the Airy zero the law follows there.  DomainError for a bad
    ``count`` or ``n_exact``.
    """
    count = _check_index(count, 1, "count")
    n_exact = _check_n_exact(n_exact)

    j0, k_off, zero_kind, rule = _TAILS[wall.kind]
    f23 = wall.field ** (2.0 / 3.0)
    if wall.kind.is_robin:
        exact = _robin_exact_levels(wall, n_exact)
    else:
        n_exact = min(n_exact, N_EXACT_ZEROS)
        exact = -_airy_zeros(n_exact, zero_kind) * f23
    # exactly 0.0 for Dirichlet/Neumann, whose block is the zeros themselves
    shift = exact[-1] + _airy_zeros(n_exact - 1 + j0, zero_kind)[-1] * f23
    tail = TailLaw(tau=_ZERO_LAW_PREF * f23, j0=j0, k_off=k_off, shift=float(shift))

    return Spectrum(wall=wall, levels=_energies(exact, tail, np.arange(count)),
                    n_exact=n_exact, tail_rule=rule, exact_levels=exact, tail=tail)


def level_gaps(spectrum: Spectrum, n_max: int) -> list[LevelGap]:
    """Gaps Delta_n = E_n - E_0 and ratios R_n = Delta_n / Delta_1, n=1..n_max."""
    n_max = _check_index(n_max, 1, "n_max")
    levels = spectrum.energies(np.arange(n_max + 1))
    delta = levels[1:] - levels[0]
    return list(map(LevelGap._make, zip(range(1, n_max + 1), delta.tolist(),
                                        (delta / delta[0]).tolist())))

