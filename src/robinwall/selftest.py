"""The invariant suite of ``robinwall selftest``: thermodynamic identities
against finite differences, the particle number after mu solves, ensemble
agreement when hot, and special-function invariants, all with fixed seeds.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from . import grand_canonical as gc
from .grand_canonical import EnsembleSpec, Statistics
from .ladder import ladder_sums
from .spectrum import WallKind, WallSpec, build_spectrum
from .specfun import interlacing_ok, lambert_w

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_fluctuation_dissipation() -> CheckResult:
    """c = beta^2 var(E) against -beta^2 d<E>/dbeta (5-point stencil),
    50 random wall/field/temperature combinations."""
    rng = random.Random(20240811)
    kinds = list(WallKind)
    worst = 0.0
    for _ in range(50):
        kind = rng.choice(kinds)
        field = 10.0 ** rng.uniform(-5.0, -1.0)
        beta = 10.0 ** rng.uniform(math.log10(0.2), math.log10(15.0))
        sp = build_spectrum(WallSpec(kind, field))
        c = gc.thermo_point(sp, beta).heat_capacity
        h = 2e-3 * beta
        es = [gc.thermo_point(sp, beta + k * h).mean_energy for k in (-2, -1, 1, 2)]
        dedb = (es[0] - 8.0 * es[1] + 8.0 * es[2] - es[3]) / (12.0 * h)
        c_fd = -beta * beta * dedb
        worst = max(worst, abs(c - c_fd) / abs(c))
    return CheckResult("fluctuation-dissipation vs finite difference",
                       worst <= 1e-5, f"worst relative deviation {worst:.2e} (<= 1e-5)")


def check_particle_number() -> CheckResult:
    """Occupation sum reproduces N to 1e-10 after every mu solve."""
    rng = random.Random(909)
    worst = 0.0
    for _ in range(20):
        field = 10.0 ** rng.uniform(-6.0, -2.0)
        beta = 10.0 ** rng.uniform(-0.5, 1.0)
        n = rng.choice([1, 2, 5, 10, 100])
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field))
        for stat in (Statistics.FERMI_DIRAC, Statistics.BOSE_EINSTEIN):
            mu = gc.thermo_point(sp, beta, EnsembleSpec(stat, n)).mu
            gamma = beta * (sp.e0 - mu)
            got = ladder_sums(sp, beta, stat, gamma=gamma)[0]
            worst = max(worst, abs(got - n) / n)
    return CheckResult("particle-number residual after mu solve",
                       worst <= 1e-10, f"worst relative residual {worst:.2e} (<= 1e-10)")


def check_ground_fraction_monotone() -> CheckResult:
    """n0(T) stays in [0,1] and never increases with temperature."""
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-4))
    rep = gc.be_critical(sp, 1000)
    ts = np.linspace(0.1, 2.0, 40) * rep.t_cr
    ens = EnsembleSpec(Statistics.BOSE_EINSTEIN, 1000)
    n0s = [gc.thermo_point(sp, 1.0 / t, ens).n0 for t in ts]
    in_range = all(0.0 <= v <= 1.0 for v in n0s)
    mono = all(b <= a + 1e-12 for a, b in zip(n0s, n0s[1:]))
    return CheckResult("ground occupation in [0,1], nonincreasing in T",
                       in_range and mono,
                       f"range [{min(n0s):.3e}, {max(n0s):.4f}], monotone={mono}")


def check_high_t_ensemble_agreement() -> CheckResult:
    """Canonical, FD, and BE heat capacity per particle agree to 1e-2 at
    beta * F^(2/3) = 1e-4."""
    field = 1e-4
    beta = 1e-4 / field ** (2.0 / 3.0)
    sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field))
    c_can = gc.thermo_point(sp, beta).heat_capacity
    cs = [c_can]
    for stat in (Statistics.FERMI_DIRAC, Statistics.BOSE_EINSTEIN):
        cs.append(gc.thermo_point(sp, beta, EnsembleSpec(stat, 3)).heat_capacity)
    spread = max(cs) - min(cs)
    return CheckResult("three-ensemble agreement at high temperature",
                       spread <= 1e-2,
                       f"c per particle spread {spread:.2e} (<= 1e-2) around {c_can:.4f}")


def check_airy_interlacing() -> CheckResult:
    ok = interlacing_ok(50)
    return CheckResult("airy zero interlacing a'_n > a_n > a'_(n+1)",
                       ok, "n = 1..50")


def check_lambert_roundtrip() -> CheckResult:
    worst = 0.0
    for x in np.geomspace(1e-8, 1e8, 161):
        w = lambert_w(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / x)
    return CheckResult("lambert W round-trip residual",
                       worst <= 1e-12, f"worst |W e^W - x|/x = {worst:.2e} (<= 1e-12)")


ALL_CHECKS = (
    check_airy_interlacing,
    check_lambert_roundtrip,
    check_fluctuation_dissipation,
    check_particle_number,
    check_ground_fraction_monotone,
    check_high_t_ensemble_agreement,
)


def run_all() -> list[CheckResult]:
    return [fn() for fn in ALL_CHECKS]
