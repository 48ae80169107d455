"""Checks of every workload output against oracles made apart from robinwall.

The oracles are the published values in ``published.py``, scipy's Airy
functions and zeros, mpmath at 30 digits, direct numpy summation over a
spectrum's levels, and properties the method must have.  Each check adds
its deviation divided by its tolerance to a ``Checker``; the largest such
ratio is the ``err_over_tol`` metric, and any ratio above 1 or any broken
property makes the run incorrect.

This module imports scipy and mpmath, so ``run.py`` imports it only after
the workload's peak memory has been read.
"""

from __future__ import annotations

import json
import math
import random

import mpmath
import numpy as np
from scipy import special

import published

EPS = np.finfo(float).eps
X_CUT = 45.0              # occupations beyond this exponent are below e^-45
DIRECT_SUM_MAX_LEVELS = 4_000_000
ROW_SAMPLES = 4


class Checker:
    """Collects deviation/tolerance ratios and broken properties.

    ``current`` names the op whose output is being checked (None for checks
    across ops); each failure is kept as (op name, message).
    """

    def __init__(self) -> None:
        self.worst = 0.0
        self.worst_name = ""
        self.failures: list[tuple[str | None, str]] = []
        self.current: str | None = None

    def ratio(self, name: str, deviation: float, tol: float) -> None:
        r = float(deviation) / float(tol)
        if not r <= 1.0:    # NaN fails too
            self.failures.append(
                (self.current, f"{name}: deviation {deviation:.3e} > tolerance {tol:.3e}"))
        if r > self.worst or math.isnan(r):
            self.worst, self.worst_name = r, name

    def require(self, name: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.failures.append((self.current, f"{name}: {detail}" if detail else name))


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------

def check_table1(chk: Checker, ops, outputs) -> None:
    """Every cell against the published T_peak and c_peak."""
    for op, report in zip(ops, outputs):
        chk.current = op.name
        seen = set()
        for cell in report.cells:
            key = (cell.ensemble, cell.n_particles, cell.field)
            seen.add(key)
            if key not in published.TABLE1:
                chk.require(f"table1 {key}", False, "cell is not in the published table")
                continue
            t_ref, c_ref = published.TABLE1[key]
            tol = published.TABLE1_TOLERANCE[cell.ensemble]
            chk.ratio(f"table1 {key} T_peak", abs(cell.t_found - t_ref) / t_ref, tol)
            chk.ratio(f"table1 {key} c_peak", abs(cell.c_found - c_ref) / c_ref, tol)
        chk.require(f"{op.name} cell count", len(seen) == op.count == len(report.cells),
                    f"{len(report.cells)} cells, {op.count} expected")


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

_LAM = {"robin-": -1, "robin+": 1}


def _ai_log_deriv(xi: np.ndarray) -> np.ndarray:
    """Ai'/Ai from scipy; the scaled forms on xi >= 0 avoid underflow."""
    pos = xi >= 0.0
    out = np.empty_like(xi)
    ai, aip, _, _ = special.airye(xi[pos])
    out[pos] = aip / ai
    ai, aip, _, _ = special.airy(xi[~pos])
    out[~pos] = aip / ai
    return out


def robin_newton_distance(xi: np.ndarray, field: float, lam: int) -> np.ndarray:
    """Distance |h/h'| from xi to the root of h = F^(1/3) Ai'/Ai - 1/lam,
    with h' = F^(1/3) (xi - (Ai'/Ai)^2) from the Airy equation."""
    fc = field ** (1.0 / 3.0)
    ld = _ai_log_deriv(xi)
    h = fc * ld - 1.0 / lam
    dh = fc * (xi - ld * ld)
    return np.abs(h / dh)


def mp_robin_newton_distance(energy: float, field: float, lam: int) -> float:
    with mpmath.workdps(30):
        f = mpmath.mpf(field)
        xi = -mpmath.mpf(energy) / f ** (mpmath.mpf(2) / 3)
        ld = mpmath.airyai(xi, derivative=1) / mpmath.airyai(xi)
        fc = mpmath.cbrt(f)
        return float(abs((fc * ld - mpmath.mpf(1) / lam) / (fc * (xi - ld * ld))))


def check_spectrum(chk: Checker, name: str, kind: str, field: float, sp,
                   rng: random.Random) -> None:
    """Root-solved levels: Robin roots against the eigenvalue condition
    (scipy, and mpmath on one sampled level), interlacing with the Ai zeros,
    Dirichlet/Neumann levels against the Ai and Ai' zeros."""
    levels = np.asarray(sp.exact_levels)
    n = len(levels)
    f23 = field ** (2.0 / 3.0)
    a, ap, _, _ = special.ai_zeros(n + 1)
    chk.require(f"{name} levels increasing", bool(np.all(np.diff(levels) > 0.0)))
    if kind in _LAM:
        xi = -levels / f23
        tol = 1e-10 * np.maximum(1.0, np.abs(xi))
        dist = robin_newton_distance(xi, field, _LAM[kind])
        i = int(np.argmax(dist / tol))
        chk.ratio(f"{name} level {i} root (scipy)", dist[i], tol[i])
        # xi_n in (a_{n+1}, a_n) for n >= 1; xi_0 above a_1, and below 0
        # for the repulsive wall
        inner = np.all((xi[1:] < a[:n - 1]) & (xi[1:] > a[1:n]))
        ground = xi[0] > a[0] and (kind == "robin-" or xi[0] < 0.0)
        chk.require(f"{name} interlacing with Ai zeros", bool(inner and ground))
        i = rng.randrange(n)
        chk.ratio(f"{name} level {i} root (mpmath)",
                  mp_robin_newton_distance(float(levels[i]), field, _LAM[kind]),
                  1e-10 * max(1.0, abs(float(xi[i]))))
    else:
        zeros = a if kind == "dirichlet" else ap
        rel = np.abs(levels + zeros[:n] * f23) / levels
        chk.ratio(f"{name} levels from Ai zeros (scipy)", float(rel.max()), 1e-11)
        i = rng.randrange(1, n + 1)
        with mpmath.workdps(30):
            z = float(mpmath.airyaizero(i, derivative=int(kind == "neumann")))
        chk.ratio(f"{name} level {i - 1} from zero {i} (mpmath)",
                  abs(float(levels[i - 1]) / f23 + z) / abs(z), 1e-11)


def check_spectra(chk: Checker, ops, outputs, seed: int) -> None:
    """The spectra workload: the root-solved block as in check_spectrum,
    then every materialized level in order, the Dirichlet/Neumann tail
    levels against the Ai and Ai' zeros, and level_gaps against the levels."""
    rng = random.Random(seed)
    for op, out in zip(ops, outputs):
        chk.current = op.name
        spec, sp, gaps = op.spec, out["spectrum"], out["gaps"]
        name, kind, field, count = op.name, spec["kind"], spec["field"], spec["count"]
        levels = np.asarray(sp.levels)
        n_ex = sp.n_exact
        chk.require(f"{name} level count", len(levels) == count, f"{len(levels)} != {count}")
        chk.require(f"{name} levels increasing, tail included",
                    bool(np.all(np.diff(levels) > 0.0)))
        chk.require(f"{name} exact block", bool(np.array_equal(
            levels[:min(n_ex, count)], np.asarray(sp.exact_levels)[:min(n_ex, count)])))
        check_spectrum(chk, name, kind, field, sp, rng)
        if kind in _LAM:
            chk.require(f"{name} root count", n_ex >= spec["n_exact"])
        else:
            chk.require(f"{name} root count", n_ex == min(spec["n_exact"], 64))
            a, ap, _, _ = special.ai_zeros(count)
            zeros = a if kind == "dirichlet" else ap
            ref = -zeros[n_ex:count] * field ** (2.0 / 3.0)
            # first-order tail law past the refined zeros
            chk.ratio(f"{name} tail levels (scipy)",
                      float(np.max(np.abs(levels[n_ex:] - ref) / ref)), 1e-5)

        # level_gaps: Delta_n = E_n - E_0 and R_n = Delta_n / Delta_1
        chk.require(f"{name} gap count", [g.n for g in gaps] == list(range(1, count)))
        delta = np.array([g.delta for g in gaps])
        ratio = np.array([g.ratio for g in gaps])
        want = levels[1:] - levels[0]
        chk.ratio(f"{name} gaps", float(np.max(np.abs(delta - want) / np.abs(want))), 1e-12)
        chk.ratio(f"{name} gap ratios", float(np.max(
            np.abs(ratio - want / want[0]) / np.abs(want / want[0]))), 1e-12)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _levels_upto(sp, n_levels: int, chunk: int = 1 << 20):
    """The spectrum's levels 0..n_levels-1 in chunks: the root-solved
    block, then its tail law."""
    exact = np.asarray(sp.exact_levels)
    yield exact[:n_levels]
    for lo in range(len(exact), n_levels, chunk):
        yield np.asarray(sp.tail.energy(np.arange(lo, min(lo + chunk, n_levels))))


def _levels_below(sp, e_cut: float) -> int:
    """Number of levels with E <= e_cut (at least the root-solved block)."""
    t = sp.tail
    if e_cut <= t.shift:
        return sp.n_exact
    m = (((e_cut - t.shift) / t.tau) ** 1.5 + t.k_off) / 4.0 - t.j0
    return max(sp.n_exact, int(math.ceil(m)) + 2)


def direct_gc(sp, beta: float, mu: float, fermi: bool, n_levels: int):
    """(N, <E>, sum |E| f) by direct summation of occupations at mu."""
    n = e = scale = 0.0
    for lv in _levels_upto(sp, n_levels):
        x = beta * (lv - mu)
        f = np.exp(-np.logaddexp(0.0, x)) if fermi else 1.0 / np.expm1(x)
        n += float(np.sum(f))
        e += float(np.sum(lv * f))
        scale += float(np.sum(np.abs(lv) * f))
    return n, e, scale


def direct_canonical(sp, beta: float, n_levels: int):
    """(<E>, c, sum |E| w / Z) with c from the centered second moment."""
    e0 = float(sp.exact_levels[0])
    z = m1 = a1 = 0.0
    for lv in _levels_upto(sp, n_levels):
        w = np.exp(-beta * (lv - e0))
        z += float(np.sum(w))
        m1 += float(np.sum((lv - e0) * w))
        a1 += float(np.sum(np.abs(lv) * w))
    mean = e0 + m1 / z
    var = 0.0
    for lv in _levels_upto(sp, n_levels):
        var += float(np.sum((lv - mean) ** 2 * np.exp(-beta * (lv - e0))))
    return mean, beta * beta * var / z, a1 / z


def _csv_cells(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    cols = lines[0].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[1:]]


def _check_serialization(chk: Checker, name: str, out, sweep_mod) -> None:
    doc = json.loads(out["json"], parse_float=str)
    csv_rows = _csv_cells(out["csv"])
    same = len(csv_rows) == len(doc["rows"])
    for crow, jrow in zip(csv_rows, doc["rows"]):
        for col, cell in crow.items():
            same = same and cell == jrow.get(col, "")
    chk.require(f"{name} CSV and JSON digit-identical", same)
    chk.require(f"{name} exact JSON round trip",
                sweep_mod.result_to_json(out["result"]) == out["json"])


def _check_rows_direct(chk: Checker, name: str, spec, rows, sp) -> None:
    """N and <E> (and canonical c) on sampled rows by direct summation."""
    ens, n_part = spec["ensemble"], spec["particles"]
    e0 = float(sp.exact_levels[0])
    eligible = []
    for i, r in enumerate(rows):
        top = max(e0, r.mu) if r.mu is not None else e0
        n_levels = _levels_below(sp, top + X_CUT * r.beta_inv)
        if n_levels <= DIRECT_SUM_MAX_LEVELS:
            eligible.append((i, n_levels))
    chk.require(f"{name} rows for direct sums", bool(eligible))
    step = max(1, len(eligible) // ROW_SAMPLES)
    for i, n_levels in eligible[::step][:ROW_SAMPLES]:
        r = rows[i]
        if ens == "canonical":
            mean, c, scale = direct_canonical(sp, r.beta, n_levels)
            chk.ratio(f"{name} row {i} <E> (direct sum)",
                      abs(mean - r.mean_energy), 1e-9 * scale)
            chk.ratio(f"{name} row {i} c (direct sum)",
                      abs(c - r.heat_capacity), 1e-7 * c + 1e-300)
        else:
            n, e, scale = direct_gc(sp, r.beta, r.mu, ens == "fd", n_levels)
            chk.ratio(f"{name} row {i} N (direct sum)", abs(n - n_part), 1e-8 * n_part)
            chk.ratio(f"{name} row {i} <E> (direct sum)",
                      abs(e - r.mean_energy), 1e-8 * scale)


def _check_fd_derivative(chk: Checker, name: str, spec, rows, t_cr=None) -> None:
    """c per particle against d<E>/dT of neighbouring rows.

    On the log grid, D1 and D2 are central differences over one and two
    steps; their Richardson combination is compared to c.  The tolerance is
    three times |D2 - D1| (the estimated error of D1), plus 2% of c for
    what a 40-point grid cannot resolve, plus a rounding floor.  That still
    catches a missing d(mu)/d(beta) term or a wrong per-particle scale.
    Stencils reaching into 0.8..1.25 T_cr are skipped: around the Bose cusp
    the curve turns on a scale finer than the grid."""
    n_part = spec["particles"] if spec["ensemble"] != "canonical" else 1
    t = np.array([r.beta_inv for r in rows])
    e = np.array([r.mean_energy for r in rows]) / n_part
    c = np.array([r.heat_capacity for r in rows])
    worst, worst_i, worst_tol = -1.0, 0, 1.0
    for i in range(2, len(rows) - 2):
        if t_cr is not None and t[i - 2] <= 1.25 * t_cr and t[i + 2] >= 0.8 * t_cr:
            continue
        h1 = math.log(t[i + 1] / t[i - 1])
        h2 = math.log(t[i + 2] / t[i - 2])
        d1 = (e[i + 1] - e[i - 1]) / (h1 * t[i])
        d2 = (e[i + 2] - e[i - 2]) / (h2 * t[i])
        dr = (4.0 * d1 - d2) / 3.0
        floor = 1e3 * EPS * np.max(np.abs(e[i - 2:i + 3])) / (h1 * t[i])
        tol = 3.0 * abs(d2 - d1) + 0.02 * abs(c[i]) + floor
        r = abs(dr - c[i]) / tol
        if r > worst:
            worst, worst_i, worst_tol = r, i, tol
    if worst >= 0.0:
        chk.ratio(f"{name} row {worst_i} c vs finite-difference dE/dT",
                  worst * worst_tol, worst_tol)


def check_sweeps(chk: Checker, ops, outputs, seed: int) -> None:
    from robinwall import sweep as sweep_mod
    from robinwall.spectrum import WallKind, WallSpec, build_spectrum

    rng = random.Random(seed)
    groups: dict[str, list] = {}
    for op, out in zip(ops, outputs):
        chk.current = op.name
        spec, name = op.spec, op.name
        chk.require(f"{name} exit codes", out["rc"] == (0, 0), f"{out['rc']}")
        if out["result"] is None:
            continue
        res = out["result"]
        rows = res.rows
        _check_serialization(chk, name, out, sweep_mod)
        chk.require(f"{name} rows", len(rows) == spec["points"]
                    and all(r.error is None for r in rows))
        t = np.array([r.beta_inv for r in rows])
        chk.require(f"{name} temperatures ascending", bool(np.all(np.diff(t) > 0.0)))
        c = np.array([r.heat_capacity for r in rows])
        chk.require(f"{name} c >= 0", bool(np.all(c >= 0.0)), f"min c = {c.min():.3e}")

        sp = build_spectrum(WallSpec(WallKind(spec["kind"]), spec["field"]),
                            count=64, n_exact=64)
        check_spectrum(chk, name, spec["kind"], spec["field"], sp, rng)
        _check_rows_direct(chk, name, spec, rows, sp)
        _check_fd_derivative(chk, name, spec, rows,
                             res.condensate.t_cr if res.condensate else None)

        if spec["ensemble"] == "be":
            n0 = np.array([r.n0 for r in rows])
            chk.require(f"{name} 0 <= n0 <= 1", bool(np.all((n0 >= 0.0) & (n0 <= 1.0))))
            chk.require(f"{name} n0 nonincreasing in T", bool(np.all(np.diff(n0) <= 0.0)),
                        f"largest rise {np.max(np.diff(n0)):.3e}")
            e0 = float(sp.exact_levels[0])
            chk.require(f"{name} mu < E0", all(r.mu < e0 for r in rows))
            cond = res.condensate
            ratio = np.array([r.t_over_tcr for r in rows]) * cond.t_cr / t
            chk.ratio(f"{name} T/T_cr column", float(np.max(np.abs(ratio - 1.0))), 1e-12)
            # T_cr: the excited levels alone hold N particles at mu = E0
            n_levels = _levels_below(sp, e0 + X_CUT * cond.t_cr)
            if n_levels <= 4 * DIRECT_SUM_MAX_LEVELS:
                n_exc = 0.0
                for lv in _levels_upto(sp, n_levels):
                    x = cond.beta_cr * (lv - e0)
                    n_exc += float(np.sum(1.0 / np.expm1(x[x > 0.0])))
                chk.ratio(f"{name} T_cr (direct sum)", abs(n_exc - spec["particles"]),
                          1e-8 * spec["particles"])
        if spec["kind"] == "neumann":
            y = spec["field"] ** (2.0 / 3.0) / res.extrema.beta_inv_at_max
            chk.ratio(f"{name} Neumann peak y",
                      abs(y - published.NEUMANN_PEAK_Y) / published.NEUMANN_PEAK_Y,
                      published.NEUMANN_TOL_Y)
            chk.ratio(f"{name} Neumann peak c",
                      abs(res.extrema.c_max - published.NEUMANN_PEAK_C),
                      published.NEUMANN_TOL_C)
        if spec["group"]:
            groups.setdefault(spec["group"], []).append((spec, rows))

    # Dirichlet and Neumann curves collapse in y = beta F^(2/3)
    chk.current = None
    for group, members in groups.items():
        if len(members) != 2:
            continue    # one of the pair failed, which is already reported
        (sa, ra), (sb, rb) = members
        fa, fb = sa["field"] ** (2.0 / 3.0), sb["field"] ** (2.0 / 3.0)
        ya = np.array([fa / r.beta_inv for r in ra])
        yb = np.array([fb / r.beta_inv for r in rb])
        chk.ratio(f"{group} pair on one y grid", float(np.max(np.abs(ya / yb - 1.0))), 1e-12)
        ca = np.array([r.heat_capacity for r in ra])
        cb = np.array([r.heat_capacity for r in rb])
        chk.ratio(f"{group} c(y) collapse", float(np.max(np.abs(ca - cb) / ca)), 1e-9)
        ea = np.array([r.mean_energy for r in ra]) / fa
        eb = np.array([r.mean_energy for r in rb]) / fb
        chk.ratio(f"{group} <E>/F^(2/3) collapse", float(np.max(np.abs(ea - eb) / ea)), 1e-9)
