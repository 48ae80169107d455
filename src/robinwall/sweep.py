"""Temperature sweeps, their serialization, and the tabulated-peak
regression harness.

A sweep evaluates one wall/ensemble configuration on a temperature grid,
locates the heat-capacity extrema with Brent's parabolic refinement, and
(for bosons) attaches the condensation threshold.  Grand-canonical points
start each chemical-potential solve from the states already solved.
Results serialize to CSV and JSON with shortest round-trip float
formatting, so the two emissions carry bit-identical numbers and a JSON
round trip reproduces the rows exactly.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import grand_canonical as gc
from .canonical import ExtremumReport, find_extrema, thermo_point
from .errors import DomainError, RobinWallError
from .grand_canonical import CondensateReport, EnsembleSpec, Statistics
from .reference_values import (
    TABLE1,
    TABLE1_BE_N,
    TABLE1_FD_N,
    TABLE1_FIELDS,
    TOLERANCE,
)
from .spectrum import Spectrum, WallKind, WallSpec, build_spectrum

__all__ = [
    "OUTPUT_FIELDS",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "run_sweep",
    "result_to_json",
    "result_from_json",
    "result_to_csv",
    "Table1Cell",
    "Table1Report",
    "table1_harness",
    "locate_peak",
]

OUTPUT_FIELDS = ("mean_energy", "heat_capacity", "mu", "n0")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: wall, ensemble (None means canonical), and a
    temperature grid, optionally expressed in units of T_cr for bosons."""

    wall: WallSpec
    ensemble: EnsembleSpec | None
    beta_inv_min: float
    beta_inv_max: float
    points: int
    log_grid: bool = True
    normalize_by_tcr: bool = False
    outputs: tuple[str, ...] = OUTPUT_FIELDS
    n_exact: int = 64

    def __post_init__(self) -> None:
        if not (0.0 < self.beta_inv_min < self.beta_inv_max):
            raise DomainError("sweep grid needs 0 < beta_inv_min < beta_inv_max")
        if self.points < 2:
            raise DomainError("sweep grid needs at least 2 points")
        bad = set(self.outputs) - set(OUTPUT_FIELDS)
        if bad:
            raise DomainError(f"unknown output fields: {sorted(bad)}")
        is_be = (self.ensemble is not None
                 and self.ensemble.statistics is Statistics.BOSE_EINSTEIN)
        if self.normalize_by_tcr and not is_be:
            raise DomainError("normalize_by_tcr applies to Bose sweeps only")


@dataclass(frozen=True)
class SweepRow:
    beta_inv: float
    beta: float
    mean_energy: float | None = None
    heat_capacity: float | None = None
    mu: float | None = None
    n0: float | None = None
    t_over_tcr: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]
    extrema: ExtremumReport
    condensate: CondensateReport | None = None

    @property
    def failed(self) -> bool:
        return any(r.error is not None for r in self.rows)


def _gc_evaluator(spectrum: Spectrum, ensemble: EnsembleSpec):
    """gc_point at successive temperatures, each mu solve started from the
    states already solved: gamma = beta (E_0 - mu) interpolated (or
    extrapolated) linearly in ln beta through the two solved points nearest
    in ln beta, in ln gamma for bosons, whose gamma spans decades."""
    solved: list[tuple[float, float]] = []  # (ln beta, solver coordinate)
    log_gamma = ensemble.sign == gc.BOSE

    def evaluate(beta: float) -> gc.GcPoint:
        hint = None
        if solved:
            lb = math.log(beta)
            near = sorted(solved, key=lambda s: abs(s[0] - lb))[:2]
            hint = near[0][1]
            if len(near) == 2 and near[0][0] != near[1][0]:
                (l0, g0), (l1, g1) = near
                hint = g0 + (g1 - g0) * (lb - l0) / (l1 - l0)
            if log_gamma:
                hint = math.exp(hint)
        p = gc.gc_point(spectrum, beta, ensemble, hint_gamma=hint)
        gamma = p.beta * (spectrum.e0 - p.mu)
        solved.append((math.log(p.beta), math.log(gamma) if log_gamma else gamma))
        return p

    return evaluate


def _temperature_grid(spec: SweepSpec) -> np.ndarray:
    if spec.log_grid:
        return np.exp(np.linspace(math.log(spec.beta_inv_min),
                                  math.log(spec.beta_inv_max), spec.points))
    return np.linspace(spec.beta_inv_min, spec.beta_inv_max, spec.points)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep row by row (ascending temperature), then locate the
    heat-capacity extrema on the same continuous evaluator.

    Solver failures are recorded per row instead of aborting the sweep; a
    result with any failed row reports ``failed`` and the CLI exits nonzero.
    """
    spectrum = build_spectrum(spec.wall, count=spec.n_exact, n_exact=spec.n_exact)
    condensate = None
    ens = spec.ensemble
    if ens is not None and ens.statistics is Statistics.BOSE_EINSTEIN:
        condensate = gc.be_critical(spectrum, ens.n_particles)

    t_units = _temperature_grid(spec)
    scale = condensate.t_cr if spec.normalize_by_tcr else 1.0
    temperatures = t_units * scale

    gc_eval = None if ens is None else _gc_evaluator(spectrum, ens)

    def eval_point(beta: float) -> tuple[float, float, float | None, float | None]:
        if gc_eval is None:
            tp = thermo_point(spectrum, beta)
            return tp.mean_energy, tp.heat_capacity, None, None
        p = gc_eval(beta)
        return p.mean_energy, p.heat_capacity_per_particle, p.mu, p.n0

    rows: list[SweepRow] = []
    for t_unit, temp in zip(t_units, temperatures):
        beta = 1.0 / temp
        common = dict(beta_inv=float(temp), beta=float(beta),
                      t_over_tcr=float(t_unit) if spec.normalize_by_tcr else None)
        try:
            energy, c, mu, n0 = eval_point(beta)
        except RobinWallError as exc:
            rows.append(SweepRow(error=str(exc), **common))
            continue
        rows.append(SweepRow(
            mean_energy=energy if "mean_energy" in spec.outputs else None,
            heat_capacity=c if "heat_capacity" in spec.outputs else None,
            mu=mu if "mu" in spec.outputs else None,
            n0=n0 if "n0" in spec.outputs else None,
            **common))

    extrema = ExtremumReport()
    if not any(r.error for r in rows) and len(rows) >= 3:
        betas = 1.0 / temperatures
        extrema = find_extrema(lambda b: eval_point(b)[1], betas)
    return SweepResult(spec=spec, rows=tuple(rows), extrema=extrema,
                       condensate=condensate)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _spec_to_dict(spec: SweepSpec) -> dict:
    return {
        "wall": spec.wall.kind.value,
        "field": spec.wall.field,
        "ensemble": spec.ensemble.statistics.value if spec.ensemble else "canonical",
        "particles": spec.ensemble.n_particles if spec.ensemble else 1,
        "beta_inv_min": spec.beta_inv_min,
        "beta_inv_max": spec.beta_inv_max,
        "points": spec.points,
        "log_grid": spec.log_grid,
        "normalize_by_tcr": spec.normalize_by_tcr,
        "outputs": list(spec.outputs),
        "n_exact": spec.n_exact,
    }


def _spec_from_dict(d: dict) -> SweepSpec:
    wall = WallSpec(WallKind(d["wall"]), d["field"])
    ens = None
    if d["ensemble"] != "canonical":
        ens = EnsembleSpec(Statistics(d["ensemble"]), d["particles"])
    return SweepSpec(wall=wall, ensemble=ens,
                     beta_inv_min=d["beta_inv_min"], beta_inv_max=d["beta_inv_max"],
                     points=d["points"], log_grid=d["log_grid"],
                     normalize_by_tcr=d["normalize_by_tcr"],
                     outputs=tuple(d["outputs"]), n_exact=d["n_exact"])


def _row_to_dict(row: SweepRow) -> dict:
    d = {"beta_inv": row.beta_inv, "beta": row.beta}
    for name in ("mean_energy", "heat_capacity", "mu", "n0", "t_over_tcr", "error"):
        val = getattr(row, name)
        if val is not None:
            d[name] = val
    return d


def result_to_json(result: SweepResult) -> str:
    ex = result.extrema
    doc = {
        "spec": _spec_to_dict(result.spec),
        "rows": [_row_to_dict(r) for r in result.rows],
        "extrema": {
            "beta_inv_at_max": ex.beta_inv_at_max,
            "c_max": ex.c_max,
            "beta_inv_at_min": ex.beta_inv_at_min,
            "c_min": ex.c_min,
        },
        "condensate": None if result.condensate is None else {
            "beta_cr": result.condensate.beta_cr,
            "t_cr": result.condensate.t_cr,
            "asymptotic_beta_cr": result.condensate.asymptotic_beta_cr,
        },
    }
    return json.dumps(doc, indent=1)


def result_from_json(text: str) -> SweepResult:
    doc = json.loads(text)
    spec = _spec_from_dict(doc["spec"])
    rows = tuple(SweepRow(
        beta_inv=r["beta_inv"], beta=r["beta"],
        mean_energy=r.get("mean_energy"), heat_capacity=r.get("heat_capacity"),
        mu=r.get("mu"), n0=r.get("n0"), t_over_tcr=r.get("t_over_tcr"),
        error=r.get("error")) for r in doc["rows"])
    ex = doc["extrema"]
    extrema = ExtremumReport(beta_inv_at_max=ex["beta_inv_at_max"], c_max=ex["c_max"],
                             beta_inv_at_min=ex["beta_inv_at_min"], c_min=ex["c_min"])
    cond = None
    if doc["condensate"] is not None:
        c = doc["condensate"]
        cond = CondensateReport(beta_cr=c["beta_cr"], t_cr=c["t_cr"],
                                asymptotic_beta_cr=c["asymptotic_beta_cr"])
    return SweepResult(spec=spec, rows=rows, extrema=extrema, condensate=cond)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def result_to_csv(result: SweepResult) -> str:
    """CSV emission with a '#'-prefixed header block echoing the spec.

    Numeric cells use shortest round-trip decimal representation, identical
    to the JSON emission.
    """
    spec = result.spec
    out = io.StringIO()
    for key, val in _spec_to_dict(spec).items():
        out.write(f"# {key} = {val}\n")
    if result.condensate is not None:
        out.write(f"# beta_cr = {_fmt(result.condensate.beta_cr)}\n")
    ex = result.extrema
    if ex.c_max is not None:
        out.write(f"# c_max = {_fmt(ex.c_max)} at beta_inv = {_fmt(ex.beta_inv_at_max)}\n")
    cols = ["beta_inv", "beta"]
    cols += [f for f in ("mean_energy", "heat_capacity", "mu", "n0")
             if any(getattr(r, f) is not None for r in result.rows)]
    if spec.normalize_by_tcr:
        cols.append("t_over_tcr")
    if any(r.error for r in result.rows):
        cols.append("error")
    out.write(",".join(cols) + "\n")
    for r in result.rows:
        cells = []
        for c in cols:
            v = getattr(r, c)
            if c == "error":
                cells.append("" if v is None else str(v).replace(",", ";"))
            else:
                cells.append(_fmt(v))
        out.write(",".join(cells) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# tabulated-peak regression harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Cell:
    ensemble: str
    n_particles: int
    field: float
    t_ref: float
    c_ref: float
    t_found: float
    c_found: float
    rel_t: float
    rel_c: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.rel_t <= self.tolerance and self.rel_c <= self.tolerance


@dataclass(frozen=True)
class Table1Report:
    cells: tuple[Table1Cell, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)

    def as_text(self) -> str:
        lines = ["ensemble      N    field     T_peak(ref)  T_peak     rel_T     "
                 "c_peak(ref)  c_peak     rel_c     status"]
        for c in self.cells:
            lines.append(
                f"{c.ensemble:9s} {c.n_particles:6d}  {c.field:8.0e} "
                f"{c.t_ref:11.4f}  {c.t_found:9.4f}  {c.rel_t:8.2e}  "
                f"{c.c_ref:11.3f}  {c.c_found:9.3f}  {c.rel_c:8.2e}  "
                f"{'pass' if c.passed else 'FAIL'}")
        lines.append(f"cells: {len(self.cells)}  "
                     f"result: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def locate_peak(spectrum: Spectrum, ensemble: EnsembleSpec | None,
                t_center: float, span: float = 2.2,
                points: int = 50) -> ExtremumReport:
    """Scan a log window around t_center and refine the global maximum."""
    grid = np.exp(np.linspace(math.log(1.0 / (t_center * span)),
                              math.log(span / t_center), points))
    if ensemble is None:
        return find_extrema(spectrum, grid)
    gc_eval = _gc_evaluator(spectrum, ensemble)
    return find_extrema(lambda beta: gc_eval(beta).heat_capacity_per_particle, grid)


def table1_harness(fields: tuple[float, ...] = TABLE1_FIELDS,
                   ensembles: tuple[str, ...] = ("canonical", "fd", "be"),
                   tol: float | None = None) -> Table1Report:
    """Reproduce the tabulated attractive-wall peaks and report per-cell
    relative errors.  Deterministic: two runs give byte-identical reports."""
    cells: list[Table1Cell] = []
    spectra: dict[float, Spectrum] = {}
    for ens_name in ensembles:
        if ens_name == "canonical":
            n_list: tuple[int, ...] = (1,)
        elif ens_name == "fd":
            n_list = TABLE1_FD_N
        elif ens_name == "be":
            n_list = TABLE1_BE_N
        else:
            raise DomainError(f"unknown ensemble {ens_name!r}")
        for field in fields:
            if field not in spectra:
                spectra[field] = build_spectrum(
                    WallSpec(WallKind.ROBIN_ATTRACTIVE, field), count=64)
            for n in n_list:
                key = (ens_name, n, field)
                if key not in TABLE1:
                    raise DomainError(f"no reference value for {key}")
                t_ref, c_ref = TABLE1[key]
                ens = None
                if ens_name == "fd":
                    ens = EnsembleSpec(Statistics.FERMI_DIRAC, n)
                elif ens_name == "be":
                    ens = EnsembleSpec(Statistics.BOSE_EINSTEIN, n)
                rep = locate_peak(spectra[field], ens, t_ref)
                if rep.c_max is None:
                    raise DomainError(f"no peak found in the scan window for {key}")
                tolerance = tol if tol is not None else TOLERANCE[ens_name]
                cells.append(Table1Cell(
                    ensemble=ens_name, n_particles=n, field=field,
                    t_ref=t_ref, c_ref=c_ref,
                    t_found=rep.beta_inv_at_max, c_found=rep.c_max,
                    rel_t=abs(rep.beta_inv_at_max - t_ref) / t_ref,
                    rel_c=abs(rep.c_max - c_ref) / c_ref,
                    tolerance=tolerance))
    return Table1Report(cells=tuple(cells))
