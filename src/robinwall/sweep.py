"""Temperature sweeps, their serialization, and the tabulated-peak
regression harness.

A sweep evaluates one wall/ensemble configuration on a temperature grid
as one batch, locates the heat-capacity extrema with Brent's parabolic
refinement, and (for bosons) attaches the condensation threshold.  Brent's
grand-canonical points start each chemical-potential solve from the states
already solved.
Results serialize to CSV and JSON with shortest round-trip float
formatting, so the two emissions carry bit-identical numbers and a JSON
round trip reproduces the rows exactly.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import grand_canonical as gc
from .canonical import ExtremumReport, find_extrema, thermo_point
from .errors import DomainError, RobinWallError, SolverError
from .grand_canonical import CondensateReport, EnsembleSpec, Statistics
from .reference_values import TABLE1, TABLE1_FIELDS, TOLERANCE
from .specfun import _check_index
from .spectrum import DEFAULT_N_EXACT, Spectrum, WallKind, WallSpec, build_spectrum

__all__ = [
    "OUTPUT_FIELDS",
    "ensemble_spec",
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
_SCAN_POINTS = 50  # log-spaced points of a peak search's scan


def ensemble_spec(name: str, n_particles: int) -> EnsembleSpec | None:
    """The ensemble an ensemble name stands for: None for "canonical",
    which is computed for one particle only, and an EnsembleSpec of N
    particles for "fd" and "be"."""
    if name == "canonical":
        if n_particles != 1:
            raise DomainError(
                f"the canonical ensemble is computed for 1 particle, got {n_particles!r}")
        return None
    try:
        statistics = Statistics(name)
    except ValueError:
        raise DomainError(f"unknown ensemble {name!r}") from None
    return EnsembleSpec(statistics, n_particles)


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
    n_exact: int = DEFAULT_N_EXACT

    def __post_init__(self) -> None:
        if not (0.0 < self.beta_inv_min < self.beta_inv_max < math.inf
                and math.isfinite(1.0 / float(self.beta_inv_min))):
            raise DomainError("sweep grid needs 0 < beta_inv_min < beta_inv_max < inf, "
                              "with a finite 1/beta_inv_min")
        object.__setattr__(self, "points", _check_index(self.points, 2, "sweep grid points"))
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


def _evaluator(spectrum: Spectrum, ensemble: EnsembleSpec | None):
    """beta -> (<E>, c per particle, mu, n0, errors) in the canonical
    ensemble (ensemble None; mu and n0 are None) or the grand-canonical one.
    An array of beta is one batch: arrays over its lanes, with ``errors``
    holding None or the message of each lane whose solve failed (values
    NaN); a scalar beta gives floats and raises instead.  Each mu solve
    starts from the states already solved: gamma = beta (E_0 - mu)
    interpolated (or extrapolated) linearly in ln beta through the two
    solved points nearest in ln beta, in ln gamma for bosons, whose gamma
    spans decades; the first batch starts from the two-term balance."""
    if ensemble is None:
        def evaluate_canonical(beta):
            tp = thermo_point(spectrum, beta)
            errors = None if np.ndim(beta) == 0 else (None,) * len(beta)
            return tp.mean_energy, tp.heat_capacity, None, None, errors

        return evaluate_canonical

    solved_lb: list[float] = []  # ln beta of every solved lane
    solved_u: list[float] = []   # its solver coordinate, gamma or ln gamma
    log_gamma = ensemble.sign == gc.BOSE

    def evaluate(beta):
        hint = None
        if solved_lb:
            lb = np.log(np.atleast_1d(beta))[:, None]
            near = np.argsort(np.abs(lb - solved_lb), axis=1, kind="stable")
            near = near[:, [0, min(1, len(solved_lb) - 1)]].T
            (l0, l1), (g0, g1) = np.take(solved_lb, near), np.take(solved_u, near)
            with np.errstate(divide="ignore", invalid="ignore"):
                hint = np.where(l0 != l1, g0 + (g1 - g0) * (lb[:, 0] - l0) / (l1 - l0), g0)
            hint = (np.exp(hint) if log_gamma else hint).reshape(np.shape(beta))
        p = gc.gc_point(spectrum, beta, ensemble, hint_gamma=hint)
        ok = [e is None for e in p.errors] if p.errors else [True]
        gamma = np.atleast_1d(p.beta * (spectrum.e0 - p.mu))[ok]
        solved_lb.extend(np.log(np.atleast_1d(p.beta)[ok]).tolist())
        solved_u.extend((np.log(gamma) if log_gamma else gamma).tolist())
        return p.mean_energy, p.heat_capacity_per_particle, p.mu, p.n0, p.errors

    return evaluate


def _temperature_grid(spec: SweepSpec) -> np.ndarray:
    if spec.log_grid:
        return np.exp(np.linspace(math.log(spec.beta_inv_min),
                                  math.log(spec.beta_inv_max), spec.points))
    return np.linspace(spec.beta_inv_min, spec.beta_inv_max, spec.points)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every row of the sweep as one batch, then locate the
    heat-capacity extrema from the rows' values, refined on the same
    evaluator.

    Solver failures are recorded per row instead of aborting the sweep (a
    failure of the whole batch in every row); a result with any failed row
    reports ``failed`` and the CLI exits nonzero.
    """
    spectrum = build_spectrum(spec.wall, count=spec.n_exact, n_exact=spec.n_exact)
    condensate = None
    ens = spec.ensemble
    if ens is not None and ens.statistics is Statistics.BOSE_EINSTEIN:
        condensate = gc.be_critical(spectrum, ens.n_particles)

    t_units = _temperature_grid(spec)
    scale = condensate.t_cr if spec.normalize_by_tcr else 1.0
    temperatures = t_units * scale

    betas = 1.0 / temperatures
    evaluate = _evaluator(spectrum, ens)
    try:
        energy, c, mu, n0, errors = evaluate(betas)
    except RobinWallError as exc:
        errors = (str(exc),) * len(betas)
    rows: list[SweepRow] = []
    for i, (t_unit, temp) in enumerate(zip(t_units, temperatures)):
        common = dict(beta_inv=float(temp), beta=float(betas[i]),
                      t_over_tcr=float(t_unit) if spec.normalize_by_tcr else None)
        if errors[i] is not None:
            rows.append(SweepRow(error=errors[i], **common))
            continue
        values = dict(mean_energy=energy, heat_capacity=c, mu=mu, n0=n0)
        rows.append(SweepRow(**common, **{
            f: float(v[i]) if v is not None and f in spec.outputs else None
            for f, v in values.items()}))

    extrema = ExtremumReport()
    if not any(errors) and len(rows) >= 3:
        extrema = find_extrema(betas, c, lambda b: evaluate(b)[1])
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
    d = dict(d)
    wall = WallSpec(WallKind(d.pop("wall")), d.pop("field"))
    ensemble = ensemble_spec(d.pop("ensemble"), d.pop("particles"))
    d["outputs"] = tuple(d["outputs"])
    return SweepSpec(wall=wall, ensemble=ensemble, **d)


def result_to_json(result: SweepResult) -> str:
    """JSON document {spec, rows, extrema, condensate}; a row holds only
    its fields that are not None."""
    doc = {
        "spec": _spec_to_dict(result.spec),
        "rows": [{k: v for k, v in asdict(r).items() if v is not None}
                 for r in result.rows],
        "extrema": asdict(result.extrema),
        "condensate": None if result.condensate is None else asdict(result.condensate),
    }
    return json.dumps(doc, indent=1)


def result_from_json(text: str) -> SweepResult:
    doc = json.loads(text)
    cond = doc["condensate"]
    return SweepResult(spec=_spec_from_dict(doc["spec"]),
                       rows=tuple(SweepRow(**r) for r in doc["rows"]),
                       extrema=ExtremumReport(**doc["extrema"]),
                       condensate=None if cond is None else CondensateReport(**cond))


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
    cols += [f for f in OUTPUT_FIELDS
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
                t_center: float, span: float = 2.2) -> ExtremumReport:
    """Scan a log window around t_center and refine the global maximum."""
    grid = np.exp(np.linspace(math.log(1.0 / (t_center * span)),
                              math.log(span / t_center), _SCAN_POINTS))
    evaluate = _evaluator(spectrum, ensemble)
    _, c, _, _, errors = evaluate(grid)
    failed = [e for e in errors if e is not None]
    if failed:
        raise SolverError(failed[0])
    return find_extrema(grid, c, lambda beta: evaluate(beta)[1])


def table1_harness(fields: tuple[float, ...] = TABLE1_FIELDS,
                   ensembles: tuple[str, ...] = ("canonical", "fd", "be"),
                   tol: float | None = None) -> Table1Report:
    """Reproduce the tabulated attractive-wall peaks and report per-cell
    relative errors.  Deterministic: two runs give byte-identical reports."""
    cells: list[Table1Cell] = []
    spectra: dict[float, Spectrum] = {}
    for ens_name in ensembles:
        n_list = sorted({n for e, n, _ in TABLE1 if e == ens_name})
        if not n_list:
            raise DomainError(f"unknown ensemble {ens_name!r}")
        for field in fields:
            if field not in spectra:
                spectra[field] = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field))
            for n in n_list:
                key = (ens_name, n, field)
                if key not in TABLE1:
                    raise DomainError(f"no reference value for {key}")
                t_ref, c_ref = TABLE1[key]
                rep = locate_peak(spectra[field], ensemble_spec(ens_name, n), t_ref)
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
