"""Temperature sweeps, their serialization, and the tabulated-peak
regression harness.

A sweep evaluates one wall/ensemble configuration on a temperature grid
as one batch, locates the heat-capacity extrema from the values and
slopes of c the same batch gives, refined in passes of a few points each
on the cubic Hermite through a bracket where the slope changes sign
(``canonical.find_extrema``), and (for bosons) attaches the condensation
threshold.  A Table 1 peak search scans 7 points a cell: the scan only
brackets each peak, and the 55 maxima from 5- to 33-point scans match
those of 65-point scans to 2.5e-11 in T.  One evaluator per spectrum serves the scan and
every refinement pass, so each chemical-potential solve starts from the
states of its cell already solved (``grand_canonical._Evaluator``).
Results serialize to CSV and JSON with shortest round-trip float
formatting, so the two emissions carry bit-identical numbers and a JSON
round trip reproduces the rows exactly.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import grand_canonical as gc
from .canonical import ExtremumReport, find_extrema
from .errors import DomainError, RobinWallError, SolverError
from .grand_canonical import CondensateReport, EnsembleSpec, Statistics
from .reference_values import TABLE1, TABLE1_FIELDS, TOLERANCE
from .specfun import _check_index, _is_real
from .spectrum import (DEFAULT_N_EXACT, Spectrum, WallKind, WallSpec, _check_n_exact,
                       build_spectrum)

__all__ = [
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

_VALUES = ("mean_energy", "heat_capacity", "mu", "n0")  # of a row, in CSV column order
_SCAN_POINTS = 7  # log-spaced points of a peak search's scan
_SCAN_SPAN = 2.2  # its window, from T/span to T*span about the cell's center


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: wall, ensemble, and a temperature grid,
    optionally expressed in units of T_cr for bosons."""

    wall: WallSpec
    ensemble: EnsembleSpec
    beta_inv_min: float
    beta_inv_max: float
    points: int
    log_grid: bool = True
    normalize_by_tcr: bool = False
    n_exact: int = DEFAULT_N_EXACT

    def __post_init__(self) -> None:
        lo, hi = self.beta_inv_min, self.beta_inv_max
        if not (_is_real(lo) and _is_real(hi) and 0.0 < lo < hi < math.inf
                and math.isfinite(1.0 / float(lo))):
            raise DomainError("sweep grid needs real numbers 0 < beta_inv_min < beta_inv_max "
                              f"< inf, with a finite 1/beta_inv_min; got {lo!r}, {hi!r}")
        for name in ("log_grid", "normalize_by_tcr"):
            if not isinstance(getattr(self, name), bool):
                raise DomainError(f"{name} must be a bool, got {getattr(self, name)!r}")
        object.__setattr__(self, "points", _check_index(self.points, 2, "sweep grid points"))
        object.__setattr__(self, "n_exact", _check_n_exact(self.n_exact))
        if not isinstance(self.ensemble, EnsembleSpec):
            raise DomainError(f"ensemble must be an EnsembleSpec, got {self.ensemble!r}")
        if self.normalize_by_tcr and self.ensemble.statistics is not Statistics.BOSE_EINSTEIN:
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


def _c_or_raise(evaluate):
    """(c, dc/d ln beta)(beta, cells) of an evaluator; SolverError names the
    first failed lane."""
    def c_fn(beta, cells):
        p = evaluate(beta, cells)
        for e in filter(None, p.errors):
            raise SolverError(e)
        return p.heat_capacity, p.heat_capacity_slope
    return c_fn


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
    spectrum = build_spectrum(spec.wall, n_exact=spec.n_exact)
    condensate = None
    ens = spec.ensemble
    if ens.statistics is Statistics.BOSE_EINSTEIN:
        condensate = gc.be_critical(spectrum, ens.n_particles)

    t_units = _temperature_grid(spec)
    scale = condensate.t_cr if spec.normalize_by_tcr else 1.0
    temperatures = t_units * scale

    betas = 1.0 / temperatures
    evaluate = gc._evaluator(spectrum, [ens])
    try:
        p = evaluate(betas, np.zeros(len(betas), dtype=int))
        errors = p.errors
    except RobinWallError as exc:
        p, errors = None, (str(exc),) * len(betas)
    rows: list[SweepRow] = []
    for i, (t_unit, temp) in enumerate(zip(t_units, temperatures)):
        common = dict(beta_inv=float(temp), beta=float(betas[i]),
                      t_over_tcr=float(t_unit) if spec.normalize_by_tcr else None)
        if errors[i] is not None:
            rows.append(SweepRow(error=errors[i], **common))
            continue
        rows.append(SweepRow(**common, **{f: float(getattr(p, f)[i]) for f in _VALUES
                                          if getattr(p, f) is not None}))

    extrema = ExtremumReport()
    if not any(errors) and len(rows) >= 3:
        extrema = find_extrema(betas, p.heat_capacity, p.heat_capacity_slope,
                               _c_or_raise(evaluate))
    return SweepResult(spec=spec, rows=tuple(rows), extrema=extrema,
                       condensate=condensate)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _spec_to_dict(spec: SweepSpec) -> dict:
    return {
        "wall": spec.wall.kind.value,
        "field": spec.wall.field,
        "ensemble": spec.ensemble.statistics.value,
        "particles": spec.ensemble.n_particles,
        "beta_inv_min": spec.beta_inv_min,
        "beta_inv_max": spec.beta_inv_max,
        "points": spec.points,
        "log_grid": spec.log_grid,
        "normalize_by_tcr": spec.normalize_by_tcr,
        "n_exact": spec.n_exact,
    }


def _spec_from_dict(d: dict) -> SweepSpec:
    d = dict(d)
    wall = WallSpec(WallKind(d.pop("wall")), d.pop("field"))
    ensemble = EnsembleSpec(Statistics(d.pop("ensemble")), d.pop("particles"))
    return SweepSpec(wall=wall, ensemble=ensemble, **d)


def result_to_json(result: SweepResult) -> str:
    """JSON document {spec, rows, extrema, condensate}; a row holds only
    its fields that are not None, read in field order from the flat
    ``SweepRow`` with no deep copy."""
    doc = {
        "spec": _spec_to_dict(result.spec),
        "rows": [{k: v for k, v in vars(r).items() if v is not None}
                 for r in result.rows],
        "extrema": asdict(result.extrema),
        "condensate": None if result.condensate is None else asdict(result.condensate),
    }
    return json.dumps(doc, indent=1)


def result_from_json(text: str) -> SweepResult:
    """The result of a ``result_to_json`` document; DomainError naming a
    key that is missing or that no field takes, or for text that is not JSON."""
    try:
        doc = json.loads(text)
        cond = doc["condensate"]
        return SweepResult(spec=_spec_from_dict(doc["spec"]),
                           rows=tuple(SweepRow(**r) for r in doc["rows"]),
                           extrema=ExtremumReport(**doc["extrema"]),
                           condensate=None if cond is None else CondensateReport(**cond))
    except KeyError as e:
        raise DomainError(f"sweep document has no key {e}") from None
    except TypeError as e:  # a dataclass given an unknown key, or none for a field
        raise DomainError(f"sweep document: {e}") from None
    except json.JSONDecodeError as e:
        raise DomainError(f"sweep document is not JSON: {e}") from None


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
    cols += [f for f in _VALUES
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


def locate_peak(spectrum: Spectrum, ensembles: Sequence[EnsembleSpec],
                t_centers: Sequence[float]) -> tuple[ExtremumReport, ...]:
    """Heat-capacity extrema of the cells of one spectrum, cell i in the
    ensemble ``ensembles[i]`` (all of one statistics): each cell's log
    window from T/``_SCAN_SPAN`` to T ``_SCAN_SPAN``, T = ``t_centers[i]``, is
    scanned, all cells as one batch, and the extrema of all scans are
    refined in lockstep, one batch per refinement pass.  SolverError names
    the first lane whose solve failed; DomainError unless there is one
    center per ensemble, at least one, each finite and > 0."""
    if not 1 <= len(ensembles) == len(t_centers):
        raise DomainError(f"t_centers needs one center per ensemble, at least one, got "
                          f"{len(t_centers)} for {len(ensembles)} ensembles")
    if not all(math.isfinite(t) and t > 0.0 for t in t_centers):
        raise DomainError(f"t_centers must be finite and > 0, got {list(t_centers)!r}")
    grids = np.exp([np.linspace(math.log(1.0 / (t * _SCAN_SPAN)), math.log(_SCAN_SPAN / t),
                                _SCAN_POINTS) for t in t_centers])
    c_fn = _c_or_raise(gc._evaluator(spectrum, ensembles))
    cells = np.repeat(np.arange(len(grids)), _SCAN_POINTS)
    c, slope = (np.reshape(a, grids.shape) for a in c_fn(grids.ravel(), cells))
    return find_extrema(grids, c, slope, c_fn)


def table1_harness(fields: tuple[float, ...] = TABLE1_FIELDS,
                   ensembles: tuple[str, ...] = ("canonical", "fd", "be")) -> Table1Report:
    """Reproduce the tabulated attractive-wall peaks and report per-cell
    relative errors; a cell passes within the published ``TOLERANCE`` of its
    ensemble.  Deterministic: two runs give byte-identical reports.
    DomainError, before any cell is computed, unless at least one field and
    one ensemble are selected, none of them twice, every ensemble is a
    ``Statistics`` name and every field a tabulated one."""
    if not (fields and ensembles):
        raise DomainError(f"table1 needs a field and an ensemble, got {fields!r}, {ensembles!r}")
    statistics = [Statistics(name) for name in ensembles]
    for field in fields:
        if field not in TABLE1_FIELDS:  # the table holds every cell of its fields
            raise DomainError(f"no reference value for field {field!r}")
    for name, chosen in (("field", tuple(fields)), ("ensemble", tuple(ensembles))):
        for i, x in enumerate(chosen):
            if x in chosen[:i]:  # it would repeat its cells
                raise DomainError(f"table1 selects the {name} {x!r} more than once")
    spectra = {f: build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, f)) for f in fields}
    cells: list[Table1Cell] = []
    for stat in statistics:
        ens_name = stat.value
        n_list = sorted({n for e, n, _ in TABLE1 if e == ens_name})
        for field in fields:
            keys = [(ens_name, n, field) for n in n_list]
            reports = locate_peak(spectra[field], [EnsembleSpec(stat, n) for n in n_list],
                                  [TABLE1[key][0] for key in keys])
            for key, rep in zip(keys, reports):
                if rep.c_max is None:
                    raise DomainError(f"no peak found in the scan window for {key}")
                t_ref, c_ref = TABLE1[key]
                cells.append(Table1Cell(
                    ensemble=ens_name, n_particles=key[1], field=field,
                    t_ref=t_ref, c_ref=c_ref,
                    t_found=rep.beta_inv_at_max, c_found=rep.c_max,
                    rel_t=abs(rep.beta_inv_at_max - t_ref) / t_ref,
                    rel_c=abs(rep.c_max - c_ref) / c_ref,
                    tolerance=TOLERANCE[ens_name]))
    return Table1Report(cells=tuple(cells))
