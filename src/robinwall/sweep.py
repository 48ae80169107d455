"""Temperature sweeps, their CSV and JSON forms, and the Table 1 harness.

A sweep or a peak search evaluates its grid as one batch and refines the
c extrema with ``canonical.find_extrema`` on the same evaluator, so each
mu solve starts from its cell's solved states.  A peak search's scan of
_SCAN_POINTS only brackets each peak: scans of 5 to 17 points find the
peaks of 65-point scans to 1e-10 (test_coarse_scans_find_the_peaks_of_fine_ones).
Floats are written in shortest round-trip form, so CSV and JSON carry the
same digits and a JSON round trip gives the rows back exactly.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import grand_canonical as gc
from .canonical import ExtremumReport, find_extrema
from .errors import DomainError, RobinWallError
from .grand_canonical import CondensateReport, EnsembleSpec, Statistics
from .reference_values import TABLE1, TABLE1_FIELDS, TOLERANCE
from .specfun import _check_index, _check_member, _check_real
from .spectrum import DEFAULT_N_EXACT, _MAX_N_EXACT, Spectrum, WallKind, WallSpec, build_spectrum

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
    """One sweep: wall, ensemble and a grid of ``points`` temperatures from
    ``beta_inv_min`` to ``beta_inv_max``, in units of T_cr with
    ``normalize_by_tcr`` (bosons only); DomainError for a bad request."""

    wall: WallSpec
    ensemble: EnsembleSpec
    beta_inv_min: float
    beta_inv_max: float
    points: int
    log_grid: bool = True
    normalize_by_tcr: bool = False
    n_exact: int = DEFAULT_N_EXACT

    def __post_init__(self) -> None:
        _check_member(self.wall, WallSpec, "wall")
        _check_member(self.ensemble, EnsembleSpec, "ensemble")
        for f in ("beta_inv_min", "beta_inv_max"):
            object.__setattr__(self, f, _check_real(getattr(self, f), f))
        if not (self.beta_inv_min < self.beta_inv_max and math.isfinite(1.0 / self.beta_inv_min)):
            raise DomainError("sweep grid needs beta_inv_min < beta_inv_max, with a finite "
                              f"1/beta_inv_min; got {self.beta_inv_min!r}, {self.beta_inv_max!r}")
        for name in ("log_grid", "normalize_by_tcr"):
            _check_member(getattr(self, name), bool, name)
        object.__setattr__(self, "points", _check_index(self.points, 2, "sweep grid points"))
        object.__setattr__(self, "n_exact", _check_index(self.n_exact, 2, "n_exact", _MAX_N_EXACT))
        if self.normalize_by_tcr and self.ensemble.statistics is not Statistics.BOSE_EINSTEIN:
            raise DomainError("normalize_by_tcr applies to Bose sweeps only")


class SweepRow(NamedTuple):
    beta_inv: float
    beta: float
    mean_energy: float | None = None
    heat_capacity: float | None = None
    mu: float | None = None
    n0: float | None = None
    t_over_tcr: float | None = None
    error: str | None = None


class SweepResult(NamedTuple):
    spec: SweepSpec
    rows: tuple[SweepRow, ...]
    extrema: ExtremumReport
    condensate: CondensateReport | None = None

    @property
    def failed(self) -> bool:
        return any(r.error is not None for r in self.rows)


def _temperature_grid(spec: SweepSpec) -> np.ndarray:
    if spec.log_grid:
        return np.exp(np.linspace(math.log(spec.beta_inv_min),
                                  math.log(spec.beta_inv_max), spec.points))
    return np.linspace(spec.beta_inv_min, spec.beta_inv_max, spec.points)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Every row of ``spec`` as one batch, its c extrema and, for bosons,
    ``be_critical``.  A failed lane's row carries its message (a failure of
    the whole batch: every row), no extrema are sought, and the result
    reports ``failed``.
    """
    spectrum = build_spectrum(spec.wall, n_exact=spec.n_exact)
    ens = spec.ensemble
    condensate = (gc.be_critical(spectrum, ens.n_particles)
                  if ens.statistics is Statistics.BOSE_EINSTEIN else None)

    t_units = _temperature_grid(spec)
    temperatures = t_units * (condensate.t_cr if spec.normalize_by_tcr else 1.0)

    betas = 1.0 / temperatures
    evaluate = gc._Evaluator(spectrum, [ens])
    try:
        p = evaluate(betas, np.zeros(len(betas), dtype=int))
        errors = p.errors
    except RobinWallError as exc:
        p, errors = None, (str(exc),) * len(betas)
    rows: list[SweepRow] = []
    for i, (t_unit, temp) in enumerate(zip(t_units, temperatures)):
        common = dict(beta_inv=float(temp), beta=float(betas[i]),
                      t_over_tcr=float(t_unit) if spec.normalize_by_tcr else None)
        rows.append(SweepRow(error=errors[i], **common, **{} if errors[i] is not None else {
            f: float(getattr(p, f)[i]) for f in _VALUES if getattr(p, f) is not None}))

    extrema = ExtremumReport()
    if not any(errors) and len(rows) >= 3:
        extrema = find_extrema(betas, p.heat_capacity, p.heat_capacity_slope, evaluate.c)
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
    """JSON document {spec, rows, extrema, condensate}, each row with its
    fields that are not None."""
    doc = {
        "spec": _spec_to_dict(result.spec),
        "rows": [{k: v for k, v in r._asdict().items() if v is not None}
                 for r in result.rows],
        "extrema": result.extrema._asdict(),
        "condensate": None if result.condensate is None else result.condensate._asdict(),
    }
    return json.dumps(doc, indent=1)


def _read(cls, values: dict, where: str, nullable: bool = False):
    # JSON's numbers are ints and floats (a bool is neither type), so a test of
    # the type is the whole check, cheap enough for every value of a document
    for key, v in dict(**values).items():  # TypeError for no mapping, as cls(**values)
        if not (type(v) is str if key == "error" else
                type(v) in (int, float) and math.isfinite(v) or nullable and v is None):
            raise DomainError(f"sweep document: {where} {key} must be "
                              f"{'text' if key == 'error' else 'a finite number'}, got {v!r}")
    return cls(**values)


def result_from_json(text: str) -> SweepResult:
    """The result of a ``result_to_json`` document; DomainError for text that is not
    JSON, a key missing or unknown, or a value no finite int or float (error: text)."""
    try:
        doc = json.loads(text)
        cond = doc["condensate"]
        return SweepResult(spec=_spec_from_dict(doc["spec"]),
                           rows=tuple(_read(SweepRow, r, "row") for r in doc["rows"]),
                           extrema=_read(ExtremumReport, doc["extrema"], "extrema", True),
                           condensate=None if cond is None else
                           _read(CondensateReport, cond, "condensate"))
    except KeyError as e:
        raise DomainError(f"sweep document has no key {e}") from None
    except TypeError as e:  # a type given an unknown key, or none for a field
        raise DomainError(f"sweep document: {e}") from None
    except json.JSONDecodeError as e:
        raise DomainError(f"sweep document is not JSON: {e}") from None


def _fmt(value) -> str:
    return "" if value is None else repr(float(value))


def result_to_csv(result: SweepResult) -> str:
    """CSV: a '#'-prefixed header echoing the spec, beta_cr and c_max, then
    beta_inv, beta, each value any row holds, t_over_tcr if normalized, and
    error if a row failed."""
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
        out.write(",".join(("" if r.error is None else r.error.replace(",", ";")) if c == "error"
                           else _fmt(getattr(r, c)) for c in cols) + "\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# tabulated-peak regression harness
# ---------------------------------------------------------------------------

class Table1Cell(NamedTuple):
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


class Table1Report(NamedTuple):
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
    """The c extrema of cells of one spectrum, cell i in ``ensembles[i]``
    (all of one statistics) scanned over T/_SCAN_SPAN .. T _SCAN_SPAN,
    T = ``t_centers[i]``: the scans one batch, each refinement pass one.
    SolverError names the first failed lane; DomainError unless ``t_centers``
    is 1-D, one finite center > 0 per ensemble, at least one."""
    t = _check_real(t_centers, "t_centers", ndim=1)
    if np.shape(t) != (len(_check_member(ensembles, Sequence, "ensembles")),):
        raise DomainError(f"t_centers needs a 1-D sequence of one center per ensemble, got "
                          f"shape {np.shape(t)} for {len(ensembles)} ensembles")
    with np.errstate(over="ignore"):  # a center near the ends of the float range
        ends = _check_real(np.array([1.0 / (t * _SCAN_SPAN), _SCAN_SPAN / t]),
                           "beta at the ends of the scan about t_centers", ndim=2)
    grids = np.exp([np.linspace(math.log(lo), math.log(hi), _SCAN_POINTS) for lo, hi in ends.T])
    evaluate = gc._Evaluator(spectrum, ensembles)
    cells = np.repeat(np.arange(len(grids)), _SCAN_POINTS)
    c, slope = (np.reshape(a, grids.shape) for a in evaluate.c(grids.ravel(), cells))
    return find_extrema(grids, c, slope, evaluate.c)


def table1_harness(fields: tuple[float, ...] = TABLE1_FIELDS,
                   ensembles: tuple[str, ...] = ("canonical", "fd", "be")) -> Table1Report:
    """The Table 1 peaks of ``fields`` and ``ensembles`` with their relative
    errors, a cell passing within ``TOLERANCE`` of its ensemble; two runs
    give the same bytes.  DomainError, before any cell, unless at least one
    field and one ensemble are chosen, none twice, each one tabulated."""
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
