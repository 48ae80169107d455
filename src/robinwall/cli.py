"""The ``robinwall`` command: ``spectrum``, ``sweep``, ``table1``,
``predict`` and ``selftest``.  Exit codes: EXIT_OK, EXIT_SPEC for a bad
request or an ``--out`` path that cannot be written, EXIT_SOLVER,
EXIT_REGRESSION.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, grand_canonical as gc, limits
from .errors import DomainError, RobinWallError, SolverError
from .selftest import run_all
from .spectrum import DEFAULT_N_EXACT, WallKind, WallSpec, build_spectrum, level_gaps
from .sweep import SweepSpec, result_to_csv, result_to_json, run_sweep, table1_harness

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_SOLVER = 3
EXIT_REGRESSION = 4

def _add_wall_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--wall", choices=sorted(k.value for k in WallKind), required=True)
    p.add_argument("--field", type=float, required=True,
                   help="dimensionless field strength (> 0)")
    p.add_argument("--levels", type=int, default=DEFAULT_N_EXACT,
                   help="root-solved level count override")


def _add_io_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call, built once: parsing keeps no state."""
    ap = argparse.ArgumentParser(
        prog="robinwall",
        description="Spectra and thermodynamics of a charged particle at a "
                    "Robin wall in a uniform field (dimensionless units).")
    ap.add_argument("--version", action="version", version=f"robinwall {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="emit energy levels and gaps")
    _add_wall_args(p)
    p.add_argument("--count", type=int, default=20, help="levels to emit")
    _add_io_args(p)

    p = sub.add_parser("sweep", help="temperature sweep of one configuration")
    _add_wall_args(p)
    p.add_argument("--ensemble", choices=[s.value for s in gc.Statistics],
                   default=gc.Statistics.CANONICAL.value)
    p.add_argument("--particles", type=int, default=1)
    p.add_argument("--beta-inv-min", type=float, required=True)
    p.add_argument("--beta-inv-max", type=float, required=True)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--log-grid", action="store_true", default=False,
                   help="logarithmic temperature spacing")
    p.add_argument("--normalize-tcr", action="store_true", default=False,
                   help="interpret the grid as T/T_cr (Bose sweeps only)")
    _add_io_args(p)

    p = sub.add_parser("table1", help="reproduce the tabulated peaks")
    p.add_argument("--fields", default=None,
                   help="comma-separated subset of the tabulated fields")
    p.add_argument("--ensembles", default=",".join(s.value for s in gc.Statistics))
    p.add_argument("--out", default=None)

    p = sub.add_parser("predict", help="weak-field Lambert-W predictors")
    p.add_argument("--field", type=float, required=True)
    p.add_argument("--particles", type=int, default=1)

    sub.add_parser("selftest", help="run the invariant suite")
    return ap


def _cmd_spectrum(args: argparse.Namespace) -> int:
    wall = WallSpec(WallKind(args.wall), args.field)
    sp = build_spectrum(wall, count=args.count, n_exact=args.levels)
    if args.format == "json":
        gaps = level_gaps(sp, min(args.count - 1, 20)) if args.count > 1 else []
        doc = {
            "wall": wall.kind.value,
            "field": wall.field,
            "n_exact": sp.n_exact,
            "tail_rule": sp.tail_rule,
            "levels": [float(v) for v in sp.levels],
            "gaps": [{"n": g.n, "delta": g.delta, "ratio": g.ratio} for g in gaps],
        }
        _emit(json.dumps(doc, indent=1), args.out)
    else:
        lines = [f"# wall = {wall.kind.value}", f"# field = {wall.field!r}",
                 f"# n_exact = {sp.n_exact}", f"# tail_rule = {sp.tail_rule}",
                 "n,energy,source"]
        for n, e in enumerate(sp.levels):
            source = "root" if n < sp.n_exact else "tail"
            lines.append(f"{n},{float(e)!r},{source}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    wall = WallSpec(WallKind(args.wall), args.field)
    ensemble = gc.EnsembleSpec(gc.Statistics(args.ensemble), args.particles)
    spec = SweepSpec(wall=wall, ensemble=ensemble,
                     beta_inv_min=args.beta_inv_min, beta_inv_max=args.beta_inv_max,
                     points=args.points, log_grid=args.log_grid,
                     normalize_by_tcr=args.normalize_tcr, n_exact=args.levels)
    result = run_sweep(spec)
    text = result_to_json(result) if args.format == "json" else result_to_csv(result)
    _emit(text, args.out)
    if result.failed:
        sys.stderr.write("sweep finished with failed rows\n")
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> int:
    chosen = {}  # the tabulated fields, unless --fields names some
    if args.fields is not None:
        try:
            chosen["fields"] = tuple(float(s) for s in args.fields.split(","))
        except ValueError:
            raise DomainError(f"--fields must be comma-separated numbers, "
                              f"got {args.fields!r}") from None
    ensembles = tuple(s for s in args.ensembles.split(",") if s)
    report = table1_harness(ensembles=ensembles, **chosen)
    _emit(report.as_text(), args.out)
    return EXIT_OK if report.passed else EXIT_REGRESSION


def _cmd_predict(args: argparse.Namespace) -> int:
    field = args.field
    beta_zero, beta_max, c_max = limits.resonance_predictors(field)
    fd_beta, fd_c = limits.fd_single_peak(field)
    be_beta_cr = limits.asymptotic_beta_cr(field, args.particles)
    lines = [
        f"field = {field!r}, particles = {args.particles}",
        f"canonical: <E>=0 at beta = {beta_zero!r}",
        f"canonical: c peak at beta = {beta_max!r} (T = {1/beta_max!r}), "
        f"height ~ beta^2/4 = {c_max!r}",
        f"fermion N=1: c peak at beta = {fd_beta!r} (T = {1/fd_beta!r}), "
        f"height ~ {fd_c!r}",
        f"boson condensation: beta_cr ~ {be_beta_cr!r} (T_cr ~ {1/be_beta_cr!r})",
        f"fermion plateau: {limits.fd_plateau(args.particles)!r}",
    ]
    _emit("\n".join(lines), None)
    return EXIT_OK


def _cmd_selftest(_: argparse.Namespace) -> int:
    results = run_all()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    if all(r.passed for r in results):
        print(f"selftest: {len(results)}/{len(results)} checks passed")
        return EXIT_OK
    print("selftest: FAILED")
    return EXIT_REGRESSION


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "spectrum": _cmd_spectrum,
        "sweep": _cmd_sweep,
        "table1": _cmd_table1,
        "predict": _cmd_predict,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (DomainError, OSError) as exc:  # OSError: an --out path that cannot be written
        sys.stderr.write(f"specification error: {exc}\n")
        return EXIT_SPEC
    except SolverError as exc:
        sys.stderr.write(f"solver error: {exc}\n")
        return EXIT_SOLVER
    except RobinWallError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    raise SystemExit(main())
