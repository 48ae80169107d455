import ast
from pathlib import Path
from types import ModuleType

import robinwall

# every name the package exports; a new wrapper, knob or type shows up here
# as a diff of this set
PUBLIC = {
    "AiryZeroKind", "CondensateReport", "DomainError", "EnsembleSpec",
    "ExtremumReport", "LevelGap", "RobinWallError", "SolverError", "Spectrum",
    "Statistics", "SweepResult", "SweepRow", "SweepSpec", "ThermoPoint",
    "WallKind", "WallSpec", "airy", "airy_zero", "asymptotic_beta_cr",
    "asymptotic_mu_cn", "be_critical", "build_spectrum", "fd_plateau",
    "fd_single_peak", "find_extrema", "lambert_w", "level_gaps",
    "resonance_predictors", "result_from_json", "result_to_csv", "result_to_json",
    "run_sweep", "table1_harness", "thermo_point", "universal_dn_curve",
    "weak_field_composite", "zero_field_attractive",
}


def test_exported_names():
    # submodules bound as attributes by imports elsewhere are not exports
    exported = {name for name, value in vars(robinwall).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == PUBLIC


def test_only_specfun_checks_types():
    # every type and flag passes specfun._check_member: no other module of
    # the package calls isinstance
    calls = {path.name for path in Path(robinwall.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"}
    assert calls <= {"specfun.py"}
