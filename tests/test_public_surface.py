import ast
import json
import os
import subprocess
import sys
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


# the modules that ``import robinwall`` loads, all but the cli and the
# selftest; each builds its tables as it loads, so one missing here would
# have deferred its work to a later call
IMPORTED = {
    "robinwall", "robinwall._work", "robinwall.canonical", "robinwall.errors",
    "robinwall.grand_canonical", "robinwall.ladder", "robinwall.limits",
    "robinwall.reference_values", "robinwall.specfun", "robinwall.spectrum",
    "robinwall.sweep",
}
# the argument-checking types: a NamedTuple's _replace would skip the check
CHECKED = {"robinwall.spectrum.WallSpec", "robinwall.spectrum.Spectrum",
           "robinwall.grand_canonical.EnsembleSpec", "robinwall.sweep.SweepSpec"}

COLD_START = """
import dataclasses, inspect, json, sys
import robinwall
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "robinwall")
polynomial = "numpy.polynomial" in sys.modules
import robinwall.cli, robinwall.selftest
classes = {f"{c.__module__}.{c.__qualname__}": "dataclass" if dataclasses.is_dataclass(c)
           else "NamedTuple" if issubclass(c, tuple) and hasattr(c, "_fields") else "other"
           for m in list(sys.modules) if m.partition(".")[0] == "robinwall"
           for c in vars(sys.modules[m]).values()
           if inspect.isclass(c) and c.__module__ == m}
print(json.dumps([loaded, polynomial, classes]))
"""


def test_cold_start_builds_its_tables_in_light_forms():
    # a fresh interpreter's ``import robinwall``, with no timing: the same
    # modules as before, so no work was deferred to a later call, no
    # numpy.polynomial (the closure's Gauss rules are built in ``ladder``),
    # and the value types NamedTuples, whose classes cost a tenth of a frozen
    # dataclass's generated methods; only the four checked specs stay
    # dataclasses
    src = str(Path(robinwall.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    loaded, polynomial, classes = json.loads(done.stdout)
    assert set(loaded) == IMPORTED
    assert not polynomial
    kinds = {kind: {name for name, k in classes.items() if k == kind}
             for kind in set(classes.values())}
    assert kinds["dataclass"] == CHECKED
    assert kinds["NamedTuple"] == {f"robinwall.{name}" for name in (
        "canonical.ThermoPoint", "canonical.ExtremumReport", "grand_canonical.CondensateReport",
        "spectrum.TailLaw", "spectrum.LevelGap", "sweep.SweepRow", "sweep.SweepResult",
        "sweep.Table1Cell", "sweep.Table1Report", "selftest.CheckResult")}
