"""Energy spectra and statistical thermodynamics of a charged quantum
particle bound to a Robin wall in a uniform electric field.

All quantities are dimensionless: lengths in the magnitude of the Robin
extrapolation length, energies in hbar^2/(2 m |Lambda|^2), fields in
hbar^2/(2 m e |Lambda|^3), heat capacities in units of k_B.
"""

from .errors import (
    DomainError,
    RobinWallError,
    SolverError,
)
from .specfun import (
    AiryZeroKind,
    airy,
    airy_zero,
    lambert_w,
)
from .spectrum import (
    LevelGap,
    Spectrum,
    WallKind,
    WallSpec,
    build_spectrum,
    level_gaps,
)
from .canonical import (
    ExtremumReport,
    ThermoPoint,
    find_extrema,
    universal_dn_curve,
)
from .limits import (
    asymptotic_beta_cr,
    fd_plateau,
    fd_single_peak,
    resonance_predictors,
    zero_field_attractive,
)
from .grand_canonical import (
    CondensateReport,
    EnsembleSpec,
    Statistics,
    be_critical,
    thermo_point,
)
from .sweep import (
    SweepResult,
    SweepRow,
    SweepSpec,
    result_from_json,
    result_to_csv,
    result_to_json,
    run_sweep,
    table1_harness,
)

__version__ = "1.0.0"
