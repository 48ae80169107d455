"""Time robinwall's set-up in a fresh interpreter.

Set-up is the import of the package (numpy included) plus the filling of
its lazy tables: the first ``airy`` call builds the Taylor table, and one
``airy_zero`` call of each kind refines and caches the first 64 zeros.

    python3 perfbench/setup_probe.py <src-dir>

prints the set-up time in wall seconds and in reference seconds (see
speed.py).  ``run.py`` imports ``timed_setup`` for its own process and
starts this script a few more times for the median.
"""

import sys

from speed import Meter


def _setup():
    import robinwall
    robinwall.airy(0.5)
    robinwall.airy_zero(1, robinwall.AiryZeroKind.FunctionZero)
    robinwall.airy_zero(1, robinwall.AiryZeroKind.DerivativeZero)


def timed_setup(src: str, meter: Meter) -> tuple[float, float]:
    """(wall seconds, reference seconds) of the set-up."""
    if src not in sys.path:
        sys.path.insert(0, src)
    wall, ref, _ = meter.time(_setup)
    return wall, ref


if __name__ == "__main__":
    print(*map(repr, timed_setup(sys.argv[1], Meter())))
