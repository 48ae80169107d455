"""Workload inputs and the fixed work of one round.

Every workload is a list of ``Op`` objects.  A round runs each op once, in
order; the timing loop in ``run.py`` repeats rounds.  Inputs come from
``--seed`` alone, and the seed only moves values inside fixed slots (a
field within its decade, a particle number within its range, the order of
a fixed set of root counts), so the amount of work per round is nearly the
same for every seed.  That keeps ``run_s`` comparable across seeds.

robinwall is imported here only once ``run.py`` has timed the set-up.
Ops call robinwall through its module attributes (``sweep.table1_harness``,
not a name bound by ``from ... import``), so the traced run sees them.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

SWEEP_POINTS = 40
SPECTRUM_TAIL_LEVELS = 16   # levels materialized past the requested root block
DN_ROOT_COUNTS = (64, 128, 256, 512)
ROBIN_ATTRACTIVE_ROOTS = (8, 16, 24, 32, 48, 64, 64, 96, 128, 128, 192, 256, 256,
                          384, 512, 512)   # one per half decade, F = 1e-7..10
ROBIN_REPULSIVE_ROOTS = (8, 16, 32, 48, 64, 96, 128, 192, 256, 384, 512)
                                           # F = 1e-7..10^-1.5


@dataclass
class Op:
    """One operation of a round: ``run()`` returns the output to check."""

    name: str
    run: Callable[[], Any]
    spec: dict = field(default_factory=dict)
    count: int = 1          # operations this op stands for (table1: cells)


# ---------------------------------------------------------------------------
# table1: the 55 published cells through table1_harness
# ---------------------------------------------------------------------------

def table1_ops(smoke: bool = False) -> list[Op]:
    """One op per (ensemble, field) block of the published table, each a
    ``table1_harness`` call restricted to that block, in the harness's own
    order (ensembles outer, fields inner).  Ops of about a second let the
    speed probes between them follow the machine (see speed.py); the price
    is one spectrum build per op, 15 a round instead of the harness's 5."""
    from robinwall import sweep

    import published

    if smoke:
        kwargs = {"fields": (1e-3,), "ensembles": ("canonical",)}
        return [Op("table1-smoke", lambda: sweep.table1_harness(**kwargs), count=1)]
    blocks: dict[tuple[str, float], int] = {}
    for ens, _, f in published.TABLE1:
        blocks[ens, f] = blocks.get((ens, f), 0) + 1
    ops = []
    for ens in ("canonical", "fd", "be"):
        for f in sorted({f for e, f in blocks if e == ens}, reverse=True):
            kwargs = {"fields": (f,), "ensembles": (ens,)}
            ops.append(Op(f"table1-{ens}-{f:g}",
                          lambda kwargs=kwargs: sweep.table1_harness(**kwargs),
                          count=blocks[ens, f]))
    return ops


# ---------------------------------------------------------------------------
# sweeps: figure-style temperature sweeps through the CLI, CSV and JSON
# ---------------------------------------------------------------------------

def _decade(rng: random.Random, center: float, half_width: float = 0.3) -> float:
    return 10.0 ** (center + rng.uniform(-half_width, half_width))


def sweep_specs(seed: int, smoke: bool = False) -> list[dict]:
    """The sweep requests of one round.

    Dirichlet and Neumann sweeps come in pairs, a weak and a strong field
    on one grid in y = beta F^(2/3), so the two curves must collapse.
    The Neumann y-range holds the universal peak at y = 0.175.
    """
    rng = random.Random(seed)
    specs: list[dict] = []

    def canonical(kind, f, t_min, t_max, group=None):
        specs.append(dict(kind=kind, field=f, ensemble="canonical", particles=1,
                          t_min=t_min, t_max=t_max, tcr=False, group=group))

    for kind, y_min, y_max, centers in (("neumann", 0.02, 2.0, (-5.0, 0.0)),
                                        ("dirichlet", 0.05, 4.0, (-4.0, 0.5))):
        jitter = 10.0 ** rng.uniform(-0.05, 0.05)
        for c in centers:
            f = _decade(rng, c)
            f23 = f ** (2.0 / 3.0)
            canonical(kind, f, f23 / (y_max * jitter), f23 / (y_min * jitter),
                      group=kind)
        if smoke:
            break
    if smoke:
        return specs

    j = lambda: 10.0 ** rng.uniform(-0.02, 0.02)  # noqa: E731
    canonical("robin-", _decade(rng, 0.0), 0.05 * j(), 20.0 * j())
    canonical("robin+", _decade(rng, 0.7), 0.1 * j(), 50.0 * j())

    # the grand-canonical sweeps carry most of the round's cost, so their
    # seeded ranges are narrow: the work per round varies little by seed
    for n_lo, n_hi, center, t_min, t_max in ((1, 2, -4.0, 0.02, 2.0),
                                             (10, 12, -5.0, 0.01, 2.0),
                                             (90, 100, -3.0, 0.005, 5.0)):
        specs.append(dict(kind="robin-", field=_decade(rng, center, 0.05), ensemble="fd",
                          particles=rng.randint(n_lo, n_hi),
                          t_min=t_min * j(), t_max=t_max * j(), tcr=False, group=None))
    for n_exp_lo, n_exp_hi, center in ((2.95, 3.05, -5.0), (4.95, 5.0, -3.0)):
        specs.append(dict(kind="robin-", field=_decade(rng, center, 0.05), ensemble="be",
                          particles=int(round(10.0 ** rng.uniform(n_exp_lo, n_exp_hi))),
                          t_min=0.25 * j(), t_max=4.0 * j(), tcr=True, group=None))
    return specs


def _sweep_argv(spec: dict, fmt: str, path: str) -> list[str]:
    argv = ["sweep", "--wall", spec["kind"], "--field", repr(spec["field"]),
            "--ensemble", spec["ensemble"], "--particles", str(spec["particles"]),
            "--beta-inv-min", repr(spec["t_min"]), "--beta-inv-max", repr(spec["t_max"]),
            "--points", str(spec["points"]), "--log-grid",
            "--format", fmt, "--out", path]
    if spec["tcr"]:
        argv.append("--normalize-tcr")
    return argv


def sweep_ops(seed: int, out_dir: str, smoke: bool = False) -> list[Op]:
    """Each op runs one sweep twice through ``robinwall.cli.main``, once to a
    CSV file and once to a JSON file, then loads the JSON back with
    ``result_from_json`` as a consumer of the files would."""
    from robinwall import cli, sweep

    os.makedirs(out_dir, exist_ok=True)
    ops = []
    for k, spec in enumerate(sweep_specs(seed, smoke)):
        spec["points"] = 12 if smoke else SWEEP_POINTS
        spec["csv"] = os.path.join(out_dir, f"sweep{k:02d}.csv")
        spec["json"] = os.path.join(out_dir, f"sweep{k:02d}.json")

        def run(spec=spec):
            rc_csv = cli.main(_sweep_argv(spec, "csv", spec["csv"]))
            rc_json = cli.main(_sweep_argv(spec, "json", spec["json"]))
            with open(spec["csv"], encoding="utf-8") as fh:
                csv_text = fh.read()
            with open(spec["json"], encoding="utf-8") as fh:
                json_text = fh.read()
            result = sweep.result_from_json(json_text) if rc_json == 0 else None
            return {"rc": (rc_csv, rc_json), "csv": csv_text, "json": json_text,
                    "result": result}

        ops.append(Op(f"sweep{k:02d}-{spec['ensemble']}-{spec['kind']}", run, spec))
    return ops


# ---------------------------------------------------------------------------
# spectra: build_spectrum + level_gaps across the accepted domain
# ---------------------------------------------------------------------------

def spectrum_specs(seed: int, smoke: bool = False) -> list[dict]:
    """One field per half decade for each Robin wall, each with a root
    count from a fixed multiset in seeded order, plus Dirichlet and Neumann
    walls at two fields each.

    The attractive wall spans F = 1e-7..10.  The repulsive wall's seeded
    slots stop at F = 10^-1.5: above that, for the larger root counts, the
    first tail level falls below the last root, so those inputs would fail
    on some seeds only.  One fixed repulsive spectrum at F = 10 keeps that
    fault in every round; it is marked ``known_fault`` and counted as failed
    while the fault stands.
    """
    rng = random.Random(seed)
    if smoke:
        return [dict(kind="robin-", field=_decade(rng, -5.0), n_exact=16),
                dict(kind="robin+", field=_decade(rng, -3.0), n_exact=8),
                dict(kind="neumann", field=_decade(rng, -2.0), n_exact=64)]
    specs = []
    for kind, counts in (("robin-", ROBIN_ATTRACTIVE_ROOTS),
                         ("robin+", ROBIN_REPULSIVE_ROOTS)):
        counts = list(counts)
        rng.shuffle(counts)
        for k, n in enumerate(counts):
            low = -7.0 + 0.5 * k
            specs.append(dict(kind=kind, field=10.0 ** rng.uniform(low, low + 0.5),
                              n_exact=n))
    specs.append(dict(kind="robin+", field=10.0, n_exact=64, known_fault=True))
    for kind in ("dirichlet", "neumann"):
        for _ in range(2):
            specs.append(dict(kind=kind, field=10.0 ** rng.uniform(-7.0, 1.0),
                              n_exact=rng.choice(DN_ROOT_COUNTS)))
    return specs


def spectra_ops(seed: int, smoke: bool = False) -> list[Op]:
    from robinwall import spectrum

    ops = []
    for k, spec in enumerate(spectrum_specs(seed, smoke)):
        spec["count"] = spec["n_exact"] + SPECTRUM_TAIL_LEVELS
        wall = spectrum.WallSpec(spectrum.WallKind(spec["kind"]), spec["field"])

        def run(spec=spec, wall=wall):
            sp = spectrum.build_spectrum(wall, count=spec["count"], n_exact=spec["n_exact"])
            return {"spectrum": sp, "gaps": spectrum.level_gaps(sp, spec["count"] - 1)}

        ops.append(Op(f"spectrum{k:02d}-{spec['kind']}-{spec['n_exact']}", run, spec))
    return ops
