"""Benchmark of robinwall: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload {table1,sweeps,spectra} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree that holds ``src/robinwall``.  The run
times robinwall's set-up, repeats rounds of the workload's fixed work for
about ``--seconds`` seconds with tracing off, timing both in reference
seconds (wall time with the machine's speed taken out, see speed.py),
then checks the outputs of
the first round against oracles made apart from robinwall (see checks.py).
With ``--trace 1`` it adds one traced round and reports per-layer metrics
instead of end-to-end ones.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

import os

# one thread for every numerical library; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 6          # extra fresh-process set-up samples
# nominal time of one round on a 2 GHz Xeon; --seconds // this is the
# number of rounds (at least MIN_ROUNDS), so every run takes the same number
# of samples whatever the machine's speed at the time
NOMINAL_ROUND_S = {"table1": 15.0, "sweeps": 5.0, "spectra": 3.0}
MIN_ROUNDS = 2
SMOKE_ROUND_S = 0.05
WORKLOADS = ("table1", "sweeps", "spectra")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25

sys.path.insert(0, HERE)
import speed  # noqa: E402
from setup_probe import timed_setup  # noqa: E402


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}); table1 has fixed inputs")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measuring time: as many whole rounds as fit in it at "
                         "the workload's nominal round time, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def make_ops(args):
    import workloads
    if args.workload == "table1":
        return workloads.table1_ops(args.smoke)
    if args.workload == "sweeps":
        return workloads.sweep_ops(args.seed, os.path.join(OUT, "sweeps"), args.smoke)
    return workloads.spectra_ops(args.seed, args.smoke)


def fingerprint(workload: str, out):
    """What must repeat exactly between rounds of the same inputs."""
    if workload == "table1":
        return tuple((c.t_found, c.c_found) for c in out.cells)
    if workload == "sweeps":
        return out["rc"], out["csv"], out["json"]
    return out["spectrum"].levels.tobytes(), tuple(out["gaps"])


def run_op(op):
    """The output of one op, or None if it raised."""
    try:
        return op.run()
    except Exception:  # an op that raises is counted as failed
        traceback.print_exc()
        return None


def measure(meter, ops, n_rounds: int):
    """Run ``n_rounds`` rounds, every op timed by ``meter``.  Returns
    per-op lists of wall and reference times (see speed.py) and the
    outputs of every round."""
    wall = [[] for _ in ops]
    ref = [[] for _ in ops]
    rounds = []
    for _ in range(n_rounds):
        gc.collect()
        outs = []
        for k, op in enumerate(ops):
            w, r, out = meter.time(lambda op=op: run_op(op))
            wall[k].append(w)
            ref[k].append(r)
            outs.append(out)
        rounds.append(outs)
    return wall, ref, rounds


def setup_samples(first: tuple[float, float]) -> list[tuple[float, float]]:
    """(wall, reference) seconds of this process's set-up and of
    SETUP_PROBES more, each in a fresh interpreter."""
    samples = [first]
    script = os.path.join(HERE, "setup_probe.py")
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, script, SRC], capture_output=True,
                              text=True, timeout=120, check=True)
        wall, ref = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(ref)))
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "robinwall", "__init__.py")):
        sys.stderr.write(f"run.py: no robinwall sources under {SRC}\n")
        return 2

    setup_first = timed_setup(SRC, speed.Meter())
    ops = make_ops(args)
    meter = speed.Meter(speed.probe_mixed, speed.REF_MIXED_S)
    nominal = SMOKE_ROUND_S if args.smoke else NOMINAL_ROUND_S[args.workload]
    wall, ref, rounds = measure(meter, ops, max(MIN_ROUNDS, int(args.seconds // nominal)))
    run_s = sum(statistics.median(lst) for lst in ref)
    wall_s = sum(statistics.median(lst) for lst in wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            outs = [run_op(op) for op in ops]
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        rounds.append(outs)
        traced = (tracer, traced_s)

    import checks   # scipy and mpmath come in here, after the memory reading
    chk = checks.Checker()
    first = rounds[0]
    good = [(op, out) for op, out in zip(ops, first) if out is not None]
    if good:
        good_ops, good_outs = zip(*good)
        if args.workload == "table1":
            checks.check_table1(chk, good_ops, good_outs)
        elif args.workload == "sweeps":
            checks.check_sweeps(chk, good_ops, good_outs, args.seed)
        else:
            checks.check_spectra(chk, good_ops, good_outs, args.seed)

    # an op fails when it raises, or when its output shows a known fault of
    # the program; every round must repeat the outputs of the first
    known = {op.name for op in ops if op.spec.get("known_fault")}
    faulty = {name for name, _ in chk.failures if name in known}
    attempted = sum(op.count for op in ops) * len(rounds)
    failed = 0
    for outs in rounds:
        for op, out, ref in zip(ops, outs, first):
            if out is None or op.name in faulty:
                failed += op.count
            elif ref is not None and (fingerprint(args.workload, out)
                                      != fingerprint(args.workload, ref)):
                chk.failures.append((op.name, "output differs between rounds"))
    for name, msg in chk.failures:
        kind = "known fault" if name in faulty else "check failed"
        sys.stderr.write(f"{kind}: {msg}\n")
    correct = not any(name not in faulty for name, _ in chk.failures)

    if traced is None:
        setup = setup_samples(setup_first)
        metrics = {
            "setup_s": {"value": statistics.median(r for _, r in setup), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "err_over_tol": {"value": chk.worst, "unit": "ratio"},
        }
        summary = (f"setup samples (wall/reference s) "
                   f"{', '.join(f'{w:.4f}/{r:.4f}' for w, r in setup)}; "
                   f"worst check: {chk.worst_name}")
    else:
        tracer, traced_s = traced
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.txt"))
        values = spans.layer_metrics(*tracer.spans(), tracer.notes)
        values["sweep.output_bytes"] = sum(
            os.path.getsize(op.spec[k]) for op in ops for k in ("csv", "json")
            if k in op.spec)
        values["trace.overhead_s"] = traced_s - wall_s
        units = {m["name"]: m["unit"] for m in per_layer_spec()}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
        summary = f"traced round {traced_s:.4f} s, {len(tracer.start)} spans"

    print(f"# workload={args.workload} seed={args.seed} rounds={len(wall[0])} "
          f"run_s={run_s:.4f} (wall {wall_s:.4f}) "
          f"calibration_s={statistics.median(meter.probes):.5f} "
          f"ops/round={sum(op.count for op in ops)}; {summary}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


if __name__ == "__main__":
    sys.exit(main())
