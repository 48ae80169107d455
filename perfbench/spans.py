"""Tracing from outside the package: spans around robinwall's public
functions, self times, and the per-layer metrics.

``Tracer.install`` wraps every public function of each layer module and
rebinds every attribute of every loaded ``robinwall`` module that refers
to one of them, so calls made through names bound by ``from ... import``
are seen as well.  Nothing inside the program changes; ``uninstall`` puts
the original functions back.  Spans (name, start, end, parent) are kept in
memory in flat arrays and written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from types import FunctionType

LAYERS = ("specfun", "spectrum", "ladder", "canonical", "grand_canonical", "sweep", "cli")
AIRY_FAMILY = ("specfun.airy", "specfun.airy_scaled", "specfun.airy_log_deriv")
C_EVALUATORS = ("grand_canonical.gc_point", "canonical.heat_capacity",
                "canonical.thermo_point")
SERIALIZERS = ("sweep.result_to_csv", "sweep.result_to_json", "sweep.result_from_json")


def _ladder_kind(args, kwargs, result):
    return kwargs["kind"] if "kind" in kwargs else args[2]


def _robin_roots(args, kwargs, result):
    wall = kwargs["wall"] if "wall" in kwargs else args[0]
    return result.n_exact if wall.kind.is_robin else 0


# per-span notes taken from a call's arguments and result
NOTES = {"ladder.ladder_sums": _ladder_kind, "spectrum.build_spectrum": _robin_roots}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, notes, note = self._stack, self.notes, NOTES.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "robinwall") -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if isinstance(val, FunctionType) and val in wrappers:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def spans(self):
        """(names, name ids, starts, ends, parents) as plain lists."""
        return (list(self.names), list(self.name_id), list(self.start),
                list(self.end), list(self.parent))

    def write(self, path: str) -> None:
        """Write the spans as text: one header line of names, then
        ``name_id start_ns end_ns parent`` per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\t".join(self.names) + "\n")
            for row in zip(self.name_id, self.start, self.end, self.parent):
                fh.write("%d %d %d %d\n" % row)


def self_times(starts, ends, parents) -> list[int]:
    """Duration of each span minus the part of it that its child spans
    cover (children are clipped to the parent and overlaps merged)."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo_p, hi_p = starts[p], ends[p]
        covered = 0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda k: starts[k]):
            lo, hi = max(starts[k], lo_p), min(ends[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(names, name_ids, starts, ends, parents, notes) -> dict[str, float]:
    """Per-layer metrics (without the ones measured outside the spans)."""
    selfs = self_times(starts, ends, parents)
    calls: dict[str, int] = {n: 0 for n in names}
    total: dict[str, int] = {n: 0 for n in names}
    self_ns: dict[str, int] = {n: 0 for n in names}
    span_name = [names[i] for i in name_ids]
    for i, n in enumerate(span_name):
        calls[n] += 1
        total[n] += ends[i] - starts[i]
        self_ns[n] += selfs[i]

    def c(n):
        return calls.get(n, 0)

    def s(n):
        return self_ns.get(n, 0) * 1e-9

    def per_call(n, scale):
        return _ratio(total.get(n, 0) * 1e-9 * scale, c(n))

    def children_of(parent_name, child_names):
        return sum(1 for i, p in enumerate(parents)
                   if p >= 0 and span_name[p] == parent_name and span_name[i] in child_names)

    kinds = {"boltz": 0, "occ": 0, "dist": 0}
    roots = 0
    robin_builds = set()
    for i, note in notes.items():
        if span_name[i] == "ladder.ladder_sums":
            kinds[note] = kinds.get(note, 0) + 1
        elif span_name[i] == "spectrum.build_spectrum" and note:
            roots += note
            robin_builds.add(i)
    airy_in_robin = sum(1 for i, p in enumerate(parents)
                        if p in robin_builds and span_name[i] in AIRY_FAMILY)

    m = {
        "specfun.airy.calls": c("specfun.airy"),
        "specfun.airy_scaled.calls": c("specfun.airy_scaled"),
        "specfun.airy_log_deriv.calls": c("specfun.airy_log_deriv"),
        "specfun.airy.self_s": s("specfun.airy"),
        "specfun.airy_zero.self_s": s("specfun.airy_zero"),
        "spectrum.build_spectrum.calls": c("spectrum.build_spectrum"),
        "spectrum.build_spectrum.self_s": s("spectrum.build_spectrum"),
        "spectrum.build_spectrum.ms_per_call": per_call("spectrum.build_spectrum", 1e3),
        "spectrum.roots_solved": roots,
        "spectrum.airy_calls_per_root": _ratio(airy_in_robin, roots),
        "ladder.ladder_sums.calls": c("ladder.ladder_sums"),
        "ladder.ladder_sums.self_s": s("ladder.ladder_sums"),
        "ladder.ladder_sums.us_per_call": per_call("ladder.ladder_sums", 1e6),
        "ladder.ladder_sums.boltz.calls": kinds["boltz"],
        "ladder.ladder_sums.occ.calls": kinds["occ"],
        "ladder.ladder_sums.dist.calls": kinds["dist"],
        "grand_canonical.gc_point.calls": c("grand_canonical.gc_point"),
        "grand_canonical.gc_point.self_s": s("grand_canonical.gc_point"),
        "grand_canonical.gc_point.us_per_call": per_call("grand_canonical.gc_point", 1e6),
        "grand_canonical.ladder_per_gc_point": _ratio(
            children_of("grand_canonical.gc_point", ("ladder.ladder_sums",)),
            c("grand_canonical.gc_point")),
        "grand_canonical.be_critical.calls": c("grand_canonical.be_critical"),
        "grand_canonical.be_critical.self_s": s("grand_canonical.be_critical"),
        "grand_canonical.ladder_per_be_critical": _ratio(
            children_of("grand_canonical.be_critical", ("ladder.ladder_sums",)),
            c("grand_canonical.be_critical")),
        "canonical.find_extrema.calls": c("canonical.find_extrema"),
        "canonical.find_extrema.self_s": s("canonical.find_extrema"),
        "canonical.evals_per_extremum": _ratio(
            children_of("canonical.find_extrema", C_EVALUATORS),
            c("canonical.find_extrema")),
        "canonical.thermo_point.calls": c("canonical.thermo_point"),
        "canonical.heat_capacity.calls": c("canonical.heat_capacity"),
        "sweep.table1_harness.self_s": s("sweep.table1_harness"),
        "sweep.locate_peak.self_s": s("sweep.locate_peak"),
        "sweep.run_sweep.self_s": s("sweep.run_sweep"),
        "sweep.serialize.self_s": sum(s(n) for n in SERIALIZERS),
        "cli.main.calls": c("cli.main"),
        "cli.main.self_s": s("cli.main"),
    }
    return m
