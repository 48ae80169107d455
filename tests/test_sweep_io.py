import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robinwall
from robinwall._work import reading
from robinwall.grand_canonical import thermo_point
from robinwall.cli import main
from robinwall.errors import DomainError, RobinWallError, SolverError
from robinwall.grand_canonical import EnsembleSpec, Statistics
from robinwall.reference_values import (
    TABLE1,
    TABLE1_BE_N,
    TABLE1_FD_N,
    TABLE1_FIELDS,
    TOLERANCE,
)
from robinwall.spectrum import WallKind, WallSpec, build_spectrum
from robinwall.sweep import (
    SweepSpec,
    locate_peak,
    result_from_json,
    result_to_csv,
    result_to_json,
    run_sweep,
    table1_harness,
)

ATTR = WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3)
CANONICAL = EnsembleSpec(Statistics.CANONICAL, 1)
UNWRITABLE = "<unwritable path>"  # an --out argument, replaced in the test that uses it

# (ensemble, N, field) -> (t_found, c_found) of every Table 1 cell, recorded
# with the Robin tail law anchored on the last root-solved level
RECORDED_TABLE1 = {
    ('canonical', 1, 0.001): (0.250390368674577, 7.814696062616233),
    ('canonical', 1, 0.0001): (0.1749785910326266, 13.154186476424238),
    ('canonical', 1, 1e-05): (0.1324492226394927, 20.538115342393706),
    ('canonical', 1, 1e-06): (0.10559972479087591, 30.093384163401147),
    ('canonical', 1, 1e-07): (0.08732157029093211, 41.90969259906165),
    ('fd', 1, 0.001): (0.21810463781453243, 6.294445255109949),
    ('fd', 2, 0.001): (0.26045946033819184, 3.873659290668987),
    ('fd', 5, 0.001): (0.3349929563721502, 2.2190447107306133),
    ('fd', 10, 0.001): (0.40803433410286943, 1.766469960776229),
    ('fd', 1, 0.0001): (0.15931948022752349, 10.16384957537348),
    ('fd', 2, 0.0001): (0.1807524851500688, 6.027538971161695),
    ('fd', 5, 0.0001): (0.2162777735366704, 3.006177057068678),
    ('fd', 10, 0.0001): (0.24684253549454857, 2.1220501134267717),
    ('fd', 1, 1e-05): (0.1239202420677053, 15.416215028883006),
    ('fd', 2, 1e-05): (0.13637655869399354, 9.03481002240784),
    ('fd', 5, 1e-05): (0.15659411534988169, 4.153066338317247),
    ('fd', 10, 1e-05): (0.1730933367868862, 2.6501599648865635),
    ('fd', 1, 1e-06): (0.10050327294868164, 22.144974861091274),
    ('fd', 2, 1e-06): (0.10844959500712503, 12.956921824981832),
    ('fd', 5, 1e-06): (0.12123066298814297, 5.694396163560515),
    ('fd', 10, 1e-06): (0.13135697856244397, 3.3752863899723677),
    ('fd', 1, 1e-07): (0.08404488877809543, 30.416801651132715),
    ('fd', 2, 1e-07): (0.08947130828902673, 17.837350037246004),
    ('fd', 5, 1e-07): (0.0981588383526836, 7.6527556431786365),
    ('fd', 10, 1e-07): (0.10490934656995589, 4.311622902099026),
    ('be', 1, 0.001): (0.2813742544010254, 8.12322827448666),
    ('be', 2, 0.001): (0.305151362390182, 8.198760121563232),
    ('be', 5, 0.001): (0.3573238627888538, 8.114517029515984),
    ('be', 10, 0.001): (0.4179066932656836, 7.827897095346612),
    ('be', 1000, 0.001): (2.316170176769642, 3.9344377556298142),
    ('be', 100000, 0.001): (30.800746319502128, 2.3610481285642324),
    ('be', 1, 0.0001): (0.19062591920489863, 14.012036506192263),
    ('be', 2, 0.0001): (0.20235084926017452, 14.363382065089878),
    ('be', 5, 0.0001): (0.22714771891889096, 14.599603416073615),
    ('be', 10, 0.0001): (0.25452776751925826, 14.390890573390303),
    ('be', 1000, 0.0001): (0.8914748014669832, 6.922095795261519),
    ('be', 100000, 0.0001): (7.95433395985459, 2.989989204674116),
    ('be', 1, 1e-05): (0.14146118471198132, 22.334002277196983),
    ('be', 2, 1e-05): (0.14812291030275276, 23.21638178179502),
    ('be', 5, 1e-05): (0.1618610044502877, 24.222926833868904),
    ('be', 10, 1e-05): (0.17648252098707076, 24.46337402112935),
    ('be', 1000, 1e-05): (0.4399240418427638, 13.191923984601578),
    ('be', 100000, 1e-05): (2.4146427685770546, 4.4471684546720835),
    ('be', 1, 1e-06): (0.11130615127059412, 33.25132144258051),
    ('be', 2, 1e-06): (0.11549429344938283, 34.95021196478656),
    ('be', 5, 1e-06): (0.1239879508182891, 37.249172179840855),
    ('be', 10, 1e-06): (0.13279966374373794, 38.40001420159578),
    ('be', 1000, 1e-06): (0.26442781933112386, 24.504625972794567),
    ('be', 100000, 1e-06): (0.9228019324883545, 7.786132612603468),
    ('be', 1, 1e-07): (0.09119713428644378, 46.875419282442195),
    ('be', 2, 1e-07): (0.0940316027013654, 49.69407661330669),
    ('be', 5, 1e-07): (0.09971524784370189, 53.8473180305797),
    ('be', 10, 1e-07): (0.10550674896138684, 56.41575125765362),
    ('be', 1000, 1e-07): (0.18145108145790972, 42.095649368050886),
    ('be', 100000, 1e-07): (0.4513178080389507, 14.828196347926205),
}


def canonical_spec(points=400):
    return SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.02,
                     beta_inv_max=20.0, points=points, log_grid=True)


def bose_spec():
    return SweepSpec(wall=WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-5),
                     ensemble=EnsembleSpec(Statistics.BOSE_EINSTEIN, 1000),
                     beta_inv_min=0.3, beta_inv_max=1.8, points=60,
                     log_grid=True, normalize_by_tcr=True)


# sweeps written to CSV and JSON: the Bose one adds the beta_cr header line
# and the t_over_tcr column
SERIALIZED = pytest.mark.parametrize(
    "make_spec", [lambda: canonical_spec(points=25), bose_spec], ids=["canonical", "bose"])


class TestSweepSpec:
    def test_ensemble_names(self):
        # the CLI, JSON and Table 1 names, in the order the CLI lists them
        assert [s.value for s in Statistics] == ["canonical", "fd", "be"]
        assert EnsembleSpec(Statistics("canonical"), 1) == CANONICAL
        assert EnsembleSpec(Statistics("fd"), 3) == EnsembleSpec(Statistics.FERMI_DIRAC, 3)
        assert EnsembleSpec(Statistics("be"), 1000) == EnsembleSpec(
            Statistics.BOSE_EINSTEIN, 1000)
        for name, n in (("canonical", 7), ("classical", 1), ("be", 0)):
            with pytest.raises(DomainError):
                EnsembleSpec(Statistics(name), n)
        for name in ("xx", None):
            with pytest.raises(DomainError, match="unknown ensemble"):
                Statistics(name)

    def test_ensemble_is_required(self):
        # an EnsembleSpec in every ensemble: neither None nor a bare name
        for ensemble in (None, "canonical"):
            with pytest.raises(DomainError):
                SweepSpec(wall=ATTR, ensemble=ensemble, beta_inv_min=0.1,
                          beta_inv_max=1.0, points=5)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=2.0,
                      beta_inv_max=1.0, points=10)
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.1,
                      beta_inv_max=1.0, points=1)

    @pytest.mark.parametrize("bad, message", [
        (dict(beta_inv_max="2"), "beta_inv_max must be a finite real number"),
        (dict(beta_inv_max=True), "beta_inv_max must be a finite real number"),
        (dict(log_grid="no"), "log_grid must be a bool"),
        (dict(normalize_by_tcr=None), "normalize_by_tcr must be a bool"),
        (dict(wall="robin-"), "wall must be a WallSpec, got 'robin-'"),
        (dict(wall=WallKind.ROBIN_ATTRACTIVE), "wall must be a WallSpec"),
        (dict(ensemble=Statistics.CANONICAL), "ensemble must be an EnsembleSpec"),
        (dict(n_exact=513), r"n_exact must be an integer in \[2, 512\]"),
    ], ids=["bound-text", "bound-bool", "flag-text", "flag-none", "wall-name", "wall-kind",
            "ensemble-statistics", "n-exact-513"])
    def test_bounds_are_numbers_and_flags_bools(self, bad, message):
        # a text bound raised a bare TypeError, log_grid="no" ran a log grid,
        # and a wall named by its text was taken, for run_sweep to fail with
        # an AttributeError
        with pytest.raises(DomainError, match=message):
            SweepSpec(**{"wall": ATTR, "ensemble": CANONICAL, "beta_inv_min": 0.1,
                         "beta_inv_max": 1.0, "points": 5, **bad})

    def test_normalize_requires_bose(self):
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.1,
                      beta_inv_max=1.0, points=5, normalize_by_tcr=True)
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=EnsembleSpec(Statistics.FERMI_DIRAC, 2),
                      beta_inv_min=0.1, beta_inv_max=1.0, points=5,
                      normalize_by_tcr=True)

    def test_root_count_validated(self):
        # the [2, 512] of build_spectrum, checked when the request is made
        for n_exact in (1, 513, 10 ** 6, 2.5):
            with pytest.raises(DomainError, match="n_exact"):
                SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.1,
                          beta_inv_max=1.0, points=5, n_exact=n_exact)
        for n_exact in (2, 512):
            assert SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.1,
                             beta_inv_max=1.0, points=5, n_exact=n_exact).n_exact == n_exact


class TestRunSweep:
    def test_canonical_sweep_reproduces_peak(self):
        result = run_sweep(canonical_spec())
        assert not result.failed
        assert len(result.rows) == 400
        assert result.extrema.beta_inv_at_max == pytest.approx(0.2504, rel=0.01)
        assert result.extrema.c_max == pytest.approx(7.815, rel=0.01)
        temps = [r.beta_inv for r in result.rows]
        assert temps == sorted(temps)
        assert result.condensate is None

    def test_degenerate_two_point_grid(self):
        spec = SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.5,
                         beta_inv_max=1.0, points=2)
        result = run_sweep(spec)
        assert len(result.rows) == 2
        assert result.extrema.c_max is None
        assert result.extrema.beta_inv_at_min is None

    def test_normalized_bose_sweep(self):
        result = run_sweep(bose_spec())
        assert not result.failed
        assert result.condensate is not None
        assert result.condensate.beta_cr > 0
        units = [r.t_over_tcr for r in result.rows]
        assert units[0] == pytest.approx(0.3, rel=1e-12)
        assert units[-1] == pytest.approx(1.8, rel=1e-12)
        for row in result.rows:
            assert row.beta_inv == pytest.approx(
                row.t_over_tcr * result.condensate.t_cr, rel=1e-12)
            assert row.mu is not None and row.n0 is not None
        assert result.extrema.beta_inv_at_max == pytest.approx(0.4399, rel=0.015)
        assert result.extrema.c_max == pytest.approx(13.192, rel=0.015)

    def test_normalized_flagship_sweep(self):
        # heaviest tabulated configuration: 1e5 bosons at the weakest field
        spec = SweepSpec(wall=WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-7),
                         ensemble=EnsembleSpec(Statistics.BOSE_EINSTEIN, 100000),
                         beta_inv_min=0.5, beta_inv_max=1.6, points=60,
                         log_grid=True, normalize_by_tcr=True)
        result = run_sweep(spec)
        assert not result.failed
        assert result.extrema.beta_inv_at_max == pytest.approx(0.4513, rel=0.015)
        assert result.extrema.c_max == pytest.approx(14.828, rel=0.015)

    @pytest.mark.parametrize("statistics,defined", [
        ("canonical", {"mean_energy", "heat_capacity"}),
        ("fd", {"mean_energy", "heat_capacity", "mu"}),
        ("be", {"mean_energy", "heat_capacity", "mu", "n0"}),
    ], ids=["canonical", "fd", "be"])
    def test_rows_carry_every_value_their_ensemble_defines(self, statistics, defined):
        # no column filter: a row holds each value its ensemble defines and
        # leaves the others out
        n = 1 if statistics == "canonical" else 2
        spec = SweepSpec(wall=ATTR, ensemble=EnsembleSpec(Statistics(statistics), n),
                         beta_inv_min=0.1, beta_inv_max=1.0, points=5)
        result = run_sweep(spec)
        assert not result.failed
        for row in result.rows:
            for name in ("mean_energy", "heat_capacity", "mu", "n0"):
                value = getattr(row, name)
                assert (value is not None) == (name in defined), name
                assert value is None or math.isfinite(value), name

    def test_linear_grid(self):
        spec = SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.1,
                         beta_inv_max=0.5, points=5, log_grid=False)
        temps = [r.beta_inv for r in run_sweep(spec).rows]
        assert temps == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])


class TestSerialization:
    def test_json_round_trip_is_exact(self):
        result = run_sweep(bose_spec())
        clone = result_from_json(result_to_json(result))
        assert clone.spec == result.spec
        assert clone.rows == result.rows
        assert clone.extrema == result.extrema
        assert clone.condensate == result.condensate

    def test_canonical_json_round_trip_is_exact(self):
        result = run_sweep(canonical_spec(points=25))
        text = result_to_json(result)
        assert json.loads(text)["spec"]["ensemble"] == "canonical"
        assert json.loads(text)["spec"]["particles"] == 1
        assert result_from_json(text) == result
        assert result_to_json(result_from_json(text)) == text

    def test_array_bound_stored_as_its_float(self):
        # a 0-d array is a real number: the spec keeps its float, so the
        # document is JSON (the array itself raised a TypeError there)
        spec = SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=np.array(0.1),
                         beta_inv_max=np.float64(2.0), points=5)
        assert type(spec.beta_inv_min) is type(spec.beta_inv_max) is float
        result = run_sweep(spec)
        assert result_from_json(result_to_json(result)) == result

    def test_unknown_ensemble_in_json_rejected(self):
        doc = json.loads(result_to_json(run_sweep(canonical_spec(points=5))))
        doc["spec"]["ensemble"] = "xx"
        with pytest.raises(DomainError, match="unknown ensemble 'xx'"):
            result_from_json(json.dumps(doc))

    def test_unknown_wall_in_json_rejected(self):
        doc = json.loads(result_to_json(run_sweep(canonical_spec(points=5))))
        doc["spec"]["wall"] = "xx"
        with pytest.raises(DomainError, match="unknown wall 'xx'"):
            result_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["not json", "", '{"spec": '],
                             ids=["text", "empty", "truncated"])
    def test_text_that_is_not_json_rejected(self, text):
        with pytest.raises(DomainError, match="sweep document is not JSON"):
            result_from_json(text)

    @pytest.mark.parametrize("part,edit,message", [
        ("spec", lambda d: d.pop("particles"), "has no key 'particles'"),
        ("spec", lambda d: d.pop("points"), "argument: 'points'"),
        ("spec", lambda d: d.update(fields=1), "argument 'fields'"),
        ("spec", lambda d: d.update(n_exact=10 ** 6), r"n_exact must be an integer in \[2, 512\]"),
        ("spec", lambda d: d.update(outputs=["heat_capacity"]), "argument 'outputs'"),
        ("row", lambda d: d.pop("beta"), "argument: 'beta'"),
        ("row", lambda d: d.update(entropy=0.5), "argument 'entropy'"),
        ("spec", lambda d: d.update(field="abc"), "field must be a finite real number"),
        ("spec", lambda d: d.update(field="1e-3"), "field must be a finite real number"),
        # JSON's true is no number and a number or a string no flag: each
        # was taken as it came, true as 1 and "false" as a true flag
        ("spec", lambda d: d.update(particles=True), "n_particles must be an integer"),
        ("spec", lambda d: d.update(field=True), "field must be a finite real number"),
        ("spec", lambda d: d.update(beta_inv_max=True), "beta_inv_max must be a finite real number"),
        ("spec", lambda d: d.update(log_grid="false"), "log_grid must be a bool"),
        ("spec", lambda d: d.update(normalize_by_tcr=0), "normalize_by_tcr must be a bool"),
        # a value of a row or of the extrema that is no finite number, or an
        # error that is no text, was read back, for result_to_csv to raise a
        # ValueError or TypeError
        ("row", lambda d: d.update(heat_capacity="lots"),
         "row heat_capacity must be a finite number, got 'lots'"),
        ("row", lambda d: d.update(heat_capacity=True),
         "row heat_capacity must be a finite number"),
        ("row", lambda d: d.update(heat_capacity=[1, 2]),
         "row heat_capacity must be a finite number"),
        ("row", lambda d: d.update(mean_energy=math.nan),
         "row mean_energy must be a finite number"),
        ("row", lambda d: d.update(beta=None), "row beta must be a finite number"),
        ("row", lambda d: d.update(error=5), "row error must be text"),
        ("extrema", lambda d: d.update(c_max=[1, 2]), "extrema c_max must be a finite number"),
        ("extrema", lambda d: d.update(c_min="1"), "extrema c_min must be a finite number"),
    ], ids=["spec-ensemble-key", "spec-key", "spec-extra", "spec-n-exact", "spec-outputs",
            "row-key", "row-extra",
            "spec-field-text", "spec-field-numeric-text", "spec-particles-bool",
            "spec-field-bool", "spec-bound-bool", "spec-flag-text", "spec-flag-number",
            "row-text", "row-bool", "row-list", "row-nan", "row-null", "row-error-number",
            "extrema-list", "extrema-text"])
    def test_bad_keys_in_json_rejected(self, part, edit, message):
        # a missing or unknown key, or a value of the wrong type, is a
        # DomainError that names it, not a KeyError or TypeError
        doc = json.loads(result_to_json(run_sweep(canonical_spec(points=5))))
        edit(doc[part] if part in ("spec", "extrema") else doc["rows"][2])
        with pytest.raises(DomainError, match=message):
            result_from_json(json.dumps(doc))

    def test_bad_condensate_value_rejected(self):
        # the condensate's values are numbers too; its null stays a Fermi
        # or canonical sweep's
        doc = json.loads(result_to_json(run_sweep(bose_spec())))
        doc["condensate"]["t_cr"] = "1.5"
        with pytest.raises(DomainError, match="condensate t_cr must be a finite number"):
            result_from_json(json.dumps(doc))

    @SERIALIZED
    def test_csv_and_json_carry_identical_numbers(self, make_spec):
        result = run_sweep(make_spec())
        doc = json.loads(result_to_json(result))
        lines = [ln for ln in result_to_csv(result).splitlines()
                 if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        assert ("t_over_tcr" in header) == result.spec.normalize_by_tcr
        assert len(lines) - 1 == len(doc["rows"])
        for row_doc, line in zip(doc["rows"], lines[1:]):
            cells = line.split(",")
            for name, cell in zip(header, cells):
                if cell == "":
                    assert name not in row_doc
                    continue
                assert float(cell) == row_doc[name]

    @SERIALIZED
    def test_csv_header_block(self, make_spec):
        result = run_sweep(make_spec())
        head = [ln for ln in result_to_csv(result).splitlines() if ln.startswith("#")]
        spec = result.spec
        assert f"# field = {spec.wall.field!r}" in head
        assert f"# ensemble = {spec.ensemble.statistics.value}" in head
        # the Bose sweep's critical temperature, digit for digit as in the JSON
        beta_cr = [ln.removeprefix("# beta_cr = ") for ln in head
                   if ln.startswith("# beta_cr = ")]
        found = re.search(r'"beta_cr": ([^,\s]+)', result_to_json(result))
        assert beta_cr == ([] if result.condensate is None else [found.group(1)])

    def test_shortest_round_trip_formatting(self):
        result = run_sweep(canonical_spec(points=10))
        text = result_to_csv(result)
        line = [ln for ln in text.splitlines() if not ln.startswith("#")][1]
        first = line.split(",")[0]
        assert float(first) == result.rows[0].beta_inv
        assert repr(float(first)) == first


@functools.cache
def table1_work():
    """The work of one table1 round, counted once for the gates that read it."""
    with reading() as work:
        assert table1_harness().passed
    return work


class TestTable1Harness:
    def test_single_field_subset_passes(self):
        report = table1_harness(fields=(1e-3,), ensembles=("canonical", "fd"))
        assert len(report.cells) == 1 + len(TABLE1_FD_N)
        assert report.passed
        for cell in report.cells:
            assert cell.rel_t <= cell.tolerance
            assert cell.rel_c <= cell.tolerance

    def test_cells_reproduce_recorded_values(self):
        # a regression pin on the recorded peaks: every peak height agrees
        # to 1e-8.  The peak temperature is the refinement's best point, set
        # to its 1e-6 tolerance in beta: in the flattest cells the last
        # comparisons of the search are decided by the ~1e-13 noise of the
        # particle-number solve, which depends on where the solve started,
        # so t agrees to that tolerance (seen: 2.8e-7 at fd N=10, F=1e-7,
        # when the batched engine replaced one lane at a time, and 1.4e-7
        # when multi-point passes replaced Brent's one-point steps).  Anchoring
        # the tail law on the last root moved the cells by up to 8.4e-5
        # (c) and 4.8e-5 (t) relative at F = 1e-3, the field where the old
        # first-order shift was worst
        report = table1_harness()
        assert len(report.cells) == len(RECORDED_TABLE1)
        for cell in report.cells:
            t, c = RECORDED_TABLE1[cell.ensemble, cell.n_particles, cell.field]
            assert cell.c_found == pytest.approx(c, rel=1e-8, abs=0.0)
            assert cell.t_found == pytest.approx(t, rel=1e-6, abs=0.0)

    def test_evaluator_batches_per_round(self):
        # each (ensemble, field) block of the table is one locate_peak call:
        # one batch scans all its cells, then each refinement pass is one
        # batch over the points of every refinement still open, up to 4 a
        # refinement.  A round takes 48 batches (33 passes over 423 lanes,
        # 11 of them in the BE blocks) over 808 evaluator lanes, 350 of
        # them cold
        work = table1_work()
        assert work["batches"] - work["refine_passes"] == 15  # one scan per block
        assert work["batches"] <= 53
        assert work["refine_passes"] <= 36
        assert work["refine_lanes"] <= 466
        assert work["batch_lanes"] <= 889
        assert work["cold_lanes"] <= 385  # the 7 lanes of each of the 50 grand-canonical scans
        with reading() as be:
            table1_harness(ensembles=("be",))
        assert 0 < be["refine_passes"] <= 13

    def test_ladder_calls_per_round(self):
        # work-count gate on the mu solves: 15 canonical calls (one scan
        # and 2 refinement passes per block), and one call per lockstep
        # Newton pass.  Cold scans start from the two-term balance (in Bose
        # statistics for bosons) and the refinement's points from the cubic
        # Hermite through their cell's solved states and slopes, and each
        # Newton pass is a Halley step: 96 calls a round (36 FD, 45 BE).
        # A mu solve's passes are sums over its batch's plan, the other
        # calls ladder_sums, one sum each
        work = table1_work()
        assert work["canonical_passes"] == 15
        assert work["fd_passes"] > 0 and work["be_passes"] > 0
        assert sum(work[f"{s.value}_passes"] for s in Statistics) <= 100

    def test_kernel_passes_per_round(self):
        # work-count gate on the ladder: each ladder pass evaluates its
        # kernels once per node set of its plan that serves a lane of it:
        # the root block, the closure nodes with their end stencils and its
        # lanes' direct windows, a row each, each cut into runs of lanes of at
        # most ladder._PAIRS (lane, node) pairs: 203 passes a round.
        assert 0 < table1_work()["node_sums"] <= 300

    def test_plan_builds_per_round(self):
        # work-count gate on the ladder's planning: every ladder_sums call
        # plans its batch, and every mu solve plans its batch once, at the
        # lanes' start gamma; its later Newton passes sum over that plan, and
        # only a lane whose gamma leaves its window gets a plan of its own.
        # A round builds 48 plans (15 of the canonical calls, 33 of the mu
        # solves) and 289,628 kernel elements
        work = table1_work()
        assert 0 < work["plans"] <= 53
        assert 0 < work["kernel_elements"] <= 298_000

    def test_work_counts_repeat_and_reading_them_changes_no_output(self, capsys):
        # two table1 rounds in one process do the same work, counted alike,
        # and `robinwall table1` prints the same bytes while a reading is open
        assert main(["table1"]) == 0
        plain = capsys.readouterr().out
        works = []
        for _ in range(2):
            with reading() as work:
                assert main(["table1"]) == 0
            assert capsys.readouterr().out == plain
            works.append(work)
        assert works[0] == works[1] == table1_work()
        assert works[0]["plans"] > 0 and works[0]["kernel_elements"] > 0

    @pytest.mark.parametrize("ensemble", ["fd", "be"])
    def test_block_matches_its_cells_alone(self, ensemble):
        # a block's cells refined together take the peaks each cell finds
        # alone: every lane's mu solve starts from its own cell's states, so
        # each refinement path is the sequential one up to batch rounding
        field = 1e-4
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field))
        ns = sorted(n for e, n, f in TABLE1 if e == ensemble and f == field)
        specs = [EnsembleSpec(Statistics(ensemble), n) for n in ns]
        t_refs = [TABLE1[ensemble, n, field][0] for n in ns]
        block = locate_peak(sp, specs, t_refs)
        for spec, t_ref, rep in zip(specs, t_refs, block):
            alone, = locate_peak(sp, [spec], [t_ref])
            assert rep.c_max == pytest.approx(alone.c_max, rel=1e-12, abs=0.0)
            assert rep.beta_inv_at_max == pytest.approx(alone.beta_inv_at_max, rel=1e-10, abs=0.0)

    def test_coarse_scans_find_the_peaks_of_fine_ones(self, monkeypatch):
        # each scan only brackets its peaks for the refinement on the slope,
        # and each peak is reported at the root of the slope's secant on its
        # last bracket, not at that bracket's better end: the 55 maxima from
        # 5- to 17-point scans match those refined from 65-point scans (seen:
        # 2.5e-11 in T; 1.9e-10 at the cubic's minimiser, 1.4e-7 once its
        # fallback to the midpoint fired; at the better end, 2.9e-7 at 17
        # points)
        from robinwall import sweep
        monkeypatch.setattr(sweep, "_SCAN_POINTS", 65)
        fine = table1_harness()
        for points in (5, 7, 9, 17):
            monkeypatch.setattr(sweep, "_SCAN_POINTS", points)
            coarse = table1_harness()
            assert len(coarse.cells) == len(fine.cells) == 55
            for a, b in zip(coarse.cells, fine.cells, strict=True):
                assert a.t_found == pytest.approx(b.t_found, rel=1e-10, abs=0.0), points
                assert a.c_found == pytest.approx(b.c_found, rel=1e-10, abs=0.0), points

    @pytest.mark.parametrize("n,field", [(100000, 1e-7), (100000, 1e-3), (1000, 1e-5)])
    def test_hardest_peaks_against_a_fine_grid(self, n, field):
        # the Bose peaks whose refinement needs its zoom, against an oracle
        # independent of it: the largest c of thermo_point on 401 points 1e-7
        # apart in ln beta around the refined peak (seen: 7.6e-12 in c and
        # 1e-7 in T at most)
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, field))
        ens = EnsembleSpec(Statistics.BOSE_EINSTEIN, n)
        rep, = locate_peak(sp, [ens], [TABLE1["be", n, field][0]])
        ln_beta = -math.log(rep.beta_inv_at_max) + 1e-7 * np.arange(-200, 201)
        p = thermo_point(sp, np.exp(ln_beta), ens)
        assert p.errors == (None,) * 401
        k = int(np.argmax(p.heat_capacity))
        assert 0 < k < 400  # the grid holds its maximum inside
        assert rep.c_max == pytest.approx(p.heat_capacity[k], rel=1e-10, abs=0.0)
        assert rep.beta_inv_at_max == pytest.approx(math.exp(-ln_beta[k]), rel=5e-7, abs=0.0)

    def test_block_of_mixed_statistics_rejected(self):
        # one block is one statistics: a canonical first cell does not make
        # the others canonical
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
        fd = EnsembleSpec(Statistics.FERMI_DIRAC, 2)
        for block in ([CANONICAL, fd], [fd, CANONICAL],
                      [fd, EnsembleSpec(Statistics.BOSE_EINSTEIN, 2)]):
            with pytest.raises(DomainError):
                locate_peak(sp, block, [0.25, 0.25])

    @pytest.mark.parametrize("names,t_centers,name", [
        ("fd", [0.25, 0.3], "t_centers"),  # was a bare IndexError
        ("canonical", [0.25, 0.3], "t_centers"),  # scanned a cell with no ensemble
        ("fd fd", [0.25], "t_centers"),  # dropped the second ensemble
        ("", [], "t_centers"),
        ("fd", [0.0], "t_centers"),  # was a ZeroDivisionError
        ("fd", [-0.2], "t_centers"),  # was a ValueError of math.log
        ("fd", [math.inf], "t_centers"),
        ("fd", [math.nan], "t_centers"),
    ])
    def test_bad_peak_search_rejected(self, names, t_centers, name):
        # a DomainError that names the argument: one center per ensemble, at
        # least one, each finite and > 0
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
        specs = [EnsembleSpec(Statistics(e), 1 if e == "canonical" else 2)
                 for e in names.split()]
        with pytest.raises(DomainError, match=name):
            locate_peak(sp, specs, t_centers)

    @pytest.mark.parametrize("t_centers", [0.25, np.float64(0.25), "0.25", b"0.25", None],
                             ids=["float", "numpy-float", "text", "bytes", "none"])
    def test_peak_centers_not_in_a_sequence_rejected(self, t_centers):
        # one center given alone, or text: a TypeError from len(t_centers)
        # before the centers were checked
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
        with pytest.raises(DomainError, match="t_centers"):
            locate_peak(sp, [CANONICAL], t_centers)

    def test_deterministic(self):
        a = table1_harness(fields=(1e-4,), ensembles=("canonical",))
        b = table1_harness(fields=(1e-4,), ensembles=("canonical",))
        assert a.as_text() == b.as_text()
        assert a == b

    def test_unknown_ensemble_rejected(self):
        with pytest.raises(DomainError):
            table1_harness(ensembles=("classical",))

    @pytest.mark.parametrize("kwargs", [
        {"ensembles": ("be", "xx")}, {"fields": (1e-3, 2e-3)},
        {"ensembles": ("be", "fd", "be")}, {"fields": (1e-3, 1e-4, 0.001)},
    ], ids=["last-ensemble", "last-field", "repeated-ensemble", "repeated-field"])
    def test_bad_last_entry_rejected_before_any_block(self, kwargs, monkeypatch):
        # every name and field is checked before a spectrum is built or a
        # block is computed; a repeated one would repeat its cells
        import robinwall.sweep as sweep_mod
        calls = []
        for name in ("locate_peak", "build_spectrum"):
            monkeypatch.setattr(sweep_mod, name, lambda *a, name=name, **k: calls.append(name))
        with pytest.raises(DomainError):
            table1_harness(**kwargs)
        assert calls == []

    @pytest.mark.parametrize("kwargs", [{"fields": ()}, {"ensembles": ()}],
                             ids=["no-field", "no-ensemble"])
    def test_empty_selection_rejected(self, kwargs):
        # an empty report would pass
        with pytest.raises(DomainError):
            table1_harness(**kwargs)

    def test_reference_far_from_the_peak_rejected(self, monkeypatch):
        # a scan window 1e3 times above the canonical peak holds no maximum
        import robinwall.sweep as sweep_mod

        key = ("canonical", 1, 1e-3)
        monkeypatch.setitem(sweep_mod.TABLE1, key, (1e3, sweep_mod.TABLE1[key][1]))
        with pytest.raises(DomainError, match="no peak found in the scan window"):
            table1_harness(fields=(1e-3,), ensembles=("canonical",))

    def test_reference_table_shape(self):
        assert len(TABLE1) == len(TABLE1_FIELDS) * (1 + len(TABLE1_FD_N)
                                                    + len(TABLE1_BE_N))
        assert set(TOLERANCE) == {"canonical", "fd", "be"}
        for (_, _, field), (t_peak, c_peak) in TABLE1.items():
            assert field in TABLE1_FIELDS
            assert t_peak > 0 and c_peak > 0


class TestCli:
    def test_bad_wall_is_spec_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--wall", "hard", "--field", "1e-3",
                  "--beta-inv-min", "0.1", "--beta-inv-max", "1", "--points", "5"])
        assert exc.value.code == 2

    def test_zero_field_is_spec_error(self):
        rc = main(["spectrum", "--wall", "robin-", "--field", "0.0"])
        assert rc == 2

    def test_spectrum_json(self, capsys, tmp_path):
        out = tmp_path / "levels.json"
        rc = main(["spectrum", "--wall", "robin-", "--field", "1e-3",
                   "--count", "6", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["wall"] == "robin-"
        assert len(doc["levels"]) == 6
        assert doc["levels"][0] == pytest.approx(-0.9995001248, rel=1e-9)
        assert doc["gaps"][0]["ratio"] == 1.0

    def test_sweep_csv_file(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--wall", "robin-", "--field", "1e-3",
                   "--ensemble", "canonical", "--beta-inv-min", "0.1",
                   "--beta-inv-max", "1.0", "--points", "8", "--log-grid",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[-1].count(",") >= 3

    def test_sweep_fd_and_be(self, tmp_path):
        for ens in ("fd", "be"):
            out = tmp_path / f"{ens}.json"
            rc = main(["sweep", "--wall", "robin-", "--field", "1e-4",
                       "--ensemble", ens, "--particles", "2",
                       "--beta-inv-min", "0.1", "--beta-inv-max", "0.4",
                       "--points", "6", "--format", "json", "--out", str(out)])
            assert rc == 0
            doc = json.loads(out.read_text())
            assert all("mu" in r for r in doc["rows"])

    # the whole predict output, recorded at a reference commit
    PREDICT = {
        ("1e-6", "10"): (
            "field = 1e-06, particles = 10\n"
            "canonical: <E>=0 at beta = 7.815266031504221\n"
            "canonical: c peak at beta = 9.21822472506804 (T = 0.10848075739362266), height ~ beta^2/4 = 21.243916770463937\n"
            "fermion N=1: c peak at beta = 8.037522702214854 (T = 0.1244164448486641), height ~ 7.8375090751646965\n"
            "boson condensation: beta_cr ~ 7.2714746701952215 (T_cr ~ 0.1375236860961454)\n"
            "fermion plateau: 1.35\n"
        ),
        ("1e-3", "1"): (
            "field = 0.001, particles = 1\n"
            "canonical: <E>=0 at beta = 3.1662994295844533\n"
            "canonical: c peak at beta = 3.685595133964242 (T = 0.27132660090214406), height ~ beta^2/4 = 3.395902872875225\n"
            "fermion N=1: c peak at beta = 2.7425930384575077 (T = 0.3646184417365914), height ~ 0.9125493710225501\n"
            "boson condensation: beta_cr ~ 3.685595133964242 (T_cr ~ 0.27132660090214406)\n"
            "fermion plateau: 0.0\n"
        ),
    }

    def test_predict(self, capsys):
        for (field, particles), text in self.PREDICT.items():
            assert main(["predict", "--field", field, "--particles", particles]) == 0
            assert capsys.readouterr().out == text

    def test_table1_subset(self, capsys):
        rc = main(["table1", "--fields", "1e-3", "--ensembles", "canonical"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "pass" in text and "FAIL" not in text

    def test_table1_failure_exit_code(self, capsys, monkeypatch):
        # an absurd tolerance makes every cell fail -> regression exit code
        import robinwall.sweep as sweep_mod

        monkeypatch.setitem(sweep_mod.TOLERANCE, "canonical", 1e-9)
        rc = main(["table1", "--fields", "1e-3", "--ensembles", "canonical"])
        assert rc == 4
        assert "FAIL" in capsys.readouterr().out

    def test_sweep_row_errors_exit_code(self, monkeypatch, tmp_path, capsys):
        # one lane of the batched mu solve fails: its row records the
        # error, every other row keeps the values of a clean run, and the
        # sweep exits nonzero
        import robinwall.grand_canonical as gc

        argv = ["sweep", "--wall", "robin-", "--field", "1e-4",
                "--ensemble", "fd", "--particles", "2",
                "--beta-inv-min", "0.1", "--beta-inv-max", "0.3",
                "--points", "4", "--format", "json"]
        clean = tmp_path / "clean.json"
        assert main(argv + ["--out", str(clean)]) == 0
        clean_rows = result_from_json(clean.read_text()).rows
        bad_beta = clean_rows[1].beta
        sums = gc._sums
        passes = []

        def failing_lane(plan, lanes, *args):
            passes.append(len(lanes))
            return np.where(plan.beta[lanes] == bad_beta, np.nan, sums(plan, lanes, *args))

        monkeypatch.setattr(gc, "_sums", failing_lane)
        out = tmp_path / "bad.json"
        assert main(argv + ["--out", str(out)]) == 3
        assert passes[0] == 4  # the rows are one batch
        rows = result_from_json(out.read_text()).rows
        assert [r.error is not None for r in rows] == [False, True, False, False]
        assert "particle-number residual nan" in rows[1].error
        for row, ref in zip(rows, clean_rows):
            if row.error is None:
                assert row == ref
        assert "sweep finished with failed rows" in capsys.readouterr().err
        # the same sweep to CSV: the failed row keeps its grid cells, its
        # number cells are empty and its message ends the row
        csv = tmp_path / "bad.csv"
        assert main(argv[:-1] + ["csv", "--out", str(csv)]) == 3
        header, *lines = [ln for ln in csv.read_text().splitlines() if not ln.startswith("#")]
        cols = header.split(",")
        failed = dict(zip(cols, lines[1].split(",")))
        assert cols[-1] == "error" and "particle-number residual nan" in failed["error"]
        assert float(failed["beta"]) == bad_beta
        assert len(cols) > 3 and all(failed[c] == "" for c in cols[2:-1])

    def test_canonical_sweep_with_nonfinite_sums_fails(self, capsys, monkeypatch):
        # canonical sums that come out NaN: each row records why, the sweep
        # exits 3, and a scalar thermo_point raises
        import robinwall.canonical as canonical
        sums = canonical.ladder_sums

        def nan_sums(*args, **kwargs):
            s0, s1, s2, s3 = sums(*args, **kwargs)
            return s0, s1, s2 * np.nan, s3

        monkeypatch.setattr(canonical, "ladder_sums", nan_sums)
        argv = ["sweep", "--wall", "robin-", "--field", "1e-3",
                "--beta-inv-min", "0.1", "--beta-inv-max", "10", "--points", "3"]
        assert main(argv) == 3
        header, *rows = [ln for ln in capsys.readouterr().out.splitlines()
                         if not ln.startswith("#")]
        assert header == "beta_inv,beta,error" and len(rows) == 3
        assert all(r.endswith("are not finite") for r in rows)
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
        with pytest.raises(SolverError, match="not finite"):
            thermo_point(sp, 2.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow past the float range
    @pytest.mark.parametrize("ensemble,particles,message", [
        ("canonical", "1", "are not finite"), ("fd", "3", "particle-number residual nan"),
        ("be", "3", "particle-number residual nan")])
    def test_grand_canonical_sweep_with_nonfinite_states_fails(self, ensemble, particles,
                                                                message, capsys):
        # beta from 1e-251 to 1e-249, past the float range of the tail law's
        # level index: each row names why its state failed, and the sweep exits 3
        assert main(["sweep", "--wall", "robin-", "--field", "1e-3", "--ensemble", ensemble,
                     "--particles", particles, "--beta-inv-min", "1e249",
                     "--beta-inv-max", "1e251", "--points", "3"]) == 3
        header, *rows = [ln for ln in capsys.readouterr().out.splitlines()
                         if not ln.startswith("#")]
        assert header.endswith(",error") and len(rows) == 3
        assert all(message in r for r in rows)

    def test_sweep_batch_failure_fails_every_row(self, monkeypatch, tmp_path):
        # an error raised for the whole batch is recorded in every row
        import robinwall.sweep as sweep_mod
        from robinwall.errors import SolverError

        def boom(*args, **kwargs):
            raise SolverError("synthetic batch failure")

        monkeypatch.setattr(sweep_mod.gc._Evaluator, "__call__", boom)
        out = tmp_path / "bad.csv"
        rc = main(["sweep", "--wall", "robin-", "--field", "1e-4",
                   "--ensemble", "fd", "--particles", "2",
                   "--beta-inv-min", "0.1", "--beta-inv-max", "0.3",
                   "--points", "4", "--out", str(out)])
        assert rc == 3
        rows = out.read_text().splitlines()[-4:]
        assert all(r.endswith("synthetic batch failure") for r in rows)

    @pytest.mark.parametrize("argv", [
        ["predict", "--field", "1e-5", "--particles", "0"],
        ["predict", "--field", "1e-5", "--particles", "-5"],
        ["sweep", "--wall", "robin-", "--field", "1e-3", "--ensemble", "canonical",
         "--particles", "7", "--beta-inv-min", "0.1", "--beta-inv-max", "1",
         "--points", "5"],
        ["sweep", "--wall", "robin-", "--field", "1e-3", "--ensemble", "fd",
         "--particles", str(10 ** 30), "--beta-inv-min", "0.1", "--beta-inv-max", "1",
         "--points", "5"],
        ["table1", "--fields", "abc"],
        *(["sweep", "--wall", "robin-", "--field", "1e-3", "--beta-inv-min", lo,
           "--beta-inv-max", hi, "--points", "5"]
          for lo, hi in (("0.1", "inf"), ("0.1", "1e400"), ("1e-320", "1"))),
        ["table1", "--ensembles", ","],
        ["table1", "--fields", "", "--ensembles", "be"],
        ["table1", "--ensembles", "be,xx"],
        ["table1", "--fields", "1e-3,2e-3"],
        ["table1", "--fields", "1e-3,1e-3"],
        ["table1", "--fields", "1e-3", "--ensembles", "fd,canonical,fd"],
        ["sweep", "--wall", "robin-", "--field", "1e-3", "--beta-inv-min", "0.1",
         "--beta-inv-max", "1", "--points", "5", "--out", UNWRITABLE],
        ["spectrum", "--wall", "robin-", "--field", "1e-3", "--out", UNWRITABLE],
        ["table1", "--fields", "1e-3", "--ensembles", "canonical", "--out", UNWRITABLE],
    ], ids=["predict-zero", "predict-negative", "sweep-canonical-many",
            "sweep-particles-1e30", "table1-fields",
            "sweep-max-inf", "sweep-max-1e400", "sweep-min-1e-320",
            "table1-no-ensemble", "table1-no-field", "table1-bad-last-ensemble", "table1-bad-last-field",
            "table1-repeated-field", "table1-repeated-ensemble",
            "sweep-out-unwritable", "spectrum-out-unwritable", "table1-out-unwritable"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_specification_exit_code(self, argv, capsys, tmp_path):
        # an --out path whose directory does not exist cannot be written
        argv = [str(tmp_path / "missing" / "out") if a == UNWRITABLE else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("specification error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,option", [
        (["sweep", "--wall", "robin-", "--field", "1e-3", "--beta-inv-min", "0.1",
          "--beta-inv-max", "1", "--points", "5", "--outputs", "heat_capacity"], "--outputs"),
        (["table1", "--fields", "1e-3", "--ensembles", "canonical", "--tol", "0.1"], "--tol"),
    ], ids=["sweep-outputs", "table1-tol"])
    def test_result_settings_are_not_options(self, argv, option, capsys):
        # rows carry every value and a cell passes at the published
        # TOLERANCE: the parser refuses a column filter or a tolerance
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {option}" in captured.err

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        assert "selftest: 6/6 checks passed" in capsys.readouterr().out

    def test_selftest_reports_a_failed_check(self, monkeypatch, capsys):
        # one check that fails among passing ones: the command lists it and
        # exits with the regression code
        import robinwall.selftest as selftest_mod
        from robinwall.cli import EXIT_REGRESSION

        def failing():
            return selftest_mod.CheckResult("synthetic check", False, "fails on purpose")

        monkeypatch.setattr(selftest_mod, "ALL_CHECKS",
                            (selftest_mod.check_airy_interlacing, failing))
        assert main(["selftest"]) == EXIT_REGRESSION
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "FAIL  synthetic check: fails on purpose"
        assert out[-1] == "selftest: FAILED"

    @pytest.mark.parametrize("error, prefix", [
        (SolverError("synthetic"), "solver error: synthetic"),
        (RobinWallError("synthetic"), "error: synthetic")])
    def test_solver_failure_exit_code(self, error, prefix, monkeypatch, capsys):
        import robinwall.cli as cli_mod

        def boom(spec):
            raise error

        monkeypatch.setattr(cli_mod, "run_sweep", boom)
        assert main(["sweep", "--wall", "robin-", "--field", "1e-3", "--beta-inv-min", "0.1",
                     "--beta-inv-max", "1", "--points", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == prefix + "\n"

    def test_weak_field_solver_error_exit_code(self, capsys):
        # a zero slope of psi where the bound state's Newton stalls is a
        # solver error, not a numpy warning
        assert main(["spectrum", "--wall", "robin-", "--field", "1e-16"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver error: ")

    def test_parser_built_once_serves_every_call(self, tmp_path, capsys):
        # main builds its parser on the first call and reuses it: a CSV
        # sweep, two bad specifications (one refused by the parser, one by
        # the model) and a JSON sweep in one process write the same files as
        # calls that each build a parser of their own
        import robinwall.cli as cli_mod

        sweep = ["sweep", "--wall", "robin-", "--field", "1e-4", "--ensemble", "fd",
                 "--particles", "2", "--beta-inv-min", "0.1", "--beta-inv-max", "0.4",
                 "--points", "6"]
        calls = [sweep + ["--format", "csv"],
                 ["sweep", "--wall", "hard", "--field", "1e-3", "--beta-inv-min", "0.1",
                  "--beta-inv-max", "1"],
                 ["spectrum", "--wall", "robin-", "--field", "0.0"],
                 sweep + ["--format", "json"]]

        def run(fresh):
            files = []
            for k, argv in enumerate(calls):
                if fresh:
                    cli_mod._build_parser.cache_clear()
                out = tmp_path / f"{fresh}-{k}"
                try:
                    rc = main(argv + ["--out", str(out)])
                except SystemExit as exc:
                    rc = exc.code
                files.append((rc, out.read_text() if out.exists() else None))
            return files

        cli_mod._build_parser.cache_clear()
        cached = run(False)
        assert cli_mod._build_parser.cache_info().misses == 1
        assert [rc for rc, _ in cached] == [0, 2, 2, 0]
        assert cached == run(True)

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


def test_table1_block_and_bose_sweep_never_import_numpy_ma():
    # numpy imports numpy.ma lazily, on first use (np.unique is one); in a
    # fresh interpreter a table1 block and the README's Bose sweep leave it
    # unloaded, since it adds about 1 MB to the benchmark's peak memory
    code = """if True:
        import sys
        from robinwall import *
        table1_harness(fields=(1e-3,), ensembles=("be",))
        spec = SweepSpec(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-5),
                         EnsembleSpec(Statistics.BOSE_EINSTEIN, 1000), 0.3, 1.8, 200,
                         log_grid=True, normalize_by_tcr=True)
        result_to_json(run_sweep(spec))
        print("numpy.ma" in sys.modules)
    """
    src = str(Path(robinwall.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
