import json
import math
import re

import numpy as np
import pytest

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

    def test_normalize_requires_bose(self):
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.1,
                      beta_inv_max=1.0, points=5, normalize_by_tcr=True)
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=EnsembleSpec(Statistics.FERMI_DIRAC, 2),
                      beta_inv_min=0.1, beta_inv_max=1.0, points=5,
                      normalize_by_tcr=True)

    def test_output_names_validated(self):
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.1,
                      beta_inv_max=1.0, points=5, outputs=("entropy",))


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

    def test_output_selection(self):
        spec = SweepSpec(wall=ATTR, ensemble=CANONICAL, beta_inv_min=0.1,
                         beta_inv_max=1.0, points=5,
                         outputs=("heat_capacity",))
        result = run_sweep(spec)
        assert all(r.mean_energy is None for r in result.rows)
        assert all(r.heat_capacity is not None for r in result.rows)

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
        # to 1e-8.  The peak temperature is Brent's point, set to its 1e-6
        # tolerance in beta: in the flattest cells the last comparisons of
        # Brent's search are decided by the ~1e-13 noise of the
        # particle-number solve, which depends on where the solve started,
        # so t agrees to that tolerance (seen: 2.8e-7 at fd N=10, F=1e-7,
        # when the batched engine replaced one lane at a time).  Anchoring
        # the tail law on the last root moved the cells by up to 8.4e-5
        # (c) and 4.8e-5 (t) relative at F = 1e-3, the field where the old
        # first-order shift was worst
        report = table1_harness()
        assert len(report.cells) == len(RECORDED_TABLE1)
        for cell in report.cells:
            t, c = RECORDED_TABLE1[cell.ensemble, cell.n_particles, cell.field]
            assert cell.c_found == pytest.approx(c, rel=1e-8, abs=0.0)
            assert cell.t_found == pytest.approx(t, rel=1e-6, abs=0.0)

    def test_evaluator_batches_per_round(self, monkeypatch):
        # each (ensemble, field) block of the table is one locate_peak call:
        # one batch scans all its cells, then each Brent pass is one batch
        # over every refinement still open.  One cell and one point at a
        # time took 454 batches a round (55 scans, 399 Brent points); now
        # 137 (15 blocks, 122 passes).  Fewer, say <= 60, would need lanes
        # across fields, but one ladder batch serves one spectrum, so a
        # per-block lockstep cannot reach it.
        import robinwall.sweep as sweep_mod
        counts = {"blocks": 0, "batches": 0}

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sweep_mod.gc._Evaluator, "__call__",
                            counting(sweep_mod.gc._Evaluator.__call__, "batches"))
        monkeypatch.setattr(sweep_mod, "thermo_point",
                            counting(sweep_mod.thermo_point, "batches"))
        monkeypatch.setattr(sweep_mod, "locate_peak", counting(sweep_mod.locate_peak, "blocks"))
        assert table1_harness().passed
        assert counts["blocks"] == 15
        assert counts["batches"] <= 180
        assert counts["batches"] - counts["blocks"] <= 130  # Brent passes

    def test_ladder_calls_per_round(self, monkeypatch):
        # work-count gate on the mu solves: 35 canonical calls, and one
        # call per lockstep Newton pass.  Cold scans start from the two-term
        # balance (in Bose statistics for bosons) and Brent's points from
        # the cubic Hermite through their cell's solved states and slopes:
        # 268 calls.  A Boltzmann continuum and linear hints took 378.
        from robinwall import canonical
        import robinwall.sweep as sweep_mod
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(args[2])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sweep_mod.gc, "ladder_sums", counting(sweep_mod.gc.ladder_sums))
        monkeypatch.setattr(canonical, "ladder_sums", counting(canonical.ladder_sums))
        assert table1_harness().passed
        assert calls.count(Statistics.CANONICAL) == 35
        assert len(calls) <= 290

    def test_kernel_passes_per_round(self, monkeypatch):
        # work-count gate on the ladder: each lane group of a table1 round
        # (478 groups) evaluates its kernels once for its root block, once
        # for its closure nodes with their end stencils, and once per block
        # of its direct windows: 1,078 passes.  With the closure integral,
        # each end correction and each direct block evaluated apart it took
        # 1,943, and with the mu solves' older starts 1,350.
        from robinwall import ladder
        passes = []
        summands = ladder._summands

        def counting(x, *args):
            passes.append(x.size)
            return summands(x, *args)

        monkeypatch.setattr(ladder, "_summands", counting)
        assert table1_harness().passed
        assert len(passes) <= 1_150

    @pytest.mark.parametrize("ensemble", ["fd", "be"])
    def test_block_matches_its_cells_alone(self, ensemble):
        # a block's cells refined together take the peaks each cell finds
        # alone: every lane's mu solve starts from its own cell's states, so
        # each Brent path is the sequential one up to batch rounding
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

    def test_block_of_mixed_statistics_rejected(self):
        # one block is one statistics: a canonical first cell does not make
        # the others canonical
        sp = build_spectrum(WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3))
        fd = EnsembleSpec(Statistics.FERMI_DIRAC, 2)
        for block in ([CANONICAL, fd], [fd, CANONICAL],
                      [fd, EnsembleSpec(Statistics.BOSE_EINSTEIN, 2)]):
            with pytest.raises(DomainError):
                locate_peak(sp, block, [0.25, 0.25])

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
    ], ids=["last-ensemble", "last-field"])
    def test_bad_last_entry_rejected_before_any_block(self, kwargs, monkeypatch):
        # every name and field is checked before a spectrum is built or a
        # block is computed
        import robinwall.sweep as sweep_mod
        calls = []
        for name in ("locate_peak", "build_spectrum"):
            monkeypatch.setattr(sweep_mod, name, lambda *a, name=name, **k: calls.append(name))
        with pytest.raises(DomainError):
            table1_harness(**kwargs)
        assert calls == []

    @pytest.mark.parametrize("kwargs", [
        {"fields": ()}, {"ensembles": ()},
        *({"tol": tol} for tol in (math.inf, math.nan, -1.0, 0.0)),
    ], ids=["no-field", "no-ensemble", "tol-inf", "tol-nan", "tol-negative", "tol-zero"])
    def test_empty_selection_or_bad_tol_rejected(self, kwargs):
        # an empty report or an infinite tolerance would pass every cell
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

    def test_predict(self, capsys):
        assert main(["predict", "--field", "1e-5", "--particles", "4"]) == 0
        text = capsys.readouterr().out
        assert "condensation" in text and "plateau" in text

    def test_table1_subset(self, capsys):
        rc = main(["table1", "--fields", "1e-3", "--ensembles", "canonical"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "pass" in text and "FAIL" not in text

    def test_table1_failure_exit_code(self, capsys):
        # an absurd tolerance makes every cell fail -> regression exit code
        rc = main(["table1", "--fields", "1e-3", "--ensembles", "canonical",
                   "--tol", "1e-9"])
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
        ladder = gc.ladder_sums
        passes = []

        def failing_lane(spectrum, beta, *args, **kwargs):
            passes.append(np.size(beta))
            sums = ladder(spectrum, beta, *args, **kwargs)
            return tuple(np.where(beta == bad_beta, np.nan, s) for s in sums)

        monkeypatch.setattr(gc, "ladder_sums", failing_lane)
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
        ["table1", "--fields", "abc"],
        *(["sweep", "--wall", "robin-", "--field", "1e-3", "--beta-inv-min", lo,
           "--beta-inv-max", hi, "--points", "5"]
          for lo, hi in (("0.1", "inf"), ("0.1", "1e400"), ("1e-320", "1"))),
        *(["table1", "--fields", "1e-3", "--tol", tol] for tol in ("inf", "nan", "-1", "0")),
        ["table1", "--ensembles", ","],
        ["table1", "--ensembles", "be,xx"],
        ["table1", "--fields", "1e-3,2e-3"],
        ["sweep", "--wall", "robin-", "--field", "1e-3", "--beta-inv-min", "0.1",
         "--beta-inv-max", "1", "--points", "5", "--out", UNWRITABLE],
        ["spectrum", "--wall", "robin-", "--field", "1e-3", "--out", UNWRITABLE],
        ["table1", "--fields", "1e-3", "--ensembles", "canonical", "--out", UNWRITABLE],
    ], ids=["predict-zero", "predict-negative", "sweep-canonical-many", "table1-fields",
            "sweep-max-inf", "sweep-max-1e400", "sweep-min-1e-320",
            "table1-tol-inf", "table1-tol-nan", "table1-tol-negative", "table1-tol-zero",
            "table1-no-ensemble", "table1-bad-last-ensemble", "table1-bad-last-field",
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

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        assert "selftest: 7/7 checks passed" in capsys.readouterr().out

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

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
