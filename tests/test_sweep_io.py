import json
import math

import numpy as np
import pytest

from robinwall.cli import main
from robinwall.errors import DomainError
from robinwall.grand_canonical import EnsembleSpec, Statistics
from robinwall.reference_values import (
    TABLE1,
    TABLE1_BE_N,
    TABLE1_FD_N,
    TABLE1_FIELDS,
    TOLERANCE,
)
from robinwall.spectrum import WallKind, WallSpec
from robinwall.sweep import (
    SweepSpec,
    ensemble_spec,
    result_from_json,
    result_to_csv,
    result_to_json,
    run_sweep,
    table1_harness,
)

ATTR = WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-3)

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
    return SweepSpec(wall=ATTR, ensemble=None, beta_inv_min=0.02,
                     beta_inv_max=20.0, points=points, log_grid=True)


def bose_spec():
    return SweepSpec(wall=WallSpec(WallKind.ROBIN_ATTRACTIVE, 1e-5),
                     ensemble=EnsembleSpec(Statistics.BOSE_EINSTEIN, 1000),
                     beta_inv_min=0.3, beta_inv_max=1.8, points=60,
                     log_grid=True, normalize_by_tcr=True)


class TestSweepSpec:
    def test_ensemble_names(self):
        assert ensemble_spec("canonical", 1) is None
        assert ensemble_spec("fd", 3) == EnsembleSpec(Statistics.FERMI_DIRAC, 3)
        assert ensemble_spec("be", 1000) == EnsembleSpec(Statistics.BOSE_EINSTEIN, 1000)
        for name, n in (("canonical", 7), ("classical", 1), ("be", 0)):
            with pytest.raises(DomainError):
                ensemble_spec(name, n)

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=None, beta_inv_min=2.0,
                      beta_inv_max=1.0, points=10)
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=None, beta_inv_min=0.1,
                      beta_inv_max=1.0, points=1)

    def test_normalize_requires_bose(self):
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=None, beta_inv_min=0.1,
                      beta_inv_max=1.0, points=5, normalize_by_tcr=True)
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=EnsembleSpec(Statistics.FERMI_DIRAC, 2),
                      beta_inv_min=0.1, beta_inv_max=1.0, points=5,
                      normalize_by_tcr=True)

    def test_output_names_validated(self):
        with pytest.raises(DomainError):
            SweepSpec(wall=ATTR, ensemble=None, beta_inv_min=0.1,
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
        spec = SweepSpec(wall=ATTR, ensemble=None, beta_inv_min=0.5,
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
        spec = SweepSpec(wall=ATTR, ensemble=None, beta_inv_min=0.1,
                         beta_inv_max=1.0, points=5,
                         outputs=("heat_capacity",))
        result = run_sweep(spec)
        assert all(r.mean_energy is None for r in result.rows)
        assert all(r.heat_capacity is not None for r in result.rows)

    def test_linear_grid(self):
        spec = SweepSpec(wall=ATTR, ensemble=None, beta_inv_min=0.1,
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

    def test_csv_and_json_carry_identical_numbers(self):
        result = run_sweep(canonical_spec(points=25))
        doc = json.loads(result_to_json(result))
        lines = [ln for ln in result_to_csv(result).splitlines()
                 if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        for row_doc, line in zip(doc["rows"], lines[1:]):
            cells = line.split(",")
            for name, cell in zip(header, cells):
                if cell == "":
                    assert name not in row_doc
                    continue
                assert float(cell) == row_doc[name]

    def test_csv_header_block(self):
        text = result_to_csv(run_sweep(canonical_spec(points=25)))
        head = [ln for ln in text.splitlines() if ln.startswith("#")]
        assert any("field = 0.001" in ln for ln in head)
        assert any("ensemble = canonical" in ln for ln in head)

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

    def test_deterministic(self):
        a = table1_harness(fields=(1e-4,), ensembles=("canonical",))
        b = table1_harness(fields=(1e-4,), ensembles=("canonical",))
        assert a.as_text() == b.as_text()
        assert a == b

    def test_unknown_ensemble_rejected(self):
        with pytest.raises(DomainError):
            table1_harness(ensembles=("classical",))

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

    def test_sweep_batch_failure_fails_every_row(self, monkeypatch, tmp_path):
        # an error raised for the whole batch is recorded in every row
        import robinwall.sweep as sweep_mod
        from robinwall.errors import SolverError

        def boom(*args, **kwargs):
            raise SolverError("synthetic batch failure")

        monkeypatch.setattr(sweep_mod.gc, "gc_point", boom)
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
    ], ids=["predict-zero", "predict-negative", "sweep-canonical-many", "table1-fields",
            "sweep-max-inf", "sweep-max-1e400", "sweep-min-1e-320"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_specification_exit_code(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("specification error: ")
        assert captured.err.count("\n") == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
