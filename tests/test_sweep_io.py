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

# (ensemble, N, field) -> (t_found, c_found) of every Table 1 cell as
# computed before the batched engine, one lane at a time
RECORDED_TABLE1 = {
    ("canonical", 1, 0.001): (0.2503985958728186, 7.8143036908953665),
    ("canonical", 1, 0.0001): (0.17497893721337487, 13.154183926647773),
    ("canonical", 1, 1e-05): (0.13244922990578753, 20.538115596044562),
    ("canonical", 1, 1e-06): (0.10559972492504667, 30.093384173032717),
    ("canonical", 1, 1e-07): (0.08732157029340377, 41.909692599328146),
    ("fd", 1, 0.001): (0.21811202366139865, 6.2941214369299345),
    ("fd", 2, 0.001): (0.26047099872936397, 3.873599326151286),
    ("fd", 5, 0.001): (0.3350090894103763, 2.219167800379727),
    ("fd", 10, 0.001): (0.4080408370665057, 1.7666179507754118),
    ("fd", 1, 0.0001): (0.1593198166829989, 10.163847472272304),
    ("fd", 2, 0.0001): (0.1807528403516024, 6.027542705461776),
    ("fd", 5, 0.0001): (0.21627814412781962, 3.0061822945965497),
    ("fd", 10, 0.0001): (0.2468428426815223, 2.1220546214078437),
    ("fd", 1, 1e-05): (0.1239202490156553, 15.416215209324994),
    ("fd", 2, 1e-05): (0.1363765661511254, 9.034810164305007),
    ("fd", 5, 1e-05): (0.15659412360894034, 4.1530664234723265),
    ("fd", 10, 1e-05): (0.1730933455257945, 2.65016002209996),
    ("fd", 1, 1e-06): (0.10050327307753204, 22.144974867863453),
    ("fd", 2, 1e-06): (0.10844959514457429, 12.95692182912275),
    ("fd", 5, 1e-06): (0.12123066313957628, 5.694396165350094),
    ("fd", 10, 1e-06): (0.13135697872497576, 3.375286390909886),
    ("fd", 1, 1e-07): (0.08404488878042511, 30.41680165131893),
    ("fd", 2, 1e-07): (0.08947130829158077, 17.837350037356984),
    ("fd", 5, 1e-07): (0.09815883835524006, 7.652755643224092),
    ("fd", 10, 1e-07): (0.10490937632411672, 4.31162290212119),
    ("be", 1, 0.001): (0.28138428058549586, 8.122870061676862),
    ("be", 2, 0.001): (0.3051627955296046, 8.19844097716755),
    ("be", 5, 0.001): (0.35733830375588216, 8.11429241196861),
    ("be", 10, 0.001): (0.4179244058725814, 7.827770378764333),
    ("be", 1000, 0.001): (2.3162386838802282, 3.9345499043319454),
    ("be", 100000, 0.001): (30.801015306629736, 2.3610759528976892),
    ("be", 1, 0.0001): (0.1906262921076221, 14.012035807379181),
    ("be", 2, 0.0001): (0.2023512433778243, 14.363382812815198),
    ("be", 5, 0.0001): (0.2271481578146795, 14.599606955581951),
    ("be", 10, 0.0001): (0.2545282540746304, 14.39089653853778),
    ("be", 1000, 0.0001): (0.891475997751564, 6.922103567592826),
    ("be", 100000, 0.0001): (7.954337795521275, 2.9899909934247484),
    ("be", 1, 1e-05): (0.14146119238493612, 22.334002581088058),
    ("be", 2, 1e-05): (0.1481229182795717, 23.216382118238815),
    ("be", 5, 1e-05): (0.1618610130448835, 24.222927225438777),
    ("be", 10, 1e-05): (0.1764825302222593, 24.463374454877716),
    ("be", 1000, 1e-05): (0.4399240599501969, 13.191924350905081),
    ("be", 100000, 1e-05): (2.4146428164079263, 4.44716854965623),
    ("be", 1, 1e-06): (0.11130615141087247, 33.25132145371016),
    ("be", 2, 1e-06): (0.11549429359413477, 34.95021197684572),
    ("be", 5, 1e-06): (0.12398795097208169, 37.24917219343425),
    ("be", 10, 1e-06): (0.13279966390663966, 38.400014216348794),
    ("be", 1000, 1e-06): (0.2644278196108018, 24.50462598643352),
    ("be", 100000, 1e-06): (0.9228019331093149, 7.786132617246939),
    ("be", 1, 1e-07): (0.09119713428901297, 46.87541928275072),
    ("be", 2, 1e-07): (0.09403160270397948, 49.694076613641656),
    ("be", 5, 1e-07): (0.09971524784643863, 53.84731803095919),
    ("be", 10, 1e-07): (0.10550674896428319, 56.4157512580681),
    ("be", 1000, 1e-07): (0.18145108146244407, 42.09564936848552),
    ("be", 100000, 1e-07): (0.45131780804763905, 14.828196348125633),
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
        # batching changes only the order of the arithmetic: every peak
        # height agrees to 1e-8.  The peak temperature is Brent's point, set
        # to its 1e-6 tolerance in beta: in the flattest cells the last
        # comparisons of Brent's search are decided by the ~1e-13 noise of
        # the particle-number solve, which depends on where the solve
        # started, so t agrees to that tolerance (measured: 2.8e-7 at
        # fd N=10, F=1e-7, below 1e-8 in every other cell)
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
    ], ids=["predict-zero", "predict-negative", "sweep-canonical-many", "table1-fields"])
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
