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
        # a solver failure inside a row is recorded, not fatal; the sweep
        # then exits nonzero
        import robinwall.sweep as sweep_mod
        from robinwall.errors import SolverError

        def boom(*args, **kwargs):
            raise SolverError("synthetic row failure")

        monkeypatch.setattr(sweep_mod.gc, "gc_point", boom)
        out = tmp_path / "bad.csv"
        rc = main(["sweep", "--wall", "robin-", "--field", "1e-4",
                   "--ensemble", "fd", "--particles", "2",
                   "--beta-inv-min", "0.1", "--beta-inv-max", "0.3",
                   "--points", "4", "--out", str(out)])
        assert rc == 3
        text = out.read_text()
        assert "synthetic row failure" in text
        assert "error" in text.splitlines()[-2] or "error" in text

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
