"""Tiny end-to-end runs of every workload through run.py."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

RUN = os.path.join(BENCH, "run.py")
END_TO_END = {"setup_s", "run_s", "peak_rss_mb", "err_over_tol"}


def _run(*extra, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, "--seconds", "0.5", "--smoke", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc["metrics"]


@pytest.mark.parametrize("workload", ["table1", "sweeps", "spectra"])
def test_end_to_end_run(workload):
    metrics = _result(_run("--workload", workload, "--seed", "7"))
    assert set(metrics) == END_TO_END
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["err_over_tol"]["value"] < 1.0


@pytest.mark.parametrize("workload", ["table1", "sweeps", "spectra"])
def test_traced_run_reports_every_layer_metric_and_repeats_counts(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    first = _result(_run("--workload", workload, "--seed", "3", "--trace", "1"))
    second = _result(_run("--workload", workload, "--seed", "3", "--trace", "1"))
    assert set(first) == names
    for name in names:
        if first[name]["unit"] == "count":
            assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "{" not in done.stdout
