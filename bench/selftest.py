"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/selftest.py

Tiny runs of every workload must print every metric BENCHMARK.json names,
with its unit; the output checks must reject corrupted outputs; and the
harness must refuse to run without the package sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from checks import (LAB_REPORTS, check_cli_pass, check_detection,  # noqa: E402
                    check_lab_reports, check_table)
from sharkfin import detector, lab, presets, renewal  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", SEED, "--seconds", 0,
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if trace:
        total = sum(values[f"{layer}.self_s"] for layer in LAYERS) + values["other.self_s"]
        assert total == pytest.approx(values["trace.wall_s"], rel=1e-2)
    else:
        assert all(values[m] > 0 for m in wanted)
        assert "ops_failed_frac" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run_bench("--workload", "power_study", "--seed", SEED, "--seconds", 1,
                     cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# output checks on corrupted outputs

H_SET = (10.0, 20.0)


@pytest.fixture(scope="module")
def table():
    return detector.simulate_threshold(100.0, H_SET, 1.0, 0.05, 200, seed=1)


def test_table_check(table):
    assert check_table(table, H_SET) == []
    assert check_table(dataclasses.replace(table, Q=math.nan), H_SET)
    assert check_table(dataclasses.replace(table, Q=0.5 * table.Q), H_SET)
    assert check_table(table, (10.0,))


def test_detection_check(table):
    model = presets.SHARK_WEST
    small = renewal.ChangePointModel(model.phi1, model.phi2, 50.0, 100.0, n=4)
    seq = renewal.simulate_compound(small, 3)
    result = detector.detect(seq, 100.0, 4, H_SET, table)
    assert result.reject and check_detection(result, H_SET, expect_reject=True) == []
    flipped = dataclasses.replace(result, reject=False)
    assert check_detection(flipped, H_SET, expect_reject=False)
    cp = result.change_points[0]
    twins = (cp, cp._replace(location=cp.location + cp.h / 2))
    assert check_detection(dataclasses.replace(result, change_points=twins),
                           H_SET, expect_reject=True)
    weak = (cp._replace(value=0.5 * result.Q),)
    assert check_detection(dataclasses.replace(result, change_points=weak),
                           H_SET, expect_reject=True)
    unrejected = dataclasses.replace(result, reject=False, global_max=0.0,
                                     change_points=())
    assert check_detection(unrejected, H_SET, expect_reject=True)


def test_lab_report_check():
    reports = [lab.LabReport(name, 1, [1], metrics={"m": [0.1, 0.2]})
               for name in LAB_REPORTS]
    assert not any(check_lab_reports(reports).values())
    reports[0].metrics["m"] = [0.1, math.nan]
    problems = check_lab_reports(reports)
    assert problems[LAB_REPORTS[0]] and not any(problems[n] for n in LAB_REPORTS[1:])
    problems = check_lab_reports(reports[1:])
    assert problems[LAB_REPORTS[0]]


def _cli_pass(tmp_path, location=500.0):
    (tmp_path / "detection.json").write_text(json.dumps(
        {"reject": True, "change_points": [{"location": location, "h": 50.0}]}))
    codes = dict.fromkeys(("simulate", "threshold", "detect", "theory"), 0)
    stdout = {"threshold": "wrote threshold table to x\n",
              "detect": "threshold cache hit: x\nreject=True\n"}
    return codes, stdout


def test_cli_pass_check(tmp_path):
    codes, stdout = _cli_pass(tmp_path)
    assert not any(check_cli_pass(codes, stdout, tmp_path).values())

    missed = dict(stdout, detect="wrote threshold table to x\n")
    assert check_cli_pass(codes, missed, tmp_path)["detect"]

    assert check_cli_pass(dict(codes, theory=2), stdout, tmp_path)["theory"]

    codes, stdout = _cli_pass(tmp_path, location=600.0)
    assert check_cli_pass(codes, stdout, tmp_path)["detect"]


def test_tracer_restores_bindings():
    from sharkfin import cli, filtered
    originals = (detector.G_process, cli.detect, lab.s_hat, renewal.RenewalSpec.draw)
    tracer = Tracer()
    tracer.install()
    try:
        assert detector.G_process is not originals[0]
        assert detector.G_process is filtered.G_process
        renewal.simulate_renewal(renewal.RenewalSpec.gamma(1, 1), 10.0, 0)
        detector.simulate_threshold(100.0, H_SET, 1.0, 0.05, 200, seed=1)
    finally:
        tracer.uninstall()
    assert (detector.G_process, cli.detect, lab.s_hat,
            renewal.RenewalSpec.draw) == originals
    names = [s[2] for s in tracer.spans]
    assert names[:2] == ["renewal.simulate_renewal", "renewal.draw"]
    threshold = next(s for s in tracer.spans if s[2] == "detector.simulate_threshold")
    assert threshold[6]["paths"] == 200 and threshold[6]["bytes"] > 0
