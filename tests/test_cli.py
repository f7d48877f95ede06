import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sharkfin.cli import main
from sharkfin.detector import simulate_threshold
from sharkfin.lab import DEFAULT_SUITE_SEED


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """run's return value, or the code of the SystemExit argparse raises."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


def read_csv(path, skip=2):
    return np.loadtxt(path, delimiter=",", skiprows=skip)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_deterministic_rerun(tmp_path):
    args = ("simulate", "--p1", 1, "--l1", 1, "--p2", 1, "--l2", 20,
            "--c", 500, "--T", 1000, "--seed", 7, "--out-dir", tmp_path)
    assert run(*args) == 0
    first = (tmp_path / "events.txt").read_bytes()
    assert run(*args) == 0
    assert (tmp_path / "events.txt").read_bytes() == first
    sidecar = json.loads((tmp_path / "model.json").read_text())
    assert sidecar["c"] == 500 and sidecar["seed"] == 7


def test_simulate_zero_horizon(tmp_path):
    assert run("simulate", "--p1", 1, "--l1", 1, "--T", 0,
               "--out-dir", tmp_path) == 0
    lines = (tmp_path / "events.txt").read_text().splitlines()
    assert lines == ["# horizon=0.0"]


def test_simulate_invalid_rate(tmp_path, capsys):
    assert run("simulate", "--p1", 1, "--l1", 0, "--T", 100,
               "--out-dir", tmp_path) != 0
    assert "rate" in capsys.readouterr().err


def test_simulate_incomplete_change_spec(tmp_path):
    assert run("simulate", "--p1", 1, "--l1", 1, "--p2", 1, "--T", 100,
               "--out-dir", tmp_path) != 0


# ---------------------------------------------------------------------------
# threshold


def test_threshold_cache_roundtrip(tmp_path, capsys):
    args = ("threshold", "--T", 1000, "--h", 150, "--delta", 5,
            "--alpha", 0.05, "--n-sims", 500, "--seed", 3, "--out-dir", tmp_path)
    assert run(*args) == 0
    out1 = capsys.readouterr().out
    assert "wrote threshold table" in out1
    assert run(*args) == 0
    out2 = capsys.readouterr().out
    assert "cache hit" in out2
    # same Q reported on both runs
    assert out1.splitlines()[-1] == out2.splitlines()[-1]


def test_threshold_invalid_alpha(tmp_path, capsys):
    assert run("threshold", "--T", 1000, "--h", 150, "--alpha", 1.5,
               "--n-sims", 500, "--out-dir", tmp_path) != 0
    assert "alpha" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# detect


@pytest.fixture()
def table_file(tmp_path):
    assert run("threshold", "--T", 1000, "--h", 150, "--delta", 5,
               "--alpha", 0.05, "--n-sims", 2000, "--seed", 3,
               "--out-dir", tmp_path) == 0
    (cached,) = (tmp_path / "thresholds").glob("q_*.json")
    return cached


def test_detect_strong_change(tmp_path, table_file):
    assert run("simulate", "--p1", 1, "--l1", 1, "--p2", 1, "--l2", 20,
               "--c", 500, "--T", 1000, "--seed", 9, "--out-dir", tmp_path) == 0
    assert run("detect", "--input", tmp_path / "events.txt",
               "--table", table_file, "--h", 150, "--out-dir", tmp_path) == 0
    result = json.loads((tmp_path / "detection.json").read_text())
    assert result["reject"] is True
    primary = max(result["change_points"], key=lambda cp: abs(cp["value"]))
    assert abs(primary["location"] - 500.0) <= 30.0
    series_path = tmp_path / "G_h150.csv"
    assert series_path.exists()
    data = read_csv(series_path)
    assert data.shape[1] == 3


def test_detect_null_sample(tmp_path, table_file):
    assert run("simulate", "--p1", 1, "--l1", 1, "--T", 1000, "--seed", 4,
               "--out-dir", tmp_path) == 0
    assert run("detect", "--input", tmp_path / "events.txt",
               "--table", table_file, "--h", 150, "--out-dir", tmp_path) == 0
    result = json.loads((tmp_path / "detection.json").read_text())
    assert set(result) == {"reject", "Q", "global_max", "change_points", "series"}


def test_detect_malformed_events(tmp_path, table_file, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# horizon=1000\n1.0\n0.5\n")
    assert run("detect", "--input", bad, "--table", table_file,
               "--h", 150, "--out-dir", tmp_path) != 0
    assert "line 3" in capsys.readouterr().err


def test_detect_rejects_nan_threshold_table(tmp_path, table_file, capsys):
    # NaN parses as JSON; compared against it the test would never reject
    d = json.loads(table_file.read_text())
    d["Q"] = float("nan")
    bad = tmp_path / "nan_table.json"
    bad.write_text(json.dumps(d))
    assert run("simulate", "--p1", 1, "--l1", 1, "--p2", 1, "--l2", 20,
               "--c", 500, "--T", 1000, "--seed", 9, "--out-dir", tmp_path) == 0
    assert run("detect", "--input", tmp_path / "events.txt", "--table", bad,
               "--h", 150, "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert "nan_table.json" in err and "Q must be finite" in err
    assert not (tmp_path / "detection.json").exists()


def test_detect_rejects_unversioned_threshold_table(tmp_path, table_file, capsys):
    # a table written before tables were versioned may come from other code
    d = json.loads(table_file.read_text())
    del d["version"]
    old = tmp_path / "old_table.json"
    old.write_text(json.dumps(d))
    assert run("simulate", "--p1", 1, "--l1", 1, "--T", 1000, "--seed", 4,
               "--out-dir", tmp_path) == 0
    assert run("detect", "--input", tmp_path / "events.txt", "--table", old,
               "--h", 150, "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert "old_table.json" in err and "version" in err
    assert not (tmp_path / "detection.json").exists()


def test_detect_table_refuses_a_different_delta(tmp_path, table_file, capsys):
    # the table was built at delta 5; its own grid step is what detect uses
    assert run("simulate", "--p1", 1, "--l1", 1, "--T", 1000, "--seed", 4,
               "--out-dir", tmp_path) == 0
    args = ("detect", "--input", tmp_path / "events.txt", "--table", table_file,
            "--h", 150, "--out-dir", tmp_path)
    assert run(*args, "--delta", 3) == 2
    err = capsys.readouterr().err
    assert table_file.name in err and "5.0" in err and "3.0" in err
    assert not (tmp_path / "detection.json").exists()
    assert run(*args, "--delta", 5) == 0


def test_detect_missing_input(tmp_path, capsys):
    assert run("detect", "--out-dir", tmp_path) != 0
    assert "input" in capsys.readouterr().err


def test_detect_builds_and_caches_table_when_absent(tmp_path, capsys):
    assert run("simulate", "--p1", 1, "--l1", 1, "--T", 1000, "--seed", 6,
               "--out-dir", tmp_path) == 0
    args = ("detect", "--input", tmp_path / "events.txt", "--h", 150,
            "--delta", 5, "--n-sims", 500, "--seed", 2, "--out-dir", tmp_path)
    assert run(*args) == 0
    assert "wrote threshold table" in capsys.readouterr().out
    assert run(*args) == 0
    assert "cache hit" in capsys.readouterr().out


def test_detect_refuses_cached_table_that_does_not_match_its_key(tmp_path, capsys):
    assert run("simulate", "--p1", 1, "--l1", 1, "--T", 1000, "--seed", 6,
               "--out-dir", tmp_path) == 0
    args = ("detect", "--input", tmp_path / "events.txt", "--h", 150,
            "--delta", 5, "--n-sims", 500, "--seed", 2, "--out-dir", tmp_path)
    assert run(*args) == 0
    assert "wrote threshold table" in capsys.readouterr().out
    (cached,) = (tmp_path / "thresholds").glob("q_*.json")
    untouched = cached.read_text()
    assert run(*args) == 0
    assert "cache hit" in capsys.readouterr().out
    d = json.loads(untouched)
    d.update(grid_step=3.0, alpha=0.5)
    cached.write_text(json.dumps(d))
    (tmp_path / "detection.json").unlink()
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert cached.name in err and "key" in err
    assert not (tmp_path / "detection.json").exists()


# ---------------------------------------------------------------------------
# theory


def test_theory_default_reproduces_strong_change_curve(tmp_path):
    assert run("theory", "--out-dir", tmp_path) == 0
    path = tmp_path / "theory.csv"
    header = path.read_text().splitlines()[1]
    assert header == "t,m,s,lambda,delta,distorted_lambda"
    data = read_csv(path)
    t, lam = data[:, 0], data[:, 3]
    peak = t[np.argmax(np.abs(lam))]
    assert peak == 500.0
    assert np.abs(lam).max() == pytest.approx(50.7796, abs=5e-4)


# sha256 of the default theory.csv (SHARK_WEST at h = 150, delta = h/50)
_THEORY_CSV_SHA256 = "eea85ce8c83445c7dad0f9e28abf87762ed21f4c217ce45f28e809754fd9ef1e"


def test_theory_defaults_write_identical_csv(tmp_path):
    assert run("theory", "--out-dir", tmp_path / "default") == 0
    assert run("theory", "--p1", 1, "--l1", 1, "--p2", 1, "--l2", 20, "--c", 500,
               "--T", 1000, "--h", 150, "--n", 1, "--out-dir", tmp_path / "flags") == 0
    body = (tmp_path / "default" / "theory.csv").read_bytes()
    assert body == (tmp_path / "flags" / "theory.csv").read_bytes()
    assert hashlib.sha256(body).hexdigest() == _THEORY_CSV_SHA256


def test_theory_flat_model(tmp_path):
    assert run("theory", "--p2", 1, "--l2", 1, "--out-dir", tmp_path) == 0
    data = read_csv(tmp_path / "theory.csv")
    assert np.all(data[:, 3] == 0.0)          # lambda identically zero
    assert np.allclose(data[:, 4], 1.0)       # distortion identically one


def test_theory_distortion_band(tmp_path):
    assert run("theory", "--p1", 1, "--l1", 5, "--p2", 0.25, "--l2", 5,
               "--out-dir", tmp_path) == 0
    data = read_csv(tmp_path / "theory.csv")
    delta = data[:, 4]
    assert np.all((delta >= 0.75) & (delta <= 1.25))
    assert np.abs(delta - 1.0).max() > 0.01


# ---------------------------------------------------------------------------
# verify and config handling


def test_verify_smoke(tmp_path, monkeypatch):
    # macOS and Windows have no os.sched_getaffinity; one process per CPU then
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert run("verify", "--scale", "smoke", "--out-dir", tmp_path) == 0
    assert multiprocessing.active_children() == []
    reports = json.loads((tmp_path / "lab_reports.json").read_text())
    assert len(reports) == 6
    assert all(r["passed"] for r in reports)
    assert (tmp_path / "lab_summary.txt").read_text().count("[PASS]") == 6
    assert {r["seed"] for r in reports} == {DEFAULT_SUITE_SEED}


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p1": 1, "l1": 1, "T": 50, "seed": 5}))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run("simulate", "--config", cfg, "--out-dir", out_a) == 0
    assert run("simulate", "--config", cfg, "--T", 25, "--out-dir", out_b) == 0
    head_a = (out_a / "events.txt").read_text().splitlines()[0]
    head_b = (out_b / "events.txt").read_text().splitlines()[0]
    assert head_a == "# horizon=50.0"
    assert head_b == "# horizon=25.0"


def test_config_keys_must_be_flags_of_the_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2, "hh": 100}))
    assert run("theory", "--config", cfg, "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert "workers" in err and "hh" in err and cfg.name in err
    assert not (tmp_path / "theory.csv").exists()
    # h is a flag of detect and theory, not of simulate
    cfg.write_text(json.dumps({"p1": 1, "l1": 1, "T": 50, "h": 150}))
    assert run("simulate", "--config", cfg, "--out-dir", tmp_path) == 2
    assert "'h'" in capsys.readouterr().err
    assert not (tmp_path / "events.txt").exists()


def test_config_scalar_h_for_detect(tmp_path, capsys):
    assert run("simulate", "--p1", 1, "--l1", 1, "--T", 1000, "--seed", 6,
               "--out-dir", tmp_path) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 150, "delta": 5, "n_sims": 500, "seed": 2}))
    assert run("detect", "--config", cfg, "--input", tmp_path / "events.txt",
               "--out-dir", tmp_path) == 0
    assert (tmp_path / "G_h150.csv").exists()
    # the same table as the flags name
    assert run("detect", "--input", tmp_path / "events.txt", "--h", 150, "--delta", 5,
               "--n-sims", 500, "--seed", 2, "--out-dir", tmp_path) == 0
    assert "cache hit" in capsys.readouterr().out


@pytest.mark.parametrize("command, cfg, flag", [
    ("simulate", {"p1": 1, "l1": 1, "T": 10, "n": 2.7}, "--n"),
    ("simulate", {"p1": 1, "l1": 1, "T": 10, "seed": 1.9}, "--seed"),
    ("simulate", {"p1": 1, "l1": 1, "T": 10, "n": True}, "n"),
    ("verify", {"scale": "huge"}, "--scale"),
], ids=["float_n", "float_seed", "bool_n", "unknown_scale"])
def test_config_values_are_refused_where_their_flag_text_is(tmp_path, capsys,
                                                            command, cfg, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(command, "--config", path, "--out-dir", tmp_path) == 2
    err = capsys.readouterr().err
    assert flag in err and path.name in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("argv", [
    ("theory", "--delta", 0),
    ("theory", "--delta", -5),
    ("theory", "--delta", "nan"),
    ("detect", "--input", "events.txt", "--n", 0),
    ("simulate", "--p1", 1, "--l1", 1, "--T", 10, "--n", 0),
    ("theory", "--config", {"n": -2}),
], ids=["theory_delta_0", "theory_delta_negative", "theory_delta_nan", "detect_n_0",
        "simulate_n_0", "config_n"])
def test_non_positive_n_delta_workers_refused_when_parsing(tmp_path, capsys, argv):
    if isinstance(argv[-1], dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(argv[-1]))
        argv = (*argv[:-1], path)
    assert exit_code(*argv, "--out-dir", tmp_path / "out") == 2
    assert "invalid positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "threshold", "detect", "theory",
                                     "verify"])
def test_workers_refused_by_commands_that_do_not_read_it(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, "--workers", 2)
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_threshold_and_detect_pool_the_table_of_the_in_process_build(tmp_path, capsys,
                                                                     monkeypatch):
    # three blocks, so a pool wherever there is more than one CPU; without
    # os.sched_getaffinity (macOS, Windows) the count is os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    table = ("--T", 1000, "--h", 150, "--delta", 5, "--n-sims", 2100,
             "--out-dir", tmp_path)
    assert run("threshold", *table) == 0
    assert multiprocessing.active_children() == []
    assert run("simulate", "--p1", 1, "--l1", 1, "--T", 1000, "--seed", 6,
               "--out-dir", tmp_path) == 0
    assert run("detect", "--input", tmp_path / "events.txt", *table) == 0
    assert "cache hit" in capsys.readouterr().out
    [path] = (tmp_path / "thresholds").iterdir()
    in_process = simulate_threshold(1000.0, [150.0], 5.0, 0.05, 2100, 0, workers=1)
    assert path.read_text() == in_process.to_json() + "\n"
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv, name", [
    (("detect", "--h", 150, "--table"), "table.json"),
    (("theory", "--config"), "cfg.json"),
], ids=["detect_table", "theory_config"])
def test_unparsable_json_file_is_named(tmp_path, capsys, argv, name):
    assert run("simulate", "--p1", 1, "--l1", 1, "--T", 1000, "--seed", 4,
               "--out-dir", tmp_path) == 0
    (tmp_path / name).write_text("not json\n")
    if argv[0] == "detect":
        argv = (*argv[:1], "--input", tmp_path / "events.txt", *argv[1:])
    assert run(*argv, tmp_path / name, "--out-dir", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert name in err and "not JSON" in err
    assert not any((tmp_path / "out").glob("*"))


# ---------------------------------------------------------------------------
# cold start


def test_import_loads_no_scipy_and_no_process_pool():
    # every CLI command pays the package import; it must stay numpy-only
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, sharkfin; "
            "print(sorted(m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.') or m in ('multiprocessing', "
            "'concurrent.futures.process', 'concurrent.futures.thread')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
