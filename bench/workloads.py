"""The four benchmark workloads.

A workload prepares its inputs from the benchmark seed, then runs timed
units in a closed loop with one caller: a cycle of eight replicates
(`power_study`), a threshold call (`null_threshold`), a smoke suite (`verify_smoke`) or a
four-command CLI pass (`cli_pipeline`).  Only the calls into sharkfin sit
inside the timed region; output checks and hashing run after it.

`run_unit(k)` returns the number of failed operations, the problems
found and the work done (replicates, null paths, lab checks or CLI
commands).  An operation is a replicate, a threshold call, a lab check or
a CLI command; it fails by raising, by a non-zero exit, or by failing its
output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from sharkfin import detector, lab, presets, renewal

from checks import (cache_counts, check_cli_pass, check_detection,
                    check_lab_reports, check_table)

H_SET = (50.0, 100.0, 150.0, 200.0)
ALPHA = 0.05


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env(root: Path) -> dict:
    """Environment of a child Python that imports sharkfin from root/src."""
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def import_time(root: Path) -> float:
    """Wall time of `import sharkfin` in a fresh child process."""
    code = ("import time; t = time.perf_counter(); import sharkfin; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root),
                          capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout)


class Clock:
    """Times units; with a tracer, also opens the root span of each unit."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = []

    @contextlib.contextmanager
    def unit(self, k):
        root = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.unit = k
            root = self.tracer.span("unit")
        with root:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.times.append(time.perf_counter() - t0)

    def span(self, name, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)


class Workload:
    name = ""
    unit_name = ""
    work_name = ""
    ops_per_unit = 1
    prepare_ops = 0  # operations whose output prepare() checks

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.root = root
        self.out_dir = out_dir
        self.clock = Clock()
        self.hashes = {}
        self.next_k = 0  # units are numbered across all loops of a run
        self.import_s = 0.0  # median child import time, set by the harness

    def prepare(self) -> list:
        """Untimed input generation; returns problems of checked outputs."""
        return []

    def warm_up(self) -> None:
        self.run_unit(0)

    def run_unit(self, k: int):
        raise NotImplementedError

    # A workload whose traced run replays its unit in-process, instead of
    # running it as the untraced runs do, defines trace_unit(k)
    trace_unit = None

    def named_metrics(self, p50_ms: float, p90_ms: float, rate: float) -> dict:
        """The unit metrics under this workload's own names: (value, unit)."""
        return {}

    def layer_extras(self) -> dict:
        """Per-layer metrics measured without the tracer."""
        return {}

    def _record_hash(self, key: str, digest: str) -> bool:
        """Store the first digest under key; False if a later one differs."""
        return self.hashes.setdefault(key, digest) == digest


# ---------------------------------------------------------------------------
# power_study


class PowerStudy(Workload):
    """Simulate seeded sequences and test them against a prepared table.

    A unit is one cycle of the replicate mix.  Single replicate times form
    one group per preset and scale, so a percentile over them lands on
    the edge of some group and moves with it; cycle times have one peak.
    """

    name = "power_study"
    unit_name = "cycle of eight replicates"
    work_name = "replicates"
    T = 1000.0
    N_SIMS = 10_000
    # (label, change model or None for the null gamma(1,1), scale n)
    MIX = [(label, model, n)
           for label, model in (("null", None),
                                ("SHARK_WEST", presets.SHARK_WEST),
                                ("SHARK_EAST", presets.SHARK_EAST),
                                ("DISTORTION_A", presets.DISTORTION_A))
           for n in (1, 16)]
    NULL = renewal.RenewalSpec.gamma(1, 1)
    ops_per_unit = len(MIX)
    prepare_ops = 1

    def __init__(self, *args):
        super().__init__(*args)
        self.rejects = {"null": [], "change": []}

    def prepare(self):
        self.table = detector.simulate_threshold(
            self.T, H_SET, 1.0, ALPHA, self.N_SIMS, self.seed, workers=1)
        problems = check_table(self.table, H_SET)
        if not self._record_hash("table", sha256(self.table.to_json().encode())):
            problems.append("table differs from the first build at the same seed")
        return problems

    def _replicate(self, j, model, n):
        """Replicate j: simulate one seeded sequence and detect on it."""
        if model is None:
            seq = renewal.simulate_renewal(self.NULL, n * self.T, self.seed,
                                           stream=(j, 1))
        else:
            seq = renewal.simulate_compound(model.with_scale(n), self.seed,
                                            stream=(j,))
        return seq, detector.detect(seq, self.T, n, H_SET, self.table)

    def run_unit(self, k):
        first = k * len(self.MIX)
        with self.clock.unit(k):
            outs = [self._replicate(first + i, model, n)
                    for i, (_, model, n) in enumerate(self.MIX)]
        failed, problems = 0, []
        for i, ((label, model, n), (_, result)) in enumerate(zip(self.MIX, outs)):
            found = check_detection(result, H_SET,
                                    expect_reject=model is not None and n == 16)
            failed += bool(found)
            problems += [f"replicate {first + i} ({label}, n={n}): {p}" for p in found]
            self.rejects["null" if model is None else "change"].append(result.reject)
        if k == 0:
            events, g_series = hashlib.sha256(), hashlib.sha256()
            for seq, result in outs:
                events.update(seq.events.tobytes())
                for h in sorted(result.per_h_series):
                    series = result.per_h_series[h]
                    g_series.update(series.values.tobytes() + series.valid.tobytes())
            self.hashes["events"] = events.hexdigest()
            self.hashes["G_series"] = g_series.hexdigest()
        return failed, problems, len(self.MIX)

    def warm_up(self):
        # the second cycle: not hashed
        self.run_unit(1)
        self.rejects = {"null": [], "change": []}

    def named_metrics(self, p50_ms, p90_ms, rate):
        """Replicate times as the mean over one cycle of the mix."""
        n, per = len(self.clock.times), len(self.MIX)
        return {"replicates_per_s": (rate, "1/s"),
                "replicate_p50_ms": (p50_ms / per, "ms"),
                "replicate_p90_ms": (p90_ms / per,
                                     f"ms (n={n} cycles, {n - int(0.9 * n)} beyond)")}

    def layer_extras(self):
        def frac(xs):
            return sum(xs) / len(xs) if xs else 0.0
        return {"detector.detect.reject_frac_null": frac(self.rejects["null"]),
                "detector.detect.reject_frac_change": frac(self.rejects["change"])}


# ---------------------------------------------------------------------------
# null_threshold


class NullThreshold(Workload):
    """Null thresholds on a long horizon; each call is one block of paths."""

    name = "null_threshold"
    unit_name = "threshold call"
    work_name = "null paths"
    T = 10_000.0
    N_SIMS = 1024

    def call_seed(self, k: int) -> int:
        return int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])

    def run_unit(self, k):
        seed = self.call_seed(k)
        with self.clock.unit(k):
            table = detector.simulate_threshold(
                self.T, H_SET, 1.0, ALPHA, self.N_SIMS, seed, workers=1)
        problems = check_table(table, H_SET)
        if k == 0 and not self._record_hash("threshold_table",
                                            sha256(table.to_json().encode())):
            problems.append("table differs from the warm-up call at the same seed")
        return int(bool(problems)), [f"call {k}: {p}" for p in problems], self.N_SIMS

    def named_metrics(self, p50_ms, p90_ms, rate):
        return {"null_paths_per_s": (rate, "1/s")}


# ---------------------------------------------------------------------------
# verify_smoke


class VerifySmoke(Workload):
    """The lab's smoke verification suite at the benchmark seed."""

    name = "verify_smoke"
    unit_name = "smoke suite"
    work_name = "lab checks"
    ops_per_unit = 6

    def __init__(self, *args):
        super().__init__(*args)
        self.passed = []

    def warm_up(self):
        # one lab check, the suite's cheapest
        lab.check_window_variance_forms(presets.DISTORTION_A, 150.0,
                                        seed=self.seed, n_reps=200)

    def run_unit(self, k):
        with self.clock.unit(k):
            reports = lab.run_verification_suite(seed=self.seed, scale="smoke")
        per_report = check_lab_reports(reports)
        for r in reports:
            blob = json.dumps(r.to_json_dict(), sort_keys=True).encode()
            if r.experiment in per_report and not self._record_hash(
                    f"lab/{r.experiment}", sha256(blob)):
                per_report[r.experiment].append(
                    "report differs from the first suite at the same seed")
        self.passed.append(sum(bool(r.passed) for r in reports))
        problems = [f"suite {k}: {name}: {p}"
                    for name, ps in per_report.items() for p in ps]
        failed = sum(bool(ps) for ps in per_report.values())
        return failed, problems, len(reports)

    def named_metrics(self, p50_ms, p90_ms, rate):
        return {"suite_s": (p50_ms / 1e3, "s")}

    def layer_extras(self):
        return {"lab.checks_passed":
                sum(self.passed) / len(self.passed) if self.passed else 0.0}


# ---------------------------------------------------------------------------
# cli_pipeline


class CliPipeline(Workload):
    """simulate -> threshold (cache miss) -> detect (cache hit) -> theory."""

    name = "cli_pipeline"
    unit_name = "four-command pass"
    work_name = "CLI commands"
    ops_per_unit = 4
    COMMANDS = ("simulate", "threshold", "detect", "theory")
    N = 32
    H = ("50", "100", "150")
    # which command writes each hashed output file
    OUTPUTS = {"events.txt": "simulate", "model.json": "simulate",
               "threshold_table": "threshold", "detection.json": "detect",
               "G_h50.csv": "detect", "G_h100.csv": "detect",
               "G_h150.csv": "detect", "theory.csv": "theory"}

    def __init__(self, *args):
        super().__init__(*args)
        self.env = child_env(self.root)
        self.walls = {cmd: [] for cmd in self.COMMANDS}
        self.cache = {"misses": [], "hits": []}

    def argv(self, cmd: str, out: Path) -> list:
        m = presets.SHARK_WEST
        seed = ["--seed", str(self.seed), "--out-dir", str(out)]
        if cmd == "simulate":
            return ["simulate", "--p1", repr(m.phi1.shape), "--l1", repr(m.phi1.rate),
                    "--p2", repr(m.phi2.shape), "--l2", repr(m.phi2.rate),
                    "--c", repr(m.c), "--T", repr(m.T), "--n", str(self.N), *seed]
        if cmd == "threshold":
            return ["threshold", "--T", repr(m.T), "--h", *self.H, *seed]
        if cmd == "detect":
            return ["detect", "--input", str(out / "events.txt"), "--n", str(self.N),
                    "--h", *self.H, *seed]
        return ["theory", "--out-dir", str(out)]

    def _child(self, argv):
        """Run one CLI command in a child process; (exit code, stdout)."""
        proc = subprocess.run([sys.executable, "-m", "sharkfin.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=150)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout

    def _in_process(self, argv):
        """Replay one CLI command through cli.main; (exit code, stdout)."""
        from sharkfin import cli
        out, err = io.StringIO(), io.StringIO()
        with self.clock.span("cli.main", command=argv[0]), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code:
            sys.stderr.write(err.getvalue())
        return code, out.getvalue()

    def warm_up(self):
        out = self.out_dir / "warm_up"
        self._child(self.argv("theory", out))
        shutil.rmtree(out, ignore_errors=True)

    def _pass(self, k, runner):
        out = self.out_dir / f"pass_{k}"
        shutil.rmtree(out, ignore_errors=True)
        codes, stdout = {}, {}
        with self.clock.unit(k):
            for cmd in self.COMMANDS:
                t0 = time.perf_counter()
                codes[cmd], stdout[cmd] = runner(self.argv(cmd, out))
                if runner == self._child:
                    self.walls[cmd].append(time.perf_counter() - t0)
        per_cmd = check_cli_pass(codes, stdout, out)
        self.cache["misses"].append(cache_counts(stdout["threshold"])[0])
        self.cache["hits"].append(cache_counts(stdout["detect"])[1])
        for name, digest in self._output_hashes(out).items():
            if not self._record_hash(name, digest):
                per_cmd[self.OUTPUTS[name]].append(
                    f"{name} differs from the first pass at the same seed")
        shutil.rmtree(out, ignore_errors=True)
        problems = [f"pass {k}: {cmd}: {p}" for cmd, ps in per_cmd.items() for p in ps]
        return sum(bool(ps) for ps in per_cmd.values()), problems, len(self.COMMANDS)

    def _output_hashes(self, out: Path) -> dict:
        hashes = {}
        for name in self.OUTPUTS:
            if name == "threshold_table":
                paths = sorted((out / "thresholds").glob("q_*.json"))
            else:
                paths = [out / name]
            if not all(p.is_file() for p in paths) or not paths:
                hashes[name] = "missing"
                continue
            data = b"".join(p.read_bytes() for p in paths)
            if name == "detection.json":
                # series paths name the pass directory; hash the result only
                d = json.loads(data)
                d.pop("series", None)
                data = json.dumps(d, sort_keys=True).encode()
            hashes[name] = sha256(data)
        return hashes

    def run_unit(self, k):
        return self._pass(k, self._child)

    def trace_unit(self, k):
        return self._pass(k, self._in_process)

    def named_metrics(self, p50_ms, p90_ms, rate):
        return {"pipeline_s": (p50_ms / 1e3, "s")}

    def layer_extras(self):
        def mean(xs):
            return sum(xs) / len(xs) if xs else 0.0
        extras = {"cli.import_s": self.import_s,
                  "cli.threshold.cache_misses": mean(self.cache["misses"]),
                  "cli.detect.cache_hits": mean(self.cache["hits"])}
        for cmd in self.COMMANDS:
            walls = self.walls[cmd]
            extras[f"cli.{cmd}.wall_ms"] = 1e3 * float(np.median(walls)) if walls else 0.0
        return extras


WORKLOADS = {w.name: w for w in (PowerStudy, NullThreshold, VerifySmoke, CliPipeline)}
