"""Benchmark entry point: run one workload and print its metrics.

    python3 bench/run.py --workload power_study --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository: the harness builds
nothing and imports sharkfin from the checkout's `src/`.  With
`--trace 0` it measures the end-to-end metrics named in BENCHMARK.json;
with `--trace 1` it gives the per-layer metrics of a traced run.  The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  A fuller record (sample
counts, output hashes, environment, problems found) goes to
`bench/_out/<workload>-s<seed>-t<trace>/result.json`, and the spans of a
traced run to `trace.json` beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference_hashes.json"
SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; whole units always complete")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's output hashes as the reference for "
                        "its workload and seed")
    return p.parse_args(argv)


def quantile(values, q):
    """Linear interpolation between order statistics (inclusive method)."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Phase:
    """Outcome of one measuring loop."""

    def __init__(self, times, attempted, failed, work, problems):
        self.times, self.attempted, self.failed = times, attempted, failed
        self.work, self.problems = work, problems


def measure(wl, seconds, clock, unit_fn) -> Phase:
    """Closed loop with one caller: run whole units for `seconds`."""
    wl.clock = clock
    attempted = failed = work = 0
    problems = []
    start = time.perf_counter()
    first = wl.next_k
    while wl.next_k == first or time.perf_counter() - start < seconds:
        k = wl.next_k
        wl.next_k += 1
        try:
            n_failed, found, done = unit_fn(k)
        except Exception:  # the loop must go on; the unit counts as failed
            n_failed, found, done = wl.ops_per_unit, [traceback.format_exc()], 0
        attempted += wl.ops_per_unit
        failed += n_failed
        work += done
        problems += found
    return Phase(clock.times, attempted, failed, work, problems)


def environment() -> dict:
    import numpy
    from importlib import metadata

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3"):
            caches[f"L{level}" + ("" if kind == "Unified" else f"_{kind}")] = read(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": git_commit(),
        "bytes_computed": "peak bytes of numpy arrays held, from tracemalloc; "
                          "no hardware counters",
    }


def git_commit():
    """HEAD of the checkout's .git, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def hash_status(workload, seed, hashes, record):
    """Compare output hashes with the stored reference; never gates."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    key = f"{workload}/{seed}"
    stored = reference.get(key, {})
    status = {name: ("no reference" if name not in stored else
                     "unchanged" if stored[name] == digest else "changed")
              for name, digest in sorted(hashes.items())}
    if record:
        reference[key] = dict(sorted(hashes.items()))
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return status


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "sharkfin" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no sharkfin sources (src/sharkfin) "
              "or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(names)}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    import sharkfin
    if Path(sharkfin.__file__).resolve().parent != (src / "sharkfin").resolve():
        print(f"error: imported sharkfin from {sharkfin.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Clock, import_time

    out_dir = BENCH / "_out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, ROOT, out_dir)

    # set-up: `import sharkfin` in a fresh child, input generation and one
    # warm-up operation, each made SETUP_REPEATS times; each counts with its median
    attempted = failed = 0
    problems = []
    setup = {"import_s": [], "prepare_s": [], "warm_up_s": []}
    for _ in range(SETUP_REPEATS):
        setup["import_s"].append(import_time(ROOT))
        t0 = time.perf_counter()
        found = wl.prepare()
        setup["prepare_s"].append(time.perf_counter() - t0)
        attempted += wl.prepare_ops
        failed += bool(found)
        problems += [f"set-up: {p}" for p in found]
        wl.clock = Clock()
        t0 = time.perf_counter()
        wl.warm_up()
        setup["warm_up_s"].append(time.perf_counter() - t0)
    setup_s = sum(statistics.median(times) for times in setup.values())
    wl.import_s = statistics.median(setup["import_s"])

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "unit": wl.unit_name, "work": wl.work_name,
              "setup": setup}
    if args.trace:
        metrics, phases = traced_run(wl, args.seconds, out_dir,
                                     [m["name"] for m in spec["per_layer"]])
    else:
        phase = measure(wl, args.seconds, Clock(), wl.run_unit)
        phases = [phase]
        metrics = end_to_end(phase, setup_s)
        record["samples"] = len(phase.times)
        record["unit_times_s"] = phase.times
    for phase in phases:
        attempted += phase.attempted
        failed += phase.failed
        problems += phase.problems

    kind = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(wanted):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(wanted))} "
                           f"differ from BENCHMARK.json {kind}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in wanted.items()}}

    hashes = hash_status(args.workload, args.seed, wl.hashes, args.record_reference)
    record.update(result=result, named=workload_metrics(wl, metrics, attempted, failed)
                  if not args.trace else {}, hashes=wl.hashes, hash_status=hashes,
                  problems=problems, environment=environment())
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for name, value in record["named"].items():
        print(f"{name:>24} {value[0]:12.6g} {value[1]}")
    for name, status in hashes.items():
        print(f"{'hash ' + name:>24} {wl.hashes[name][:16]} {status}")
    print(json.dumps(result))
    return 0


def end_to_end(phase, setup_s) -> dict:
    times = phase.times
    return {"setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "unit_p50_ms": 1e3 * statistics.median(times),
            "unit_p90_ms": 1e3 * quantile(times, 0.9),
            "work_per_s": phase.work / sum(times)}


def workload_metrics(wl, metrics, attempted, failed) -> dict:
    """The end-to-end metrics under the names the workload reports them."""
    return {"setup_s": (metrics["setup_s"], "s"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
            "ops_failed_frac": (failed / attempted, "ratio"),
            **wl.named_metrics(metrics["unit_p50_ms"], metrics["unit_p90_ms"],
                               metrics["work_per_s"])}


def traced_run(wl, seconds, out_dir, names):
    """Untraced and traced loops of equal length; per-layer metrics.

    A workload that replays its unit in-process (`trace_unit`) first runs
    its untraced unit for a third of the time, for the wall times only
    that gives.  Metrics of layers the workload never calls are 0.
    """
    from tracing import Tracer, layer_metrics
    from workloads import Clock

    phases = []
    replay = wl.trace_unit is not None
    unit = wl.trace_unit if replay else wl.run_unit
    share = seconds / (3 if replay else 2)
    if replay:
        phases.append(measure(wl, share, Clock(), wl.run_unit))
    base = measure(wl, share, Clock(), unit)
    tracer = Tracer()
    tracer.install()
    try:
        traced = measure(wl, share, Clock(tracer), unit)
    finally:
        tracer.uninstall()
    phases += [base, traced]
    tracer.dump(out_dir / "trace.json")

    metrics = dict.fromkeys(names, 0.0)
    n = len(traced.times)
    metrics.update(layer_metrics(tracer.spans, n))
    metrics.update(wl.layer_extras())
    mean_traced = sum(traced.times) / n
    metrics["trace.wall_s"] = mean_traced
    metrics["trace.overhead_frac"] = mean_traced / (sum(base.times) / len(base.times)) - 1.0
    return metrics, phases


if __name__ == "__main__":
    sys.exit(main())
