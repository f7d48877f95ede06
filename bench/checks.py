"""Output checks of the benchmark workloads.

Each check returns a list of problems; an empty list means the output is
correct.  A problem counts the operation that produced it as failed.
The checks only read plain attributes and files, so they can be fed
corrupted outputs in the self-tests.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

LAB_REPORTS = ("h0_limit", "alternative_limit", "window_lln",
               "estimator_consistency_shape_change",
               "estimator_consistency_rate_change", "window_variance_forms")

# The CLI pass simulates a change at c = 500 (T = 1000); with n = 32 the
# estimate must land this close to it.
CLI_CHANGE_POINT = 500.0
CLI_LOCATION_TOL = 30.0


def check_table(table, h_set) -> list:
    """Q finite and >= every per-h quantile; per-h keys equal to h_set."""
    problems = []
    if not math.isfinite(table.Q):
        problems.append(f"threshold Q is not finite: {table.Q}")
    per_h = table.per_h_max_quantiles
    if sorted(float(h) for h in per_h) != sorted(float(h) for h in h_set):
        problems.append(f"per-h quantile keys {sorted(per_h)} != h_set {sorted(h_set)}")
    for h, q in per_h.items():
        if not (math.isfinite(q) and q <= table.Q):
            problems.append(f"per-h quantile {q} at h={h} is not finite or exceeds Q={table.Q}")
    return problems


def check_detection(result, h_set, expect_reject: bool) -> list:
    """A well-formed multiple-filter result; change models must reject."""
    problems = []
    if not math.isfinite(result.global_max):
        problems.append(f"global_max is not finite: {result.global_max}")
    if result.reject != (result.global_max > result.Q):
        problems.append(f"reject={result.reject} disagrees with "
                        f"global_max={result.global_max} > Q={result.Q}")
    if expect_reject and not result.reject:
        problems.append("a change model was not rejected")
    if not result.reject and result.change_points:
        problems.append("change points reported without a rejection")
    allowed = {float(h) for h in h_set}
    by_h = {}
    for cp in result.change_points:
        if not abs(cp.value) > result.Q:
            problems.append(f"estimate at {cp.location} has |value|={abs(cp.value)} <= Q")
        if float(cp.h) not in allowed:
            problems.append(f"estimate at {cp.location} uses unknown window h={cp.h}")
        by_h.setdefault(float(cp.h), []).append(cp.location)
    for h, locs in by_h.items():
        locs = sorted(locs)
        if any(b - a < h for a, b in zip(locs, locs[1:])):
            problems.append(f"estimates of window h={h} closer than h: {locs}")
    return problems


def check_lab_reports(reports) -> dict:
    """Problems of the six smoke reports, keyed by report name.

    Each report must be present once and carry finite metrics.  A failed
    statistical gate is not a problem: smoke gates can fail by chance at
    a seed other than the suite default, and the harness counts passes
    separately.
    """
    problems = {name: [] for name in LAB_REPORTS}
    seen = [r.experiment for r in reports]
    for name in LAB_REPORTS:
        if seen.count(name) != 1:
            problems[name].append(f"report present {seen.count(name)} times, want once")
    for r in reports:
        if r.experiment not in problems:
            problems[r.experiment] = [f"unexpected report {r.experiment!r}"]
            continue
        if not r.metrics:
            problems[r.experiment].append("no metrics")
        for metric, values in r.metrics.items():
            if not values or not all(math.isfinite(v) for v in values):
                problems[r.experiment].append(f"{metric} is empty or not finite: {values}")
    return problems


def cache_counts(stdout: str) -> tuple:
    """Threshold cache (misses, hits) a CLI command reports on stdout."""
    return stdout.count("wrote threshold table"), stdout.count("threshold cache hit")


def check_cli_pass(exit_codes: dict, stdout: dict, out_dir) -> dict:
    """Problems of one four-command CLI pass, keyed by command.

    Every command must exit 0, `threshold` must miss the cache exactly
    once, `detect` must hit it exactly once, and detection.json must
    reject with a change point within CLI_LOCATION_TOL of the change.
    """
    problems = {cmd: [] for cmd in exit_codes}
    for cmd, code in exit_codes.items():
        if code != 0:
            problems[cmd].append(f"exit code {code}")
    for cmd, want in (("threshold", (1, 0)), ("detect", (0, 1))):
        got = cache_counts(stdout.get(cmd, ""))
        if got != want:
            problems[cmd].append(f"{cmd} cache misses={got[0]} hits={got[1]}, "
                                 f"want {want[0]} and {want[1]}")
    path = Path(out_dir) / "detection.json"
    try:
        detection = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems["detect"].append(f"unreadable {path.name}: {exc}")
        return problems
    if not detection.get("reject"):
        problems["detect"].append("detection.json does not reject")
    locations = [cp["location"] for cp in detection.get("change_points", [])]
    if not any(abs(loc - CLI_CHANGE_POINT) <= CLI_LOCATION_TOL for loc in locations):
        problems["detect"].append(f"no change point within {CLI_CHANGE_POINT:g} "
                                  f"+- {CLI_LOCATION_TOL:g}: {locations}")
    return problems
