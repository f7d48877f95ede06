"""Command-line front end: simulate, threshold, detect, theory, verify.

Every command is deterministic given its parameters and --seed.  Flags
can also be supplied through a JSON --config file mapping flag names
(with underscores) to values; explicit flags override file values.
Outputs land in --out-dir as plain text, CSV and JSON files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .detector import ThresholdTable, detect, simulate_threshold, threshold_cache_key
from .filtered import write_series_csv
from .lab import run_verification_suite
from .presets import DEFAULT_H, SHARK_WEST
from .renewal import (ChangePointModel, ConfigurationError, RenewalSpec,
                      read_event_file, simulate_compound, simulate_renewal,
                      write_event_file)
from .theory import (TheoryParams, distortion, m_function, s_function, shark_fin)

# `theory` defaults: the SHARK_WEST preset at its analysis window
_THEORY_DEFAULTS = {
    "p1": SHARK_WEST.phi1.shape, "l1": SHARK_WEST.phi1.rate,
    "p2": SHARK_WEST.phi2.shape, "l2": SHARK_WEST.phi2.rate,
    "c": SHARK_WEST.c, "T": SHARK_WEST.T, "h": DEFAULT_H, "n": SHARK_WEST.n}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharkfin",
        description="Filtered-derivative change-point analysis for renewal processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, workers=False):
        p.add_argument("--seed", type=int, help="master RNG seed (default 0)")
        p.add_argument("--out-dir", help="output directory (default '.')")
        p.add_argument("--config", help="JSON file with default parameter values")
        if workers:
            p.add_argument("--workers", type=int,
                           help="worker processes for the null threshold (default 1)")

    p = sub.add_parser("simulate", help="simulate a renewal or change-point process")
    common(p)
    p.add_argument("--p1", type=float, help="gamma shape before the change")
    p.add_argument("--l1", type=float, help="gamma rate before the change")
    p.add_argument("--p2", type=float, help="gamma shape after the change")
    p.add_argument("--l2", type=float, help="gamma rate after the change")
    p.add_argument("--c", type=float, help="change point (omit for no change)")
    p.add_argument("--T", type=float, help="horizon before scaling")
    p.add_argument("--n", type=int, help="scale factor (horizon becomes n*T)")

    p = sub.add_parser("threshold", help="simulate the null rejection threshold Q")
    common(p, workers=True)
    p.add_argument("--T", type=float)
    p.add_argument("--h", type=float, nargs="+", help="window sizes")
    p.add_argument("--delta", type=float, help="grid step (default min(h)/50)")
    p.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    p.add_argument("--n-sims", type=int, help="null replicates (default 10000)")

    p = sub.add_parser("detect", help="run the multiple-filter test on an event file")
    common(p, workers=True)
    p.add_argument("--input", help="event file (one ascending time per line)")
    p.add_argument("--table", help="threshold table JSON (default: build/cache one)")
    p.add_argument("--T", type=float, help="horizon before scaling (default horizon/n)")
    p.add_argument("--n", type=int, help="scale factor (default 1)")
    p.add_argument("--h", type=float, nargs="+", help="window sizes (default 150)")
    p.add_argument("--delta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-sims", type=int)

    p = sub.add_parser("theory", help="export m, s, m/s and the distortion as CSV")
    common(p)
    for flag in ("p1", "l1", "p2", "l2", "c", "T", "h"):
        p.add_argument(f"--{flag}", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=float)

    p = sub.add_parser("verify", help="run the Monte Carlo verification suite")
    common(p)
    p.add_argument("--scale", choices=["smoke", "full"], help="suite size (default full)")
    return parser


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    return cfg


def _opt(args, config, name, default=None):
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, default)
    return value


def _require(args, config, name):
    value = _opt(args, config, name)
    if value is None:
        raise ValueError(f"missing required parameter --{name}")
    return value


def _out_dir(args, config) -> Path:
    out = Path(_opt(args, config, "out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_simulate(args) -> int:
    config = _load_config(args)
    seed = int(_opt(args, config, "seed", 0))
    T = float(_require(args, config, "T"))
    n = int(_opt(args, config, "n", 1))
    phi1 = RenewalSpec.gamma(float(_require(args, config, "p1")),
                             float(_require(args, config, "l1")))
    p2, l2, c = (_opt(args, config, k) for k in ("p2", "l2", "c"))
    out = _out_dir(args, config)

    if p2 is not None or l2 is not None or c is not None:
        if p2 is None or l2 is None or c is None:
            raise ValueError("a change-point simulation needs --p2, --l2 and --c")
        model = ChangePointModel(phi1, RenewalSpec.gamma(float(p2), float(l2)),
                                 float(c), T, n)
        seq = simulate_compound(model, seed)
        sidecar = dict(model.to_dict(), seed=seed)
    else:
        seq = simulate_renewal(phi1, n * T, seed)
        sidecar = {"phi1": phi1.to_dict(), "T": T, "n": n, "seed": seed}

    events_path = out / "events.txt"
    write_event_file(events_path, seq)
    _write_json(out / "model.json", sidecar)
    print(f"wrote {len(seq)} events to {events_path}")
    return 0


def _cached_threshold(out: Path, T, h_set, delta, alpha, n_sims, seed, workers) -> ThresholdTable:
    cache_dir = out / "thresholds"
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = threshold_cache_key(T, h_set, delta, alpha, n_sims, seed)
    path = cache_dir / f"q_{key}.json"
    if path.exists():
        print(f"threshold cache hit: {path}")
        return ThresholdTable.load(path)
    table = simulate_threshold(T, h_set, delta, alpha, n_sims, seed, workers=workers)
    table.save(path)
    print(f"wrote threshold table to {path}")
    return table


def cmd_threshold(args) -> int:
    config = _load_config(args)
    seed = int(_opt(args, config, "seed", 0))
    T = float(_require(args, config, "T"))
    h_set = [float(h) for h in np.atleast_1d(_require(args, config, "h"))]
    delta = float(_opt(args, config, "delta", min(h_set) / 50))
    alpha = float(_opt(args, config, "alpha", 0.05))
    n_sims = int(_opt(args, config, "n_sims", 10000))
    workers = int(_opt(args, config, "workers", 1))
    out = _out_dir(args, config)
    table = _cached_threshold(out, T, h_set, delta, alpha, n_sims, seed, workers)
    print(f"Q = {table.Q!r} (alpha={alpha}, n_sims={n_sims})")
    return 0


def cmd_detect(args) -> int:
    config = _load_config(args)
    seed = int(_opt(args, config, "seed", 0))
    seq = read_event_file(_require(args, config, "input"))
    n = int(_opt(args, config, "n", 1))
    T = float(_opt(args, config, "T", seq.horizon / n))
    h_set = [float(h) for h in np.atleast_1d(_opt(args, config, "h", [150.0]))]
    out = _out_dir(args, config)

    table_path = _opt(args, config, "table")
    if table_path is not None:
        table = ThresholdTable.load(table_path)
    else:
        delta = float(_opt(args, config, "delta", min(h_set) / 50))
        alpha = float(_opt(args, config, "alpha", 0.05))
        n_sims = int(_opt(args, config, "n_sims", 10000))
        workers = int(_opt(args, config, "workers", 1))
        table = _cached_threshold(out, T, h_set, delta, alpha, n_sims, seed, workers)

    result = detect(seq, T, n, h_set, table)
    series_paths = {}
    for h, series in result.per_h_series.items():
        path = out / f"G_h{h:g}.csv"
        write_series_csv(path, series)
        series_paths[h] = path
    _write_json(out / "detection.json", result.to_json_dict(series_paths))
    cps = ", ".join(f"{cp.location:g} (h={cp.h:g})" for cp in result.change_points)
    print(f"reject={result.reject} Q={result.Q:.4f} max|G|={result.global_max:.4f}"
          + (f" change points: {cps}" if cps else ""))
    return 0


def cmd_theory(args) -> int:
    config = _load_config(args)
    vals = {k: float(_opt(args, config, k, _THEORY_DEFAULTS[k]))
            for k in ("p1", "l1", "p2", "l2", "c", "T", "h")}
    n = int(_opt(args, config, "n", _THEORY_DEFAULTS["n"]))
    delta = float(_opt(args, config, "delta", vals["h"] / 50))
    out = _out_dir(args, config)

    phi1 = RenewalSpec.gamma(vals["p1"], vals["l1"])
    phi2 = RenewalSpec.gamma(vals["p2"], vals["l2"])
    p = TheoryParams(phi1.mu, phi2.mu, phi1.sigma2, phi2.sigma2,
                     vals["c"], vals["T"], vals["h"], n)

    # grid anchored at the change point so the peak node is exact
    lo, hi = p.h, p.T - p.h
    left = np.arange(p.c, lo - 1e-9, -delta)[::-1]
    right = np.arange(p.c + delta, hi + 1e-9, delta)
    grid = np.concatenate([left, right])
    grid = grid[(grid >= lo - 1e-9) & (grid <= hi + 1e-9)]

    m = m_function(grid, p)
    s = s_function(grid, p)
    fin = shark_fin(grid, p)
    dist = distortion(grid, p)
    path = out / "theory.csv"
    with open(path, "w", newline="") as fh:
        fh.write(f"# mu1={p.mu1!r},mu2={p.mu2!r},sigma1_sq={p.sigma1_sq!r},"
                 f"sigma2_sq={p.sigma2_sq!r},c={p.c!r},T={p.T!r},h={p.h!r},n={p.n}\n")
        fh.write("t,m,s,lambda,delta,distorted_lambda\n")
        for row in zip(grid, m, s, fin, dist, dist * fin):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    print(f"wrote {grid.size} rows to {path}")
    return 0


def cmd_verify(args) -> int:
    config = _load_config(args)
    seed = _opt(args, config, "seed")
    scale = _opt(args, config, "scale", "full")
    out = _out_dir(args, config)
    kwargs = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = int(seed)
    reports = run_verification_suite(**kwargs)
    _write_json(out / "lab_reports.json", [r.to_json_dict() for r in reports])
    summary = "\n".join(r.summary() for r in reports)
    with open(out / "lab_summary.txt", "w") as fh:
        fh.write(summary + "\n")
    print(summary)
    all_passed = all(r.passed for r in reports)
    print("verification suite: " + ("ALL PASS" if all_passed else "FAILURES PRESENT"))
    return 0 if all_passed else 1


_COMMANDS = {
    "simulate": cmd_simulate,
    "threshold": cmd_threshold,
    "detect": cmd_detect,
    "theory": cmd_theory,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
