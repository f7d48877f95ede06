"""Command-line front end: simulate, threshold, detect, theory, verify.

Every command is deterministic given its parameters, and every command
but `theory`, which draws no random numbers, also given its --seed.
`threshold`, `detect` and `verify` run their Monte Carlo blocks on one
process per available CPU, with the same outputs at any count.  Each
parameter and its default is declared once, as a flag of its command.  A
JSON --config file maps flag names (with underscores) of that command to
values that replace the defaults; each value is parsed as the text of its
flag would be, and explicit flags override file values.
Outputs land in --out-dir as plain text, CSV and JSON files.

The parser needs only `presets` and `renewal`; each command imports the
other modules it runs when it runs: `simulate`, `theory` and `--help` load
no `detector`, `filtered`, `series` or `lab`, and only `verify` loads `lab`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .presets import DEFAULT_H, DEFAULT_SUITE_SEED, SHARK_WEST
from .renewal import (ChangePointModel, ConfigurationError, RenewalSpec,
                      read_event_file, simulate_compound, simulate_renewal,
                      write_event_file)


def _positive(kind):
    """An argparse type: kind(text), refused unless finite and positive."""
    def parse(text):
        if not 0 < (value := kind(text)) < math.inf:
            raise ValueError(text)
        return value
    parse.__name__ = f"positive {kind.__name__}"  # "invalid positive int value: '0'"
    return parse


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and the subparser of each command."""
    parser = argparse.ArgumentParser(
        prog="sharkfin",
        description="Filtered-derivative change-point analysis for renewal processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, help, seed=0):
        """The subparser of a command; seed=None for one that draws no random numbers."""
        p = commands[name] = sub.add_parser(name, help=help, description=help)
        if seed is not None:
            p.add_argument("--seed", type=int, default=seed,
                           help="master RNG seed (default %(default)s)")
        p.add_argument("--out-dir", default=".",
                       help="output directory (default %(default)r)")
        p.add_argument("--config", help="JSON file with default parameter values")
        return p

    def threshold_flags(p):
        p.add_argument("--delta", type=_positive(float),
                       help="grid step (default min(h)/50)")
        p.add_argument("--alpha", type=float, default=0.05,
                       help="significance level (default %(default)s)")
        p.add_argument("--n-sims", type=int, default=10000,
                       help="null replicates (default %(default)s)")

    p = command("simulate", "simulate a renewal or change-point process")
    p.add_argument("--p1", type=float, help="gamma shape before the change")
    p.add_argument("--l1", type=float, help="gamma rate before the change")
    p.add_argument("--p2", type=float, help="gamma shape after the change")
    p.add_argument("--l2", type=float, help="gamma rate after the change")
    p.add_argument("--c", type=float, help="change point (omit for no change)")
    p.add_argument("--T", type=float, help="horizon before scaling")
    p.add_argument("--n", type=_positive(int), default=1,
                   help="scale factor, the horizon becomes n*T (default %(default)s)")

    p = command("threshold", "simulate the null rejection threshold Q")
    p.add_argument("--T", type=float)
    p.add_argument("--h", type=float, nargs="+", help="window sizes")
    threshold_flags(p)

    p = command("detect", "run the multiple-filter test on an event file")
    p.add_argument("--input", help="event file (one ascending time per line)")
    p.add_argument("--table", help="threshold table JSON; its own alpha, n-sims and seed "
                   "apply, and --delta must match its grid step (default: build/cache one)")
    p.add_argument("--T", type=float, help="horizon before scaling (default horizon/n)")
    p.add_argument("--n", type=_positive(int), default=1,
                   help="scale factor (default %(default)s)")
    p.add_argument("--h", type=float, nargs="+", default=[DEFAULT_H],
                   help="window sizes (default %(default)s)")
    threshold_flags(p)

    p = command("theory", "export m, s, m/s and the distortion as CSV", seed=None)
    m = SHARK_WEST  # the rate-1-to-20 example at its analysis window
    for flag, default in (("p1", m.phi1.shape), ("l1", m.phi1.rate), ("p2", m.phi2.shape),
                          ("l2", m.phi2.rate), ("c", m.c), ("T", m.T), ("h", DEFAULT_H)):
        p.add_argument(f"--{flag}", type=float, default=default, help="default %(default)s")
    p.add_argument("--n", type=_positive(int), default=m.n, help="default %(default)s")
    p.add_argument("--delta", type=_positive(float), help="grid step (default h/50)")

    p = command("verify", "run the Monte Carlo verification suite", seed=DEFAULT_SUITE_SEED)
    p.add_argument("--scale", choices=["smoke", "full"], default="full",
                   help="suite size (default %(default)s)")
    return parser, commands


def _config_defaults(path, command) -> dict:
    """The JSON object in path, each value parsed by command as the text of
    its flag would be: key k is --k with dashes for underscores, a list
    value one word per item.  ValueError naming any key that is not a flag."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"config file {path}: not JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    flags = set(vars(command.parse_args([]))) - {"config"}
    unknown = sorted(set(cfg) - flags)
    if unknown:
        raise ValueError(f"config file {path}: not flags of this command: {unknown}")
    argv = []
    for key, value in cfg.items():
        argv += [f"--{key.replace('_', '-')}",
                 *map(str, value if isinstance(value, list) else [value])]
    try:
        parsed = command.parse_args(argv)
    except SystemExit:  # argparse has printed the flag and the value it refused
        raise ValueError(f"config file {path}: a value its flag refuses") from None
    return {key: getattr(parsed, key) for key in cfg}


def _require(args, name):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"missing required parameter --{name}")
    return value


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_simulate(args) -> int:
    seed, T, n = args.seed, _require(args, "T"), args.n
    phi1 = RenewalSpec.gamma(_require(args, "p1"), _require(args, "l1"))
    out = _out_dir(args)

    if args.p2 is not None or args.l2 is not None or args.c is not None:
        if None in (args.p2, args.l2, args.c):
            raise ValueError("a change-point simulation needs --p2, --l2 and --c")
        model = ChangePointModel(phi1, RenewalSpec.gamma(args.p2, args.l2), args.c, T, n)
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


def _cached_threshold(args, out: Path, T, h_set):
    """The null ThresholdTable of args' threshold flags, built once per key."""
    from .detector import ThresholdTable, simulate_threshold, threshold_cache_key
    delta = min(h_set) / 50 if args.delta is None else args.delta
    config = (T, h_set, delta, args.alpha, args.n_sims, args.seed)
    key = threshold_cache_key(*config)
    path = out / "thresholds" / f"q_{key}.json"
    if path.exists():
        print(f"threshold cache hit: {path}")
        table = ThresholdTable.load(path)
        if table.cache_key() != key:
            raise ConfigurationError(f"threshold table {path}: contents do not match "
                                     f"the key {key} in its name; delete it to rebuild")
        return table
    path.parent.mkdir(exist_ok=True)
    table = simulate_threshold(*config)
    table.save(path)
    print(f"wrote threshold table to {path}")
    return table


def cmd_threshold(args) -> int:
    table = _cached_threshold(args, _out_dir(args), _require(args, "T"), _require(args, "h"))
    print(f"Q = {table.Q!r} (alpha={table.alpha}, n_sims={table.n_sims})")
    return 0


def cmd_detect(args) -> int:
    from .detector import ThresholdTable, detect
    from .series import write_series_csv
    seq = read_event_file(_require(args, "input"))
    n, h_set = args.n, args.h
    T = seq.horizon / n if args.T is None else args.T
    out = _out_dir(args)
    table = (_cached_threshold(args, out, T, h_set) if args.table is None
             else ThresholdTable.load(args.table))
    if args.table is not None and args.delta not in (None, table.grid_step):
        raise ConfigurationError(f"threshold table {args.table} has grid step "
                                 f"{table.grid_step}, not --delta {args.delta}")

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
    from .theory import TheoryParams, distortion, m_function, s_function, shark_fin
    p = TheoryParams.from_model(ChangePointModel(
        RenewalSpec.gamma(args.p1, args.l1), RenewalSpec.gamma(args.p2, args.l2),
        args.c, args.T, args.n), args.h)
    delta = p.h / 50 if args.delta is None else args.delta

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
    path = _out_dir(args) / "theory.csv"
    with open(path, "w", newline="") as fh:
        fh.write("# " + ",".join(f"{k}={v!r}" for k, v in asdict(p).items()) + "\n")
        fh.write("t,m,s,lambda,delta,distorted_lambda\n")
        for row in zip(grid, m, s, fin, dist, dist * fin):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    print(f"wrote {grid.size} rows to {path}")
    return 0


def cmd_verify(args) -> int:
    from .lab import run_verification_suite
    out = _out_dir(args)
    reports = run_verification_suite(seed=args.seed, scale=args.scale)
    _write_json(out / "lab_reports.json", [r.to_json_dict() for r in reports])
    summary = "\n".join(r.summary() for r in reports)
    (out / "lab_summary.txt").write_text(summary + "\n")
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
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # config values become the command's defaults, so flags still win
            command = commands[args.command]
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    # ConfigurationError is a ValueError; MemoryError: a grid or path count
    # too fine for this host's memory
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
