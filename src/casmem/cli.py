"""Command-line front end: run, sweep, movie, drift-check, fifo, snapshot, restore.

Configs are single JSON documents; flags override config fields. Exit
codes: 0 on success, 2 for configuration problems (including argparse),
3 for numerical failures.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .dynamics import fp_residual, integrate_sde, movie_frames, sample_bulk_points
from .errors import ConfigError, NumericalError, read_json_object, write_text
from .harness import (
    SUMMARY_KEYS,
    SWEEP_COLUMNS,
    RunConfig,
    build_final_state,
    export,
    fifo_baseline,
    restore_state,
    run_experiment,
    snapshot_state,
    sweep,
)
from .protocol import eval_at
from .streams import make_config


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def _split(text: str, parse, what: str) -> list:
    """The comma-separated items of text, each read by parse (json.loads or float)."""
    try:
        values = [parse(chunk) for chunk in text.split(",") if chunk.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} {text!r}: {exc}") from None
    if not values:
        raise ConfigError(f"no {what} given")
    return values


RUN_KEYS = ("L", "theta", "prior", "snapshot_every")
CONFIG_KEYS = ("stream", *RUN_KEYS, "seed")


def load_run_config(path: str, args: argparse.Namespace) -> RunConfig:
    """Build a RunConfig from the JSON file plus flag overrides; unknown keys are refused.

    Only the keys the file or a flag sets are passed on, so RunConfig and
    StreamConfig own every default. The seed (flag, then top-level key,
    then stream key) becomes the stream's seed, the one seed of a command.
    """
    data = read_json_object(path)
    if not isinstance(data.get("stream"), dict):
        raise ConfigError(f"{path}: expected an object with a 'stream' section")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    stream_data = dict(data["stream"])
    given = {**data, **{k: v for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None}}
    seed = given.get("seed", stream_data.get("seed"))
    if seed is not None:
        stream_data["seed"] = seed
    try:
        stream = make_config(stream_data.pop("kind", None), **stream_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad stream config: {exc}") from exc
    if stream.nuisance == "random_walk" and seed is None:
        raise ConfigError("this stream draws nuisance noise; pass --seed or a config 'seed'")
    run = {key: given[key] for key in RUN_KEYS if key in given}
    return RunConfig(stream=stream, **run)


def cmd_run(args) -> int:
    """run, fifo and restore: score one run, export it under --out, print its summary."""
    cfg = replace(load_run_config(args.config, args), outputs=args.out)
    if args.command == "fifo":
        result = fifo_baseline(cfg)
    elif args.command == "restore":
        result = run_experiment(cfg, restore_state(cfg, args.state))
    else:
        result = run_experiment(cfg)
    if args.out:
        export(result, args.out)
    print(json.dumps({key: result.summary[key] for key in SUMMARY_KEYS}))
    return 0


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, args)
    result = sweep(cfg, args.axis, _split(args.values, json.loads, "sweep values"))
    lines = [",".join(SWEEP_COLUMNS)]
    for row in result.rows:
        lines.append(",".join([row["axis"], *(_fmt(row[k]) for k in SWEEP_COLUMNS[1:])]))
    if args.out:
        write_text(os.path.join(args.out, "sweep.csv"), "\n".join(lines) + "\n")
        if result.fit is not None:
            write_text(os.path.join(args.out, "fit.json"), json.dumps(result.fit, indent=2) + "\n")
    else:
        print("\n".join(lines))
    if result.fit is not None:
        print(json.dumps(result.fit))
    return 0


def cmd_movie(args) -> int:
    cfg = load_run_config(args.config, args)
    state = build_final_state(cfg)
    frames = movie_frames(state.grid, args.frames)
    payload = [g.to_dict() for g in frames]
    if args.out:
        write_text(os.path.join(args.out, "frames.json"), json.dumps(payload) + "\n")
    else:
        print(json.dumps(payload))
    if args.paths:
        trajs = integrate_sde(
            state.grid, n_paths=args.paths, steps=args.steps, seed=cfg.stream.seed
        )
        d = state.grid.d
        lines = ["path_id,step,t," + ",".join(f"x_{i}" for i in range(d))]
        for tr in trajs:
            for s, t in enumerate(tr.times):
                coords = ",".join(repr(float(v)) for v in tr.states[s])
                lines.append(f"{tr.path_id},{s},{float(t)!r},{coords}")
        write_text(os.path.join(args.out or ".", "trajectories.csv"), "\n".join(lines) + "\n")
        if any(tr.log_weight.any() for tr in trajs):  # some segment's weights move
            rows = ["path_id,step,t,log_w"] + [
                f"{tr.path_id},{s},{float(t)!r},{float(w)!r}"
                for tr in trajs
                for s, (t, w) in enumerate(zip(tr.times, tr.log_weight))
            ]
            write_text(os.path.join(args.out or ".", "log_weights.csv"), "\n".join(rows) + "\n")
        diverged = sum(tr.diverged_at is not None for tr in trajs)
        print(json.dumps({"paths": len(trajs), "diverged": diverged}))
    return 0


def cmd_drift_check(args) -> int:
    cfg = load_run_config(args.config, args)
    state = build_final_state(cfg)
    times = _split(args.t, float, "check times")
    residuals = []
    for t in times:
        pts = sample_bulk_points(eval_at(state.grid, t), args.points, seed=cfg.stream.seed)
        residuals.append(fp_residual(state.grid, t, pts))
    stats = {
        "times": times,
        "points": args.points,
        "residuals": residuals,
        "max_residual": max(residuals),
    }
    if args.out:
        write_text(os.path.join(args.out, "drift_check.json"), json.dumps(stats, indent=2) + "\n")
    print(json.dumps(stats))
    return 0


def cmd_snapshot(args) -> int:
    cfg = load_run_config(args.config, args)
    state = build_final_state(cfg, args.day)
    print(json.dumps({"day": state.day, "path": snapshot_state(cfg, state, args.out)}))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casmem", description="Continual-memory experiments on mixture protocol grids."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help="directory for result files"):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help=out_help)
        p.add_argument("--seed", type=int, default=None, help="stream / sampling seed")

    p = sub.add_parser("run", help="run one experiment")
    common(p)
    p.add_argument("--L", type=int, default=None, help="segment budget override")
    p.add_argument("--theta", type=float, default=None, help="half-life threshold override")
    p.add_argument("--snapshot-every", type=int, default=None,
                   help="write a snapshot every N days into --out; none without --out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="repeat the run along one config axis")
    common(p)
    p.add_argument("--axis", required=True, help="config field to sweep (e.g. L, K, P)")
    p.add_argument("--values", required=True, help="comma-separated JSON numbers")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("movie", help="emit interpolated frames (and optional SDE paths)")
    common(p)
    p.add_argument("--frames", type=int, required=True, help="number of frames (>= 2)")
    p.add_argument("--paths", type=int, default=0, help="also integrate this many SDE paths")
    p.add_argument("--steps", type=int, default=400, help="SDE steps when --paths is set")
    p.set_defaults(func=cmd_movie)

    p = sub.add_parser("drift-check", help="Fokker-Planck residuals of the final grid")
    common(p)
    p.add_argument("--t", required=True, help="comma-separated times in (0, 1)")
    p.add_argument("--points", type=int, default=50, help="bulk points per time")
    p.set_defaults(func=cmd_drift_check)

    p = sub.add_parser("fifo", help="sliding-window baseline for the same config")
    common(p)
    p.add_argument("--L", type=int, default=None, help="window length override")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("snapshot", help="run to a given day and save the memory state")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--day", type=int, required=True, help="day to save, 1 to the stream's n_days")
    p.add_argument("--out", required=True, help="directory for the snapshot file")
    p.add_argument("--seed", type=int, default=None, help="stream / sampling seed")
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser(
        "restore", help="resume a snapshot to the end of its stream",
        description="Resume a snapshot to the end of its stream. The records, age curve and "
        "summary cover only the days after the snapshot.",
    )
    common(p)
    p.add_argument("--state", required=True, help="snapshot file")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError is a ValueError, and the library layers raise plain
        # ValueError for bad arguments; LinAlgError is one too, hence the order
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
