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

import numpy as np

from .dynamics import fp_residual, integrate_sde, movie_frames, sample_bulk_points
from .errors import ConfigError, NumericalError
from .harness import (
    SUMMARY_KEYS,
    SWEEP_COLUMNS,
    RunConfig,
    build_final_state,
    daily_states,
    export,
    fifo_baseline,
    restore_state,
    run_experiment,
    snapshot_state,
    stream_targets,
    sweep,
)
from .protocol import eval_at
from .streams import make_config


def _fmt(value) -> str:
    return "" if value is None else repr(value)


CONFIG_KEYS = ("stream", "L", "theta", "prior", "snapshot_every", "seed")


def load_run_config(path: str, args: argparse.Namespace) -> RunConfig:
    """Build a RunConfig from the JSON file plus flag overrides; unknown keys are refused."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "stream" not in data:
        raise ConfigError(f"{path}: expected an object with a 'stream' section")
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    stream_data = dict(data["stream"])
    kind = stream_data.pop("kind", None)
    if kind is None:
        raise ConfigError(f"{path}: stream section needs a 'kind'")

    seed = getattr(args, "seed", None)
    if seed is None:
        seed = data.get("seed", stream_data.get("seed"))
    if seed is not None:
        stream_data["seed"] = int(seed)
    try:
        stream = make_config(kind, **stream_data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: bad stream config: {exc}") from exc
    if stream.nuisance == "random_walk" and seed is None:
        raise ConfigError(
            "this stream draws nuisance noise; pass --seed or set 'seed' in the config"
        )

    L = getattr(args, "L", None)
    if L is None:
        L = data.get("L", 10)
    theta = getattr(args, "theta", None)
    if theta is None:
        theta = data.get("theta", 0.5)
    snap = getattr(args, "snapshot_every", None)
    if snap is None:
        snap = data.get("snapshot_every")
    return RunConfig(
        stream=stream,
        L=int(L),
        theta=float(theta),
        prior=data.get("prior", "standard"),
        outputs=getattr(args, "out", None),
        snapshot_every=None if snap is None else int(snap),
    )


def cmd_run(args) -> int:
    """run, fifo and restore: score one run, export it under --out, print its summary."""
    cfg = load_run_config(args.config, args)
    if args.command == "fifo":
        result = fifo_baseline(cfg)
    elif args.command == "restore":
        result = run_experiment(cfg, restore_state(args.state))
    else:
        result = run_experiment(cfg)
    if args.out:
        export(result, args.out)
    print(json.dumps({key: result.summary[key] for key in SUMMARY_KEYS}))
    return 0


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config, args)
    values = []
    for chunk in args.values.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(int(chunk))
        except ValueError:
            try:
                values.append(float(chunk))
            except ValueError:
                raise ConfigError(f"sweep value {chunk!r} is not a number") from None
    if not values:
        raise ConfigError("no sweep values given")
    result = sweep(cfg, args.axis, values)
    lines = [",".join(SWEEP_COLUMNS)]
    for row in result.rows:
        values = [row["axis"], repr(row["value"])] + [_fmt(row[k]) for k in SWEEP_COLUMNS[2:]]
        lines.append(",".join(values))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "sweep.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        if result.fit is not None:
            with open(os.path.join(args.out, "fit.json"), "w") as fh:
                json.dump(result.fit, fh, indent=2)
                fh.write("\n")
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
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "frames.json"), "w") as fh:
            json.dump(payload, fh)
            fh.write("\n")
    else:
        print(json.dumps(payload))
    if args.paths:
        seed = 0 if args.seed is None else args.seed
        trajs = integrate_sde(state.grid, n_paths=args.paths, steps=args.steps, seed=seed)
        d = state.grid.d
        lines = ["path_id,step,t," + ",".join(f"x_{i}" for i in range(d))]
        for tr in trajs:
            for s, t in enumerate(tr.times):
                coords = ",".join(repr(float(v)) for v in tr.states[s])
                lines.append(f"{tr.path_id},{s},{float(t)!r},{coords}")
        out_dir = args.out or "."
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "trajectories.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
        diverged = sum(tr.diverged_at is not None for tr in trajs)
        print(json.dumps({"paths": len(trajs), "diverged": diverged}))
    return 0


def cmd_drift_check(args) -> int:
    cfg = load_run_config(args.config, args)
    state = build_final_state(cfg)
    try:
        times = [float(chunk) for chunk in args.t.split(",") if chunk.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad time list {args.t!r}: {exc}") from exc
    if not times:
        raise ConfigError("no check times given")
    seed = 0 if args.seed is None else args.seed
    residuals = []
    for t in times:
        pts = sample_bulk_points(eval_at(state.grid, t), args.points, seed=seed)
        residuals.append(fp_residual(state.grid, t, pts))
    stats = {
        "times": times,
        "points": args.points,
        "residuals": residuals,
        "max_residual": max(residuals),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "drift_check.json"), "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    print(json.dumps(stats))
    return 0


def cmd_snapshot(args) -> int:
    cfg = load_run_config(args.config, args)
    targets = stream_targets(cfg)
    if not 1 <= args.day <= len(targets):
        raise ConfigError(f"--day must lie in [1, {len(targets)}], got {args.day}")
    for state in daily_states(cfg, targets[: args.day]):
        pass
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"snapshot_day{state.day:04d}.json")
    snapshot_state(state, path)
    print(json.dumps({"day": state.day, "path": path}))
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
    p.add_argument("--snapshot-every", dest="snapshot_every", type=int, default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="repeat the run along one config axis")
    common(p)
    p.add_argument("--axis", required=True, help="config field to sweep (e.g. L, K, P)")
    p.add_argument("--values", required=True, help="comma-separated values")
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
    p.add_argument("--config", required=True)
    p.add_argument("--day", type=int, required=True)
    p.add_argument("--out", required=True, help="directory for the snapshot file")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("restore", help="resume a snapshot to the end of its stream")
    p.add_argument("--config", required=True)
    p.add_argument("--state", required=True, help="snapshot file")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        # bad stream parameters, snapshot schema mismatches and out-of-range
        # flag values all surface as ValueError from the library layers
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
