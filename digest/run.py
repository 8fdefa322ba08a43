"""Equivalence digest: sha256 digests of casmem's outputs on one fixed manifest.

Usage, from the repository root:

    python3 digest/run.py --out digest/out/digest.json
    python3 digest/run.py --tree /path/to/other/checkout --out other.json
    python3 digest/run.py --smoke --out smoke.json       # a few entries, for the tests
    diff digest/out/digest.json other.json

The file is one flat JSON object, written with sorted keys and one entry a
line, so two trees are compared by diffing their two files. Each entry
names one output; its value is the sha256 of that output's bytes, an exit
code, or a number. The manifest is fixed here, before any change that it
gates; a change to the manifest is a change of its own.

* ``acceptance/<test>/<call>``: records, age curve and summary of every
  ``run_experiment`` and ``fifo_baseline`` call that the tree's
  ``tests/test_acceptance.py`` makes, sweeps included, numbered in call order.
* ``demos/``: the stdout and ``demos/out/`` files of the tree's demos, run on
  a temporary copy of ``demos/``; the copy's path is replaced by ``<tmp>``.
* ``cli/<config>/<command>/``: the exit code, stdout and result files of
  ``run``, ``fifo``, ``snapshot``, ``restore``, ``sweep`` (L, K, P, theta),
  ``movie --paths`` and ``drift-check`` on the configs of ``CLI_CONFIGS``.
* ``sde/<grid>/``: the SDE states, log-weights and ``diverged_at`` of every
  path on a constant-weight and a moving-weight grid at L = 10, and on the
  ``ingest-movie`` workload's constant-weight L = 100 grid at 40 steps.
* ``fp_residual/<grid>/...``: Fokker-Planck residuals on the two L = 10
  grids as numbers, not digests, since a refactor may move them in the last
  bits on moving weights. ``drift-check``'s residuals are kept as numbers too.

The tree's ``src/`` is imported into this process, and its CLI is run in
process through ``casmem.cli.main``. The exit code is 0 when the digest is
written and 2 when the tree holds no casmem package.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every config runs run, fifo, snapshot (at SNAPSHOT_DAY) and restore from it.
CLI_CONFIGS = {
    "circular": {"stream": {"kind": "circular", "n_days": 60}, "L": 10},
    "triangle": {"stream": {"kind": "triangle", "n_days": 60}, "L": 6, "snapshot_every": 7},
    "crowding8": {"stream": {"kind": "crowding", "K": 8, "n_days": 40}, "L": 8},
    "rotating12": {"stream": {"kind": "rotating_dominance", "d": 12, "n_days": 40}, "L": 10},
    "embedded_walk": {
        "stream": {"kind": "embedded", "d": 6, "nuisance": "random_walk", "n_days": 50},
        "L": 10, "seed": 3,
    },
    "point_prior": {
        "stream": {"kind": "circular", "n_days": 50},
        "L": 10, "prior": {"kind": "point", "x0": [0.5, -0.5], "var": 1e-6},
    },
    "split_merge": {"stream": {"kind": "split_merge"}, "L": 10, "snapshot_every": 25},
}
SNAPSHOT_DAY = 20
SWEEPS = {"L": "5,10,15", "K": "1,3", "P": "25,50", "theta": "0.3,0.5"}  # on circular
# movie --paths and drift-check run on a constant-weight and a moving-weight grid
REPLAY_CONFIGS = ("circular", "rotating12")
MOVIE_ARGS = ["--frames", "5", "--paths", "20", "--steps", "40"]
DRIFT_ARGS = ["--t", "0.13,0.52,0.93", "--points", "20"]
# grid name: stream, L and steps
SDE_GRIDS = {
    "circular": ({"kind": "circular", "n_days": 100}, 10, 100),
    "rotating12": ({"kind": "rotating_dominance", "d": 12, "n_days": 100}, 10, 100),
    "circular_L100": ({"kind": "circular", "n_days": 1000}, 100, 40),
}
SDE_PATHS, SDE_SEED = 100, 0
# at L = 100 every FP time is a node time, which fp_residual refuses
FP_GRIDS, FP_TIMES, FP_POINTS = ("circular", "rotating12"), (0.13, 0.31, 0.52, 0.74, 0.93), 50


def sha(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def result_entries(result) -> dict:
    """Digests of a RunResult's records, age curve and summary (every key)."""
    from casmem.metrics import age_curve_csv_lines, records_csv_lines

    return {
        "records": sha("\n".join(records_csv_lines(result.records))),
        "age_curve": sha("\n".join(age_curve_csv_lines(result.curve))),
        "summary": sha(json.dumps(result.summary, sort_keys=True)),
    }


def file_entries(directory: Path, prefix: str, tmp: str) -> dict:
    """Digests of every file under directory, keyed by prefix and relative path."""
    return {
        f"{prefix}/{path.relative_to(directory).as_posix()}": sha(
            path.read_bytes().replace(tmp.encode(), b"<tmp>")
        )
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


# ------------------------------------------------------------------ manifest parts


def acceptance(tree: Path, entries: dict) -> None:
    """Run the tree's acceptance tests, recording every run_experiment and fifo_baseline result."""
    import pytest

    from casmem import harness

    calls: dict[str, int] = {}

    def recorded(fn):
        def wrapper(cfg, *args, **kwargs):
            result = fn(cfg, *args, **kwargs)
            test = os.environ.get("PYTEST_CURRENT_TEST", "?").split("::")[-1].split(" ")[0]
            n = calls[test] = calls.get(test, 0) + 1
            for key, value in result_entries(result).items():
                entries[f"acceptance/{test}/{n:02d}.{fn.__name__}/{key}"] = value
            return result

        return wrapper

    saved = harness.run_experiment, harness.fifo_baseline
    harness.run_experiment, harness.fifo_baseline = map(recorded, saved)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = pytest.main(
                [str(tree / "tests" / "test_acceptance.py"), "-q", "-p", "no:cacheprovider"]
            )
    finally:
        harness.run_experiment, harness.fifo_baseline = saved
    print(f"digest: acceptance tests exit {int(code)}, {sum(calls.values())} recorded calls",
          file=sys.stderr)


def demos(tree: Path, entries: dict) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "demos"
        copy.mkdir()
        for demo in sorted((tree / "demos").glob("0*.py")):
            shutil.copy(demo, copy)
        for demo in sorted(copy.glob("0*.py")):
            done = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=env,
                                  capture_output=True, text=True, timeout=600)
            entries[f"demos/{demo.name}/exit"] = done.returncode
            entries[f"demos/{demo.name}/stdout"] = sha(done.stdout.replace(tmp, "<tmp>"))
        entries.update(file_entries(copy / "out", "demos/out", tmp))


def cli(entries: dict, smoke: bool) -> None:
    from casmem.cli import main

    with tempfile.TemporaryDirectory() as tmp:

        def command(name: str, step: str, *argv: str, out: bool = True) -> str:
            """Run one subcommand on config name; record its exit code, stdout and --out files."""
            key, directory = f"cli/{name}/{step}", Path(tmp) / name / step
            argv = (argv[0], "--config", str(Path(tmp) / f"{name}.json"), *argv[1:])
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                entries[f"{key}/exit"] = main([*argv, *(["--out", str(directory)] if out else [])])
            entries[f"{key}/stdout"] = sha(stdout.getvalue().replace(tmp, "<tmp>"))
            if directory.is_dir():
                entries.update(file_entries(directory, key, tmp))
            return stdout.getvalue()

        for name in ("circular",) if smoke else CLI_CONFIGS:
            (Path(tmp) / f"{name}.json").write_text(json.dumps(CLI_CONFIGS[name]))
            command(name, "run", "run")
            command(name, "fifo", "fifo")
            command(name, "snapshot", "snapshot", "--day", str(SNAPSHOT_DAY))
            state = Path(tmp) / name / "snapshot" / f"snapshot_day{SNAPSHOT_DAY:04d}.json"
            command(name, "restore", "restore", "--state", str(state))
            if name == "circular" and not smoke:
                for axis, values in SWEEPS.items():
                    command(name, f"sweep_{axis}", "sweep", "--axis", axis, "--values", values)
            if name in REPLAY_CONFIGS and not smoke:
                command(name, "movie", "movie", *MOVIE_ARGS)
                stdout = command(name, "drift-check", "drift-check", *DRIFT_ARGS, out=False)
                if stdout:
                    entries[f"cli/{name}/drift-check/residuals"] = json.loads(stdout)["residuals"]


def sde(entries: dict, smoke: bool) -> None:
    import numpy as np

    from casmem.dynamics import fp_residual, integrate_sde, sample_bulk_points
    from casmem.harness import RunConfig, build_final_state
    from casmem.protocol import eval_at
    from casmem.streams import make_config

    grids = {"circular": SDE_GRIDS["circular"]} if smoke else SDE_GRIDS
    for name, (stream, L, steps) in grids.items():
        grid = build_final_state(RunConfig(stream=make_config(**stream), L=L)).grid
        trajs = integrate_sde(grid, 10 if smoke else SDE_PATHS, 20 if smoke else steps, SDE_SEED)
        for field in ("states", "log_weight"):
            digest = hashlib.sha256()
            for tr in trajs:
                digest.update(np.ascontiguousarray(getattr(tr, field), dtype=float).tobytes())
            entries[f"sde/{name}/{field}"] = digest.hexdigest()
        entries[f"sde/{name}/diverged_at"] = sha(json.dumps([tr.diverged_at for tr in trajs]))
        if name not in FP_GRIDS:
            continue
        for t in FP_TIMES[:1] if smoke else FP_TIMES:
            pts = sample_bulk_points(eval_at(grid, t), FP_POINTS, seed=SDE_SEED)
            entries[f"fp_residual/{name}/t={t}"] = float(fp_residual(grid, t, pts))


# ------------------------------------------------------------------ entry point


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", default=str(ROOT), help="checkout whose src/ is digested")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--smoke", action="store_true", help="a few entries, for the digest's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tree = Path(args.tree).resolve()
    if not (tree / "src" / "casmem" / "__init__.py").is_file():
        print(f"digest: no casmem package under {tree / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(tree / "src"))
    sys.dont_write_bytecode = True
    entries: dict = {}
    cli(entries, args.smoke)
    sde(entries, args.smoke)
    if not args.smoke:
        demos(tree, entries)
        acceptance(tree, entries)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(entries, indent=0, sort_keys=True) + "\n")
    print(f"digest: {len(entries)} entries in {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
