"""casmem benchmark: recall, ingest and replay-SDE workloads, untraced or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload recall-ksweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke        # every workload and check, tiny sizes

One run sets the workload up (imports, stream generation, grid build) in
this process and in fresh interpreters, then repeats the workload's timed
body on the same seeded inputs until ``--seconds`` is used up. It prints
each metric by name and unit, checks the outputs, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the ``end_to_end`` ones of BENCHMARK.json, measured with
no wrapper installed; their times are rescaled to a fixed host speed by
the probe in ``hostspeed.py``. With ``--trace 1`` untraced and traced
repetitions alternate and the metrics are the ``per_layer`` ones; the
spans of the traced repetitions are written to
``perfbench/out/spans-<workload>.npz``.

The exit code is 0 when every output check passes, 1 when one fails and 2
when the program under test cannot be found or the arguments are bad.
BLAS and OpenMP are pinned to one thread before numpy is imported.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAMED_RATES = {"pairs_per_s": "pairs/s", "days_per_s": "days/s", "path_steps_per_s": "path-steps/s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def find_program() -> Path:
    """The checkout's src/ directory, which must hold the casmem package."""
    src = ROOT / "src"
    if not (src / "casmem" / "__init__.py").is_file():
        print(f"perfbench: no casmem package under {src}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    return src


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or commit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "seed": seed,
    }


# ------------------------------------------------------------------ measuring


def fresh_setup_s(args) -> float:
    """Adjusted set-up time of a fresh interpreter: imports, stream generation, grid build."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, inputs, args, setups: list[float], probe):
    """Repeat the timed body until the time is used up.

    Untraced reps run under the host-speed probe; under --trace 1, traced
    reps alternate with plain ones and nothing is probed. Set-up samples
    from fresh interpreters are taken between reps, so that they, like the
    reps, are spread over the whole run. Peak RSS is read after the first
    rep: set-up plus one run of the body, as a user running it once sees
    it. Later reps add heap fragments in steps at random reps, so a
    reading at the end would depend on how many reps the host allowed.
    """
    from tracer import Tracer

    n_setups = 2 if args.smoke else 5
    plain, traced, tracers, counts = [], [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        if args.trace and len(traced) < len(plain):
            tracer = Tracer(RECORDED)
            with tracer.installed(), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                raw = workload.run(inputs)
            counts.append(count_calls(tracer.calls, len(caught)))
            tracer.calls.clear()
            traced.append(workload.summarize(raw))
            tracers.append(tracer)
            last = traced[-1]
        else:
            if probe is None:
                raw = workload.run(inputs)
            else:
                with probe:
                    raw = workload.run(inputs)
            plain.append(workload.summarize(raw))
            last = plain[-1]
        del raw
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(setups) < n_setups:
            setups.append(fresh_setup_s(args))
        elapsed = time.perf_counter() - start
        if (elapsed + last.wall_s > args.seconds and len(setups) >= n_setups
                and (traced or not args.trace)):
            return plain, traced, tracers, counts, peak_rss_mb


def _points(args, kwargs) -> int:
    import numpy as np

    x = np.asarray(kwargs["x"] if "x" in kwargs else args[1])
    return 1 if x.ndim == 1 else len(x)


RECORDED = ("dynamics.drift_with_stats", "dynamics.poisson_psi_grad", "metrics.match_components",
            "metrics.age_curve", "dynamics.fp_residual")


def count_calls(calls: dict, n_warnings: int) -> Counter:
    """Counters from the recorded calls of one traced repetition, after it ended."""
    import numpy as np

    c = Counter(numpy_warnings=n_warnings)
    for args, kwargs, (_, clamps) in calls["dynamics.drift_with_stats"]:
        c["drift_points"] += _points(args, kwargs)
        c["density_clamps"] += int(clamps)
    for args, kwargs, _ in calls["dynamics.poisson_psi_grad"]:
        c["poisson_points"] += _points(args, kwargs)
    for _, _, perm in calls["metrics.match_components"]:
        c["matches"] += 1
        c["nonidentity_matches"] += int(not np.array_equal(perm, np.arange(len(perm))))
    for _, _, curve in calls["metrics.age_curve"]:
        c["skipped_zero_baseline"] += int(curve.skipped)
    c["fp_max_residual"] = max((float(r) for _, _, r in calls["dynamics.fp_residual"]), default=0.0)
    return c


def layer_metrics(workload, rep, tracer, c: Counter) -> dict[str, float]:
    """Per-layer values of one traced repetition, with its call counters."""
    import numpy as np

    from tracer import LAYERS

    spans = tracer.by_name()

    def incl(name):
        return spans[name]["s"] if name in spans else 0.0

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def self_s(name):
        return spans[name]["self_s"] if name in spans else 0.0

    layer_self = {
        layer: sum(v["self_s"] for k, v in spans.items() if k.split(".", 1)[0] == layer)
        for layer in LAYERS
    }
    inc = spans.get("protocol.incorporate")
    out = {
        "protocol.replay_s": incl("protocol.replay"),
        "protocol.replay_calls": calls("protocol.replay"),
        "gm.overall_moments_s": incl("gm.GaussianMixture.overall_moments"),
        "gm.overall_moments_calls": calls("gm.GaussianMixture.overall_moments"),
        "metrics.day_records_self_s": self_s("metrics.day_records"),
        "metrics.moment_gap_calls": calls("metrics.moment_gap"),
        "metrics.decompose_s": incl("metrics.decomposed_forgetting"),
        "metrics.decompose_calls": calls("metrics.decomposed_forgetting"),
        "metrics.match_s": incl("metrics.match_components"),
        "metrics.match_nonidentity_share": c["nonidentity_matches"] / c["matches"] if c["matches"] else 0.0,
        "metrics.skipped_zero_baseline": c["skipped_zero_baseline"],
        "protocol.incorporate_s": incl("protocol.incorporate"),
        "protocol.incorporate_calls": calls("protocol.incorporate"),
        "protocol.incorporate_p99_ms": float(np.percentile(inc["durations"], 99)) * 1e3 if inc else 0.0,
        "protocol.grid_bytes": workload.grid_bytes(),
        "protocol.eval_at_s": incl("protocol.eval_at"),
        "protocol.eval_at_calls": calls("protocol.eval_at"),
        "dynamics.path_slice_s": incl("dynamics.path_slice"),
        "dynamics.movie_frames_s": incl("dynamics.movie_frames"),
        "dynamics.drift_s": incl("dynamics.drift_with_stats"),
        "dynamics.drift_calls": calls("dynamics.drift_with_stats"),
        "dynamics.drift_points": c["drift_points"],
        "dynamics.sde_self_s": self_s("dynamics.integrate_sde"),
        "dynamics.poisson_s": incl("dynamics.poisson_psi_grad"),
        "dynamics.poisson_points": c["poisson_points"],
        "dynamics.density_clamps": c["density_clamps"],
        "dynamics.clamp_share": c["density_clamps"] / c["drift_points"] if c["drift_points"] else 0.0,
        "dynamics.diverged_paths": rep.flagged,
        "dynamics.numpy_warnings": c["numpy_warnings"],
        "dynamics.fp_residual_s": incl("dynamics.fp_residual"),
        "dynamics.fp_max_residual": c["fp_max_residual"],
        "streams.generate_s": incl("streams.generate"),
        "trace.unattributed_s": rep.wall_s - sum(layer_self.values()),
        "failed_share": (rep.failed + rep.flagged) / rep.attempted,
    }
    out.update({f"{layer}.self_s": s for layer, s in layer_self.items()})
    return out


# ------------------------------------------------------------------ reporting


def describe(values) -> str:
    """Median, range and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}  min {min(values):.6g}  max {max(values):.6g}"
    if n >= 20:
        q = math.floor(100.0 * (1.0 - 10.0 / n))
        text += f"  p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return f"{text}  (n={n})"


def metric_block(spec_list, values: dict) -> dict:
    missing = {m["name"] for m in spec_list} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in spec_list}


def run_one(args) -> int:
    from hostspeed import Probe

    # The probe needs numpy, so set-up is sampled from numpy's import on;
    # those samples stand for the few imports before it as well.
    with Probe() as setup_probe:
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.smoke)
        inputs = workload.setup(args.seed % 2**32)
    own_setup = setup_probe.adjusted(T0, time.perf_counter())
    if args.setup_only:
        print(repr(own_setup))
        return 0

    print(f"environment {json.dumps(environment(args.seed))}")
    probe = None if args.trace else Probe()
    setups = [own_setup]
    plain, traced, tracers, counts, peak_rss_mb = measure(workload, inputs, args, setups, probe)
    reps = plain + traced

    errors = [e for rep in reps for e in rep.errors]
    errors += [f"repetition {i + 1} differs from repetition 1"
               for i, rep in enumerate(reps[1:], 1) if not workloads.same_outputs(reps[0], rep)]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    flagged = sum(r.flagged for r in reps)

    def seconds(span):  # program time of a span, without the probe's own
        return probe.raw(*span) if probe is not None else span[1] - span[0]

    walls = [seconds(r.wall) for r in plain]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    print(f"workload {workload.name}  seed {args.seed}  ({workload.seed_note})")
    print(f"  reps {len(plain)} untraced, {len(traced)} traced")
    print(f"  {'setup_s':18s} {describe(setups)} {units['setup_s']}")
    print(f"  {'wall_s':18s} {describe(walls)} s")
    for name, unit in NAMED_RATES.items():
        vals = [r.rates[name][0] / seconds(r.rates[name][1]) for r in plain if name in r.rates]
        print(f"  {name:18s} {describe(vals) + ' ' + unit if vals else 'n/a on this workload'}")
    print(f"  {'peak_rss_mb':18s} {peak_rss_mb:.6g} MB  (set-up and the first rep, one process)")
    print(f"  {'failed_share':18s} {(failed + flagged) / attempted:.6g}  "
          f"({failed} failed + {flagged} diverged of {attempted} ops)")
    e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb}
    if probe is not None:
        norm_walls = [probe.adjusted(*r.wall) for r in plain]
        norm_rates = [r.work / probe.adjusted(*r.work_span) for r in plain]
        e2e["norm_wall_s"] = statistics.median(norm_walls)
        e2e["norm_work_per_s"] = statistics.median(norm_rates)
        ref = [probe.reference_s(*r.wall) for r in plain]
        print(f"  {'reference_s':18s} {describe(ref)} s  (host-speed kernel, {len(probe.start)} samples)")
        print(f"  {'norm_wall_s':18s} {describe(norm_walls)} {units['norm_wall_s']}")
        print(f"  {'norm_work_per_s':18s} {describe(norm_rates)} {units['norm_work_per_s']}")
    for e in sorted(set(errors)):
        print(f"  CHECK FAILED: {e}")

    if args.trace:
        per_rep = [layer_metrics(workload, rep, tr, c) for rep, tr, c in zip(traced, tracers, counts)]
        layers = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        layers["trace.overhead_s"] = statistics.fmean(r.wall_s for r in traced) - statistics.fmean(walls)
        metrics = metric_block(SPEC["per_layer"], layers)
        print("  per layer (median over traced reps):")
        for name, m in metrics.items():
            print(f"    {name:32s} {m['value']:.6g} {m['unit']}")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        from tracer import save_spans

        save_spans(out_dir / f"spans-{workload.name}.npz", tracers)
    else:
        metrics = metric_block(SPEC["end_to_end"], e2e)

    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors else 0


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up time and peak RSS are its own."""
    status, results = 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or results[name] is None:
            status = 1
    print(json.dumps({
        "correct": status == 0 and all(r and r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(find_program()), str(HERE)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
