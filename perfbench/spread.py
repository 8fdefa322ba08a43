"""Run the benchmark on several seeds and report each end-to-end metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --runs 10 [--workload ingest-movie ...] [--out perfbench/baseline.json]

For every workload and end-to-end metric it prints the median of the runs
and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound from BENCHMARK.json. It exits 1 when the spread of any
metric but ``setup_s`` exceeds that bound. Runs go seed-major (every
workload on seed s before seed s + 1), one at a time, so no two runs share
the processor.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    env = next((json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("environment ")), {})
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in SPEC["workloads"]]
    p.add_argument("--workload", nargs="*", choices=names, default=names)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--out", type=Path, help="write the medians, spreads and environment as JSON")
    args = p.parse_args(argv)

    values = {w: {m["name"]: [] for m in SPEC["end_to_end"]} for w in args.workload}
    env = {}
    for i in range(args.runs):
        for w in args.workload:
            result, env = one_run(w, args.first_seed + i, args.seconds)
            if not result["correct"]:
                raise RuntimeError(f"{w} seed {args.first_seed + i}: output check failed")
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"{w} seed {args.first_seed + i}: "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    report, within = {}, True
    for w, per_metric in values.items():
        report[w] = {}
        for m in SPEC["end_to_end"]:
            vals = per_metric[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread <= m["bound"]
            within &= ok
            report[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": m["bound"], "values": vals}
            print(f"{w:16s} {m['name']:12s} median {med:<12.6g} spread {spread:7.2%}  "
                  f"bound {m['bound']:.0%}  {'' if ok else 'OVER BOUND'}")
    if args.out:
        env.pop("seed", None)
        payload = {"environment": env, "runs": args.runs, "first_seed": args.first_seed,
                   "seconds": args.seconds, "workloads": report}
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
