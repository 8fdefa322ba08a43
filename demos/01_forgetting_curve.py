"""A first run: one drifting Gaussian, one memory, one forgetting curve.

The target density moves around a circle, one step per day. The memory
keeps a fixed budget of 11 mixture nodes on a unit time grid and folds
each new day in by relabelling, appending and rebinning. Recall of day m
after n days is the grid read at t = (L/(L+1))^(n-m); the normalized
error between recall and the true day-m density, averaged over pairs of
equal age, is the forgetting curve.

Run from the repository root:  python3 demos/01_forgetting_curve.py
"""
import os

import numpy as np

from casmem.harness import RunConfig, export, run_experiment
from casmem.streams import make_config

OUT = os.path.join(os.path.dirname(__file__), "out", "forgetting_curve")


def main():
    cfg = RunConfig(stream=make_config("circular"), L=10, theta=0.5)
    result = run_experiment(cfg)

    curve = result.curve
    print(f"days: {cfg.stream.n_days}, budget L = {cfg.L}, "
          f"records: {len(result.records)}")
    print(f"retention half-life (first age with F_bar >= {cfg.theta}): "
          f"{result.half_life} days")
    print()
    print("age  F_bar   pairs")
    for a in (1, 5, 10, 20, 29, 30, 31, 46, 75, 99):
        i = int(np.searchsorted(curve.ages, a))
        print(f"{a:>3}  {curve.values[i]:.4f}  {int(curve.counts[i]):>4}")

    peak = int(np.argmax(curve.values))
    print()
    print(f"the curve overshoots 1.0 (recall worse than amnesia) around age "
          f"{int(curve.ages[peak])}: F_bar = {curve.values[peak]:.4f}")
    print("that is confusion: the readout blends the probed day with its "
          "neighbours, and half a period away the blend points the wrong way")

    files = export(result, OUT)
    print()
    print("wrote " + ", ".join(os.path.relpath(f) for f in files))


if __name__ == "__main__":
    main()
