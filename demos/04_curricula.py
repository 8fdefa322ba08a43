"""Structured curricula: merge/split phases and rotating class dominance.

Part one runs the 100-day split-merge schedule: the three ring components
collapse onto their centre, separate again, then collapse differently.
The half-life does not move, and the error decomposition shows why: the
grid stores parameter paths, so component geometry changes are just more
mean-channel motion, no harder than drift.

Part two freezes the component shapes entirely (three anisotropic
classes) and rotates only their weights with period 30. Started from a
whitened prior that already knows the class means, everything the memory
has to learn lives in covariances and weights, and the decomposition
flips to covariance-dominated. Forgetting does not dip at whole periods.
Node 0 of the grid is the prior and never changes, and day m is read out
at t = (L / (L + 1)) ** age. Past age log L / log(1 + 1/L), about 24 at
L = 10, that time falls in the first segment, so recall is interpolated
toward the prior with weight 1 - L t. Raw forgetting rises with age up to
that horizon, overshoots the amnesia gap between the prior and the day's
target by up to 9% while recall is a partial blend (the confusion
overshoot of criterion 8), and stays within 2% of that gap from age 45
on. What repeats with the period is the whole (m, n) table,
F_raw(m, n) = F_raw(m - 30, n - 30), which acceptance criterion 12 checks.

Run from the repository root:  python3 demos/04_curricula.py
"""
import numpy as np

from casmem.harness import RunConfig, run_experiment
from casmem.metrics import channel_shares, moment_gap
from casmem.protocol import readout_time
from casmem.streams import (
    class_prior,
    generate,
    make_config,
    split_merge_radii,
    synthetic_class_mixture,
)


def main():
    print("split-merge schedule (ring radii by day):")
    for day in (1, 30, 35, 50, 55, 80, 85, 100):
        radii = split_merge_radii(day)
        print(f"  day {day:>3}: radii = ({radii[0]:.2f}, {radii[1]:.2f}, {radii[2]:.2f})")
    res = run_experiment(RunConfig(stream=make_config("split_merge")))
    shares = (res.summary["mean_share"], res.summary["cov_share"], res.summary["weight_share"])
    print(f"  a_half = {res.half_life}, channel shares (mean, cov, weight) = "
          f"({shares[0]:.2f}, {shares[1]:.2f}, {shares[2]:.2f})")
    print()

    print("rotating dominance (fixed shapes, softmax weights, period 30):")
    base = synthetic_class_mixture(12, 3, seed=7)
    cfg = RunConfig(
        stream=make_config("rotating_dominance", n_days=160),
        prior=class_prior(base),
    )
    res = run_experiment(cfg)
    mean_s, cov_s, weight_s = channel_shares(res.records, min_age=11)
    print(f"  shares over ages > 10: mean = {mean_s:.3f}, cov = {cov_s:.3f}, "
          f"weight = {weight_s:.3f}  (covariance-dominated)")

    ages, f_raws = res.records.age, res.records.F_raw
    prior = res.final_state.prior.overall_moments()
    amnesia = [moment_gap(prior, t.overall_moments()) for t in generate(cfg.stream)]
    L = cfg.L
    print(f"  recall horizon log L / log(1 + 1/L) = {np.log(L) / np.log1p(1 / L):.1f} days; "
          f"past it recall is interpolated toward the prior")
    print("    age  prior weight  F_raw  amnesia  ratio")
    for a in (5, 15, 24, 30, 35, 45, 60, 90, 120):
        at_age = f_raws[ages == a]
        f_raw = np.mean(at_age)
        gap = np.mean(amnesia[: len(at_age)])
        weight = max(0.0, 1.0 - L * readout_time(L, a))
        print(f"    {a:>3}  {weight:>12.3f}  {f_raw:>5.3f}  {gap:>7.3f}  {f_raw / gap:>5.3f}")
    print("  (amnesia: mean gap between the prior and the targets of the same days)")


if __name__ == "__main__":
    main()
