"""The memory as a stochastic process: frames, drift checks, sample paths.

The node grid defines a density path p(x, t) for t in [0, 1]. This demo
treats that path three ways:

* as a movie: mixtures at interpolated times, ready for a plotter;
* as a continuity equation: the reconstructed drift must transport
  p(., t) exactly, which fp_residual verifies pointwise;
* as an ensemble of sample paths: Euler-Maruyama integration with unit
  diffusion from t = 0 reaches the t = 1 mixture, checked on moments.

Everything is seeded; rerunning reproduces the numbers bit for bit.

Run from the repository root:  python3 demos/05_replay_dynamics.py
"""
import json
import os

import numpy as np

from casmem.dynamics import fp_residual, integrate_sde, movie_frames, sample_bulk_points
from casmem.harness import RunConfig, build_final_state
from casmem.protocol import eval_at
from casmem.streams import make_config

OUT = os.path.join(os.path.dirname(__file__), "out", "replay_dynamics")


def main():
    os.makedirs(OUT, exist_ok=True)
    state = build_final_state(RunConfig(stream=make_config("circular")))
    grid = state.grid

    frames = movie_frames(grid, 25)
    frame_path = os.path.join(OUT, "frames.json")
    with open(frame_path, "w") as fh:
        json.dump([g.to_dict() for g in frames], fh)
    centres = np.stack([g.overall_moments().mean for g in frames])
    print(f"wrote {len(frames)} frames to {os.path.relpath(frame_path)}")
    print(f"frame centres sweep from {np.round(centres[0], 2)} to "
          f"{np.round(centres[-1], 2)}")
    print()

    print("continuity-equation residuals (relative, 40 bulk points each):")
    for t in (0.13, 0.31, 0.52, 0.74, 0.93):
        pts = sample_bulk_points(eval_at(grid, t), 40, seed=5)
        print(f"  t = {t:.2f}: {fp_residual(grid, t, pts):.2e}")
    print()

    trajs = integrate_sde(grid, n_paths=2000, steps=400, seed=0)
    terminal = np.stack([t.states[-1] for t in trajs])
    mom = eval_at(grid, 1.0).overall_moments()
    diverged = sum(t.diverged_at is not None for t in trajs)
    print(f"integrated {len(trajs)} paths, {diverged} diverged")
    print(f"terminal mean: sampled {np.round(terminal.mean(axis=0), 3)} "
          f"vs exact {np.round(mom.mean, 3)}")
    print(f"terminal cov diag: sampled {np.round(terminal.var(axis=0), 3)} "
          f"vs exact {np.round(np.diag(mom.cov), 3)}")

    # a few raw paths for plotting
    path_file = os.path.join(OUT, "paths.csv")
    with open(path_file, "w") as fh:
        fh.write("path_id,step,t,x_0,x_1\n")
        for tr in trajs[:10]:
            for s, t in enumerate(tr.times):
                fh.write(f"{tr.path_id},{s},{float(t)!r},"
                         f"{float(tr.states[s, 0])!r},{float(tr.states[s, 1])!r}\n")
    print(f"wrote 10 sample paths to {os.path.relpath(path_file)}")


if __name__ == "__main__":
    main()
