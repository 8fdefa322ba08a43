"""The three benchmark workloads: inputs from a seed, a timed body, output checks.

Each workload calls casmem only through module attributes (``harness.run_experiment``,
``protocol.incorporate``, ...), so the tracer's swapped attributes see every call.
``run`` is the timed body and returns raw results; ``summarize`` turns them
into a ``Rep`` with its output checks, after any tracing has ended. Every
repetition repeats the same inputs, and ``same_outputs`` requires each to
match the first bit for bit.

Op and failure accounting per workload:

* recall-ksweep: an op is one sweep point; it fails if it raises or its
  half-life leaves criterion 5's 30 +- 1.
* ingest-movie: an op is one SDE path; it is flagged if it diverges.
* replay-rotating: an op is one SDE path (flagged if it diverges) or one
  Fokker-Planck residual time (fails if the residual is >= 1e-3).

``failed`` counts ops that raised or broke an output bound; ``flagged``
counts diverged paths, which the program reports and the benchmark counts
in ``failed_share`` rather than treating as a crash.
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from casmem import dynamics, harness, protocol, streams

clock = time.perf_counter


@dataclass
class Rep:
    """One repetition of a workload's timed body."""

    wall: tuple[float, float]  # clock at the start and end of the timed body
    work: int  # items behind norm_work_per_s: pairs or path-steps
    work_span: tuple[float, float]  # clock at the start and end of the phase that did that work
    attempted: int
    failed: int
    flagged: int = 0
    rates: dict = field(default_factory=dict)  # named throughputs: name -> (count, span)
    outputs: tuple = ()
    errors: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.wall[1] - self.wall[0]


def _integrated_steps(trajs, steps: int) -> tuple[int, int]:
    """(path-steps integrated, diverged paths); a diverged path stops at its divergence step."""
    total = diverged = 0
    for tr in trajs:
        if tr.diverged_at is None:
            total += steps
        else:
            total += tr.diverged_at
            diverged += 1
    return total, diverged


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


def same_outputs(first: Rep, other: Rep) -> bool:
    return len(first.outputs) == len(other.outputs) and all(
        _same(a, b) for a, b in zip(first.outputs, other.outputs)
    )


# ---------------------------------------------------------------- recall-ksweep

K_VALUES = (1, 2, 3, 5, 8)
HALF_LIFE, HALF_LIFE_TOL = 30, 1  # acceptance criterion 5


def k_stream(k: int, n_days: int):
    """The stream that sweep(RunConfig(circular), "K", ...) runs for this K."""
    if k == 1:
        return streams.make_config("circular", n_days=n_days)
    return streams.make_config("crowding", K=k, n_days=n_days, r=0.8)


class RecallKSweep:
    """Criterion 5's K sweep, one run_experiment per sweep point.

    ``sweep`` returns only summary rows, so the points are run one by one
    on the streams it would build; that keeps the records for the checks.
    """

    name = "recall-ksweep"
    seed_note = "seed-independent: its streams are deterministic, so its spread is timing noise"

    def __init__(self, smoke: bool):
        self.n_days = 50 if smoke else 100

    def grid_bytes(self) -> int:
        return max(protocol.memory_footprint(10, k, 2) for k in K_VALUES) * 8

    def setup(self, seed: int):
        return [harness.RunConfig(stream=k_stream(k, self.n_days)) for k in K_VALUES]

    def run(self, cfgs):
        t0 = clock()
        results = []
        for cfg in cfgs:
            try:
                results.append(harness.run_experiment(cfg))
            except Exception:  # a raising sweep point is a failed op, not a crash
                traceback.print_exc()
                results.append(None)
        return results, (t0, clock())

    def summarize(self, raw) -> Rep:
        results, wall = raw
        errors, outputs, pairs, failed = [], [], 0, 0
        expected = self.n_days * (self.n_days + 1) // 2
        for k, res in zip(K_VALUES, results):
            if res is None:
                failed += 1
                errors.append(f"K={k}: run_experiment raised")
                outputs.append(None)
                continue
            f_raw = np.array([r.F_raw for r in res.records], dtype=float)
            pairs += len(f_raw)
            outputs.append((res.half_life, float(f_raw.sum())))
            if len(f_raw) != expected:
                errors.append(f"K={k}: {len(f_raw)} records, expected n(n+1)/2 = {expected}")
            if not np.isfinite(f_raw).all():
                errors.append(f"K={k}: non-finite F_raw")
            if res.half_life is None or abs(res.half_life - HALF_LIFE) > HALF_LIFE_TOL:
                failed += 1
                errors.append(
                    f"K={k}: half-life {res.half_life}, expected {HALF_LIFE} +- {HALF_LIFE_TOL}"
                )
        return Rep(
            wall, pairs, wall, len(K_VALUES), failed,
            rates={"pairs_per_s": (pairs, wall)},
            outputs=tuple(outputs), errors=errors,
        )


# ---------------------------------------------------------------- ingest-movie

MOMENT_SE_BOUND = 4.0  # acceptance criterion 14


def terminal_moment_devs(terminal: np.ndarray, mean: np.ndarray, cov: np.ndarray):
    """Largest |mean| and |cov| deviation of the samples from (mean, cov), in standard errors."""
    n = len(terminal)
    mean_dev = np.abs(terminal.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / n)
    centred = terminal - terminal.mean(axis=0)
    prods = centred[:, :, None] * centred[:, None, :]
    se_cov = prods.std(axis=0) / np.sqrt(n)
    cov_dev = np.abs(np.cov(terminal.T, bias=True) - cov) / se_cov
    return float(mean_dev.max()), float(cov_dev.max())


class IngestMovie:
    """What ``casmem movie --paths`` does: ingest a long stream, then frames and SDE."""

    name = "ingest-movie"
    seed_note = "seed drives integrate_sde"

    def __init__(self, smoke: bool):
        self.L = 100
        if smoke:
            self.n_days, self.frames, self.paths, self.steps = 150, 20, 300, 100
        else:
            self.n_days, self.frames, self.paths, self.steps = 1000, 200, 1000, 400

    def grid_bytes(self) -> int:
        return protocol.memory_footprint(self.L, 1, 2) * 8

    def setup(self, seed: int):
        targets = streams.generate(streams.make_config("circular", n_days=self.n_days))
        return streams.default_prior(1, 2), targets, seed

    def run(self, inputs):
        prior, targets, seed = inputs
        t0 = clock()
        state = protocol.new_memory(prior, targets[0], self.L)
        for target in targets[1:]:
            state = protocol.incorporate(state, target)
        t1 = clock()
        frames = dynamics.movie_frames(state.grid, self.frames)
        t2 = clock()
        trajs = dynamics.integrate_sde(state.grid, self.paths, self.steps, seed)
        t3 = clock()
        return state.grid, frames, trajs, (t0, t1, t2, t3)

    def summarize(self, raw) -> Rep:
        grid, frames, trajs, (t0, t1, t2, t3) = raw
        path_steps, diverged = _integrated_steps(trajs, self.steps)
        terminal = np.stack([tr.states[-1] for tr in trajs])
        mom = protocol.eval_at(grid, 1.0).overall_moments()
        errors = []
        if len(frames) != self.frames:
            errors.append(f"movie_frames returned {len(frames)} frames, expected {self.frames}")
        alive = terminal[np.isfinite(terminal).all(axis=1)]
        if len(alive) < 2:
            errors.append("fewer than two SDE paths stayed finite")
        else:
            mean_dev, cov_dev = terminal_moment_devs(alive, mom.mean, mom.cov)
            if not (mean_dev < MOMENT_SE_BOUND and cov_dev < MOMENT_SE_BOUND):
                errors.append(
                    f"terminal SDE moments off eval_at(1.0): mean {mean_dev:.2f} SE, "
                    f"cov {cov_dev:.2f} SE (bound {MOMENT_SE_BOUND})"
                )
        return Rep(
            (t0, t3), path_steps, (t2, t3), self.paths, 0, diverged,
            rates={"days_per_s": (self.n_days, (t0, t1)), "path_steps_per_s": (path_steps, (t2, t3))},
            outputs=(terminal, mom.mean, mom.cov),
            errors=errors,
        )


# ---------------------------------------------------------------- replay-rotating

FP_TIMES = (0.13, 0.31, 0.52, 0.74, 0.93)  # acceptance criterion 14
FP_BOUND = 1e-3


class ReplayRotating:
    """Weight-changing replay SDE and Fokker-Planck residuals on rotating_dominance.

    Its drift needs the Poisson term, so every step runs the adaptive
    quadrature. Paths diverge on this stream today; they are counted,
    not hidden.
    """

    name = "replay-rotating"
    seed_note = "seed drives integrate_sde and sample_bulk_points"

    def __init__(self, smoke: bool):
        self.L = 10
        if smoke:
            self.paths, self.steps, self.points = 20, 20, 10
        else:
            self.paths, self.steps, self.points = 200, 200, 50

    def grid_bytes(self) -> int:
        return protocol.memory_footprint(self.L, 3, 12) * 8

    def setup(self, seed: int):
        targets = streams.generate(streams.make_config("rotating_dominance"))
        state = protocol.new_memory(
            streams.default_prior(targets[0].k, targets[0].d), targets[0], self.L
        )
        for target in targets[1:]:
            state = protocol.incorporate(state, target)
        pts = [
            dynamics.sample_bulk_points(protocol.eval_at(state.grid, t), self.points, seed=seed)
            for t in FP_TIMES
        ]
        return state.grid, pts, seed

    def run(self, inputs):
        grid, pts, seed = inputs
        t0 = clock()
        trajs = dynamics.integrate_sde(grid, self.paths, self.steps, seed)
        t1 = clock()
        residuals = [dynamics.fp_residual(grid, t, p) for t, p in zip(FP_TIMES, pts)]
        t2 = clock()
        return trajs, residuals, (t0, t1, t2)

    def summarize(self, raw) -> Rep:
        trajs, residuals, (t0, t1, t2) = raw
        path_steps, diverged = _integrated_steps(trajs, self.steps)
        res = np.array(residuals, dtype=float)
        bad = int(np.count_nonzero(~(res < FP_BOUND)))
        errors = [
            f"fp_residual at t={t}: {r!r} (bound {FP_BOUND})"
            for t, r in zip(FP_TIMES, residuals)
            if not r < FP_BOUND
        ]
        terminal = np.stack([tr.states[-1] for tr in trajs])
        return Rep(
            (t0, t2), path_steps, (t0, t1), self.paths + len(FP_TIMES), bad, diverged,
            rates={"path_steps_per_s": (path_steps, (t0, t1))},
            outputs=(terminal, res),
            errors=errors,
        )


WORKLOADS = {w.name: w for w in (RecallKSweep, IngestMovie, ReplayRotating)}
