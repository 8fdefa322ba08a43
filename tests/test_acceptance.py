"""Headline acceptance checks, one test per criterion.

Each test prints a single summary line with the measured values next to
the bound it must satisfy, so a verbose run doubles as a results table.
These are end-to-end runs at full scale; the whole file takes on the
order of a minute.
"""
import itertools
import time

import numpy as np
import pytest

from casmem.dynamics import fp_residual, integrate_sde, path_slice, psi_potential, sample_bulk_points
from casmem.gm import GaussianMixture
from casmem.harness import RunConfig, build_final_state, fifo_baseline, run_experiment, sweep
from casmem.metrics import channel_shares, match_components
from casmem.protocol import (
    ProtocolGrid, add, eval_at, incorporate, new_memory, rebin_matrix, smooth,
)
from casmem.streams import (
    class_prior,
    default_prior,
    generate,
    make_config,
    synthetic_class_mixture,
)


def report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def default_run():
    t0 = time.perf_counter()
    res = run_experiment(RunConfig(stream=make_config("circular")))
    return res, time.perf_counter() - t0


def test_criterion_01_default_half_life(default_run):
    res, runtime = default_run
    ok = abs(res.half_life - 30) <= 1 and runtime < 1.0
    report(1, ok, f"a_half={res.half_life} (30 +- 1), runtime={runtime:.2f}s (< 1 s)")
    assert abs(res.half_life - 30) <= 1
    assert runtime < 1.0


def test_criterion_02_budget_sweep_single_component():
    res = sweep(RunConfig(stream=make_config("circular")), "L", [5, 8, 10, 15, 20, 30])
    got = [r["half_life"] for r in res.rows]
    expected = [14, 24, 30, 44, 51, 74]
    c, t_star = res.fit["c"], res.fit["t_star"]
    ok = all(abs(g - e) <= 2 for g, e in zip(got, expected)) and 2.1 <= c <= 2.7
    report(2, ok, f"a_half={got} (~{expected} +- 2), c={c:.3f} (in [2.1, 2.7]), t*={t_star:.3f}")
    for g, e in zip(got, expected):
        assert abs(g - e) <= 2
    assert 2.1 <= c <= 2.7
    # implied revisit time is consistent across the sweep
    assert 0.05 <= t_star <= 0.15


def test_criterion_03_period_sweep_saturates():
    res = sweep(RunConfig(stream=make_config("circular")), "P", [25, 50, 100, 200])
    got = [r["half_life"] for r in res.rows]
    expected = [20, 30, 34, 36]
    gain = got[3] - got[2]
    ok = all(abs(g - e) <= 2 for g, e in zip(got, expected)) and gain <= 4
    report(3, ok, f"a_half={got} (~{expected} +- 2), a(P=200)-a(P=100)={gain} (<= 4)")
    for g, e in zip(got, expected):
        assert abs(g - e) <= 2
    assert gain <= 4


def test_criterion_04_linear_drift_outlasts_circular(default_run):
    res = run_experiment(RunConfig(stream=make_config("linear")))
    circular_hl = default_run[0].half_life
    curve = res.curve
    crossing = int(np.searchsorted(curve.ages, res.half_life))
    diffs = np.diff(curve.values[: crossing + 1])
    ok = abs(res.half_life - 42) <= 4 and res.half_life > circular_hl and diffs.min() >= -1e-12
    report(4, ok, f"a_half={res.half_life} (42 +- 4, > {circular_hl}), "
                  f"min rise before crossing={diffs.min():.2e} (>= 0)")
    assert abs(res.half_life - 42) <= 4
    assert res.half_life > circular_hl
    assert diffs.min() >= -1e-12


def test_criterion_05_component_count_sweep():
    res = sweep(RunConfig(stream=make_config("circular")), "K", [1, 2, 3, 5, 8])
    got = [r["half_life"] for r in res.rows]
    ok = all(abs(g - 30) <= 1 for g in got)
    report(5, ok, f"a_half={got} (each 30 +- 1)")
    for g in got:
        assert abs(g - 30) <= 1


def test_criterion_06_budget_sweep_three_components():
    res = sweep(RunConfig(stream=make_config("triangle")), "L", [5, 10, 15, 20, 30])
    got = [r["half_life"] for r in res.rows]
    expected = [14, 30, 41, 50, 71]
    ok = all(abs(g - e) <= 2 for g, e in zip(got, expected))
    report(6, ok, f"a_half={got} (~{expected} +- 2)")
    for g, e in zip(got, expected):
        assert abs(g - e) <= 2


def test_criterion_07_mean_channel_dominates_ring_stream():
    res = run_experiment(RunConfig(stream=make_config("triangle")))
    mean_share = res.summary["mean_share"]
    ratios = [r.F_weight / r.F_raw for r in res.records if r.F_raw > 0.0]
    worst = max(ratios)
    ok = 0.78 <= mean_share <= 0.92 and worst < 1e-12
    report(7, ok, f"mean share={mean_share:.3f} (in [0.78, 0.92]), "
                  f"max F_weight/F_raw={worst:.2e} (< 1e-12)")
    assert 0.78 <= mean_share <= 0.92
    assert worst < 1e-12


def test_criterion_08_confusion_overshoot(default_run):
    curve = default_run[0].curve
    i = int(np.argmax(curve.values))
    peak, peak_age = float(curve.values[i]), int(curve.ages[i])
    terminal = float(curve.values[curve.ages == 99][0])
    ok = 1.02 <= peak <= 1.15 and 40 <= peak_age <= 60 and abs(terminal - 1.0) < 0.05
    report(8, ok, f"max Fbar={peak:.4f} (in [1.02, 1.15]) at age {peak_age} (in [40, 60]), "
                  f"Fbar(99)={terminal:.4f} (~1)")
    assert 1.02 <= peak <= 1.15
    assert 40 <= peak_age <= 60
    assert abs(terminal - 1.0) < 0.05


def test_criterion_09_crowding_costs_capacity():
    got = {}
    for chi in (1.0, 1.5, 3.65):
        r = chi * np.sqrt(0.3)
        res = run_experiment(RunConfig(stream=make_config("crowding", r=float(r))))
        got[chi] = res.half_life
    ok = (
        abs(got[1.0] - 30) <= 1 and abs(got[1.5] - 30) <= 1 and abs(got[3.65] - 20) <= 3
    )
    report(9, ok, f"a_half={got} (chi<=1.5: 30 +- 1, chi=3.65: 20 +- 3)")
    assert abs(got[1.0] - 30) <= 1
    assert abs(got[1.5] - 30) <= 1
    assert abs(got[3.65] - 20) <= 3


def test_criterion_10_dimension_scaling():
    hls, shares = {}, {}
    for d in (2, 4, 8, 16):
        res = run_experiment(RunConfig(stream=make_config("embedded", d=d)))
        hls[d], shares[d] = res.half_life, res.summary["mean_share"]
    noisy = run_experiment(
        RunConfig(stream=make_config("embedded", d=16, nuisance="random_walk", speed=0.1, seed=1))
    )
    ok = (
        abs(hls[2] - 30) <= 1
        and abs(hls[16] - 34) <= 2
        and hls[16] > hls[2]
        and 0.5 <= shares[16] <= 0.7
        and 28 <= noisy.half_life <= 35
    )
    report(10, ok, f"a_half={hls} (30 -> 34 +- 2), mean share(d=16)={shares[16]:.3f} "
                   f"(0.60 +- 0.10), with walk={noisy.half_life} (in [28, 35])")
    assert abs(hls[2] - 30) <= 1
    assert abs(hls[16] - 34) <= 2
    assert hls[16] > hls[2]
    assert 0.5 <= shares[16] <= 0.7
    assert 28 <= noisy.half_life <= 35


def test_criterion_11_split_merge_keeps_half_life():
    res = run_experiment(RunConfig(stream=make_config("split_merge")))
    ok = abs(res.half_life - 30) <= 1
    report(11, ok, f"a_half={res.half_life} (30 +- 1)")
    assert abs(res.half_life - 30) <= 1


def test_criterion_12_rotating_dominance_decomposition():
    # Fixed shapes, rotating weights; the run is longer than the default so
    # the day-1 ramp has washed out before the compared days.
    base = synthetic_class_mixture(12, 3, seed=7)
    cfg = RunConfig(
        stream=make_config("rotating_dominance", n_days=160),
        prior=class_prior(base),
    )
    res = run_experiment(cfg)
    mean_share, cov_share, _ = channel_shares(res.records, min_age=11)

    # Every day applies the same rebin operator and the stream repeats with
    # period P, so recall repeats too: F_raw(m, n) == F_raw(m - P, n - P), up
    # to what is left of the day-1 ramp. Node 0 holds the prior on every day;
    # nodes 1..L start as the ramp from the prior to day 1, and their share of
    # every node decays under the rebin operator. That share only falls, so
    # its largest value over the compared pairs is the one on the first
    # shifted day n - P.
    L, P, n_days = cfg.L, int(cfg.stream.P), cfg.stream.n_days
    first = 100
    W = rebin_matrix(L)
    ramp = np.ones(L + 1)
    ramp[0] = 0.0
    for _ in range(first - 1):
        ramp = W @ np.append(ramp, 0.0)
    ramp_weight = float(ramp.max())

    F = {(rec.m, rec.n): rec.F_raw for rec in res.records}
    ages = range(1, 2 * P + 1)

    def shift_gap(shift):
        """Largest relative change of F_raw at each age under a day shift."""
        return {
            a: max(
                abs(F[n - a, n] - F[n - a - shift, n - shift]) / F[n - a, n]
                for n in range(first + P, n_days + 1)
            )
            for a in ages
        }

    period_gap = shift_gap(P)
    third_gap = shift_gap(P // 3)
    worst_age = max(ages, key=period_gap.get)
    alias_age = min(ages, key=third_gap.get)
    raw = {}
    for rec in res.records:
        raw.setdefault(rec.age, []).append(rec.F_raw)
    f = {a: float(np.mean(raw[a])) for a in (15, 30, 45, 60)}
    ok = (cov_share > mean_share and ramp_weight < 3e-4
          and period_gap[worst_age] < 1e-3 and third_gap[alias_age] > 0.1)
    report(12, ok, f"cov share={cov_share:.3f} > mean share={mean_share:.3f}; "
                   f"ramp weight at day {first}={ramp_weight:.2e} (< 3e-4); "
                   f"period-{P} gap={period_gap[worst_age]:.1e} at age {worst_age} (< 1e-3); "
                   f"period-{P // 3} gap={third_gap[alias_age]:.2f} at age {alias_age} (> 0.1); "
                   f"F_raw(15,30,45,60)=({f[15]:.3f}, {f[30]:.3f}, {f[45]:.3f}, {f[60]:.3f})")
    assert cov_share > mean_share
    assert ramp_weight < 3e-4
    # The ramp moves F_raw by about 1.4 times its weight, so 3e-4 of ramp
    # stays well inside 1e-3; an update that treated day n other than day
    # n - P would not.
    assert period_gap[worst_age] < 1e-3, (worst_age, period_gap[worst_age])
    # The class mixture is asymmetric so the rotation does not alias down to
    # P/3: a third of a period later, recall is a different day's content.
    assert third_gap[alias_age] > 0.1, (alias_age, third_gap[alias_age])


def test_criterion_13_fifo_baseline(default_run):
    got = {}
    for L in (5, 10, 20):
        res = fifo_baseline(RunConfig(stream=make_config("circular"), L=L))
        got[L] = res.half_life
    ratio = default_run[0].half_life / got[10]
    ok = all(got[L] == L for L in got) and ratio >= 2.0
    report(13, ok, f"fifo a_half={got} (exactly L), ratio={ratio:.2f} (>= 2)")
    for L in (5, 10, 20):
        assert got[L] == L
    assert ratio >= 2.0


def test_criterion_14_dynamics_properties():
    times = (0.13, 0.31, 0.52, 0.74, 0.93)
    worst = {}
    for kind in ("circular", "triangle", "rotating_dominance"):
        grid = build_final_state(RunConfig(stream=make_config(kind))).grid
        worst[kind] = max(
            fp_residual(grid, t, sample_bulk_points(eval_at(grid, t), 50, seed=5))
            for t in times
        )
    assert all(w < 1e-3 for w in worst.values()), worst

    # potential equation: finite-difference Laplacian against the source
    grid3 = build_final_state(RunConfig(stream=make_config("rotating_dominance", d=3))).grid
    sl = path_slice(grid3, 0.37)
    pts = sample_bulk_points(sl.gm, 20, seed=2)
    h = 1e-3
    stencil = [pts]
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        stencil.extend([pts + e, pts - e])
    psi = psi_potential(sl, np.concatenate(stencil)).reshape(7, len(pts))
    lap = (psi[1:].sum(axis=0) - 6 * psi[0]) / h**2
    source = np.exp(sl.gm.component_log_density(pts)) @ sl.weight_rates
    poisson_rel = float(np.abs(lap - source).max() / np.abs(source).max())
    assert poisson_rel < 1e-4

    # replay SDE: terminal marginals against the grid endpoint
    grid = build_final_state(RunConfig(stream=make_config("circular"))).grid
    t0 = time.perf_counter()
    trajs = integrate_sde(grid, n_paths=5000, steps=400, seed=0)
    sde_time = time.perf_counter() - t0
    terminal = np.stack([t.states[-1] for t in trajs])
    mom = eval_at(grid, 1.0).overall_moments()
    n = len(terminal)
    se_mean = np.sqrt(np.diag(mom.cov) / n)
    mean_dev = np.abs(terminal.mean(axis=0) - mom.mean) / se_mean
    centred = terminal - terminal.mean(axis=0)
    prods = centred[:, :, None] * centred[:, None, :]
    se_cov = prods.std(axis=0) / np.sqrt(n)
    cov_dev = np.abs(np.cov(terminal.T, bias=True) - mom.cov) / se_cov
    ok = (
        all(w < 1e-3 for w in worst.values())
        and poisson_rel < 1e-4
        and mean_dev.max() < 4.0
        and cov_dev.max() < 4.0
        and sde_time < 30.0
    )
    report(14, ok, f"max FP residual={max(worst.values()):.2e} (< 1e-3), "
                   f"potential rel err={poisson_rel:.2e} (< 1e-4), "
                   f"SDE dev={max(mean_dev.max(), cov_dev.max()):.2f} SE (< 4), "
                   f"SDE time={sde_time:.1f}s (< 30 s)")
    assert mean_dev.max() < 4.0
    assert cov_dev.max() < 4.0
    assert sde_time < 30.0


def test_criterion_14_weighted_replay_on_moving_weights():
    # on moving weights the replay paths carry log-weights, not a Poisson drift:
    # they stay in the bulk, and the self-normalised weighted terminal moments
    # match the grid endpoint within 4 effective-sample-size (ESS) based SE
    grid = build_final_state(RunConfig(stream=make_config("rotating_dominance", d=12))).grid
    mom = eval_at(grid, 1.0).overall_moments()
    for seed in range(4):
        trajs = integrate_sde(grid, n_paths=2000, steps=100, seed=seed)
        farthest = max(float(np.linalg.norm(t.states, axis=1).max()) for t in trajs)
        terminal = np.stack([t.states[-1] for t in trajs])
        log_w = np.array([t.log_weight[-1] for t in trajs])
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        ess = 1.0 / (w @ w)
        mean = w @ terminal
        centred = terminal - mean
        prods = centred[:, :, None] * centred[:, None, :]
        cov = np.einsum("n,nij->ij", w, prods)
        mean_dev = np.abs(mean - mom.mean) / np.sqrt(w @ centred**2 / ess)
        cov_se = np.sqrt(np.einsum("n,nij->ij", w, (prods - cov) ** 2) / ess)
        dev = max(mean_dev.max(), (np.abs(cov - mom.cov) / cov_se).max())
        flagged = sum(t.diverged_at is not None for t in trajs)
        report(14, dev < 4.0 and farthest <= 50.0 and flagged == 0,
               f"weighted SDE seed {seed}: ESS={ess:.0f}, dev={dev:.2f} SE (< 4), "
               f"max |x|={farthest:.1f} (<= 50), {flagged} flagged")
        assert flagged == 0 and farthest <= 50.0
        assert dev < 4.0


def test_criterion_15_oracle_equivalences():
    rng = np.random.default_rng(15)

    # analytic moments vs brute Monte Carlo
    w = rng.uniform(0.5, 1.5, 3)
    w /= w.sum()
    means = rng.normal(0.0, 2.0, (3, 3))
    covs = np.empty((3, 3, 3))
    for i in range(3):
        a = rng.normal(0.0, 0.6, (3, 3))
        covs[i] = a @ a.T + 0.4 * np.eye(3)
    gm = GaussianMixture(w, means, covs)
    n = 1_000_000
    x = gm.sample(n, seed=16)
    mom = gm.overall_moments()
    mean_dev = np.abs(x.mean(axis=0) - mom.mean) / np.sqrt(np.diag(mom.cov) / n)
    centred = x - x.mean(axis=0)
    prods = centred[:, :, None] * centred[:, None, :]
    cov_dev = np.abs(np.cov(x.T, bias=True) - mom.cov) / (prods.std(axis=0) / np.sqrt(n))
    mc_ok = mean_dev.max() < 5.0 and cov_dev.max() < 5.0

    # assignment vs exhaustive enumeration
    match_ok = True
    for _ in range(200):
        k = int(rng.integers(1, 7))
        a = GaussianMixture(
            np.full(k, 1.0 / k), rng.normal(0.0, 2.0, (k, 2)), np.tile(np.eye(2), (k, 1, 1))
        )
        b = GaussianMixture(
            np.full(k, 1.0 / k), rng.normal(0.0, 2.0, (k, 2)), np.tile(np.eye(2), (k, 1, 1))
        )
        perm = match_components(a.means, b.means)
        cost = float(np.sum((a.means - b.means[perm]) ** 2))
        best = min(
            float(np.sum((a.means - b.means[list(p)]) ** 2))
            for p in itertools.permutations(range(k))
        )
        if not np.isclose(cost, best, rtol=1e-12, atol=0.0):
            match_ok = False
            break

    # smooth: direct interpolation vs the explicit rebin matrix
    targets = generate(make_config("triangle", n_days=7))
    smooth_gap = 0.0
    for L in (3, 10):
        state = new_memory(default_prior(3, 2), targets[0], L)
        for t in targets[1:6]:
            state = incorporate(state, t)
        aug = add(state.grid, targets[6])
        direct = smooth(aug)
        W = rebin_matrix(L)
        for x, y in zip((direct.weights, direct.means, direct.covs), aug):
            stacked = y.reshape(L + 2, -1)
            smooth_gap = max(smooth_gap, float(np.abs(x.reshape(L + 1, -1) - W @ stacked).max()))

    # compression: relabelled times evaluate to the same mixtures
    state = new_memory(default_prior(3, 2), targets[0], 10)
    for t in targets[1:6]:
        state = incorporate(state, t)
    grid = state.grid
    # add returns plain arrays; a grid is built here only to call eval_at
    aug = ProtocolGrid(*add(grid, targets[6]))
    shrink = grid.L / (grid.L + 1.0)
    compress_gap = 0.0
    for s in np.linspace(0.0, 1.0, 101):
        p = eval_at(aug, float(s) * shrink)
        q = eval_at(grid, float(s))
        compress_gap = max(
            compress_gap,
            float(np.abs(p.weights - q.weights).max()),
            float(np.abs(p.means - q.means).max()),
            float(np.abs(p.covs - q.covs).max()),
        )

    ok = mc_ok and match_ok and smooth_gap <= 1e-14 and compress_gap <= 1e-13
    report(15, ok, f"MC dev={max(mean_dev.max(), cov_dev.max()):.2f} SE (< 5), "
                   f"matcher exact on 200 pairs: {match_ok}, "
                   f"smooth gap={smooth_gap:.1e} (<= 1e-14), "
                   f"compress gap={compress_gap:.1e} (<= 1e-13)")
    assert mc_ok
    assert match_ok
    assert smooth_gap <= 1e-14
    assert compress_gap <= 1e-13
