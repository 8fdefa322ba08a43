import warnings
from functools import partial

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

import casmem.dynamics as dyn
from casmem.dynamics import (
    PathSlice,
    _adaptive_integral,
    drift_with_stats,
    fp_residual,
    integrate_sde,
    movie_frames,
    path_slice,
    poisson_psi_grad,
    psi_potential,
    sample_bulk_points,
    shape_current,
)
from casmem.errors import ConfigError, NumericalError
from casmem.gm import DERIVED_WEIGHT_TOL, GaussianMixture, _factor, _log_weights, _symmetrize
from casmem.gm import stack_mixtures
from casmem.protocol import ProtocolGrid, eval_at, incorporate, new_memory
from casmem.streams import KINDS, default_prior, generate, make_config


def static_slice(gm, weight_rates=None):
    k, d = gm.k, gm.d
    wr = np.zeros(k) if weight_rates is None else np.asarray(weight_rates, float)
    return PathSlice(gm, wr, np.zeros((k, d)), np.zeros((k, d, d)))


def small_grid(kind="circular", n_days=12, L=5, **kw):
    targets = generate(make_config(kind, n_days=n_days, **kw))
    state = new_memory(default_prior(targets[0].k, targets[0].d), targets[0], L)
    for t in targets[1:]:
        state = incorporate(state, t)
    return state.grid


def test_path_slice_rates_are_segment_differences():
    grid = small_grid(n_days=6, L=3)
    segs = grid.L
    sl = path_slice(grid, 0.4)  # inside segment 1
    assert np.allclose(sl.mean_rates, (grid.means[2] - grid.means[1]) * segs)
    assert np.allclose(sl.cov_rates, (grid.covs[2] - grid.covs[1]) * segs)
    assert np.allclose(sl.weight_rates, (grid.weights[2] - grid.weights[1]) * segs)
    # rates are constant within a segment, and t = 1 takes the left limit
    sl2 = path_slice(grid, 0.55)
    assert np.allclose(sl.mean_rates, sl2.mean_rates)
    end = path_slice(grid, 1.0)
    assert np.allclose(end.mean_rates, (grid.means[3] - grid.means[2]) * segs)
    for t in (-0.01, 1.01, 1.2):
        with pytest.raises(ValueError, match=r"t must lie in \[0, 1\]"):
            path_slice(grid, t)


def test_path_slice_validates_rates():
    gm = default_prior(2, 2)
    with pytest.raises(ValueError):
        PathSlice(gm, np.array([0.5, 0.1]), np.zeros((2, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        PathSlice(gm, np.zeros(2), np.zeros((3, 2)), np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        PathSlice(gm, np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2, 2)))


def test_path_slice_rates_come_back_c_ordered():
    gm = default_prior(2, 3)
    rng = np.random.default_rng(8)
    mr = np.asfortranarray(rng.normal(size=(2, 3)))
    cr = np.asfortranarray(rng.normal(size=(2, 3, 3)))
    sl = PathSlice(gm, np.array([0.25, -0.25]), mr, cr)
    assert sl.mean_rates.flags.c_contiguous and sl.cov_rates.flags.c_contiguous
    assert np.array_equal(sl.mean_rates, mr)
    assert np.array_equal(sl.cov_rates, 0.5 * (cr + np.swapaxes(cr, 1, 2)))


def test_shape_current_single_component_closed_form():
    gm = GaussianMixture(np.ones(1), np.zeros((1, 2)), 0.7 * np.eye(2)[None])
    mdot = np.array([[0.3, -0.2]])
    sl = PathSlice(gm, np.zeros(1), mdot, np.zeros((1, 2, 2)))
    pts = np.random.default_rng(0).normal(0.0, 1.0, (9, 2))
    expect = gm.density(pts)[:, None] * mdot
    assert np.allclose(shape_current(sl, pts), expect, rtol=1e-12)


def test_poisson_gradient_matches_1d_closed_form():
    # In one dimension psi_k'' = g_k integrates to Phi((x - m)/sigma) - 1/2
    # (the heat-kernel construction picks the odd antiderivative).
    sigmas = np.array([0.8, 1.7])
    means = np.array([[-0.4], [0.9]])
    gm = GaussianMixture(np.array([0.5, 0.5]), means, (sigmas**2)[:, None, None] * np.eye(1))
    rate = 0.37
    sl = PathSlice(gm, np.array([rate, -rate]), np.zeros((2, 1)), np.zeros((2, 1, 1)))
    x = np.linspace(-4.0, 4.0, 41)[:, None]
    got = poisson_psi_grad(sl, x)[:, 0]
    expect = rate * (norm.cdf((x[:, 0] - means[0, 0]) / sigmas[0]) - 0.5)
    expect -= rate * (norm.cdf((x[:, 0] - means[1, 0]) / sigmas[1]) - 0.5)
    assert np.abs(got - expect).max() < 1e-8


def test_poisson_potential_solves_the_poisson_equation():
    # d = 3: finite-difference Laplacian of psi against the weight source.
    grid = small_grid("rotating_dominance", n_days=8, L=4, d=3)
    t = 0.37
    sl = path_slice(grid, t)
    assert np.abs(sl.weight_rates).sum() > 1e-6
    pts = sample_bulk_points(sl.gm, 10, seed=2)
    h = 1e-3
    offsets = h * np.eye(3)
    stencil = [pts]
    for i in range(3):
        stencil.append(pts + offsets[i])
        stencil.append(pts - offsets[i])
    psi = psi_potential(sl, np.concatenate(stencil)).reshape(7, len(pts))
    lap = (psi[1] + psi[2] + psi[3] + psi[4] + psi[5] + psi[6] - 6 * psi[0]) / h**2
    source = np.exp(sl.gm.component_log_density(pts)) @ sl.weight_rates
    rel = np.abs(lap - source).max() / np.abs(source).max()
    assert rel < 1e-4


def test_poisson_terms_vanish_for_static_weights():
    gm = default_prior(2, 2)
    sl = static_slice(gm)
    pts = np.random.default_rng(1).normal(0.0, 1.0, (5, 2))
    assert np.array_equal(poisson_psi_grad(sl, pts), np.zeros((5, 2)))
    # the zero fast path also sidesteps the d <= 2 divergence guard
    assert np.array_equal(psi_potential(sl, pts), np.zeros(5))
    with pytest.raises(ValueError):
        psi_potential(static_slice(gm, [0.5, -0.5]), pts)


def test_drift_reduces_to_half_score_when_frozen():
    gm = GaussianMixture(
        np.array([0.6, 0.4]),
        np.array([[0.0, 0.0], [1.5, -0.5]]),
        np.stack([0.5 * np.eye(2), np.diag([0.4, 1.1])]),
    )
    sl = static_slice(gm)
    pts = np.random.default_rng(2).normal(0.0, 1.2, (14, 2))
    vel, clamped = drift_with_stats(sl, pts)
    assert clamped == 0
    assert np.allclose(vel, 0.5 * gm.score(pts), atol=1e-12)


def counted(g, calls):
    """An f(u, w) for _adaptive_integral that weights g's node values and logs
    the (lowest, highest) node of each panel of each call."""

    def f(u, w):
        assert u.ndim == 2 and u.shape[1] == 22 and w.shape == (len(u), 2, 22)
        calls.append([(row.min(), row.max()) for row in u])
        return w @ g(u.ravel()).reshape(*u.shape, -1)

    return f


def spike(u):
    return (1.0 / (1e-8 + (u - 0.7312) ** 2))[:, None]


def peak(u):
    return (1.0 / (1e-3 + (u - 0.7312) ** 2))[:, None]


PEAK_INTEGRAL = (np.arctan(0.2688 / 1e-3**0.5) + np.arctan(0.7312 / 1e-3**0.5)) / 1e-3**0.5


def test_adaptive_integral_converges_and_stalls():
    calls = []
    # smooth integrand: int_0^1 exp(u) du, resolved on the first panel
    got = _adaptive_integral(counted(lambda u: np.exp(u)[:, None], calls), 1e-10, 50)
    assert got[0] == pytest.approx(np.e - 1.0, rel=1e-12)
    assert [len(c) for c in calls] == [1]
    # a moving spike cannot be resolved with a too-small panel budget; the
    # budget of 3 allows two splits, so 1 + 2 + 2 panels in three calls
    calls.clear()
    with pytest.raises(NumericalError):
        _adaptive_integral(counted(spike, calls), 1e-12, 3)
    assert [len(c) for c in calls] == [1, 2, 2]
    # a resolvable peak: one call for the start, one per split with both
    # halves, never the same panel twice
    calls.clear()
    got = _adaptive_integral(counted(peak, calls), 1e-10, 200)
    assert got[0] == pytest.approx(PEAK_INTEGRAL, rel=1e-9)
    assert len(calls) > 1 and [len(c) for c in calls] == [1] + [2] * (len(calls) - 1)
    panels = [p for c in calls for p in c]
    assert len(set(panels)) == len(panels)


def reference_psi_terms(sl, pts, with_potential):
    """The node-tensor quadrature: kernel * z / den at every node, weighted afterwards.

    Runs on the same panel scheme as _psi_terms, but builds the (q, n, d)
    values node by node and only then applies the rule weights.
    """
    gm = sl.gm
    n, d = pts.shape
    grad, pot = np.zeros((n, d)), np.zeros(n)
    norm = (2.0 * np.pi) ** (-0.5 * d)
    for k in np.nonzero(np.abs(sl.weight_rates) > 0.0)[0]:
        lam, q_basis = np.linalg.eigh(gm.covs[k])
        z = (pts - gm.means[k]) @ q_basis
        lmax = float(lam[-1])

        def per_node(u):
            s = lmax * u / (1.0 - u)
            jac = lmax / (1.0 - u) ** 2
            den = lam[None, :] + 2.0 * s[:, None]
            quad = np.einsum("nd,qd->qn", z * z, 1.0 / den)
            kernel = np.exp(-0.5 * quad - 0.5 * np.log(den).sum(axis=1)[:, None])
            kernel *= jac[:, None]
            out = (kernel[:, :, None] * (z[None, :, :] / den[:, None, :])).reshape(len(u), n * d)
            return np.concatenate([out, kernel], axis=1) if with_potential else out

        total = _adaptive_integral(
            lambda u, w: w @ per_node(u.ravel()).reshape(*u.shape, -1),
            dyn.QUAD_REL_TOL,
            dyn.QUAD_MAX_PANELS,
        )
        rate = float(sl.weight_rates[k])
        grad += rate * norm * total[: n * d].reshape(n, d) @ q_basis.T
        if with_potential:
            pot -= rate * norm * total[n * d :]
    return grad, pot


@pytest.mark.parametrize("d, L, n_days, with_potential", [(12, 10, 100, False), (3, 4, 8, True)])
def test_psi_terms_match_node_tensor_reference(d, L, n_days, with_potential):
    grid = small_grid("rotating_dominance", n_days=n_days, L=L, d=d)
    for t in (0.37, 0.81):
        sl = path_slice(grid, t)
        assert np.abs(sl.weight_rates).sum() > 1e-6
        bulk = sample_bulk_points(sl.gm, 30, seed=7)
        for pts in (bulk, 4.0 * bulk):
            ref = reference_psi_terms(sl, pts, with_potential=False)[0]
            err = np.abs(poisson_psi_grad(sl, pts) - ref).max(axis=0)
            assert np.all(err <= 1e-13 * np.abs(ref).max(axis=0))
            if with_potential:
                ref = reference_psi_terms(sl, pts, with_potential=True)[1]
                assert np.abs(psi_potential(sl, pts) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_fp_residual_is_small_on_a_real_grid():
    grid = small_grid("circular", n_days=15, L=5)
    pts = sample_bulk_points(eval_at(grid, 0.45), 25, seed=3)
    assert fp_residual(grid, 0.45, pts) < 1e-3


def test_fp_residual_with_moving_weights():
    grid = small_grid("rotating_dominance", n_days=8, L=4, d=3)
    pts = sample_bulk_points(eval_at(grid, 0.37), 12, seed=4)
    assert fp_residual(grid, 0.37, pts) < 1e-3


@pytest.mark.parametrize(
    "kind, kw, t", [("circular", {}, 0.45), ("rotating_dominance", {"d": 3}, 0.37)]
)
def test_fp_residual_equals_separate_evaluations(kind, kw, t):
    # the stencil's density and score come from the drift's own evaluation;
    # the residual must equal the one assembled from separate calls
    grid = small_grid(kind, n_days=8, L=4, **kw)
    pts = sample_bulk_points(eval_at(grid, t), 12, seed=4)
    n, d = pts.shape
    dt, h = 1e-5, 1e-4
    dpdt = (eval_at(grid, t + dt).density(pts) - eval_at(grid, t - dt).density(pts)) / (2.0 * dt)
    sl = path_slice(grid, t)
    offsets = h * np.eye(d)
    stencil = np.concatenate(
        [pts[:, None, :] + offsets[None, :, :], pts[:, None, :] - offsets[None, :, :]], axis=1
    ).reshape(-1, d)
    vel, _ = drift_with_stats(sl, stencil)
    current = sl.gm.density(stencil)[:, None] * (vel - 0.5 * sl.gm.score(stencil))
    current = current.reshape(n, 2 * d, d)
    idx = np.arange(d)
    div = (current[:, idx, idx] - current[:, d + idx, idx]).sum(axis=1) / (2.0 * h)
    rel = np.abs(dpdt + div) / np.maximum(np.abs(dpdt), float(sl.gm.density(pts).max()))
    assert fp_residual(grid, t, pts) == float(rel.max())


@pytest.mark.parametrize(
    "kind, kw", [("circular", {}), ("triangle", {}), ("rotating_dominance", {"d": 12})]
)
def test_weighted_replay_solves_its_continuity_equation(kind, kw):
    # what integrate_sde integrates: dp/dt = -div J_shape + sum_k pidot_k g_k, the
    # shape current moving each component and the log-weight rate as the source,
    # no potential. With fp_residual's stencil the residual measured 7e-9 to 2.3e-8
    # on these grids; a dropped source term gives order 1 on rotating_dominance
    grid = small_grid(kind, n_days=8, L=4, **kw)
    dt, h = 1e-5, 1e-4
    for t in (0.13, 0.37, 0.62, 0.93):
        pts = sample_bulk_points(eval_at(grid, t), 20, seed=4)
        n, d = pts.shape
        dpdt = (eval_at(grid, t + dt).density(pts) - eval_at(grid, t - dt).density(pts)) / (2 * dt)
        sl = path_slice(grid, t)
        offsets = h * np.eye(d)
        stencil = np.concatenate([pts[:, None] + offsets, pts[:, None] - offsets], axis=1)
        current = shape_current(sl, stencil.reshape(-1, d)).reshape(n, 2 * d, d)
        idx = np.arange(d)
        div = (current[:, idx, idx] - current[:, d + idx, idx]).sum(axis=1) / (2 * h)
        source = np.exp(sl.gm.component_log_density(pts)) @ sl.weight_rates
        rel = np.abs(dpdt + div - source) / np.maximum(np.abs(dpdt), sl.gm.density(pts).max())
        assert rel.max() < 1e-6


def test_fp_residual_rejects_node_times():
    grid = small_grid("circular", n_days=8, L=4)
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        fp_residual(grid, 0.5, pts)  # node of the L=4 grid
    with pytest.raises(ValueError):
        fp_residual(grid, 1.0 - 1e-7, pts)
    with pytest.raises(ValueError):
        fp_residual(grid, 0.3, np.zeros(2))


def test_integrate_sde_is_deterministic_per_path():
    grid = small_grid("circular", n_days=8, L=4)
    a = integrate_sde(grid, n_paths=3, steps=30, seed=9)
    b = integrate_sde(grid, n_paths=3, steps=30, seed=9)
    for x, y in zip(a, b):
        assert np.array_equal(x.states, y.states, equal_nan=True)
    # path i does not depend on how many siblings were drawn
    solo = integrate_sde(grid, n_paths=1, steps=30, seed=9)[0]
    assert np.array_equal(solo.states, a[0].states)
    assert [t.path_id for t in a] == [0, 1, 2]
    assert a[0].times.shape == (31,)
    assert a[0].states.shape == (31, 2)
    assert a[0].diverged_at is None
    # constant weights: every log-weight is exactly zero
    assert all(np.array_equal(t.log_weight, np.zeros(31)) for t in a)
    different = integrate_sde(grid, n_paths=1, steps=30, seed=10)[0]
    assert not np.array_equal(different.states, solo.states)
    # moving weights: a path and its log-weight depend only on its own draws too
    rot = small_grid("rotating_dominance", n_days=8, L=4, d=3)
    batch = integrate_sde(rot, n_paths=6, steps=30, seed=9)
    again = integrate_sde(rot, n_paths=6, steps=30, seed=9)
    for x, y in zip(batch, again):
        assert x.diverged_at is None and y.diverged_at is None
        assert np.array_equal(x.states, y.states)
        assert np.array_equal(x.log_weight, y.log_weight)
    # bit equality across batch sizes needs gemm to sum a row alike at every row count,
    # which the OpenBLAS build these tests run on does (see dynamics._slice_parts)
    lone = integrate_sde(rot, n_paths=1, steps=30, seed=9)[0]
    assert lone.diverged_at is None
    assert np.array_equal(lone.states, batch[0].states)
    assert np.array_equal(lone.log_weight, batch[0].log_weight)
    # step 0 starts on the default prior, whose components are identical, so its
    # increment dt sum_k pidot_k is 0 up to the rates' rounding
    assert lone.log_weight[0] == 0.0 and abs(lone.log_weight[1]) <= 1e-15
    assert np.all(lone.log_weight[2:] != 0.0)
    # the benchmark's layout, rotating_dominance d = 12: path i is bit-equal at every n_paths
    rot12 = small_grid("rotating_dominance", n_days=12, L=10, d=12)
    runs = {m: integrate_sde(rot12, n_paths=m, steps=30, seed=9) for m in (1, 2, 7, 64)}
    assert any(np.any(t.log_weight != 0.0) for t in runs[64])
    for m, trajs in runs.items():
        assert len(trajs) == m
        for tr, want in zip(trajs, runs[64]):
            assert tr.diverged_at == want.diverged_at
            assert tr.states.flags.c_contiguous and tr.states.shape == (31, 12)
            assert np.array_equal(tr.states, want.states, equal_nan=True)
            assert np.array_equal(tr.log_weight, want.log_weight, equal_nan=True)


@pytest.mark.parametrize("d", [3, 12])
def test_a_lone_point_gets_the_bits_of_its_row(d):
    # the kernel never sees a lone column (gm._as_points), so a point's bits
    # do not depend on how many points share its call
    grid = small_grid("rotating_dominance", n_days=8, L=4, d=d)
    sl = path_slice(grid, 0.3)
    x = sl.gm.sample(50, seed=d)
    funcs = {
        "component_log_density": sl.gm.component_log_density,
        "log_density": sl.gm.log_density,
        "responsibilities": sl.gm.responsibilities,
        "score": sl.gm.score,
        "shape_current": partial(shape_current, sl),
    }
    for name, f in funcs.items():
        batch = f(x)
        assert batch.flags.c_contiguous and batch.shape[0] == len(x)
        for i in range(len(x)):
            lone = f(x[i : i + 1])
            assert lone.flags.c_contiguous and lone.shape == (1,) + batch.shape[1:]
            assert lone.tobytes() == batch[i : i + 1].tobytes(), (name, i)


def secant_slice(grid, times, s):
    """PathSlice of step s on the uniform times: eval_at at its start, and the secant rates
    (eval_at(t_{s+1}) - eval_at(t_s)) / dt, dt = 1 / steps."""
    a, b = eval_at(grid, float(times[s])), eval_at(grid, float(times[s + 1]))
    return PathSlice(a, *((y - x) * (len(times) - 1) for x, y in zip(a, b)))


def reference_integrate_sde(grid, n_paths, steps, seed):
    """States, log-weights and diverged_at of a plain weighted step loop: per step, one
    secant_slice, the drift of its copy with the weights frozen, and the log-weight rate
    sum_k pidot_k g_k / p from the slice's mixture."""
    times, dt = np.linspace(0.0, 1.0, steps + 1), 1.0 / steps
    uniforms, normals = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2))
    u = uniforms.random(n_paths)
    states = normals.standard_normal((n_paths, steps + 1, grid.d))
    x = eval_at(grid, 0.0)._sample_from(u, states[:, 0])
    states[:, 0] = x
    log_w, lw, moved = np.zeros((n_paths, steps + 1)), np.zeros(n_paths), False
    diverged = np.full(n_paths, -1)
    rows, alive = np.arange(n_paths), slice(None)
    for s in range(steps):
        sl = secant_slice(grid, times, s)
        # secants of constant weights are rounding, within the simplex bound: no move
        moving = np.abs(sl.weight_rates).sum() > DERIVED_WEIGHT_TOL
        moved |= bool(moving)
        frozen = PathSlice(sl.gm, np.zeros(sl.gm.k), sl.mean_rates, sl.cov_rates)
        xa = x[alive]
        vel, _ = drift_with_stats(frozen, xa)
        ratios = np.exp(sl.gm.component_log_density(xa) - sl.gm.log_density(xa)[:, None])
        if moving:
            lw[alive] = lw[alive] + (ratios * sl.weight_rates).sum(axis=1) * dt
        x[alive] = xa + vel * dt + np.sqrt(dt) * states[alive, s + 1]
        ok = np.isfinite(x[alive]).all(axis=1) & np.isfinite(lw[alive])
        if not ok.all():
            idx = rows[alive]
            diverged[idx[~ok]] = s + 1
            states[idx[~ok], s + 1 :] = log_w[idx[~ok], s + 1 :] = np.nan
            alive = idx[ok]
            if alive.size == 0:
                break
        states[alive, s + 1] = x[alive]
        log_w[alive, s + 1] = lw[alive]
    if not moved:  # constant weights: every log-weight is 0, a flagged path's too
        log_w[:] = 0.0
    return states, log_w, diverged


# steps each segment holds: at L = 4 and 30 steps 7 or 8, and step 15 falls on node
# time 0.5 exactly; at L = 10 and 7 steps most segments hold none; L = 50 and 200
# steps is the ingest layout, 4 a segment, or 3 and 5 where a node time rounds below its node.
# One step is one short block; at L = 2, two blocks of steps are one block a segment.
BLOCK = dyn._BLOCK_STEPS
STEPS_PER_SEGMENT = {
    (4, 30): {7, 8},
    (10, 7): {0, 1},
    (50, 200): {3, 4, 5},
    (4, 1): {0, 1},
    (2, 2 * BLOCK): {BLOCK},
}


@pytest.mark.parametrize(
    "kind, kw, L, steps",
    [
        ("circular", {}, 4, 30),
        ("triangle", {}, 4, 30),
        ("rotating_dominance", {"d": 3}, 4, 30),
        ("rotating_dominance", {"d": 12}, 4, 30),
        ("circular", {}, 10, 7),
        ("rotating_dominance", {"d": 3}, 10, 7),
        ("circular", {}, 50, 200),
        ("rotating_dominance", {"d": 3}, 4, 1),
        ("circular", {}, 2, 2 * BLOCK),
        ("rotating_dominance", {"d": 3}, 2, 2 * BLOCK),
    ],
)
def test_integrate_sde_equals_plain_step_loop(kind, kw, L, steps):
    grid = small_grid(kind, n_days=max(8, L + 2), L=L, **kw)
    times = np.linspace(0.0, 1.0, steps + 1)
    per_segment = np.bincount(dyn._segment(times[:-1], L)[0], minlength=L)
    assert set(per_segment.tolist()) == STEPS_PER_SEGMENT[L, steps]
    assert steps != 30 or float(times[15]) * L == 2.0
    states, log_w, diverged = reference_integrate_sde(grid, 12, steps, seed=7)
    trajs = integrate_sde(grid, n_paths=12, steps=steps, seed=7)
    assert [t.diverged_at for t in trajs] == [None if f < 0 else int(f) for f in diverged]
    for tr, want, want_w in zip(trajs, states, log_w):
        assert np.array_equal(tr.states, want, equal_nan=True)
        assert np.array_equal(tr.log_weight, want_w, equal_nan=True)
    assert np.any(log_w != 0.0) == (kind == "rotating_dominance")


@pytest.mark.parametrize("L, steps", sorted(STEPS_PER_SEGMENT))
def test_step_kernels_rates_are_secants_at_every_step(L, steps):
    # one pass sets up every step's rates; each step's are the bits of eval_at's secant over
    # the step, the steps that straddle a node time included (at L = 50, 200 steps, node time
    # 0.58 rounds into the previous segment), and the weight rate is None exactly where the
    # weights do not move (steps inside segment 0 here)
    grid = small_grid("rotating_dominance", n_days=max(8, L + 2), L=L, d=3)
    w = grid.weights.copy()
    w[1] = w[0]
    grid = ProtocolGrid(w, grid.means, grid.covs)
    times = np.linspace(0.0, 1.0, steps + 1)
    if (L, steps) == (50, 200):
        assert dyn._segment(times[116], L)[0] == 28 and float(times[116]) == 0.58
    rates = dyn._step_kernels(grid, times)[1]
    assert len(rates) == steps
    moving = []
    for s, (mr, cr, wr) in enumerate(rates):
        sl = secant_slice(grid, times, s)
        assert mr.tobytes() == sl.mean_rates.tobytes()
        assert cr.tobytes() == sl.cov_rates.tobytes()
        assert (wr is None) == (not dyn._moving(sl.weight_rates))
        assert wr is None or wr.tobytes() == sl.weight_rates.tobytes()
        moving.append(wr is not None)
    assert moving[0] == (steps < L) and any(moving)


def test_integrate_sde_refuses_weight_rates_that_do_not_sum_to_zero_in_the_last_segment():
    grid = small_grid("triangle", n_days=6, L=3)
    w = grid.weights.copy()
    w[-1] *= 1.01
    grid = ProtocolGrid(w, grid.means, grid.covs)
    path_slice(grid, 0.5)  # the other segments pass the check
    with pytest.raises(ValueError, match="sum to zero"):
        path_slice(grid, 0.9)
    with pytest.raises(ValueError, match="sum to zero"):
        integrate_sde(grid, n_paths=3, steps=5)


def test_integrate_sde_sets_up_each_moving_segment_once(monkeypatch):
    # on moving and on constant weights the steps build no mixture or PathSlice
    # (the start's mixture is the one built), run no Poisson quadrature, and
    # every step's covariances are factored in one call
    layouts = (("rotating_dominance", {"d": 3}), ("circular", {}))
    grids = [small_grid(kind, n_days=8, L=4, **kw) for kind, kw in layouts]
    for grid, moving in zip(grids, (True, False)):
        assert [dyn._moving(wr) for wr in np.diff(grid.weights, axis=0)] == [moving] * 4
    wants = [integrate_sde(grid, n_paths=8, steps=30, seed=2) for grid in grids]
    counts = {}
    for cls in (GaussianMixture, PathSlice):
        post_init = cls.__post_init__

        def counted(self, _post_init=post_init, _name=cls.__name__):
            counts[_name] += 1
            _post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    for name in ("_psi_terms", "_factor"):

        def counted_call(*args, _real=getattr(dyn, name), _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(dyn, name, counted_call)
    for grid, want in zip(grids, wants):
        counts.update(GaussianMixture=0, PathSlice=0, _psi_terms=0, _factor=0)
        got = integrate_sde(grid, n_paths=8, steps=30, seed=2)
        assert counts == {"GaussianMixture": 1, "PathSlice": 0, "_psi_terms": 0, "_factor": 1}
        for a, b in zip(want, got):
            assert a.diverged_at is None and b.diverged_at is None
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.log_weight, b.log_weight)


def test_integrate_sde_weights_a_component_born_from_zero():
    # a mixture file may hold a weight of exactly 0; here component 0 grows
    # from 0 to 0.6. The log-weight rate sum_k pidot_k g_k / p divides by the
    # density only, so it stays finite, and at t = 0 (p = g_1) it is
    # pidot_0 g_0 / g_1 + pidot_1 with eval_at's secant rates over step 0, about
    # 0.6 (g_0 / g_1 - 1): positive on component 0's side, where mass is born
    covs = np.stack([np.eye(2), np.eye(2)])
    means = np.array([[0.0, 0.0], [1.5, 0.0]])
    nodes = [GaussianMixture(np.array(w), means, covs) for w in ([0.0, 1.0], [0.6, 0.4])]
    grid = ProtocolGrid(*stack_mixtures(nodes))
    steps = 50
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trajs = integrate_sde(grid, n_paths=2000, steps=steps, seed=0)
    assert all(t.diverged_at is None for t in trajs)
    log_w = np.stack([t.log_weight for t in trajs])
    assert np.isfinite(log_w).all()
    x0 = np.stack([t.states[0] for t in trajs])
    ratio = multivariate_normal.pdf(x0, means[0]) / multivariate_normal.pdf(x0, means[1])
    pidot = secant_slice(grid, np.linspace(0.0, 1.0, steps + 1), 0).weight_rates
    want = (pidot[0] * ratio + pidot[1]) / steps
    assert np.allclose(log_w[:, 1], want, rtol=1e-12, atol=0.0)
    born = x0[:, 0] < 0.75  # nearer component 0's mean
    assert born.sum() > 100 and np.all(log_w[born, 1] > 0.0)
    # the weighted terminal mean carries the born mass: within 4 ESS-based SE
    w = np.exp(log_w[:, -1] - log_w[:, -1].max())
    w /= w.sum()
    terminal = np.stack([t.states[-1] for t in trajs])
    mean = w @ terminal
    se = np.sqrt(w @ (terminal - mean) ** 2 * (w @ w))
    assert np.all(np.abs(mean - eval_at(grid, 1.0).overall_moments().mean) < 4.0 * se)


def em_moments(grid, steps):
    """Exact mean and covariance of K = 1 Euler-Maruyama replay paths at the steps + 1 times,
    from eval_at's parameters alone.

    The drift mdot + B (x - m), B = (Sigmadot - I) Sigma^{-1} / 2, is linear in x, so a step
    maps the paths' mean mu to mu + dt (mdot + B (mu - m)) and their covariance P to
    (I + dt B) P (I + dt B)^T + dt I (Kloeden & Platen 1992, ch. 14). The rates are eval_at's
    secants over the step. Returns the eval_at mixtures, the means (steps + 1, d) and the
    covariances (steps + 1, d, d).
    """
    dt, eye = 1.0 / steps, np.eye(grid.d)
    params = [eval_at(grid, float(t)) for t in np.linspace(0.0, 1.0, steps + 1)]
    mus, covs = [params[0].means[0]], [params[0].covs[0]]
    for a, b in zip(params, params[1:]):
        mdot, sdot = (b.means[0] - a.means[0]) * steps, (b.covs[0] - a.covs[0]) * steps
        B = 0.5 * (sdot - eye) @ np.linalg.inv(a.covs[0])
        mus.append(mus[-1] + dt * (mdot + B @ (mus[-1] - a.means[0])))
        covs.append((eye + dt * B) @ covs[-1] @ (eye + dt * B).T + dt * eye)
    return params, np.array(mus), np.array(covs)


class ZeroNormals:
    """A stand-in for np.random.default_rng whose normals are all 0: with it a K = 1 path
    starts on the mean and steps with the drift alone, which is the paths' exact mean."""

    def __init__(self, seed):
        pass

    def random(self, n):
        return np.full(n, 0.5)

    def standard_normal(self, shape):
        return np.zeros(shape)


@pytest.mark.parametrize(
    "n_days, L, steps",
    [(60, 10, 25), (60, 10, 35), (60, 10, 45), (60, 10, 50), (60, 10, 400), (60, 10, 405),
     (1000, 100, 400)],
)
def test_k1_replay_mean_is_eval_at_at_every_step(monkeypatch, n_days, L, steps):
    # with secant step rates the Euler-Maruyama mean is exact: the moment recursion's, and
    # integrate_sde's noise-free path, equal eval_at's mean at every step, whether or not
    # L divides the steps (circular is K = 1; L = 100, 400 steps is the ingest-movie layout)
    grid = small_grid("circular", n_days=n_days, L=L)
    assert grid.weights.shape[1] == 1
    params, mus, _ = em_moments(grid, steps)
    want = np.array([p.means[0] for p in params])
    assert np.abs(mus - want).max() <= 1e-12
    monkeypatch.setattr(np.random, "default_rng", ZeroNormals)
    path = integrate_sde(grid, n_paths=1, steps=steps, seed=0)[0]
    assert np.abs(path.states - want).max() <= 1e-12


def test_k1_replay_covariance_error_is_first_order():
    # the recursion is the paths' exact covariance, so halving the step halves its error
    grid = small_grid("circular", n_days=60, L=10)
    errors = []
    for steps in (100, 200, 400):
        params, _, covs = em_moments(grid, steps)
        errors.append(np.abs(covs[-1] - params[-1].covs[0]).max())
    assert all(abs(e / f - 2.0) <= 0.05 for e, f in zip(errors, errors[1:]))


@pytest.mark.parametrize("steps", [25, 50, 400])
def test_k1_replay_paths_follow_the_moment_recursion(steps):
    # integrate_sde's path mean and covariance lie within 4 standard errors of the recursion's
    # at every step; the weights do not move, so every log-weight is 0 and the paths count alike
    grid, n = small_grid("circular", n_days=60, L=10), 6000
    _, mus, covs = em_moments(grid, steps)
    trajs = integrate_sde(grid, n_paths=n, steps=steps, seed=0)
    assert all(t.diverged_at is None and not np.any(t.log_weight) for t in trajs)
    x = np.stack([t.states for t in trajs], axis=1)  # (steps + 1, n, d)
    mean = x.mean(axis=1)
    se_mean = np.sqrt(np.diagonal(covs, axis1=1, axis2=2) / n)
    assert np.all(np.abs(mean - mus) < 4.0 * se_mean)
    centred = x - mean[:, None]
    for i, j in zip(*np.triu_indices(grid.d)):
        prod = centred[..., i] * centred[..., j]
        se_cov = prod.std(axis=1) / np.sqrt(n)
        assert np.all(np.abs(prod.mean(axis=1) - covs[:, i, j]) < 4.0 * se_cov)


def test_integrate_sde_stationary_mixture():
    # identical nodes freeze the path; the mixture is then invariant, so
    # terminal samples must reproduce its moments within MC error
    gm = GaussianMixture(
        np.array([0.5, 0.5]),
        np.array([[-1.0, 0.0], [1.0, 0.5]]),
        np.stack([0.4 * np.eye(2), 0.6 * np.eye(2)]),
    )
    grid = ProtocolGrid(*stack_mixtures((gm, gm, gm)))
    trajs = integrate_sde(grid, n_paths=1500, steps=150, seed=5)
    terminal = np.stack([t.states[-1] for t in trajs])
    mom = gm.overall_moments()
    n = len(terminal)
    se_mean = np.sqrt(np.diag(mom.cov) / n)
    assert np.all(np.abs(terminal.mean(axis=0) - mom.mean) < 5 * se_mean)
    centred = terminal - terminal.mean(axis=0)
    prods = centred[:, :, None] * centred[:, None, :]
    se_cov = prods.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(np.cov(terminal.T, bias=True) - mom.cov) < 5 * se_cov)


def test_integrate_sde_flags_divergence(monkeypatch):
    grid = small_grid("circular", n_days=6, L=3)
    real = dyn._drift

    def exploding(x, *args, _step=[0]):
        vel, *rest = real(x, *args)
        _step[0] += 1
        if _step[0] > 3:
            vel = vel + np.inf
        return vel, *rest

    monkeypatch.setattr(dyn, "_drift", exploding)
    trajs = integrate_sde(grid, n_paths=2, steps=10, seed=1)
    tr = trajs[0]
    assert tr.diverged_at == 4
    assert np.isfinite(tr.states[:4]).all()
    assert np.isnan(tr.states[4:]).all()
    # constant weights: the paths share one read-only row of zeros, flagged or not
    assert tr.log_weight is trajs[1].log_weight and not tr.log_weight.flags.writeable
    assert np.array_equal(tr.log_weight, np.zeros(11))


def test_integrate_sde_flags_a_non_finite_log_weight(monkeypatch):
    # moving weights: a log-weight that turns non-finite flags its path, and
    # the path's states and log-weight are NaN from that step on
    grid = small_grid("rotating_dominance", n_days=8, L=4, d=3)
    clean = integrate_sde(grid, n_paths=3, steps=10, seed=1)
    real, calls = dyn._drift, []

    def poisoned(x, *args):
        vel, logd, score, logg = real(x, *args)
        calls.append(x.shape[1])
        if len(calls) == 4:
            logg = logg.copy()
            logg[0, 1] = np.inf
        return vel, logd, score, logg

    monkeypatch.setattr(dyn, "_drift", poisoned)
    trajs = integrate_sde(grid, n_paths=3, steps=10, seed=1)
    assert [t.diverged_at for t in trajs] == [None, 4, None]
    assert np.array_equal(trajs[1].states[:4], clean[1].states[:4])
    assert np.array_equal(trajs[1].log_weight[:4], clean[1].log_weight[:4])
    assert np.isnan(trajs[1].states[4:]).all() and np.isnan(trajs[1].log_weight[4:]).all()
    for i in (0, 2):
        assert np.array_equal(trajs[i].states, clean[i].states)
        assert np.array_equal(trajs[i].log_weight, clean[i].log_weight)


def test_integrate_sde_flags_a_path_before_the_weights_move(monkeypatch):
    # segment 0 keeps the weights, segment 1 moves them: a path flagged in
    # segment 0 has a NaN log-weight from its flag on, like its states
    means, covs = np.array([[0.0, 0.0], [1.5, 0.0]]), np.stack([np.eye(2), np.eye(2)])
    weights = ([0.5, 0.5], [0.5, 0.5], [0.7, 0.3])
    nodes = [GaussianMixture(np.array(w), means, covs) for w in weights]
    grid = ProtocolGrid(*stack_mixtures(nodes))
    clean = integrate_sde(grid, n_paths=3, steps=10, seed=3)
    real, calls = dyn._drift, []

    def one_bad(x, *args):
        vel, *rest = real(x, *args)
        calls.append(x.shape[1])
        if len(calls) == 2:
            vel[:, 1] = np.inf
        return vel, *rest

    monkeypatch.setattr(dyn, "_drift", one_bad)
    trajs = integrate_sde(grid, n_paths=3, steps=10, seed=3)
    assert [t.diverged_at for t in trajs] == [None, 2, None]
    assert np.array_equal(trajs[1].log_weight[:2], np.zeros(2))
    assert np.isnan(trajs[1].log_weight[2:]).all() and np.isnan(trajs[1].states[2:]).all()
    for i in (0, 2):
        assert np.array_equal(trajs[i].states, clean[i].states)
        assert np.array_equal(trajs[i].log_weight, clean[i].log_weight)
        assert trajs[i].log_weight[-1] != 0.0


def test_integrate_sde_draws_follow_the_two_streams():
    # the seed's first spawn draws path i's start uniform, the i-th of its stream; its second
    # spawn draws one stream of normals, path i's (steps + 1, d) block from offset
    # i (steps + 1) d: row 0 places the start in the component the uniform picks, and the
    # first step adds the drift times dt and row 1 times sqrt(dt)
    w = np.array([0.2, 0.5, 0.3])
    covs = np.stack([0.3 * np.eye(2), np.diag([0.2, 0.5]), 0.4 * np.eye(2)])
    means = np.array([[-6.0, 0.0], [0.0, 6.0], [6.0, -1.0]])
    nodes = [GaussianMixture(w, means + shift, covs) for shift in (0.0, 1.5)]
    grid = ProtocolGrid(*stack_mixtures(nodes))
    n, steps, seed = 40, 20, 11
    trajs = integrate_sde(grid, n_paths=n, steps=steps, seed=seed)
    start, dt = eval_at(grid, 0.0), 1.0 / steps
    uniforms, normals = (np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(2))
    blocks = normals.standard_normal(n * (steps + 1) * grid.d).reshape(n, steps + 1, grid.d)
    comps = set()
    for i in range(n):
        u = uniforms.random(1)  # one at a time: the i-th uniform of the stream
        z = blocks[i]  # offset i (steps + 1) d of one flat stream
        x0 = start._sample_from(u, z[:1])
        vel, _ = drift_with_stats(secant_slice(grid, trajs[i].times, 0), x0)
        assert np.array_equal(trajs[i].states[0], x0[0])
        assert np.array_equal(trajs[i].states[1], (x0 + vel * dt + np.sqrt(dt) * z[1:2])[0])
        comps.add(int(start.responsibilities(x0)[0].argmax()))
    assert comps == {0, 1, 2}
    # a path does not depend on how many siblings were drawn
    for m in (1, 17):
        assert np.array_equal(integrate_sde(grid, m, steps, seed)[-1].states, trajs[m - 1].states)


@pytest.mark.parametrize("kind, kw", [("circular", {}), ("rotating_dominance", {"d": 3})])
def test_integrate_sde_path_i_is_a_prefix_of_the_streams(kind, kw):
    # path i at n_paths = 1000 is bit for bit path i at n_paths = i + 1, the last path there,
    # on constant weights and on moving ones (log-weights and flags included)
    grid = small_grid(kind, n_days=8, L=4, **kw)
    full = integrate_sde(grid, n_paths=1000, steps=30, seed=13)
    assert any(np.any(t.log_weight != 0.0) for t in full) == (kind == "rotating_dominance")
    for i in (0, 499, 999):
        part = integrate_sde(grid, n_paths=i + 1, steps=30, seed=13)[i]
        assert part.states.tobytes() == full[i].states.tobytes()
        assert part.log_weight.tobytes() == full[i].log_weight.tobytes()
        assert part.diverged_at == full[i].diverged_at and part.path_id == i


@pytest.mark.parametrize("weights", [[0.5, 0.5, 1e-6], [-0.1, 0.6, 0.5], [np.nan, 0.5, 0.5]])
def test_integrate_sde_refuses_start_weights_off_the_simplex(weights):
    grid = small_grid("triangle", n_days=6, L=3)
    w = np.broadcast_to(np.asarray(weights), grid.weights.shape)
    with pytest.raises(ValueError):
        integrate_sde(ProtocolGrid(w, grid.means, grid.covs), n_paths=3, steps=5)


@pytest.mark.parametrize("call", [6, BLOCK + 1])
def test_integrate_sde_single_divergence_leaves_the_other_paths_alone(monkeypatch, call):
    # path 7 turns non-finite at the poisoned drift call's step (step 5, or the second
    # block's first step) and is NaN from there; every step's drift still takes all
    # 30 rows, and the other 29 are bit for bit as before
    grid = small_grid("triangle", n_days=10, L=4)
    clean = integrate_sde(grid, n_paths=30, steps=20, seed=4)
    real, sizes = dyn._drift, []

    def one_bad(x, *args):
        vel, *rest = real(x, *args)
        sizes.append(x.shape[1])
        if len(sizes) == call:
            vel[:, 7] = np.inf
        return vel, *rest

    monkeypatch.setattr(dyn, "_drift", one_bad)
    trajs = integrate_sde(grid, n_paths=30, steps=20, seed=4)
    assert sizes == [30] * 20
    bad = trajs[7]
    assert bad.diverged_at == call
    assert np.array_equal(bad.states[:call], clean[7].states[:call])
    assert np.isnan(bad.states[call:]).all()
    for i, (a, b) in enumerate(zip(clean, trajs)):
        if i != 7:
            assert b.diverged_at is None and np.array_equal(a.states, b.states)


def test_integrate_sde_validates_arguments():
    grid = small_grid("circular", n_days=6, L=3)
    with pytest.raises(ValueError):
        integrate_sde(grid, n_paths=0)
    with pytest.raises(ValueError):
        integrate_sde(grid, steps=0)


def test_dynamics_counts_must_be_ints():
    # a bool is no count and a float is no int: each is a ConfigError (CLI exit 2)
    grid, gm = small_grid("circular", n_days=6, L=3), default_prior(2, 2)
    bad_calls = [
        partial(integrate_sde, grid, 3, True),
        partial(integrate_sde, grid, True, 5),
        partial(integrate_sde, grid, 2.0, 5),
        partial(integrate_sde, grid, 3, 5.0),
        partial(movie_frames, grid, 3.0),
        partial(sample_bulk_points, gm, True),
        partial(sample_bulk_points, gm, 4.0),
    ]
    for call in bad_calls:
        with pytest.raises(ConfigError, match="must be int"):
            call()
    trajs = integrate_sde(grid, np.int64(2), np.int64(3))
    assert len(trajs) == 2 and trajs[0].states.shape == (4, 2)
    assert len(movie_frames(grid, np.int64(3))) == 3
    assert sample_bulk_points(gm, np.int64(4)).shape == (4, 2)


def test_movie_frames_endpoints():
    grid = small_grid("circular", n_days=6, L=3)
    frames = movie_frames(grid, 7)
    assert len(frames) == 7
    for frame, j in ((frames[0], 0), (frames[-1], -1)):
        assert np.array_equal(frame.weights, grid.weights[j])
        assert np.array_equal(frame.means, grid.means[j])
        assert np.array_equal(frame.covs, grid.covs[j])
    # the frames are one gather; each equals eval_at at its time
    for frame, t in zip(frames, np.linspace(0.0, 1.0, 7)):
        want = eval_at(grid, float(t))
        for f in ("weights", "means", "covs"):
            assert np.array_equal(getattr(frame, f), getattr(want, f))
    with pytest.raises(ValueError):
        movie_frames(grid, 1)


def lerp_oracle(grid, times):
    """(1 - a) * x[j] + a * x[j + 1] of each node field at the times, j and a located as eval_at does."""
    u = times * grid.L
    j = np.minimum(u.astype(int), grid.L - 1)
    a = u - j
    out = []
    for x in (grid.weights, grid.means, grid.covs):
        w = a.reshape(a.shape + (1,) * (x.ndim - 1))
        out.append((1 - w) * x[j] + w * x[j + 1])
    return out


@pytest.mark.parametrize("kind", [kind for kind in KINDS if kind != "file"])
def test_movie_frames_and_drift_set_up_equal_the_two_term_formula(kind):
    targets = generate(make_config(kind))[:25]
    state = new_memory(default_prior(targets[0].k, targets[0].d), targets[0], 7)
    for t in targets[1:]:
        state = incorporate(state, t)
    grid = state.grid
    times = np.linspace(0.0, 1.0, 23)
    w, m, c = lerp_oracle(grid, times)
    for frame, *want in zip(movie_frames(grid, len(times)), w, m, c):
        assert all(
            g.tobytes() == x.tobytes() and g.flags.c_contiguous
            for g, x in zip((frame.weights, frame.means, frame.covs), want)
        )
    # the kernels are the steps' starts, every time but the last
    _, inv, log_norms = _factor(_symmetrize(c[:-1]))
    kernels, rates = dyn._step_kernels(grid, times)
    assert len(rates) == len(times) - 1
    want = (_log_weights(w[:-1]), m[:-1], inv, log_norms)
    assert all(g.tobytes() == x.tobytes() for g, x in zip(kernels, want, strict=True))


def test_sample_bulk_points_properties():
    gm = default_prior(2, 3)
    pts = sample_bulk_points(gm, 40, seed=6)
    assert pts.shape == (40, 3)
    assert np.array_equal(pts, sample_bulk_points(gm, 40, seed=6))
    dens = np.asarray(gm.density(pts))
    assert dens.min() >= 1e-8 * dens.max() * 0.999
    with pytest.raises(NumericalError):
        sample_bulk_points(gm, 5, seed=6, floor_ratio=2.0)
    with pytest.raises(ValueError, match="n = 0"):
        sample_bulk_points(gm, 0, seed=6)


def test_seeds_must_be_non_negative_ints():
    # a bool, None (fresh OS entropy, so no run repeats) and a float are no seed, and a
    # negative seed is refused by name: each is a ConfigError (CLI exit 2)
    grid, gm = small_grid("circular", n_days=6, L=3), default_prior(2, 2)
    for seed in (True, None, 1.5):
        for call in (partial(integrate_sde, grid, 3, 5), partial(sample_bulk_points, gm, 4)):
            with pytest.raises(ConfigError, match="seed must be int"):
                call(seed=seed)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        integrate_sde(grid, 3, 5, seed=-1)
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        sample_bulk_points(gm, 4, seed=-1)
    with pytest.raises(ConfigError, match="stream needs seed >= 0, got -1"):
        make_config("circular", seed=-1)
    assert len(integrate_sde(grid, 3, 5, seed=np.int64(1))) == 3
    assert sample_bulk_points(gm, 4, seed=np.uint32(2)).shape == (4, 2)
