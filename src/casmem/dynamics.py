"""Sample-path view of the memory: drift reconstruction and replay SDE.

The protocol grid defines a density path p(x, t) over [0, 1], piecewise
linear in the mixture parameters. integrate_sde realises it as weighted
sample paths dX_t = s_t(X_t) dt + dW_t with unit diffusion. The drift is
the transport of the moving, deforming components plus the entropic
correction (1/2) grad log p. The weight change rides on each path's
log-weight, with rate sum_k pidot_k g_k(x) / p(x) (the Fisher-Rao half of
Wasserstein-Fisher-Rao), so the step loop runs no quadrature.

Unweighted paths carry the weight change in the drift instead, as
-grad psi / p with Delta psi = sum_k pidot_k g_k (probability created by
one component must flow out of the others). drift_with_stats,
psi_potential and fp_residual use this Poisson form. Through the heat
kernel, psi_k(x) = -(2 pi)^{-d/2} int_0^inf exp(-q^T (Sigma_k + 2 s I)^{-1} q / 2)
/ sqrt(det(Sigma_k + 2 s I)) ds with q = x - m_k, so grad psi_k costs one
adaptive quadrature per component. fp_residual checks the continuity
equation numerically against that drift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, NumericalError, check_value
from .gm import DENSITY_FLOOR, DERIVED_WEIGHT_TOL, GaussianMixture, _as_points, _evaluate, _factor
from .gm import _check_probabilities, _frozen, _log_weights, _mix, _param_arrays, _rows, _symmetrize
from .protocol import ProtocolGrid, _lerp_nodes, _segment, eval_at

QUAD_REL_TOL = 1e-8
QUAD_MAX_PANELS = 200
_BLOCK_STEPS = 16  # replay steps whose normals and states share one contiguous window

# The 15- and 7-point Gauss-Legendre rules on [-1, 1] as one node vector
# and a (2, 22) weight matrix; each row is zero on the other rule's nodes.
(_FINE_X, _FINE_W), (_COARSE_X, _COARSE_W) = leggauss(15), leggauss(7)
_GL_NODES = np.concatenate([_FINE_X, _COARSE_X])
_GL_WEIGHTS = np.zeros((2, len(_GL_NODES)))
_GL_WEIGHTS[0, : len(_FINE_W)], _GL_WEIGHTS[1, len(_FINE_W) :] = _FINE_W, _COARSE_W


@dataclass(frozen=True)
class PathSlice:
    """Mixture parameters and their time rates at one instant of the path.

    The rates take the mixture's shape rule (``gm._param_arrays``) and its shape.
    """

    gm: GaussianMixture
    weight_rates: np.ndarray
    mean_rates: np.ndarray
    cov_rates: np.ndarray

    def __post_init__(self):
        wr, mr, cr = _checked_rates(self.weight_rates, self.mean_rates, self.cov_rates)
        if mr.shape != self.gm.means.shape:
            raise ValueError(f"rate shape {mr.shape} does not match mixture {self.gm.means.shape}")
        for name, a in zip(("weight_rates", "mean_rates", "cov_rates"), (wr, mr, cr)):
            object.__setattr__(self, name, _frozen(a))


def _checked_rates(weight_rates, mean_rates, cov_rates, lead: int = 0):
    """Rates in the mixture shape rule with ``lead`` leading axes (one row per step), cov
    rates symmetrized; ValueError unless every row's weight rates sum to zero."""
    wr, mr, cr = _param_arrays(weight_rates, mean_rates, cov_rates, lead)
    sums = wr.sum(axis=-1)
    if np.any(np.abs(sums) > DERIVED_WEIGHT_TOL):
        raise ValueError(f"weight rates must sum to zero, got {sums.tolist()!r}")
    return wr, mr, _symmetrize(cr)


def _moving(weight_rates: np.ndarray):
    """Whether the weights move enough for the Poisson term and the log-weights to be on, per row.

    Nodes whose weights agree up to the simplex rounding of valid inputs leave rates of
    order L SIMPLEX_TOL, not zeros; the threshold is the bound _checked_rates puts on the
    rates' sum, so such segments and the steps inside them stay constant.
    """
    return np.abs(weight_rates).sum(axis=-1) > DERIVED_WEIGHT_TOL


@dataclass(frozen=True)
class Trajectory:
    """One replay sample path on the uniform time grid, with its log-weight at each time."""

    times: np.ndarray
    states: np.ndarray
    log_weight: np.ndarray
    path_id: int
    diverged_at: int | None = None


def path_slice(grid: ProtocolGrid, t: float) -> PathSlice:
    """Parameters and segment rates at time t.

    Rates are right-derivatives (left at t = 1), segment j's (node j + 1 - node j) L: the
    path is piecewise linear, so the drift may jump at node times and a convention is
    needed there.
    """
    gm, j = eval_at(grid, t), _segment(t, grid.L)[0]
    return PathSlice(gm, *((a[j + 1] - a[j]) * grid.L for a in grid))


def _slice_parts(pts: np.ndarray, kernel, mean_rates, cov_rates):
    """``gm._evaluate``'s outputs at points pts (d, n) and the (K, d, n) component velocities.

    ``kernel`` is the mixture as ``gm._evaluate`` takes it after the points. The points are
    columns as ``gm._as_points`` gives them, so its lone-point rule covers this matmul too.
    """
    logg, logd, r, siy = _evaluate(pts, *kernel)
    return logg, logd, r, siy, mean_rates[:, :, None] + 0.5 * (cov_rates @ siy)


def shape_current(sl: PathSlice, x) -> np.ndarray:
    """Probability current of the moving components, sum_k pi_k g_k (mdot_k
    + Sigmadot_k Sigma_k^{-1} (x - m_k) / 2)."""
    pts = _as_points(x, sl.gm.d)
    _, logd, r, _, vel = _slice_parts(pts, sl.gm._kernel, sl.mean_rates, sl.cov_rates)
    return _rows(_mix(np.exp(logd) * r, vel), len(x))


def _adaptive_integral(f, tol: float, max_panels: int):
    """Integrate a batch of columns over u in [0, 1] with shared panels.

    ``f(u, w)`` takes the 22 nodes u (P, q) of P panels' 15- and 7-point
    Gauss-Legendre rules and their weights w (P, 2, q), each rule's row
    zero on the other rule's nodes, and returns the weighted sums
    (P, 2, B), fine rule first. The panel [0, 1] goes through one call,
    and each split evaluates its two halves in one more call.
    All columns are refined together on a common panel set, so
    differences of nearby columns (finite-difference stencils) see the
    same quadrature error and it cancels. Panels split at the largest
    15-vs-7-point discrepancy until the pooled error estimate drops below
    ``tol`` relative to the largest column. Returns the fine-rule total (B,).
    """

    def evaluate(a: np.ndarray, b: np.ndarray):
        half = 0.5 * (b - a)
        u = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        sums = f(u, half[:, None, None] * _GL_WEIGHTS)
        return sums[:, 0], np.abs(sums[:, 0] - sums[:, 1]).max(axis=1)

    lo, hi = np.zeros(1), np.ones(1)
    fine, err = evaluate(lo, hi)
    while True:
        total = fine.sum(axis=0)
        scale = max(float(np.abs(total).max()), DENSITY_FLOOR)
        pooled = sum(err.tolist())
        if pooled <= tol * scale:
            return total
        if len(lo) >= max_panels:
            raise NumericalError(
                f"potential quadrature stalled at {len(lo)} panels "
                f"(error {pooled:.3e} vs scale {scale:.3e})"
            )
        worst = int(err.argmax())
        a, b = lo[worst], hi[worst]
        mid = 0.5 * (a + b)
        keep = np.arange(len(lo)) != worst
        halves = evaluate(np.array([a, mid]), np.array([mid, b]))
        lo, hi = np.append(lo[keep], [a, mid]), np.append(hi[keep], [mid, b])
        fine = np.concatenate([fine[keep], halves[0]])
        err = np.concatenate([err[keep], halves[1]])


def _psi_terms(pts: np.ndarray, poisson, with_potential: bool):
    """Quadrature for grad psi (d, n) and, optionally, psi itself (n,) at points pts (d, n).

    ``poisson`` is one instant's ``_poisson_of``; both are zero, and no quadrature
    runs, when it is None. One batched matmul projects the points onto every moving
    component's eigenbasis, where each integral maps s = lam_max u / (1 - u) onto the unit
    interval; the gradient rotates back afterwards. Only the kernel and the denominators
    depend on the node, so the rule weights fold into the small (P, d, q) inverse
    denominators: one batched (P, 2 d, q) @ (P, q, n) matmul gives both rules' sums of
    kernel / den, z multiplies them, and no (q, n, d) node tensor is built.
    """
    d, n = pts.shape
    grad = np.zeros((d, n))
    pot = np.zeros(n) if with_potential else None
    if poisson is None:
        return grad, pot
    if with_potential and d <= 2:
        raise ValueError("the potential integral diverges for d <= 2; use the gradient")
    norm = (2.0 * np.pi) ** (-0.5 * d)
    rates, means, lams, bases = poisson
    projected = np.swapaxes(bases, 1, 2) @ (pts[None, :, :] - means[:, :, None])
    for k, (lam, q_basis, z) in enumerate(zip(lams, bases, projected)):
        zz = z * z
        lmax = float(lam[-1])

        def integrand(u: np.ndarray, w: np.ndarray) -> np.ndarray:
            p, q = u.shape
            inv = 1.0 / (lam + 2.0 * (lmax * u / (1.0 - u))[:, :, None])
            # log of the Jacobian lmax / (1 - u)^2 times det(den)^(-1/2)
            log_c = np.log(lmax / (1.0 - u) ** 2) + 0.5 * np.log(inv).sum(axis=2)
            kernel = (-0.5 * inv) @ zz
            kernel += log_c[:, :, None]
            np.exp(kernel, out=kernel)
            w_inv = w[:, :, None, :] * inv.transpose(0, 2, 1)[:, None]
            sums = (w_inv.reshape(p, 2 * d, q) @ kernel).reshape(p, 2, d, n)
            sums *= z
            out = sums.reshape(p, 2, d * n)
            if with_potential:
                out = np.concatenate([out, w @ kernel], axis=2)
            return out

        total = _adaptive_integral(integrand, QUAD_REL_TOL, QUAD_MAX_PANELS)
        rate = float(rates[k])
        grad += q_basis @ (rate * norm * total[: n * d].reshape(d, n))
        if with_potential:
            pot -= rate * norm * total[n * d :]
    return grad, pot


def _poisson_of(sl: PathSlice):
    """The front end of ``_psi_terms``: rates, means, covariance eigenvalues and eigenbases of
    the slice's components with a nonzero weight rate; None while the weights do not move."""
    if not _moving(sl.weight_rates):
        return None
    active = np.nonzero(np.abs(sl.weight_rates) > 0.0)[0]
    return (sl.weight_rates[active], sl.gm.means[active], *np.linalg.eigh(sl.gm.covs[active]))


def poisson_psi_grad(sl: PathSlice, x) -> np.ndarray:
    """Gradient of the weight-transport potential at x.

    Zero whenever the weight rates vanish; otherwise one adaptive
    quadrature per component with a nonzero rate, batched over points.
    """
    return _rows(_psi_terms(_as_points(x, sl.gm.d), _poisson_of(sl), False)[0], len(x))


def psi_potential(sl: PathSlice, x) -> np.ndarray:
    """The potential itself (d >= 3 only; the integral diverges below).

    Defined up to an additive constant, which the drift never sees; this
    particular normalization decays to zero at infinity.
    """
    return _rows(_psi_terms(_as_points(x, sl.gm.d), _poisson_of(sl), True)[1], len(x))


def drift_with_stats(sl: PathSlice, x) -> tuple[np.ndarray, int]:
    """Drift of unweighted paths at x, Poisson term included, plus the number of
    density-clamped evaluations.

    The component-transport part and the half-score are evaluated
    through responsibilities and never divide by the density; only the
    Poisson term needs the division, clamped at the floor in far tails.
    """
    pts, poisson, n = _as_points(x, sl.gm.d), _poisson_of(sl), len(x)
    vel, logd = _drift(pts, sl.gm._kernel, sl.mean_rates, sl.cov_rates, poisson)[:2]
    clamped = 0 if poisson is None else np.count_nonzero(np.exp(logd[:n]) < DENSITY_FLOOR)
    return _rows(vel, n), int(clamped)


def _drift(pts, kernel, mean_rates, cov_rates, poisson=None):
    """Drift (d, n), log density (n,), score (d, n) and component log densities (K, n) at
    points pts (d, n).

    ``kernel`` is the mixture as ``gm._evaluate`` takes it after the points,
    and the rates are a PathSlice's. ``poisson`` is the Poisson term's arrays
    (``_poisson_of``); without them the drift is the component transport plus
    the half-score, the weighted replay's drift.
    """
    logg, logd, r, siy, vel = _slice_parts(pts, kernel, mean_rates, cov_rates)
    score = -_mix(r, siy)
    out = _mix(r, vel) + 0.5 * score
    if poisson is not None:
        out -= _psi_terms(pts, poisson, False)[0] / np.maximum(np.exp(logd), DENSITY_FLOOR)
    return out, logd, score, logg


def fp_residual(grid: ProtocolGrid, t: float, pts) -> float:
    """Worst relative continuity-equation violation over the points.

    Compares the finite-difference time derivative of the density with
    the divergence of the current J = p (s - score / 2) assembled from
    the reconstructed drift. The whole spatial stencil goes through one
    drift call so the quadrature error is common mode and cancels in
    the differences.
    """
    x, dt, h = _as_points(pts, grid.d), 1e-5, 1e-4
    d, n = x.shape
    if not dt < t < 1.0 - dt or _segment(t - dt, grid.L)[0] != _segment(t + dt, grid.L)[0]:
        raise ValueError(f"t = {t!r} is not inside a segment interior at time step {dt}")
    dpdt = (eval_at(grid, t + dt).density(pts) - eval_at(grid, t - dt).density(pts)) / (2.0 * dt)

    sl, offsets = path_slice(grid, t), h * np.eye(d)
    stencil = np.concatenate(
        [x[:, :, None] + offsets[:, None, :], x[:, :, None] - offsets[:, None, :]], axis=2
    ).reshape(d, -1)
    poisson = _poisson_of(sl)
    vel, logd, score, _ = _drift(stencil, sl.gm._kernel, sl.mean_rates, sl.cov_rates, poisson)
    current = (np.exp(logd) * (vel - 0.5 * score)).reshape(d, n, 2 * d)
    idx = np.arange(d)
    div = (current[idx, :, idx] - current[idx, :, d + idx]).sum(axis=0) / (2.0 * h)

    scale = float(sl.gm.density(pts).max())
    rel = np.abs(dpdt + div) / np.maximum(np.abs(dpdt), scale)
    return float(rel.max())


def _step_kernels(grid: ProtocolGrid, times: np.ndarray):
    """The ``gm._evaluate`` kernels of the steps between the S + 1 uniform times on [0, 1],
    stacked, and each step's secant rates.

    The kernels are step starts' log-weights (S, K), means (S, K, d), inverse Cholesky factors
    (S, K, d, d) and log-normalizers (S, K); step s's rates are the (mean, cov, weight or None
    while the weights do not move) tuple (row s + 1 - row s) S of the lerped parameters. All
    times are lerped in one gather and symmetrized as GaussianMixture does, so the rates are
    secants of eval_at's mixtures bit for bit; the starts are factored in one call and every
    step's rates checked as PathSlice checks them, in one ``_checked_rates`` call.
    """
    w, m, c = _lerp_nodes(grid, *_segment(times, grid.L))
    c, steps = _symmetrize(c), len(times) - 1
    wr, mr, cr = _checked_rates(*(np.diff(a, axis=0) * steps for a in (w, m, c)), lead=1)
    _, inv, log_norms = _factor(c[:-1])
    rates = zip(mr, cr, [r if on else None for r, on in zip(wr, _moving(wr))])
    return (_log_weights(w[:-1]), m[:-1], inv, log_norms), list(rates)


def integrate_sde(
    grid: ProtocolGrid, n_paths: int = 1000, steps: int = 400, seed: int = 0
) -> list[Trajectory]:
    """Weighted Euler-Maruyama replay paths from t = 0 to t = 1, unit diffusion.

    The seed, an int >= 0, spawns two generators. The first draws the n_paths uniforms
    that pick the start components, path i's the i-th; the second fills the path-major
    (n_paths, steps + 1, d) states in C order, so path i's (steps + 1, d) normal block lies
    at offset i (steps + 1) d of one stream, whatever n_paths is. Row 0 of the block places
    the start in its component, row s + 1 is step s's increment, and each row is
    overwritten by the state it leads to. The drift is the component transport plus the
    half-score; step s adds dt sum_k pidot_k g_k(x) / p(x) at its start to the path's
    log-weight, which starts at 0; if no step's weights move, every path shares one
    read-only row of zeros. A marginal is the average with weights exp(log_weight)
    normalised over the paths. All paths step as one (d, n_paths) array of
    ``gm._as_points`` columns; a path whose state or log-weight turns non-finite is flagged
    and NaN from there on. Repeat calls reproduce a path bit for bit, as do other n_paths
    (a lone path steps as two equal columns).

    Step s's rates are secants, (theta(t_{s+1}) - theta(t_s)) / dt of the lerped parameters,
    steps across node times included, so where the drift is linear in x (K = 1) the paths'
    mean at every t_s is eval_at's at any number of steps (Kloeden & Platen 1992, ch. 14).
    Every step's mixture is factored in one pass (``_step_kernels``) before the paths are
    allocated; it keeps steps K d^2 floats beside their n_paths (steps + 1) d. A step does
    point work only and tests columns once a whole-array test finds a non-finite value.
    The steps run in blocks of ``_BLOCK_STEPS``: one pass copies a block's normals times
    sqrt(dt) into a contiguous (block, d, n_paths) window, each step adds and overwrites its
    window row, and one transposing pass writes the window back into the paths' blocks.
    """
    for name, value, low in (("n_paths", n_paths, 1), ("steps", steps, 1), ("seed", seed, 0)):
        if check_value(name, value, "int") < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")
    times = np.linspace(0.0, 1.0, steps + 1)
    dt, sqrt_dt = 1.0 / steps, np.sqrt(1.0 / steps)
    start = eval_at(grid, 0.0)
    _check_probabilities(start.weights)  # before any other step's weights reach a log
    kernels, rates = _step_kernels(grid, times)
    uniforms, normals = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    states = normals.standard_normal((n_paths, steps + 1, grid.d))
    states[:, 0] = start._sample_from(uniforms.random(n_paths), states[:, 0])
    x, columns = _as_points(states[:, 0], grid.d), states.transpose(1, 2, 0)
    lw, weighted, dead, diverged = np.zeros(x.shape[1]), False, False, np.full(x.shape[1], -1)
    log_w = np.zeros((len(lw), steps + 1))
    window = np.empty((min(_BLOCK_STEPS, steps), grid.d, n_paths))
    step_iter = enumerate(zip(zip(*kernels), rates))  # each block's zip takes its steps from it
    for b in range(0, steps, _BLOCK_STEPS):
        block = columns[b + 1 : b + 1 + _BLOCK_STEPS]
        noise = np.multiply(block, sqrt_dt, out=window[: len(block)])
        for row, (s, (kernel, (mr, cr, wr))) in zip(noise, step_iter):
            vel, logd, _, logg = _drift(x, kernel, mr, cr)
            vel *= dt
            x += vel
            x += row
            if wr is not None:
                lw = lw + (np.exp(logg - logd) * wr[:, None]).sum(axis=0) * dt
                weighted = True
            dead = dead or not (np.isfinite(x).all() and np.isfinite(lw).all())
            if dead:  # NaN, not inf, so that no later drift computes inf - inf
                ok = np.isfinite(x).all(axis=0) & np.isfinite(lw)
                diverged[~ok & (diverged < 0)] = s + 1
                x[:, ~ok] = lw[~ok] = np.nan
            row[...] = x[:, :n_paths]
            if weighted or dead:  # otherwise every log-weight is still 0
                log_w[:, s + 1] = lw
        block[...] = noise
    log_w = log_w if weighted else [_frozen(np.zeros(steps + 1))] * n_paths
    return [
        Trajectory(times, states[i], log_w[i], i, None if flag < 0 else int(flag))
        for i, flag in enumerate(diverged[:n_paths])
    ]


def movie_frames(grid: ProtocolGrid, n_frames: int) -> list[GaussianMixture]:
    """Mixtures at n_frames uniformly spaced times, endpoints included."""
    if check_value("n_frames", n_frames, "int") < 2:
        raise ValueError(f"need at least 2 frames, got {n_frames}")
    params = _lerp_nodes(grid, *_segment(np.linspace(0.0, 1.0, n_frames), grid.L))
    return [GaussianMixture(*p) for p in zip(*params)]


def sample_bulk_points(
    gm: GaussianMixture, n: int, seed: int = 0, floor_ratio: float = 1e-8
) -> np.ndarray:
    """Sample n points from the bulk: density above floor_ratio times the peak.

    Rejection from the mixture's own samples; the peak is estimated over
    the candidate batch.
    """
    if check_value("n", n, "int") < 1:
        raise ConfigError(f"bulk sampling needs n >= 1 points, got n = {n}")
    if check_value("seed", seed, "int") < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    have = 0
    for _ in range(64):
        cand = gm.sample_with(rng, max(4 * n, 64))
        dens = gm.density(cand)
        good = cand[dens >= floor_ratio * dens.max()]
        kept.append(good)
        have += len(good)
        if have >= n:
            return np.concatenate(kept)[:n]
    raise NumericalError(f"bulk sampling kept only {have}/{n} points")
