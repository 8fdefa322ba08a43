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

from .errors import ConfigError, NumericalError
from .gm import DENSITY_FLOOR, DERIVED_WEIGHT_TOL, GaussianMixture, _as_points, _evaluate
from .gm import _factor, _frozen, _log_weights, _mix, _param_arrays, _symmetrize
from .protocol import ProtocolGrid, _lerp_nodes, _nodes, _segment, eval_at

# Weight rates below this (summed over components) switch the Poisson term and the
# replay's log-weights off. Constant-weight curricula leave rounding noise, not exact
# zeros (up to 2.8e-15 per segment on crowding K = 5, L = 10); this keeps them constant.
WEIGHT_RATE_TOL = 1e-12
QUAD_REL_TOL = 1e-8
QUAD_MAX_PANELS = 200

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


def _checked_rates(weight_rates, mean_rates, cov_rates):
    """Rates in the mixture shape rule, with cov rates symmetrized; ValueError unless the
    weight rates sum to zero."""
    wr, mr, cr = _param_arrays(weight_rates, mean_rates, cov_rates)
    if abs(wr.sum()) > DERIVED_WEIGHT_TOL:
        raise ValueError(f"weight rates must sum to zero, got {wr.sum()!r}")
    return wr, mr, _symmetrize(cr)


def _moving(weight_rates: np.ndarray) -> bool:
    """Whether the weights move enough for the Poisson term and the log-weights to be on."""
    return np.abs(weight_rates).sum() > WEIGHT_RATE_TOL


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

    Rates are right-derivatives (left at t = 1): the path is piecewise
    linear, so the drift may jump at node times and a convention is
    needed there.
    """
    gm = eval_at(grid, t)
    return PathSlice(gm, *_segment_rates(grid, _segment(t, grid.L)[0]))


def _segment_rates(grid: ProtocolGrid, j: int):
    """Unchecked time rates (weights, means, covs) of the parameters along segment j."""
    return tuple((a[j + 1] - a[j]) * grid.L for a in _nodes(grid))


def _slice_parts(pts: np.ndarray, kernel, mean_rates, cov_rates):
    """``gm._evaluate``'s outputs and the (K, n, d) component velocities for the drift.

    ``kernel`` is the mixture as ``gm._evaluate`` takes it after the points. A lone point
    goes through as a doubled batch, as numpy's matmul hands one row to gemv; a row then
    matches any batch bit for bit if gemm sums rows alike at every count (OpenBLAS 0.3.31 does).
    """
    if len(pts) == 1:
        parts = _slice_parts(np.concatenate([pts, pts]), kernel, mean_rates, cov_rates)
        return tuple(a[:, :1] if a.ndim == 3 else a[:1] for a in parts)
    logg, logd, r, siy = _evaluate(pts, *kernel)
    vel = mean_rates[:, None, :] + 0.5 * (siy @ np.swapaxes(cov_rates, 1, 2))
    return logg, logd, r, siy, vel


def shape_current(sl: PathSlice, x) -> np.ndarray:
    """Probability current of the moving components, sum_k pi_k g_k (mdot_k
    + Sigmadot_k Sigma_k^{-1} (x - m_k) / 2)."""
    pts = _as_points(x, sl.gm.d)
    _, logd, r, _, vel = _slice_parts(pts, sl.gm._kernel, sl.mean_rates, sl.cov_rates)
    return _mix(np.exp(logd)[:, None] * r, vel)


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
    """Quadrature for grad psi (n, d) and, optionally, psi itself (n,).

    ``poisson`` is one instant's ``_poisson_of``; both are zero, and no quadrature
    runs, when it is None. One batched matmul projects the points onto every moving
    component's eigenbasis, where each integral maps s = lam_max u / (1 - u) onto the unit
    interval; the gradient rotates back afterwards. Only the kernel and the denominators
    depend on the node, so the rule weights fold into the small (P, d, q) inverse
    denominators: one batched (P, 2 d, q) @ (P, q, n) matmul gives both rules' sums of
    kernel / den, z multiplies them, and no (q, n, d) node tensor is built. The columns are
    dimension-major, (d, n).
    """
    n, d = pts.shape
    grad = np.zeros((n, d))
    pot = np.zeros(n) if with_potential else None
    if poisson is None:
        return grad, pot
    if with_potential and d <= 2:
        raise ValueError("the potential integral diverges for d <= 2; use the gradient")
    norm = (2.0 * np.pi) ** (-0.5 * d)
    rates, means, lams, bases = poisson
    projected = (pts[None, :, :] - means[:, None, :]) @ bases
    for k, (lam, q_basis, z) in enumerate(zip(lams, bases, projected)):
        z_t, zz_t = z.T, z.T * z.T
        lmax = float(lam[-1])

        def integrand(u: np.ndarray, w: np.ndarray) -> np.ndarray:
            p, q = u.shape
            inv = 1.0 / (lam + 2.0 * (lmax * u / (1.0 - u))[:, :, None])
            # log of the Jacobian lmax / (1 - u)^2 times det(den)^(-1/2)
            log_c = np.log(lmax / (1.0 - u) ** 2) + 0.5 * np.log(inv).sum(axis=2)
            kernel = (-0.5 * inv) @ zz_t
            kernel += log_c[:, :, None]
            np.exp(kernel, out=kernel)
            w_inv = w[:, :, None, :] * inv.transpose(0, 2, 1)[:, None]
            sums = (w_inv.reshape(p, 2 * d, q) @ kernel).reshape(p, 2, d, n)
            sums *= z_t
            out = sums.reshape(p, 2, d * n)
            if with_potential:
                out = np.concatenate([out, w @ kernel], axis=2)
            return out

        total = _adaptive_integral(integrand, QUAD_REL_TOL, QUAD_MAX_PANELS)
        rate = float(rates[k])
        grad += rate * norm * total[: n * d].reshape(d, n).T @ q_basis.T
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
    return _psi_terms(_as_points(x, sl.gm.d), _poisson_of(sl), False)[0]


def psi_potential(sl: PathSlice, x) -> np.ndarray:
    """The potential itself (d >= 3 only; the integral diverges below).

    Defined up to an additive constant, which the drift never sees; this
    particular normalization decays to zero at infinity.
    """
    return _psi_terms(_as_points(x, sl.gm.d), _poisson_of(sl), True)[1]


def drift_with_stats(sl: PathSlice, x) -> tuple[np.ndarray, int]:
    """Drift of unweighted paths at x, Poisson term included, plus the number of
    density-clamped evaluations.

    The component-transport part and the half-score are evaluated
    through responsibilities and never divide by the density; only the
    Poisson term needs the division, clamped at the floor in far tails.
    """
    pts = _as_points(x, sl.gm.d)
    return _drift(pts, sl.gm._kernel, sl.mean_rates, sl.cov_rates, _poisson_of(sl))[:2]


def _drift(pts, kernel, mean_rates, cov_rates, poisson=None):
    """Drift (n, d), density clamp count, log density (n,), score (n, d) and component log
    densities (n, K) at points (n, d).

    ``kernel`` is the mixture as ``gm._evaluate`` takes it after the points,
    and the rates are a PathSlice's. ``poisson`` is the Poisson term's arrays
    (``_poisson_of``); without them the drift is the component transport plus
    the half-score, the weighted replay's drift.
    """
    logg, logd, r, siy, vel = _slice_parts(pts, kernel, mean_rates, cov_rates)
    score = -_mix(r, siy)
    out = _mix(r, vel) + 0.5 * score
    clamped = 0
    if poisson is not None:
        dens = np.exp(logd)
        clamped = int(np.count_nonzero(dens < DENSITY_FLOOR))
        out -= _psi_terms(pts, poisson, False)[0] / np.maximum(dens, DENSITY_FLOOR)[:, None]
    return out, clamped, logd, score, logg


def fp_residual(grid: ProtocolGrid, t: float, pts) -> float:
    """Worst relative continuity-equation violation over the points.

    Compares the finite-difference time derivative of the density with
    the divergence of the current J = p (s - score / 2) assembled from
    the reconstructed drift. The whole spatial stencil goes through one
    drift call so the quadrature error is common mode and cancels in
    the differences.
    """
    pts = _as_points(pts, grid.d)
    n, d = pts.shape
    dt = 1e-5
    h = 1e-4
    if not dt < t < 1.0 - dt or _segment(t - dt, grid.L)[0] != _segment(t + dt, grid.L)[0]:
        raise ValueError(f"t = {t!r} is not inside a segment interior at time step {dt}")
    dpdt = (eval_at(grid, t + dt).density(pts) - eval_at(grid, t - dt).density(pts)) / (2.0 * dt)

    sl = path_slice(grid, t)
    offsets = h * np.eye(d)
    stencil = np.concatenate(
        [pts[:, None, :] + offsets[None, :, :], pts[:, None, :] - offsets[None, :, :]], axis=1
    ).reshape(-1, d)
    vel, _, logd, score, _ = _drift(
        stencil, sl.gm._kernel, sl.mean_rates, sl.cov_rates, _poisson_of(sl)
    )
    current = np.exp(logd)[:, None] * (vel - 0.5 * score)
    current = current.reshape(n, 2 * d, d)
    idx = np.arange(d)
    div = (current[:, idx, idx] - current[:, d + idx, idx]).sum(axis=1) / (2.0 * h)

    scale = float(sl.gm.density(pts).max())
    rel = np.abs(dpdt + div) / np.maximum(np.abs(dpdt), scale)
    return float(rel.max())


def _step_drift_args(grid: ProtocolGrid, times: np.ndarray):
    """Yield the point kernel, the mean and cov rates and the weight rates (None while the
    weights do not move) for each of the ascending times.

    Each segment's times are interpolated in one gather, their covariances
    symmetrized as GaussianMixture does and factored in one batched call; its
    rates are checked once, as PathSlice checks them. No step builds a mixture
    or a PathSlice.
    """
    seg, alpha = _segment(times, grid.L)
    starts = np.flatnonzero(np.diff(seg, prepend=-1))
    for a, b in zip(starts, np.append(starts[1:], len(times))):
        wr, mr, cr = _checked_rates(*_segment_rates(grid, seg[a]))
        w, m, c = _lerp_nodes(_nodes(grid), seg[a:b], alpha[a:b])
        _, inv, log_norms = _factor(_symmetrize(c))
        log_w = _log_weights(w)
        wr = wr if _moving(wr) else None
        for i in range(b - a):
            yield (log_w[i], m[i], inv[i], log_norms[i]), mr, cr, wr


def integrate_sde(
    grid: ProtocolGrid, n_paths: int = 1000, steps: int = 400, seed: int = 0
) -> list[Trajectory]:
    """Weighted Euler-Maruyama replay paths from t = 0 to t = 1, unit diffusion.

    Path i has its own generator, the i-th spawn of the seed. It draws a
    uniform that picks the start component, then a (steps + 1, d) normal
    block: row 0 places the start in that component, row s + 1 is step
    s's increment. Each row is overwritten by the state it leads to. The
    drift is the component transport plus the half-score; step s adds
    dt sum_k pidot_k g_k(x) / p(x) at its start to the path's log-weight,
    which starts at 0; if no step's weights move, every path shares one
    read-only row of zeros. A marginal is the average with weights
    exp(log_weight) normalised over the paths. All paths step as one array;
    a path whose state or log-weight turns non-finite is flagged and NaN from
    there on. Repeat calls reproduce a path bit for bit, as do other n_paths
    (``_slice_parts``).

    Each segment is gathered and factored once (``_step_drift_args``), so a
    step does point work only; its drift equals ``drift_with_stats`` bit for
    bit on ``path_slice(grid, t)`` with the weight rates zeroed.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    times = np.linspace(0.0, 1.0, steps + 1)
    dt = 1.0 / steps
    u = np.empty(n_paths)
    states = np.empty((n_paths, steps + 1, grid.d))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_paths)):
        rng = np.random.default_rng(child)
        u[i] = rng.random()
        rng.standard_normal(out=states[i])
    x = eval_at(grid, 0.0)._sample_from(u, states[:, 0])
    states[:, 0] = x
    log_w, lw, weighted = np.zeros((n_paths, steps + 1)), np.zeros(n_paths), False
    diverged = np.full(n_paths, -1)
    for s, (kernel, mr, cr, wr) in enumerate(_step_drift_args(grid, times[:-1])):
        vel, _, logd, _, logg = _drift(x, kernel, mr, cr)
        x = x + vel * dt + np.sqrt(dt) * states[:, s + 1]
        ok = np.isfinite(x).all(axis=1)
        if wr is not None:
            lw = lw + (np.exp(logg - logd[:, None]) * wr).sum(axis=1) * dt
            ok &= np.isfinite(lw)
            weighted = True
        dead = not ok.all()
        if dead:  # NaN, not inf, so that no later drift computes inf - inf
            diverged[~ok & (diverged < 0)] = s + 1
            x[~ok] = lw[~ok] = np.nan
        states[:, s + 1] = x
        if weighted or dead:  # otherwise every log-weight is still 0
            log_w[:, s + 1] = lw
    log_w = log_w if weighted else [_frozen(np.zeros(steps + 1))] * n_paths
    return [
        Trajectory(times, states[i], log_w[i], i, None if flag < 0 else int(flag))
        for i, flag in enumerate(diverged)
    ]


def movie_frames(grid: ProtocolGrid, n_frames: int) -> list[GaussianMixture]:
    """Mixtures at n_frames uniformly spaced times, endpoints included."""
    if n_frames < 2:
        raise ValueError(f"need at least 2 frames, got {n_frames}")
    params = _lerp_nodes(_nodes(grid), *_segment(np.linspace(0.0, 1.0, n_frames), grid.L))
    return [GaussianMixture(*p) for p in zip(*params)]


def sample_bulk_points(
    gm: GaussianMixture, n: int, seed: int = 0, floor_ratio: float = 1e-8
) -> np.ndarray:
    """Sample n points from the bulk: density above floor_ratio times the peak.

    Rejection from the mixture's own samples; the peak is estimated over
    the candidate batch.
    """
    if n < 1:
        raise ConfigError(f"bulk sampling needs n >= 1 points, got n = {n}")
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
