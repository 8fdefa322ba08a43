"""Sample-path view of the memory: drift reconstruction and replay SDE.

The protocol grid defines a density path p(x, t) over [0, 1], piecewise
linear in the mixture parameters. The same object can be realised as an
ensemble of sample paths dX_t = s_t(X_t) dt + dW_t with unit diffusion,
where the drift splits into three parts:

* a transport term from the moving, deforming components,
* a weight-transport term, the gradient of a potential psi solving
  Delta psi = sum_k pidot_k g_k (probability created by one component
  must flow out of the others),
* the entropic correction (1/2) grad log p that converts the
  probability-flow field into the drift of a unit-diffusion SDE.

The potential has a one-dimensional integral representation through the
heat kernel: psi_k(x) = -(2 pi)^{-d/2} int_0^inf exp(-q^T (Sigma_k +
2 s I)^{-1} q / 2) / sqrt(det(Sigma_k + 2 s I)) ds with q = x - m_k,
so grad psi_k costs one adaptive quadrature per component.
fp_residual closes the loop by checking the continuity equation
numerically against the reconstructed drift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, NumericalError
from .gm import DENSITY_FLOOR, GaussianMixture, _as_points, _frozen, _mix, _param_arrays
from .protocol import ProtocolGrid, _segment, eval_at

# Weight rates below this (summed over components) switch the Poisson
# term off entirely; constant-weight curricula produce exact zeros.
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
        wr, mr, cr = _param_arrays(self.weight_rates, self.mean_rates, self.cov_rates)
        if mr.shape != self.gm.means.shape:
            raise ValueError(f"rate shape {mr.shape} does not match mixture {self.gm.means.shape}")
        if abs(wr.sum()) > WEIGHT_RATE_TOL:
            raise ValueError(f"weight rates must sum to zero, got {wr.sum()!r}")
        object.__setattr__(self, "weight_rates", _frozen(wr))
        object.__setattr__(self, "mean_rates", _frozen(mr))
        object.__setattr__(self, "cov_rates", _frozen(0.5 * (cr + np.swapaxes(cr, 1, 2))))


@dataclass(frozen=True)
class Trajectory:
    """One replay sample path on the uniform time grid."""

    times: np.ndarray
    states: np.ndarray
    path_id: int
    diverged_at: int | None = None


def path_slice(grid: ProtocolGrid, t: float) -> PathSlice:
    """Parameters and segment rates at time t.

    Rates are right-derivatives (left at t = 1): the path is piecewise
    linear, so the drift may jump at node times and a convention is
    needed there.
    """
    gm = eval_at(grid, t)
    j, _ = _segment(t, grid.L)
    rates = ((a[j + 1] - a[j]) * grid.L for a in (grid.weights, grid.means, grid.covs))
    return PathSlice(gm, *rates)


def _slice_parts(sl: PathSlice, pts: np.ndarray):
    """Log density, responsibilities, and (K, n, d) solves and velocities for the drift."""
    logd, r, siy = sl.gm._evaluate(pts)
    vel = sl.mean_rates[:, None, :] + 0.5 * (siy @ np.swapaxes(sl.cov_rates, 1, 2))
    return logd, r, siy, vel


def shape_current(sl: PathSlice, x) -> np.ndarray:
    """Probability current of the moving components, sum_k pi_k g_k (mdot_k
    + Sigmadot_k Sigma_k^{-1} (x - m_k) / 2)."""
    logd, r, _, vel = _slice_parts(sl, _as_points(x, sl.gm.d))
    return _mix(np.exp(logd)[:, None] * r, vel)


def _adaptive_integral(f, tol: float, max_panels: int, edges=(0.0, 1.0)):
    """Integrate a batch of columns over u in [0, 1] with shared panels.

    ``f(u, w)`` takes the 22 nodes u (P, q) of P panels' 15- and 7-point
    Gauss-Legendre rules and their weights w (P, 2, q), each rule's row
    zero on the other rule's nodes, and returns the weighted sums
    (P, 2, B), fine rule first. The panels between ``edges`` go through
    one call, and each split evaluates its two halves in one more call.
    All columns are refined together on a common panel set, so
    differences of nearby columns (finite-difference stencils) see the
    same quadrature error and it cancels. Panels split at the largest
    15-vs-7-point discrepancy until the pooled error estimate drops below
    ``tol`` relative to the largest column; the starting panels count
    toward ``max_panels``. Returns the fine-rule total (B,) and the final
    panel edges, which can start the next integral of a similar
    integrand.
    """

    def evaluate(a: np.ndarray, b: np.ndarray):
        half = 0.5 * (b - a)
        u = (0.5 * (a + b))[:, None] + half[:, None] * _GL_NODES
        sums = f(u, half[:, None, None] * _GL_WEIGHTS)
        return sums[:, 0], np.abs(sums[:, 0] - sums[:, 1]).max(axis=1)

    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    fine, err = evaluate(lo, hi)
    while True:
        total = fine.sum(axis=0)
        scale = max(float(np.abs(total).max()), DENSITY_FLOOR)
        pooled = sum(err.tolist())
        if pooled <= tol * scale:
            return total, np.append(np.sort(lo), hi.max())
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


def _psi_terms(sl: PathSlice, pts: np.ndarray, with_potential: bool, panels=None):
    """Quadrature for grad psi (n, d) and, optionally, psi itself (n,).

    Both are zero, and no quadrature runs, while the weight rates vanish.
    Maps s = lam_max u / (1 - u) onto the unit interval and integrates
    in the eigenbasis of each active component; the gradient rotates
    back afterwards. Only the kernel and the denominators depend on the
    node, so the rule weights fold into the small (P, d, q) inverse
    denominators: one batched (P, 2 d, q) @ (P, q, n) matmul gives both
    rules' sums of kernel / den, z multiplies them, and no (q, n, d)
    node tensor is built. The columns are dimension-major, (d, n).
    ``panels`` maps a component to the panel edges its integral starts
    from (default [0, 1]) and receives its final edges.
    """
    gm = sl.gm
    n, d = pts.shape
    grad = np.zeros((n, d))
    pot = np.zeros(n) if with_potential else None
    if np.abs(sl.weight_rates).sum() <= WEIGHT_RATE_TOL:
        return grad, pot
    if with_potential and d <= 2:
        raise ValueError("the potential integral diverges for d <= 2; use the gradient")
    panels = {} if panels is None else panels
    norm = (2.0 * np.pi) ** (-0.5 * d)
    active = np.nonzero(np.abs(sl.weight_rates) > 0.0)[0]
    lams, bases = np.linalg.eigh(gm.covs[active])
    for k, lam, q_basis in zip(active, lams, bases):
        z_t = ((pts - gm.means[k]) @ q_basis).T
        zz_t = z_t * z_t
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

        total, panels[k] = _adaptive_integral(
            integrand, QUAD_REL_TOL, QUAD_MAX_PANELS, panels.get(k, (0.0, 1.0))
        )
        rate = float(sl.weight_rates[k])
        grad += rate * norm * total[: n * d].reshape(d, n).T @ q_basis.T
        if with_potential:
            pot -= rate * norm * total[n * d :]
    return grad, pot


def poisson_psi_grad(sl: PathSlice, x, panels=None) -> np.ndarray:
    """Gradient of the weight-transport potential at x.

    Zero whenever the weight rates vanish; otherwise one adaptive
    quadrature per component with a nonzero rate, batched over points.
    ``panels``, a dict the caller owns, maps each component to the panel
    edges its quadrature starts from and receives the edges it ended
    on; None starts every component from [0, 1].
    """
    return _psi_terms(sl, _as_points(x, sl.gm.d), with_potential=False, panels=panels)[0]


def psi_potential(sl: PathSlice, x) -> np.ndarray:
    """The potential itself (d >= 3 only; the integral diverges below).

    Defined up to an additive constant, which the drift never sees; this
    particular normalization decays to zero at infinity.
    """
    return _psi_terms(sl, _as_points(x, sl.gm.d), with_potential=True)[1]


def drift_with_stats(sl: PathSlice, x, panels=None) -> tuple[np.ndarray, int]:
    """SDE drift at x plus the number of density-clamped evaluations.

    The component-transport part and the half-score are evaluated
    through responsibilities and never divide by the density; only the
    Poisson term needs the division, clamped at the floor in far tails.
    ``panels`` is passed on to ``poisson_psi_grad``: the quadrature panel
    edges per component to start from, updated in place.
    """
    pts = _as_points(x, sl.gm.d)
    logd, r, siy, vel = _slice_parts(sl, pts)
    out = _mix(r, vel) - 0.5 * _mix(r, siy)
    clamped = 0
    if np.abs(sl.weight_rates).sum() > WEIGHT_RATE_TOL:
        dens = np.exp(logd)
        clamped = int(np.count_nonzero(dens < DENSITY_FLOOR))
        out -= poisson_psi_grad(sl, pts, panels) / np.maximum(dens, DENSITY_FLOOR)[:, None]
    return out, clamped


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
    vel, _ = drift_with_stats(sl, stencil)
    current = sl.gm.density(stencil)[:, None] * (vel - 0.5 * sl.gm.score(stencil))
    current = current.reshape(n, 2 * d, d)
    idx = np.arange(d)
    div = (current[:, idx, idx] - current[:, d + idx, idx]).sum(axis=1) / (2.0 * h)

    scale = float(sl.gm.density(pts).max())
    rel = np.abs(dpdt + div) / np.maximum(np.abs(dpdt), scale)
    return float(rel.max())


def integrate_sde(
    grid: ProtocolGrid, n_paths: int = 1000, steps: int = 400, seed: int = 0
) -> list[Trajectory]:
    """Euler-Maruyama replay paths from t = 0 to t = 1, unit diffusion.

    Path i has its own generator, the i-th spawn of the seed. It draws a
    uniform that picks the start component, then a (steps + 1, d) normal
    block: row 0 places the start in that component, row s + 1 is step
    s's increment. Each row is overwritten by the state it leads to. All
    paths step as one array until one turns non-finite; that path is
    NaN-filled from there and the rest step as an index subset. Repeat
    calls with the same n_paths reproduce bit for bit, and on
    constant-weight grids a path does not depend on n_paths. When the
    weights move, the Poisson quadrature pools its error test over the
    alive batch and starts each step from the panels the segment's last
    step ended on, so each drift depends on the siblings and the earlier
    steps at quadrature accuracy.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    times = np.linspace(0.0, 1.0, steps + 1)
    dt = 1.0 / steps
    root = np.sqrt(dt)
    u = np.empty(n_paths)
    states = np.empty((n_paths, steps + 1, grid.d))
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n_paths)):
        rng = np.random.default_rng(child)
        u[i] = rng.random()
        rng.standard_normal(out=states[i])
    x = eval_at(grid, 0.0)._sample_from(u, states[:, 0])
    states[:, 0] = x
    diverged = np.full(n_paths, -1)
    rows, alive = np.arange(n_paths), slice(None)
    seg, panels = None, {}
    for s in range(steps):
        t = float(times[s])
        j, _ = _segment(t, grid.L)
        if j != seg:
            seg, panels = j, {}
        vel, _ = drift_with_stats(path_slice(grid, t), x[alive], panels=panels)
        x[alive] = x[alive] + vel * dt + root * states[alive, s + 1]
        ok = np.isfinite(x[alive]).all(axis=1)
        if not ok.all():
            idx = rows[alive]
            diverged[idx[~ok]] = s + 1
            states[idx[~ok], s + 1 :] = np.nan
            alive = idx[ok]
            if alive.size == 0:
                break
        states[alive, s + 1] = x[alive]
    return [
        Trajectory(times, states[i], i, None if flag < 0 else int(flag))
        for i, flag in enumerate(diverged)
    ]


def movie_frames(grid: ProtocolGrid, n_frames: int) -> list[GaussianMixture]:
    """Mixtures at n_frames uniformly spaced times, endpoints included."""
    if n_frames < 2:
        raise ValueError(f"need at least 2 frames, got {n_frames}")
    return [eval_at(grid, float(t)) for t in np.linspace(0.0, 1.0, n_frames)]


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
