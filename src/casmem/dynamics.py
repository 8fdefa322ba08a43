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

from .errors import NumericalError
from .gm import DENSITY_FLOOR, GaussianMixture, _as_points, _frozen
from .protocol import ProtocolGrid, eval_at

# Weight rates below this (summed over components) switch the Poisson
# term off entirely; constant-weight curricula produce exact zeros.
WEIGHT_RATE_TOL = 1e-12
QUAD_REL_TOL = 1e-8
QUAD_MAX_PANELS = 200

_GL_FINE = leggauss(15)
_GL_COARSE = leggauss(7)


@dataclass(frozen=True)
class PathSlice:
    """Mixture parameters and their time rates at one instant of the path."""

    gm: GaussianMixture
    weight_rates: np.ndarray
    mean_rates: np.ndarray
    cov_rates: np.ndarray

    def __post_init__(self):
        wr = np.asarray(self.weight_rates, dtype=float)
        mr = np.asarray(self.mean_rates, dtype=float)
        cr = np.asarray(self.cov_rates, dtype=float)
        k, d = self.gm.k, self.gm.d
        if wr.shape != (k,) or mr.shape != (k, d) or cr.shape != (k, d, d):
            raise ValueError(
                f"rate shapes {wr.shape}, {mr.shape}, {cr.shape} do not match mixture ({k}, {d})"
            )
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
    seed: int
    path_id: int
    diverged_at: int | None = None


def path_slice(grid: ProtocolGrid, t: float) -> PathSlice:
    """Parameters and segment rates at time t.

    Rates are right-derivatives (left at t = 1): the path is piecewise
    linear, so the drift may jump at node times and a convention is
    needed there.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    segs = grid.L
    j = min(int(t * segs), segs - 1)
    rates = ((a[j + 1] - a[j]) * segs for a in (grid.weights, grid.means, grid.covs))
    return PathSlice(eval_at(grid, t), *rates)


def _slice_parts(sl: PathSlice, pts: np.ndarray):
    """Responsibilities, solves and component velocities shared by the drift terms."""
    gm = sl.gm
    logg, siy = gm._eval_parts(pts)
    lw = gm._log_weights()[None, :] + logg
    lw = lw - lw.max(axis=1, keepdims=True)
    r = np.exp(lw)
    r /= r.sum(axis=1, keepdims=True)
    vel = sl.mean_rates[None, :, :] + 0.5 * np.einsum("kde,nke->nkd", sl.cov_rates, siy)
    return logg, siy, r, vel


def shape_current(sl: PathSlice, x) -> np.ndarray:
    """Probability current of the moving components, sum_k pi_k g_k (mdot_k
    + Sigmadot_k Sigma_k^{-1} (x - m_k) / 2)."""
    pts, single = _as_points(x, sl.gm.d)
    logg, _, _, vel = _slice_parts(sl, pts)
    out = np.einsum("nk,nkd->nd", sl.gm.weights[None, :] * np.exp(logg), vel)
    return out[0] if single else out


def _adaptive_integral(f, tol: float, max_panels: int) -> np.ndarray:
    """Integrate a batch of columns over u in [0, 1] with shared panels.

    ``f(u)`` maps quadrature nodes (q,) to integrand values (q, B). All
    columns are refined together on a common panel set, so differences
    of nearby columns (finite-difference stencils) see the same
    quadrature error and it cancels. Panels split at the largest
    15-vs-7-point discrepancy until the pooled error estimate drops
    below ``tol`` relative to the largest column.
    """
    xf, wf = _GL_FINE
    xc, wc = _GL_COARSE

    def evaluate(a: float, b: float):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        fine = half * (wf[:, None] * f(mid + half * xf)).sum(axis=0)
        coarse = half * (wc[:, None] * f(mid + half * xc)).sum(axis=0)
        return a, b, fine, float(np.abs(fine - coarse).max())

    panels = [evaluate(0.0, 1.0)]
    while True:
        total = np.sum([p[2] for p in panels], axis=0)
        scale = max(float(np.abs(total).max()), DENSITY_FLOOR)
        err = sum(p[3] for p in panels)
        if err <= tol * scale:
            return total
        if len(panels) >= max_panels:
            raise NumericalError(
                f"potential quadrature stalled at {len(panels)} panels "
                f"(error {err:.3e} vs scale {scale:.3e})"
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        a, b, _, _ = panels.pop(worst)
        mid = 0.5 * (a + b)
        panels.append(evaluate(a, mid))
        panels.append(evaluate(mid, b))


def _psi_terms(sl: PathSlice, pts: np.ndarray, with_potential: bool):
    """Quadrature for grad psi (n, d) and, optionally, psi itself (n,).

    Maps s = lam_max u / (1 - u) onto the unit interval and integrates
    in the eigenbasis of each active component; the gradient rotates
    back afterwards.
    """
    gm = sl.gm
    n, d = pts.shape
    grad = np.zeros((n, d))
    pot = np.zeros(n) if with_potential else None
    if with_potential and d <= 2:
        raise ValueError("the potential integral diverges for d <= 2; use the gradient")
    norm = (2.0 * np.pi) ** (-0.5 * d)
    for k in np.nonzero(np.abs(sl.weight_rates) > 0.0)[0]:
        lam, q_basis = np.linalg.eigh(gm.covs[k])
        z = (pts - gm.means[k]) @ q_basis
        lmax = float(lam[-1])

        def integrand(u: np.ndarray) -> np.ndarray:
            s = lmax * u / (1.0 - u)
            jac = lmax / (1.0 - u) ** 2
            den = lam[None, :] + 2.0 * s[:, None]
            quad = np.einsum("nd,qd->qn", z * z, 1.0 / den)
            kernel = np.exp(-0.5 * quad - 0.5 * np.log(den).sum(axis=1)[:, None])
            kernel *= jac[:, None]
            vec = kernel[:, :, None] * (z[None, :, :] / den[:, None, :])
            out = vec.reshape(len(u), n * d)
            if with_potential:
                out = np.concatenate([out, kernel], axis=1)
            return out

        total = _adaptive_integral(integrand, QUAD_REL_TOL, QUAD_MAX_PANELS)
        rate = float(sl.weight_rates[k])
        grad += rate * norm * total[: n * d].reshape(n, d) @ q_basis.T
        if with_potential:
            pot -= rate * norm * total[n * d :]
    return grad, pot


def poisson_psi_grad(sl: PathSlice, x) -> np.ndarray:
    """Gradient of the weight-transport potential at x.

    Zero whenever the weight rates vanish; otherwise one adaptive
    quadrature per component with a nonzero rate, batched over points.
    """
    pts, single = _as_points(x, sl.gm.d)
    if np.abs(sl.weight_rates).sum() <= WEIGHT_RATE_TOL:
        out = np.zeros_like(pts)
        return out[0] if single else out
    grad, _ = _psi_terms(sl, pts, with_potential=False)
    return grad[0] if single else grad


def psi_potential(sl: PathSlice, x) -> np.ndarray | float:
    """The potential itself (d >= 3 only; the integral diverges below).

    Defined up to an additive constant, which the drift never sees; this
    particular normalization decays to zero at infinity.
    """
    pts, single = _as_points(x, sl.gm.d)
    if np.abs(sl.weight_rates).sum() <= WEIGHT_RATE_TOL:
        pot = np.zeros(len(pts))
        return float(pot[0]) if single else pot
    _, pot = _psi_terms(sl, pts, with_potential=True)
    return float(pot[0]) if single else pot


def drift_with_stats(sl: PathSlice, x) -> tuple[np.ndarray, int]:
    """SDE drift at x plus the number of density-clamped evaluations.

    The component-transport part and the half-score are evaluated
    through responsibilities and never divide by the density; only the
    Poisson term needs the division, clamped at the floor in far tails.
    """
    pts, single = _as_points(x, sl.gm.d)
    _, siy, r, vel = _slice_parts(sl, pts)
    out = np.einsum("nk,nkd->nd", r, vel) - 0.5 * np.einsum("nk,nki->ni", r, siy)
    clamped = 0
    if np.abs(sl.weight_rates).sum() > WEIGHT_RATE_TOL:
        dens = np.asarray(sl.gm.density(pts))
        clamped = int(np.count_nonzero(dens < DENSITY_FLOOR))
        out -= poisson_psi_grad(sl, pts) / np.maximum(dens, DENSITY_FLOOR)[:, None]
    return (out[0] if single else out), clamped


def fp_residual(grid: ProtocolGrid, t: float, pts) -> float:
    """Worst relative continuity-equation violation over the points.

    Compares the finite-difference time derivative of the density with
    the divergence of the current J = p (s - score / 2) assembled from
    the reconstructed drift. The whole spatial stencil goes through one
    drift call so the quadrature error is common mode and cancels in
    the differences.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected points of shape (n, d), got {pts.shape}")
    n, d = pts.shape
    dt = 1e-5
    h = 1e-4
    segs = grid.L
    if not dt < t < 1.0 - dt or int((t - dt) * segs) != min(int((t + dt) * segs), segs - 1):
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

    scale = float(np.asarray(sl.gm.density(pts)).max())
    rel = np.abs(dpdt + div) / np.maximum(np.abs(dpdt), scale)
    return float(rel.max())


def integrate_sde(
    grid: ProtocolGrid, n_paths: int = 1000, steps: int = 400, seed: int = 0
) -> list[Trajectory]:
    """Euler-Maruyama replay paths from t = 0 to t = 1, unit diffusion.

    Path i draws its start point and noise from the i-th spawn of the
    seed, so any single trajectory reproduces regardless of n_paths.
    Paths that leave the representable range are cut at the first
    non-finite state and NaN-filled from there.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    d = grid.d
    times = np.linspace(0.0, 1.0, steps + 1)
    dt = 1.0 / steps
    root = np.sqrt(dt)
    children = np.random.SeedSequence(seed).spawn(n_paths)
    start = eval_at(grid, 0.0)

    chunk = max(1, int(5e7 / ((steps + 1) * d)))
    out: list[Trajectory] = []
    for lo in range(0, n_paths, chunk):
        ids = range(lo, min(lo + chunk, n_paths))
        rngs = [np.random.default_rng(children[i]) for i in ids]
        states = np.full((len(rngs), steps + 1, d), np.nan)
        states[:, 0] = np.concatenate([start.sample_with(r, 1) for r in rngs])
        noise = np.stack([r.standard_normal((steps, d)) for r in rngs])
        diverged = np.full(len(rngs), -1)

        alive = np.arange(len(rngs))
        x = states[:, 0].copy()
        for s in range(steps):
            vel, _ = drift_with_stats(path_slice(grid, float(times[s])), x[alive])
            x[alive] = x[alive] + vel * dt + root * noise[alive, s]
            ok = np.isfinite(x[alive]).all(axis=1)
            if not ok.all():
                diverged[alive[~ok]] = s + 1
                alive = alive[ok]
                if alive.size == 0:
                    break
            states[alive, s + 1] = x[alive]
        for row, i in enumerate(ids):
            flag = int(diverged[row])
            out.append(
                Trajectory(times, states[row], seed, i, None if flag < 0 else flag)
            )
    return out


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
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    have = 0
    for _ in range(64):
        cand = gm.sample_with(rng, max(4 * n, 64))
        dens = np.asarray(gm.density(cand))
        good = cand[dens >= floor_ratio * dens.max()]
        kept.append(good)
        have += len(good)
        if have >= n:
            return np.concatenate(kept)[:n]
    raise NumericalError(f"bulk sampling kept only {have}/{n} points")
