"""Gaussian mixture state type and componentwise parameter operations.

A mixture is the unit of memory throughout this package: protocol grids
store the parameters of one mixture per node, stacked, and every grid
update reduces to convex combinations of node parameters (weights, means,
covariances taken componentwise). Instances are immutable after
construction and safe to share between threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SIMPLEX_TOL = 1e-12
SYMMETRY_TOL = 1e-10
# Positive-definiteness is judged relative to the largest eigenvalue, so
# near-point mixtures (covariance eps * I) remain valid.
PD_RTOL = 1e-10
# Absolute clamp applied before dividing by the density in far tails.
DENSITY_FLOOR = 1e-300

_LOG_2PI = float(np.log(2.0 * np.pi))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_points(x, d: int) -> tuple[np.ndarray, bool]:
    """Coerce x to shape (n, d); the flag reports whether input was a single point."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 1:
        if a.shape != (d,):
            raise ValueError(f"point has dimension {a.shape[0]}, expected {d}")
        return a[None, :], True
    if a.ndim == 2 and a.shape[1] == d:
        return a, False
    raise ValueError(f"expected shape (n, {d}) or ({d},), got {a.shape}")


@dataclass(frozen=True)
class Moments:
    """Overall mean and covariance of a mixture."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class GaussianMixture:
    """K-component Gaussian mixture in d dimensions.

    Fields are plain arrays: ``weights`` (K,), ``means`` (K, d) and
    ``covs`` (K, d, d). Covariances are symmetrized on construction and
    all arrays are frozen. Construction only checks shapes; use
    :func:`validate` for the probabilistic invariants, which keeps
    construction cheap inside interpolation loops.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        m = np.atleast_2d(np.asarray(self.means, dtype=float))
        c = np.asarray(self.covs, dtype=float)
        if c.ndim == 2:
            c = c[None, :, :]
        if w.ndim != 1 or m.ndim != 2 or c.ndim != 3:
            raise ValueError("expected shapes (K,), (K, d), (K, d, d)")
        k, d = m.shape
        if w.shape != (k,) or c.shape != (k, d, d):
            raise ValueError(
                f"inconsistent shapes: weights {w.shape}, means {m.shape}, covs {c.shape}"
            )
        c = 0.5 * (c + np.swapaxes(c, 1, 2))
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "means", _frozen(m))
        object.__setattr__(self, "covs", _frozen(c))

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    # Cholesky factors and derived solves are cached per instance; frozen
    # dataclasses still allow cached_property because it writes to __dict__.
    @cached_property
    def _chols(self) -> np.ndarray:
        return np.linalg.cholesky(self.covs)

    @cached_property
    def _inv_chols(self) -> np.ndarray:
        eye = np.broadcast_to(np.eye(self.d), (self.k, self.d, self.d))
        return np.linalg.solve(self._chols, eye.copy())

    @cached_property
    def _log_norms(self) -> np.ndarray:
        logdets = 2.0 * np.log(np.diagonal(self._chols, axis1=1, axis2=2)).sum(axis=1)
        return -0.5 * (self.d * _LOG_2PI + logdets)

    def _eval_parts(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-component log densities (n, K) and solves Sigma_k^{-1}(x - m_k) (n, K, d)."""
        y = pts[:, None, :] - self.means[None, :, :]
        z = np.einsum("kij,nkj->nki", self._inv_chols, y)
        logg = self._log_norms[None, :] - 0.5 * np.einsum("nki,nki->nk", z, z)
        siy = np.einsum("kji,nkj->nki", self._inv_chols, z)
        return logg, siy

    def _log_weights(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.weights)

    def component_log_density(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.d)
        logg, _ = self._eval_parts(pts)
        return logg[0] if single else logg

    def log_density(self, x) -> np.ndarray | float:
        pts, single = _as_points(x, self.d)
        logg, _ = self._eval_parts(pts)
        lw = self._log_weights()[None, :] + logg
        peak = lw.max(axis=1)
        out = peak + np.log(np.exp(lw - peak[:, None]).sum(axis=1))
        return float(out[0]) if single else out

    def density(self, x) -> np.ndarray | float:
        """Mixture density; underflows smoothly to 0.0 far from all components."""
        out = np.exp(self.log_density(x))
        return out

    def responsibilities(self, x) -> np.ndarray:
        """Posterior component probabilities, computed in log space.

        Stays well defined arbitrarily far into the tails, where the
        density itself underflows.
        """
        pts, single = _as_points(x, self.d)
        logg, _ = self._eval_parts(pts)
        lw = self._log_weights()[None, :] + logg
        lw = lw - lw.max(axis=1, keepdims=True)
        r = np.exp(lw)
        r /= r.sum(axis=1, keepdims=True)
        return r[0] if single else r

    def score(self, x) -> np.ndarray:
        """Gradient of log density at x.

        Evaluated through responsibilities, so no density division occurs
        and the result stays finite wherever the quadratic forms do.
        """
        pts, single = _as_points(x, self.d)
        logg, siy = self._eval_parts(pts)
        lw = self._log_weights()[None, :] + logg
        lw = lw - lw.max(axis=1, keepdims=True)
        r = np.exp(lw)
        r /= r.sum(axis=1, keepdims=True)
        s = -np.einsum("nk,nki->ni", r, siy)
        return s[0] if single else s

    def overall_moments(self) -> Moments:
        """First two moments of the full mixture (law of total covariance)."""
        return self._moments

    @cached_property
    def _moments(self) -> Moments:
        mom = mixture_moments(self.weights, self.means, self.covs)
        return Moments(_frozen(mom.mean), _frozen(mom.cov))

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw n points; deterministic for a fixed seed."""
        rng = np.random.default_rng(seed)
        return self.sample_with(rng, n)

    def sample_with(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0:
            return np.zeros((0, self.d))
        comps = rng.choice(self.k, size=n, p=self.weights)
        z = rng.standard_normal((n, self.d))
        return self.means[comps] + np.einsum("nij,nj->ni", self._chols[comps], z)

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covs": self.covs.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianMixture":
        try:
            return cls(
                np.asarray(data["weights"], dtype=float),
                np.asarray(data["means"], dtype=float),
                np.asarray(data["covs"], dtype=float),
            )
        except KeyError as exc:
            raise ValueError(f"mixture dict missing key {exc}") from exc


def stack_mixtures(mixtures) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (n, K), means (n, K, d) and covs (n, K, d, d) of n same-shape mixtures."""
    return tuple(np.stack([getattr(g, f) for g in mixtures]) for f in ("weights", "means", "covs"))


def mixture_moments(weights, means, covs) -> Moments:
    """Overall mean and covariance of mixtures stacked along any leading axes.

    Law of total covariance: Sigma = sum_k w_k (S_k + m_k m_k^T) - mu mu^T.
    """
    mean = np.einsum("...k,...kd->...d", weights, means)
    outer = means[..., :, None] * means[..., None, :]
    second = np.einsum("...k,...kij->...ij", weights, covs + outer)
    cov = second - mean[..., :, None] * mean[..., None, :]
    return Moments(mean, 0.5 * (cov + np.swapaxes(cov, -1, -2)))


def validate_arrays(weights, means, covs) -> str | None:
    """Check raw parameter arrays; returns the first violation or None.

    Unlike construction (which symmetrizes), this sees the covariances as
    given, so asymmetric input is reported rather than silently repaired.
    """
    w = np.atleast_1d(np.asarray(weights, dtype=float))
    m = np.atleast_2d(np.asarray(means, dtype=float))
    c = np.asarray(covs, dtype=float)
    if c.ndim == 2:
        c = c[None, :, :]
    if w.ndim != 1 or m.ndim != 2 or c.ndim != 3:
        return "expected shapes (K,), (K, d), (K, d, d)"
    k, d = m.shape
    if w.shape != (k,) or c.shape != (k, d, d):
        return f"inconsistent shapes: weights {w.shape}, means {m.shape}, covs {c.shape}"
    if np.any(w < 0):
        return f"weight {int(np.argmin(w))} is negative ({w.min()!r})"
    if abs(w.sum() - 1.0) > SIMPLEX_TOL:
        return f"weights are off the simplex: sum = {w.sum()!r}"
    asym = np.abs(c - np.swapaxes(c, 1, 2)).max(axis=(1, 2))
    if np.any(asym > SYMMETRY_TOL):
        i = int(np.argmax(asym))
        return f"cov {i} is asymmetric: max |S - S^T| = {asym[i]:.3e}"
    sym = 0.5 * (c + np.swapaxes(c, 1, 2))
    for i in range(k):
        eigs = np.linalg.eigvalsh(sym[i])
        if eigs[0] <= 0.0 or eigs[0] < PD_RTOL * eigs[-1]:
            return f"cov {i} is not positive definite: eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
    return None


def validate(gm: GaussianMixture) -> str | None:
    """Check the probabilistic invariants of a mixture; None means valid."""
    return validate_arrays(gm.weights, gm.means, gm.covs)


def convex_combine(a: GaussianMixture, b: GaussianMixture, alpha: float) -> GaussianMixture:
    """Componentwise convex combination (1 - alpha) * a + alpha * b.

    The endpoints return the input objects themselves.
    """
    if a.k != b.k or a.d != b.d:
        raise ValueError(
            f"mixture shape mismatch: ({a.k}, {a.d}) vs ({b.k}, {b.d})"
        )
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha!r}")
    if alpha == 0.0:
        return a
    if alpha == 1.0:
        return b
    beta = 1.0 - alpha
    return GaussianMixture(
        beta * a.weights + alpha * b.weights,
        beta * a.means + alpha * b.means,
        beta * a.covs + alpha * b.covs,
    )
