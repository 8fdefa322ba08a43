"""Gaussian mixture state type and componentwise parameter operations.

A mixture is the unit of memory throughout this package: protocol grids
store the parameters of one mixture per node, stacked, and every grid
update reduces to convex combinations of node parameters (weights, means,
covariances taken componentwise). Instances are immutable after
construction and safe to share between threads.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

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


def _param_arrays(weights, means, covs, lead: int = 0):
    """Weights (n, K), means (n, K, d) and covs (n, K, d, d), n being ``lead`` leading axes.

    Every array comes back C-ordered, so sums over the same values add in one order whatever
    the input's layout; a C-ordered float array comes back as itself, others are copied. With
    no leading axes a lone component may drop its axis: a (d,) mean and a (d, d) cov.
    ValueError on misfit shapes.
    """
    w, m, c = (np.ascontiguousarray(a, dtype=float) for a in (weights, means, covs))
    if lead == 0:
        w, m, c = np.atleast_1d(w), np.atleast_2d(m), c[None] if c.ndim == 2 else c
    if w.ndim != lead + 1 or m.ndim != lead + 2 or c.ndim != lead + 3:
        head = "n, " * lead
        raise ValueError(f"expected shapes ({head}K), ({head}K, d), ({head}K, d, d)")
    if w.shape != m.shape[:-1] or c.shape != m.shape + m.shape[-1:]:
        raise ValueError(f"inconsistent shapes: weights {w.shape}, means {m.shape}, covs {c.shape}")
    return w, m, c


def has_non_numbers(a) -> bool:
    """Whether the array or nested sequence a holds a string, bool or None, which float() takes."""
    entries = np.asarray(a, dtype=object).flat
    return not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in entries)


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
        w, m, c = _param_arrays(self.weights, self.means, self.covs)
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
        return np.linalg.inv(self._chols)

    @cached_property
    def _log_norms(self) -> np.ndarray:
        logdets = 2.0 * np.log(np.diagonal(self._chols, axis1=1, axis2=2)).sum(axis=1)
        return -0.5 * (self.d * _LOG_2PI + logdets)

    def _eval_parts(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-component log densities (n, K) and solves Sigma_k^{-1}(x - m_k) (K, n, d).

        Component-major: with y = x - m_k (K, n, d) and Cholesky factors L_k,
        z = y L^{-T} and then z L^{-1} are one batched matmul each."""
        inv = self._inv_chols
        z = (pts[None, :, :] - self.means[:, None, :]) @ np.swapaxes(inv, 1, 2)
        logg = self._log_norms[None, :] - 0.5 * np.einsum("kni,kni->nk", z, z)
        return logg, z @ inv

    def _evaluate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Log density (n,), responsibilities (n, K) and solves (K, n, d) in one log-space pass."""
        logg, siy = self._eval_parts(pts)
        with np.errstate(divide="ignore"):
            lw = np.log(self.weights)[None, :] + logg
        peak = lw.max(axis=1, keepdims=True)
        r = np.exp(lw - peak)
        total = r.sum(axis=1, keepdims=True)
        return (peak + np.log(total))[:, 0], r / total, siy

    def component_log_density(self, x) -> np.ndarray:
        pts, single = _as_points(x, self.d)
        logg, _ = self._eval_parts(pts)
        return logg[0] if single else logg

    def log_density(self, x) -> np.ndarray | float:
        pts, single = _as_points(x, self.d)
        out = self._evaluate(pts)[0]
        return float(out[0]) if single else out

    def density(self, x) -> np.ndarray | float:
        """Mixture density; underflows smoothly to 0.0 far from all components."""
        return np.exp(self.log_density(x))

    def responsibilities(self, x) -> np.ndarray:
        """Posterior component probabilities, computed in log space.

        Stays well defined arbitrarily far into the tails, where the
        density itself underflows.
        """
        pts, single = _as_points(x, self.d)
        r = self._evaluate(pts)[1]
        return r[0] if single else r

    def score(self, x) -> np.ndarray:
        """Gradient of log density at x.

        Evaluated through responsibilities, so no density division occurs
        and the result stays finite wherever the quadratic forms do.
        """
        pts, single = _as_points(x, self.d)
        _, r, siy = self._evaluate(pts)
        s = -_mix(r, siy)
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
        return self.sample_with(np.random.default_rng(seed), n)

    def sample_with(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._sample_from(rng.random(n), rng.standard_normal((n, self.d)))

    def _sample_from(self, u: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Samples from uniforms u (n,) and normals z (n, d), picking components as
        ``Generator.choice`` does: the first whose weight CDF exceeds u."""
        w = self.weights
        if np.any(w < 0.0) or not abs(w.sum() - 1.0) <= np.sqrt(np.finfo(float).eps):
            raise ValueError(f"weights are not probabilities: {w.tolist()}")
        cdf = w.cumsum()
        cdf /= cdf[-1]
        comps = cdf.searchsorted(u, side="right")
        return self.means[comps] + np.einsum("nij,nj->ni", self._chols[comps], z)

    def to_dict(self) -> dict:
        return {
            "weights": self.weights.tolist(),
            "means": self.means.tolist(),
            "covs": self.covs.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianMixture":
        """The mixture of a to_dict form; ConfigError unless its raw arrays pass validate_arrays."""
        if not isinstance(data, dict) or not {"weights", "means", "covs"} <= data.keys():
            raise ConfigError("a mixture dict needs the keys weights, means and covs")
        report = validate_arrays(data["weights"], data["means"], data["covs"])
        if report is not None:
            raise ConfigError(f"invalid mixture: {report}")
        return cls(data["weights"], data["means"], data["covs"])


def _mix(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Responsibility-weighted sum sum_k r_k v_k (n, d) of component-major values v (K, n, d)."""
    return np.einsum("nk,knd->nd", r, v)


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
    Ragged, misshapen or non-numeric arrays (see has_non_numbers) are reported too.
    """
    try:
        w, m, c = _param_arrays(weights, means, covs)
    except (TypeError, ValueError) as exc:
        return str(exc)
    if any(has_non_numbers(a) for a in (weights, means, covs)):
        return "entries must be numbers, not strings, bools or None"
    if not all(np.isfinite(a).all() for a in (w, m, c)):
        return "parameters are not all finite"
    if np.any(w < 0):
        return f"weight {int(np.argmin(w))} is negative ({float(w.min())!r})"
    if abs(w.sum() - 1.0) > SIMPLEX_TOL:
        return f"weights are off the simplex: sum = {w.sum()!r}"
    asym = np.abs(c - np.swapaxes(c, 1, 2)).max(axis=(1, 2))
    if np.any(asym > SYMMETRY_TOL):
        i = int(np.argmax(asym))
        return f"cov {i} is asymmetric: max |S - S^T| = {asym[i]:.3e}"
    sym = 0.5 * (c + np.swapaxes(c, 1, 2))
    for i, s in enumerate(sym):
        eigs = np.linalg.eigvalsh(s)
        if eigs[0] <= 0.0 or eigs[0] < PD_RTOL * eigs[-1]:
            return f"cov {i} is not positive definite: eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
    return None


def validate(gm: GaussianMixture) -> str | None:
    """Check the probabilistic invariants of a mixture; None means valid."""
    return validate_arrays(gm.weights, gm.means, gm.covs)
