"""Gaussian mixture state type and componentwise parameter operations.

A mixture is the unit of memory throughout this package: protocol grids
store the parameters of one mixture per node, stacked, and every grid
update reduces to convex combinations of node parameters (weights, means,
covariances taken componentwise). Instances are immutable after
construction and safe to share between threads.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ConfigError

SIMPLEX_TOL = 1e-12
# Simplex bound for weights derived from valid ones: lerps, and L-scaled node
# differences, which sum to 0 within 2 L SIMPLEX_TOL (covered up to L of about 7,000).
DERIVED_WEIGHT_TOL = float(np.sqrt(np.finfo(float).eps))
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
    the input's layout; a C-ordered float array comes back as itself, others are copied.
    ValueError on misfit shapes, a lone component written without its K axis included.
    """
    w, m, c = (np.ascontiguousarray(a, dtype=float) for a in (weights, means, covs))
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


def _as_points(x, d: int) -> np.ndarray:
    """Points x (n, d) as the point kernel's C-ordered (d, n) columns; ValueError on any other
    shape, a lone (d,) point too. The lone-point rule: one point comes back as two equal columns,
    as numpy sends one column to gemv and sums its axes pairwise; so a point gets the bits it
    gets in any batch wherever gemm sums a column alike at every count (OpenBLAS 0.3.31 does)."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != d:
        raise ValueError(f"expected points of shape (n, {d}), got {a.shape}")
    return np.ascontiguousarray(np.concatenate([a, a]).T if len(a) == 1 else a.T)


def _rows(a: np.ndarray, n: int) -> np.ndarray:
    """The first n columns of a point kernel output (..., m) as C-ordered rows (n, ...)."""
    return np.ascontiguousarray(a[..., :n].T)


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
    construction cheap inside interpolation loops. Methods taking points
    take an (n, d) batch and return C-ordered rows, one entry or row per
    point; the kernel runs on (d, n) columns and never on a lone one
    (``_as_points``), so a point alone gets the bits it gets in a batch.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w, m, c = _param_arrays(self.weights, self.means, self.covs)
        object.__setattr__(self, "weights", _frozen(w))
        object.__setattr__(self, "means", _frozen(m))
        object.__setattr__(self, "covs", _frozen(_symmetrize(c)))

    def __iter__(self):
        """The fields themselves, in a ``daily_params`` row's order: w, m, c = gm."""
        return iter((self.weights, self.means, self.covs))

    @property
    def k(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]

    # The factors and the point kernel's arrays are cached per instance; frozen
    # dataclasses still allow cached_property because it writes to __dict__.
    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _factor(self.covs)

    @cached_property
    def _kernel(self) -> tuple:
        """The arguments of ``_evaluate`` after the points."""
        return (_log_weights(self.weights), self.means, *self._factors[1:])

    def component_log_density(self, x) -> np.ndarray:
        return _rows(_evaluate(_as_points(x, self.d), *self._kernel)[0], len(x))

    def log_density(self, x) -> np.ndarray:
        return _rows(_evaluate(_as_points(x, self.d), *self._kernel)[1], len(x))

    def density(self, x) -> np.ndarray:
        """Mixture density; underflows smoothly to 0.0 far from all components."""
        return np.exp(self.log_density(x))

    def responsibilities(self, x) -> np.ndarray:
        """Posterior component probabilities, computed in log space.

        Stays well defined arbitrarily far into the tails, where the
        density itself underflows.
        """
        return _rows(_evaluate(_as_points(x, self.d), *self._kernel)[2], len(x))

    def score(self, x) -> np.ndarray:
        """Gradient of log density at x.

        Evaluated through responsibilities, so no density division occurs
        and the result stays finite wherever the quadratic forms do.
        """
        _, _, r, siy = _evaluate(_as_points(x, self.d), *self._kernel)
        return _rows(-_mix(r, siy), len(x))

    def overall_moments(self) -> Moments:
        """First two moments of the full mixture (law of total covariance)."""
        return self._moments

    @cached_property
    def _moments(self) -> Moments:
        mom = mixture_moments(*self)
        return Moments(_frozen(mom.mean), _frozen(mom.cov))

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw n points; deterministic for a fixed seed."""
        return self.sample_with(np.random.default_rng(seed), n)

    def sample_with(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._sample_from(rng.random(n), rng.standard_normal((n, self.d)))

    def _sample_from(self, u: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Samples from uniforms u (n,) and normals z (n, d), picking components as
        ``Generator.choice`` does: the first whose weight CDF exceeds u."""
        cdf = _check_probabilities(self.weights).cumsum()
        cdf /= cdf[-1]
        comps = cdf.searchsorted(u, side="right")
        return self.means[comps] + np.einsum("nij,nj->ni", self._factors[0][comps], z)

    def to_dict(self) -> dict:
        return {f.name: a.tolist() for f, a in zip(fields(self), self)}

    @classmethod
    def from_dict(cls, data: dict) -> "GaussianMixture":
        """The mixture of a to_dict form; ConfigError unless its raw arrays pass validate_arrays."""
        if not isinstance(data, dict) or not {"weights", "means", "covs"} <= data.keys():
            raise ConfigError("a mixture dict needs the keys weights, means and covs")
        report = validate_arrays(data["weights"], data["means"], data["covs"])
        if report is not None:
            raise ConfigError(f"invalid mixture: {report}")
        return cls(data["weights"], data["means"], data["covs"])


def _symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 over the last two axes: the symmetric part every covariance is stored as."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _factor(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cholesky factors L, their inverses and the Gaussian log-normalizers
    -(d log 2 pi + log det Sigma) / 2 of covariances (..., d, d) stacked along any leading axes."""
    chols = np.linalg.cholesky(covs)
    logdets = 2.0 * np.log(np.diagonal(chols, axis1=-2, axis2=-1)).sum(axis=-1)
    return chols, np.linalg.inv(chols), -0.5 * (covs.shape[-1] * _LOG_2PI + logdets)


def _check_probabilities(weights: np.ndarray) -> np.ndarray:
    """The weights if they are probabilities up to DERIVED_WEIGHT_TOL; ValueError otherwise."""
    if np.any(weights < 0.0) or not abs(weights.sum() - 1.0) <= DERIVED_WEIGHT_TOL:
        raise ValueError(f"weights are not probabilities: {weights.tolist()}")
    return weights


def _log_weights(weights: np.ndarray) -> np.ndarray:
    """log w, -inf for a zero weight."""
    with np.errstate(divide="ignore"):
        return np.log(weights)


def _evaluate(pts, log_weights, means, inv_chols, log_norms):
    """The point kernel of a K-component mixture at points pts (d, n), dimension-major.

    Returns per-component log densities (K, n), the log density (n,), the
    responsibilities (K, n) and the solves Sigma_k^{-1}(x - m_k) (K, d, n), in
    one log-space pass. The mixture comes as raw arrays: log weights (K,),
    means (K, d), inverse Cholesky factors (K, d, d) and log-normalizers (K,),
    as ``_log_weights`` and ``_factor`` give them. With y = x - m_k (K, d, n),
    z = L^{-1} y and then L^{-T} z are one batched matmul each, and the
    quadratic form adds the z_i^2 in coordinate order. The points come from
    ``_as_points``, whose lone-point rule keeps a point's bits those of a batch.
    """
    z = inv_chols @ (pts[None, :, :] - means[:, :, None])
    logg = log_norms[:, None] - 0.5 * np.einsum("kdn,kdn->kn", z, z)
    lw = log_weights[:, None] + logg
    peak = lw.max(axis=0)
    r = np.exp(lw - peak)
    total = r.sum(axis=0)
    return logg, peak + np.log(total), r / total, np.swapaxes(inv_chols, 1, 2) @ z


def _mix(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Responsibility-weighted sum sum_k r_k v_k (d, n) of dimension-major v (K, d, n), r (K, n)."""
    return np.einsum("kn,kdn->dn", r, v)


def stack_mixtures(mixtures) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (n, K), means (n, K, d) and covs (n, K, d, d) of n same-shape mixtures or rows."""
    return tuple(np.stack(field) for field in zip(*mixtures))


def mixture_moments(weights, means, covs) -> Moments:
    """Overall mean and covariance of mixtures stacked along any leading axes.

    Law of total covariance: Sigma = sum_k w_k (S_k + m_k m_k^T) - mu mu^T.
    """
    mean = np.einsum("...k,...kd->...d", weights, means)
    outer = means[..., :, None] * means[..., None, :]
    second = np.einsum("...k,...kij->...ij", weights, covs + outer)
    cov = second - mean[..., :, None] * mean[..., None, :]
    return Moments(mean, _symmetrize(cov))


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
    for i, s in enumerate(_symmetrize(c)):
        eigs = np.linalg.eigvalsh(s)
        if eigs[0] <= 0.0 or eigs[0] < PD_RTOL * eigs[-1]:
            return f"cov {i} is not positive definite: eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
    return None


def validate(gm: GaussianMixture) -> str | None:
    """Check the probabilistic invariants of a mixture; None means valid."""
    return validate_arrays(*gm)
