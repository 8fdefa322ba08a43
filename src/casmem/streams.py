"""Target-stream curricula: a day is one (weights, means, covs) row, generated deterministically.

Every generator is a pure function of its config, so a run can always be
reproduced (and resumed) from the config alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, check_fields, read_json_object, write_text
from .gm import GaussianMixture, _frozen


@dataclass(frozen=True)
class StreamConfig:
    kind: str
    n_days: int = 100
    d: int = 2
    K: int = 1
    R: float = 2.0
    P: float = 50.0
    cov_scale: float = 0.5
    r: float = 0.8
    A: float = 2.0
    nuisance: str = "none"  # none | random_walk
    speed: float = 0.1
    seed: int = 0
    path: str | None = None  # source file for kind="file"

    def __post_init__(self):
        """Refuse a field its annotation does not admit, or a config outside its kind's limits."""
        check_fields(self, "stream ")
        spec = _KINDS.get(self.kind)
        if spec is None:
            raise ConfigError(f"unknown stream kind {self.kind!r}; choose from {KINDS}")
        for name, low in (("n_days", 1), ("K", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"stream needs {name} >= {low}, got {getattr(self, name)}")
        if self.P == 0 or self.cov_scale <= 0:
            raise ConfigError(
                f"stream needs P != 0 and cov_scale > 0, got {self.P} and {self.cov_scale}"
            )
        if self.d < spec.min_d:
            raise ConfigError(f"{self.kind} stream needs d >= {spec.min_d}, got {self.d}")
        if spec.d_at_least_K and self.d < self.K:
            raise ConfigError(f"{self.kind} stream needs d >= K, got d = {self.d} and K = {self.K}")
        if spec.K and self.K not in spec.K:
            raise ConfigError(f"{self.kind} stream supports K in {spec.K}, got {self.K}")
        if spec.n_days is not None and self.n_days != spec.n_days:
            raise ConfigError(f"{self.kind} stream runs a fixed {spec.n_days}-day schedule")
        if self.nuisance not in spec.nuisance:
            raise ConfigError(f"{self.kind} stream takes nuisance {spec.nuisance}")
        if spec.needs_path and self.path is None:
            raise ConfigError(f"{self.kind} stream needs a path")


def make_config(kind: str, **overrides) -> StreamConfig:
    """Config with per-kind defaults (mixture size, spread) already applied."""
    defaults = _KINDS[kind].defaults if kind in _KINDS else {}
    return StreamConfig(kind=kind, **{**defaults, **overrides})


def _days(cfg: StreamConfig) -> np.ndarray:
    return np.arange(1, cfg.n_days + 1)


def _phase(cfg: StreamConfig, m) -> np.ndarray:
    """Phase 2 pi m / P of a day m or of each of an array of days."""
    return 2.0 * np.pi * np.asarray(m) / cfg.P


def _centres(cfg: StreamConfig, phase: np.ndarray) -> np.ndarray:
    """Circle centres at the given phases, (..., d), in the first two coordinates."""
    c = np.zeros(np.shape(phase) + (cfg.d,))
    c[..., 0] = cfg.R * np.cos(phase)
    c[..., 1] = cfg.R * np.sin(phase)
    return c


def _isotropic(cfg: StreamConfig, means: np.ndarray):
    """Equal weights and covariance cov_scale * I for stacked (n, K, d) means."""
    n, K, d = means.shape
    covs = np.broadcast_to(cfg.cov_scale * np.eye(d), (n, K, d, d))
    return np.full((n, K), 1.0 / K), means, covs


def circular_stream(cfg: StreamConfig):
    """Single Gaussian whose mean walks a circle of radius R with period P."""
    return _isotropic(cfg, _centres(cfg, _phase(cfg, _days(cfg))[:, None]))


def linear_stream(cfg: StreamConfig):
    """Single Gaussian drifting at constant speed along the first axis."""
    means = np.zeros((cfg.n_days, 1, cfg.d))
    # Same per-day speed as the circular default, 2 pi R / P, along axis 0.
    means[:, 0, 0] = 2.0 * np.pi * cfg.R / cfg.P * _days(cfg)
    return _isotropic(cfg, means)


def ring_means(cfg: StreamConfig, m, radii=None) -> np.ndarray:
    """K component means (K, d) on a ring of radius r around the drifting centre, on day m.

    m may be an array of days, for one (K, d) block per day; radii, if given,
    are per component or per day and component. Component k keeps the fixed
    phase offset 2 pi k / K on every day.
    """
    phase = _phase(cfg, m)
    means = np.repeat(_centres(cfg, phase)[..., None, :], cfg.K, axis=-2)
    theta = phase[..., None] + 2.0 * np.pi * np.arange(cfg.K) / cfg.K
    r = cfg.r if radii is None else radii
    means[..., 0] += r * np.cos(theta)
    means[..., 1] += r * np.sin(theta)
    return means


def crowding_ratio(cfg: StreamConfig) -> float:
    return cfg.r / float(np.sqrt(cfg.cov_scale))


def nuisance_walks(cfg: StreamConfig) -> np.ndarray:
    """Seeded random walk per extra coordinate, shape (n_days, d - 2).

    Each coordinate has its own generator so that changing d does not
    reshuffle the others.
    """
    extra = cfg.d - 2
    walks = np.zeros((cfg.n_days, extra))
    if cfg.nuisance == "none" or extra == 0:
        return walks
    children = np.random.SeedSequence(cfg.seed).spawn(extra)
    for c in range(extra):
        rng = np.random.default_rng(children[c])
        walks[:, c] = np.cumsum(rng.normal(0.0, cfg.speed, cfg.n_days))
    return walks


def ring_stream(cfg: StreamConfig, radii=None):
    """Equal-weight K-component ring around the circular drift, in d dimensions.

    Triangle is K = 3, crowding varies K and r, and embedded places the
    K = 3 ring in a d-dimensional ambient space. The crowding ratio
    chi = r / sqrt(cov_scale) controls component overlap. Coordinates
    beyond the first two are nuisance: zero, or a slow seeded random walk
    shared by all components; covariance is isotropic at the same scale,
    so d = 2 is the plane ring. radii are as ring_means takes them.
    """
    means = ring_means(cfg, _days(cfg), radii)
    means[:, :, 2:] = nuisance_walks(cfg)[:, None, :]
    return _isotropic(cfg, means)


# Split-merge schedule: the last day of each phase and the radii the ring
# ramps toward in it. Each phase change is ramped linearly over the five
# days that follow its boundary; the first phase ramps from its own radii.
_SPLIT_MERGE_LAST_DAYS = np.array([30, 50, 80, 100])
_SPLIT_MERGE_RADII = np.array([(0.8,) * 3, (0.05, 0.05, 0.8), (0.8,) * 3, (0.1,) * 3])
_RAMP_DAYS = 5


def split_merge_radii(day) -> np.ndarray:
    """Per-component ring radii on a day, (3,), or on each of an array of days, (n, 3)."""
    day = np.asarray(day)
    if np.any((day < 1) | (day > 100)):
        raise ValueError(f"split-merge schedule covers days 1..100, got {day}")
    phase = np.searchsorted(_SPLIT_MERGE_LAST_DAYS, day)
    start = np.append(1, _SPLIT_MERGE_LAST_DAYS[:-1] + 1)[phase]
    prev = _SPLIT_MERGE_RADII[np.maximum(phase - 1, 0)]
    step = np.minimum((day - start + 1) / _RAMP_DAYS, 1.0)
    return prev + (_SPLIT_MERGE_RADII[phase] - prev) * step[..., None]


def split_merge_stream(cfg: StreamConfig):
    """100-day merge/split curriculum on the three-component ring."""
    return ring_stream(cfg, split_merge_radii(_days(cfg)))


def rotating_weights(cfg: StreamConfig, m, k_components: int) -> np.ndarray:
    """Softmax weights on a day m, (k,), or on each of an array of days, (n, k)."""
    logits = cfg.A * np.cos(
        _phase(cfg, m)[..., None] + 2.0 * np.pi * np.arange(k_components) / k_components
    )
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _repeated(gm: GaussianMixture, weights: np.ndarray):
    """The given (n, K) weights over gm's means and covariances, repeated as read-only views."""
    return (weights, *(np.broadcast_to(a, (len(weights), *a.shape)) for a in (gm.means, gm.covs)))


def rotating_dominance_stream(cfg: StreamConfig):
    """Fixed component shapes with softmax weights rotating at period P."""
    base = synthetic_class_mixture(cfg.d, cfg.K, seed=cfg.seed + 7)
    return _repeated(base, rotating_weights(cfg, _days(cfg), base.k))


def synthetic_class_mixture(d: int = 12, k: int = 3, seed: int = 7) -> GaussianMixture:
    """Separated, anisotropic stand-in for a per-class density fit.

    Means are orthogonal directions with distinct norms, so no
    relabelling maps one class onto another; the asymmetry keeps the
    fundamental period of a rotating-weight schedule from aliasing down
    to P/k.  Covariances share one eigenbasis and rotate a geometric
    eigenvalue profile to k alignments, rescaled per position so the
    equal-weight average of the class covariances is exactly the
    identity when k divides d (whitened overall second moment).
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    norms = np.geomspace(1.3, 2.1, k)
    means = norms[:, None] * q[:, :k].T
    step = max(d // k, 1)
    profile = np.geomspace(0.55, 1.6, d)
    rolled = np.stack([np.roll(profile, i * step) for i in range(k)])
    profile = profile / rolled.mean(axis=0)
    covs = np.empty((k, d, d))
    for i in range(k):
        covs[i] = (q * np.roll(profile, i * step)) @ q.T
    return GaussianMixture(np.full(k, 1.0 / k), means, covs)


def class_prior(base: GaussianMixture) -> GaussianMixture:
    """Whitened starting memory for a fixed-shape curriculum.

    Keeps the class means of `base` with uniform weights but resets every
    covariance to the identity, the state of a fit whose per-class second
    moments have not been learned yet.
    """
    eye = np.tile(np.eye(base.d), (base.k, 1, 1))
    return GaussianMixture(np.full(base.k, 1.0 / base.k), base.means, eye)


def save_gm_file(gm: GaussianMixture, path) -> None:
    write_text(path, json.dumps(gm.to_dict(), indent=2))


def load_gm_file(path) -> GaussianMixture:
    """Load and validate a mixture from its JSON file form."""
    data = read_json_object(path)
    try:
        return GaussianMixture.from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def file_stream(cfg: StreamConfig):
    """Constant stream repeating a mixture loaded from disk, as one broadcast row."""
    gm = load_gm_file(cfg.path)
    return _repeated(gm, np.broadcast_to(gm.weights, (cfg.n_days, gm.k)))


class _Kind(NamedTuple):
    """A stream kind: its generator, its make_config defaults and its limits."""

    generator: Callable[[StreamConfig], tuple]  # stacked (n, K), (n, K, d), (n, K, d, d) days
    defaults: dict
    min_d: int = 1
    K: tuple = ()  # the supported K; empty means any
    n_days: int | None = None  # a fixed schedule's length
    nuisance: tuple = ("none",)
    needs_path: bool = False
    d_at_least_K: bool = False  # one mean direction per component


_KINDS = {
    "circular": _Kind(circular_stream, dict(K=1, cov_scale=0.5), min_d=2, K=(1,)),
    "linear": _Kind(linear_stream, dict(K=1, cov_scale=0.5), K=(1,)),
    "triangle": _Kind(ring_stream, dict(K=3, cov_scale=0.3), min_d=2, K=(3,)),
    "crowding": _Kind(ring_stream, dict(K=3, cov_scale=0.3), min_d=2, K=(2, 3, 5, 8)),
    "embedded": _Kind(
        ring_stream, dict(K=3, cov_scale=0.3, d=8), min_d=2, nuisance=("none", "random_walk")
    ),
    "split_merge": _Kind(
        split_merge_stream, dict(K=3, cov_scale=0.3), min_d=2, K=(3,), n_days=100
    ),
    "rotating_dominance": _Kind(
        rotating_dominance_stream, dict(K=3, d=12, P=30.0), d_at_least_K=True
    ),
    "file": _Kind(file_stream, {}, needs_path=True),
}
KINDS = tuple(_KINDS)


def daily_params(cfg: StreamConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stream's daily targets as read-only stacked (weights, means, covs), day m at row m - 1."""
    return tuple(_frozen(a) for a in _KINDS[cfg.kind].generator(cfg))


def generate(cfg: StreamConfig) -> list[GaussianMixture]:
    """The stream's daily targets as mixtures, day m at index m - 1: the rows of daily_params."""
    return [GaussianMixture(*row) for row in zip(*daily_params(cfg))]


def default_prior(k: int, d: int) -> GaussianMixture:
    """K identical standard-normal components; overall moments (0, I)."""
    return GaussianMixture(
        np.full(k, 1.0 / k),
        np.zeros((k, d)),
        np.repeat(np.eye(d)[None, :, :], k, axis=0),
    )
