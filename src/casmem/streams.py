"""Target-stream curricula: one mixture per day, generated deterministically.

Every generator is a pure function of its config, so a run can always be
reproduced (and resumed) from the config alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .gm import GaussianMixture, validate_arrays

_KIND_DEFAULTS = {
    "circular": dict(K=1, cov_scale=0.5),
    "linear": dict(K=1, cov_scale=0.5),
    "triangle": dict(K=3, cov_scale=0.3),
    "crowding": dict(K=3, cov_scale=0.3),
    "embedded": dict(K=3, cov_scale=0.3, d=8),
    "split_merge": dict(K=3, cov_scale=0.3),
    "rotating_dominance": dict(K=3, d=12, P=30.0),
}


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


def make_config(kind: str, **overrides) -> StreamConfig:
    """Config with per-kind defaults (mixture size, spread) already applied."""
    if kind not in KINDS:
        raise ValueError(f"unknown stream kind {kind!r}; choose from {KINDS}")
    fields = dict(_KIND_DEFAULTS.get(kind, {}))
    fields.update(overrides)
    return StreamConfig(kind=kind, **fields)


def _centre(cfg: StreamConfig, m: int) -> np.ndarray:
    """Circle centre on day m, embedded in the first two coordinates."""
    phase = 2.0 * np.pi * m / cfg.P
    c = np.zeros(cfg.d)
    c[0] = cfg.R * np.cos(phase)
    c[1] = cfg.R * np.sin(phase)
    return c


def linear_mean(cfg: StreamConfig, m: int) -> np.ndarray:
    # Same per-day speed as the circular default, 2 pi R / P, along axis 0.
    c = np.zeros(cfg.d)
    c[0] = 2.0 * np.pi * cfg.R / cfg.P * m
    return c


def _single_target(mean: np.ndarray, cov_scale: float) -> GaussianMixture:
    d = mean.shape[0]
    return GaussianMixture(np.ones(1), mean[None, :], cov_scale * np.eye(d)[None, :, :])


def circular_stream(cfg: StreamConfig) -> list[GaussianMixture]:
    """Single Gaussian whose mean walks a circle of radius R with period P."""
    if cfg.d < 2:
        raise ValueError("circular stream needs d >= 2")
    return [_single_target(_centre(cfg, m), cfg.cov_scale) for m in range(1, cfg.n_days + 1)]


def linear_stream(cfg: StreamConfig) -> list[GaussianMixture]:
    """Single Gaussian drifting at constant speed along the first axis."""
    return [_single_target(linear_mean(cfg, m), cfg.cov_scale) for m in range(1, cfg.n_days + 1)]


def ring_means(cfg: StreamConfig, m: int, radii=None) -> np.ndarray:
    """K component means on a ring of radius r around the drifting centre.

    Component k keeps the fixed phase offset 2 pi k / K on every day.
    """
    if radii is None:
        radii = np.full(cfg.K, cfg.r)
    centre = _centre(cfg, m)
    means = np.tile(centre, (cfg.K, 1))
    for k in range(cfg.K):
        theta = 2.0 * np.pi * m / cfg.P + 2.0 * np.pi * k / cfg.K
        means[k, 0] += radii[k] * np.cos(theta)
        means[k, 1] += radii[k] * np.sin(theta)
    return means


def _ring_target(cfg: StreamConfig, m: int, radii=None, walk=None) -> GaussianMixture:
    """Equal-weight isotropic ring mixture; walk, if given, sets coordinates 2 and up."""
    means = ring_means(cfg, m, radii)
    if walk is not None:
        means[:, 2:] = walk
    covs = np.repeat(cfg.cov_scale * np.eye(cfg.d)[None, :, :], cfg.K, axis=0)
    return GaussianMixture(np.full(cfg.K, 1.0 / cfg.K), means, covs)


def triangle_stream(cfg: StreamConfig) -> list[GaussianMixture]:
    """Equal-weight three-component ring around the circular drift."""
    if cfg.K != 3:
        raise ValueError(f"triangle stream has K = 3, got {cfg.K}")
    return [_ring_target(cfg, m) for m in range(1, cfg.n_days + 1)]


def crowding_stream(cfg: StreamConfig) -> list[GaussianMixture]:
    """Ring stream with adjustable K and separation r.

    The crowding ratio chi = r / sqrt(cov_scale) controls component overlap.
    """
    if cfg.K not in (2, 3, 5, 8):
        raise ValueError(f"crowding stream supports K in (2, 3, 5, 8), got {cfg.K}")
    return [_ring_target(cfg, m) for m in range(1, cfg.n_days + 1)]


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
    if cfg.nuisance != "random_walk":
        raise ValueError(f"unknown nuisance mode {cfg.nuisance!r}")
    children = np.random.SeedSequence(cfg.seed).spawn(extra)
    for c in range(extra):
        rng = np.random.default_rng(children[c])
        walks[:, c] = np.cumsum(rng.normal(0.0, cfg.speed, cfg.n_days))
    return walks


def embedded_stream(cfg: StreamConfig) -> list[GaussianMixture]:
    """The K=3 ring signal placed in a d-dimensional ambient space.

    Coordinates beyond the first two are nuisance: mean zero, or a slow
    seeded random walk shared by all components; covariance is isotropic
    at the same scale, so d = 2 reduces exactly to the base stream.
    """
    if cfg.d < 2:
        raise ValueError("embedded stream needs d >= 2")
    walks = nuisance_walks(cfg)
    return [_ring_target(cfg, m, walk=walks[m - 1]) for m in range(1, cfg.n_days + 1)]


# Split-merge schedule: (last_day, radii the grid ramps toward). Each phase
# change is ramped linearly over the five days that follow its boundary.
_SPLIT_MERGE_PHASES = [
    (30, (0.8, 0.8, 0.8)),
    (50, (0.05, 0.05, 0.8)),
    (80, (0.8, 0.8, 0.8)),
    (100, (0.1, 0.1, 0.1)),
]
_RAMP_DAYS = 5


def split_merge_radii(day: int) -> np.ndarray:
    """Per-component ring radii on the given day of the 100-day schedule."""
    if not 1 <= day <= 100:
        raise ValueError(f"split-merge schedule covers days 1..100, got {day}")
    prev = np.array(_SPLIT_MERGE_PHASES[0][1])
    start = 1
    for last_day, radii in _SPLIT_MERGE_PHASES:
        radii = np.array(radii)
        if day <= last_day:
            if start == 1:
                return radii
            step = min((day - start + 1) / _RAMP_DAYS, 1.0)
            return prev + (radii - prev) * step
        prev, start = radii, last_day + 1
    raise AssertionError("unreachable")


def split_merge_stream(cfg: StreamConfig) -> list[GaussianMixture]:
    """100-day merge/split curriculum on the three-component ring."""
    if cfg.K != 3:
        raise ValueError(f"split-merge stream has K = 3, got {cfg.K}")
    if cfg.n_days != 100:
        raise ValueError("split-merge stream runs the fixed 100-day schedule")
    return [_ring_target(cfg, m, split_merge_radii(m)) for m in range(1, cfg.n_days + 1)]


def rotating_weights(cfg: StreamConfig, m: int, k_components: int) -> np.ndarray:
    logits = cfg.A * np.cos(
        2.0 * np.pi * m / cfg.P + 2.0 * np.pi * np.arange(k_components) / k_components
    )
    e = np.exp(logits - logits.max())
    return e / e.sum()


def rotating_dominance_stream(cfg: StreamConfig) -> list[GaussianMixture]:
    """Fixed component shapes with softmax weights rotating at period P."""
    base = synthetic_class_mixture(cfg.d, cfg.K, seed=cfg.seed + 7)
    return [
        GaussianMixture(rotating_weights(cfg, m, base.k), base.means, base.covs)
        for m in range(1, cfg.n_days + 1)
    ]


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
    with open(path, "w") as fh:
        json.dump(gm.to_dict(), fh, indent=2)


def load_gm_file(path) -> GaussianMixture:
    """Load and validate a mixture from its JSON file form."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object with weights/means/covs")
    try:
        weights, means, covs = data["weights"], data["means"], data["covs"]
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    report = validate_arrays(weights, means, covs)
    if report is not None:
        raise ValueError(f"{path}: invalid mixture: {report}")
    return GaussianMixture.from_dict(data)


def file_stream(cfg: StreamConfig) -> list[GaussianMixture]:
    """Constant stream repeating a mixture loaded from disk."""
    if cfg.path is None:
        raise ValueError("file stream needs a path")
    gm = load_gm_file(cfg.path)
    return [gm] * cfg.n_days


_GENERATORS = {
    "circular": circular_stream,
    "linear": linear_stream,
    "triangle": triangle_stream,
    "crowding": crowding_stream,
    "embedded": embedded_stream,
    "split_merge": split_merge_stream,
    "rotating_dominance": rotating_dominance_stream,
    "file": file_stream,
}
KINDS = tuple(_GENERATORS)


def generate(cfg: StreamConfig) -> list[GaussianMixture]:
    """Dispatch to the generator named by cfg.kind."""
    try:
        gen = _GENERATORS[cfg.kind]
    except KeyError:
        raise ValueError(f"unknown stream kind {cfg.kind!r}; choose from {KINDS}") from None
    return gen(cfg)


def default_prior(k: int, d: int) -> GaussianMixture:
    """K identical standard-normal components; overall moments (0, I)."""
    return GaussianMixture(
        np.full(k, 1.0 / k),
        np.zeros((k, d)),
        np.repeat(np.eye(d)[None, :, :], k, axis=0),
    )
