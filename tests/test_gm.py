from functools import partial

import numpy as np
import pytest

from casmem import dynamics
from casmem.errors import ConfigError
from casmem.gm import (
    GaussianMixture,
    Moments,
    validate,
    validate_arrays,
)


def random_mixture(rng, k=3, d=3, weight_spread=1.0):
    """Well-conditioned random mixture with anisotropic covariances."""
    w = rng.uniform(1.0, 1.0 + weight_spread, k)
    w /= w.sum()
    means = rng.normal(0.0, 2.0, (k, d))
    covs = np.empty((k, d, d))
    for i in range(k):
        a = rng.normal(0.0, 1.0, (d, d))
        covs[i] = a @ a.T + 0.3 * np.eye(d)
    return GaussianMixture(w, means, covs)


def test_construction_checks_shapes():
    with pytest.raises(ValueError):
        GaussianMixture(np.ones(2), np.zeros((3, 2)), np.tile(np.eye(2), (3, 1, 1)))
    with pytest.raises(ValueError):
        GaussianMixture(np.ones(1), np.zeros((1, 2)), np.eye(3)[None])


def test_construction_symmetrizes_and_freezes():
    cov = np.array([[1.0, 0.3], [0.1, 1.0]])
    gm = GaussianMixture(np.ones(1), np.zeros((1, 2)), cov[None])
    assert np.allclose(gm.covs[0], 0.5 * (cov + cov.T))
    with pytest.raises(ValueError):
        gm.weights[0] = 2.0


def test_validate_reports():
    assert validate_arrays([0.5, 0.5], np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1))) is None
    assert "sum" in validate_arrays([0.6, 0.6], np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1)))
    assert validate_arrays([-0.2, 1.2], np.zeros((2, 2)), np.tile(np.eye(2), (2, 1, 1))) is not None
    bad_cov = np.tile(np.diag([1.0, -0.5]), (2, 1, 1))
    assert validate_arrays([0.5, 0.5], np.zeros((2, 2)), bad_cov) is not None
    eyes = np.tile(np.eye(2), (2, 1, 1))
    assert "finite" in validate_arrays([np.nan, 0.5], np.zeros((2, 2)), eyes)
    assert "finite" in validate_arrays([0.5, 0.5], [[0.0, np.nan], [0.0, 0.0]], eyes)
    assert "finite" in validate_arrays([0.5, 0.5], np.zeros((2, 2)), eyes * np.nan)
    assert "inconsistent shapes" in validate_arrays([0.5, 0.5], np.zeros((3, 2)), eyes)
    assert "inconsistent shapes" in validate_arrays([0.5, 0.5], np.zeros((2, 2)), eyes[:, :1])
    assert "expected shapes" in validate_arrays([[0.5, 0.5]], np.zeros((2, 2)), eyes)
    # a lone component keeps its K axis: (d,) means and (d, d) covs are misshapen
    assert "expected shapes" in validate_arrays([1.0], np.zeros(2), np.eye(2))
    assert "expected shapes" in validate_arrays(1.0, np.zeros(2), np.eye(2))
    # float conversion takes strings, bools and None, but they are no numbers
    for weights in (["1.0"], [True], [None]):
        assert "numbers" in validate_arrays(weights, np.zeros((1, 2)), eyes[:1])
        with pytest.raises(ConfigError, match="numbers"):
            GaussianMixture.from_dict({"weights": weights, "means": [[0, 0]], "covs": eyes[:1]})
    assert "numbers" in validate_arrays([0.5, 0.5], [["0", "1"], [0, 0]], eyes)
    assert "numbers" in validate_arrays([0.5, 0.5], [[0.0, 1.0], [False, 0.0]], eyes)
    assert "numbers" in validate_arrays([1.0], np.zeros((1, 2)), np.eye(2, dtype=bool)[None])
    gm = random_mixture(np.random.default_rng(0))
    assert validate(gm) is None


def test_overall_moments_closed_form():
    # Independent route: law of total expectation / variance, written out.
    rng = np.random.default_rng(1)
    gm = random_mixture(rng, k=4, d=3)
    mom = gm.overall_moments()
    mean = sum(w * m for w, m in zip(gm.weights, gm.means))
    cov = sum(
        w * (c + np.outer(m - mean, m - mean))
        for w, m, c in zip(gm.weights, gm.means, gm.covs)
    )
    assert np.allclose(mom.mean, mean, atol=1e-14)
    assert np.allclose(mom.cov, cov, atol=1e-14)
    assert isinstance(mom, Moments)


def test_overall_moments_match_monte_carlo():
    rng = np.random.default_rng(2)
    gm = random_mixture(rng, k=3, d=2)
    n = 200_000
    x = gm.sample(n, seed=3)
    mom = gm.overall_moments()
    se_mean = np.sqrt(np.diag(mom.cov) / n)
    assert np.all(np.abs(x.mean(axis=0) - mom.mean) < 5 * se_mean)
    emp_cov = np.cov(x.T, bias=True)
    # Entry-wise MC error of a covariance estimate, from the samples.
    centred = x - x.mean(axis=0)
    prods = centred[:, :, None] * centred[:, None, :]
    se_cov = prods.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(emp_cov - mom.cov) < 5 * se_cov)


def test_density_matches_naive_sum():
    rng = np.random.default_rng(4)
    gm = random_mixture(rng, k=3, d=2)
    pts = rng.normal(0.0, 2.0, (20, 2))
    naive = np.zeros(20)
    for w, m, c in zip(gm.weights, gm.means, gm.covs):
        diff = pts - m
        quad = np.einsum("ni,ij,nj->n", diff, np.linalg.inv(c), diff)
        norm = 1.0 / np.sqrt((2 * np.pi) ** 2 * np.linalg.det(c))
        naive += w * norm * np.exp(-0.5 * quad)
    assert np.allclose(gm.density(pts), naive, rtol=1e-12)
    assert np.allclose(np.exp(gm.log_density(pts)), naive, rtol=1e-12)


@pytest.mark.parametrize("name", [
    "component_log_density", "log_density", "density", "responsibilities", "score",
    "shape_current", "poisson_psi_grad", "psi_potential", "drift_with_stats",
])
def test_point_functions_take_batches_only(name):
    gm = random_mixture(np.random.default_rng(5))
    if hasattr(gm, name):
        f = getattr(gm, name)
    else:
        sl = dynamics.PathSlice(gm, [0.2, -0.2, 0.0], np.zeros((3, 3)), np.zeros((3, 3, 3)))
        f = partial(getattr(dynamics, name), sl)
    out = f(np.zeros((1, gm.d)))
    assert (out[0] if name == "drift_with_stats" else out).shape[0] == 1
    with pytest.raises(ValueError, match=r"shape \(n, 3\)"):
        f(np.zeros(gm.d))


def test_log_density_far_tail_is_finite():
    gm = random_mixture(np.random.default_rng(6), k=2, d=2)
    far = np.full((1, 2), 60.0)
    ld = gm.log_density(far)
    assert np.isfinite(ld).all()
    assert gm.density(far)[0] >= 0.0


def test_score_matches_finite_differences():
    rng = np.random.default_rng(7)
    gm = random_mixture(rng, k=4, d=3)
    pts = rng.normal(0.0, 1.5, (12, 3))
    h = 1e-6
    fd = np.empty_like(pts)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        fd[:, i] = (gm.log_density(pts + e) - gm.log_density(pts - e)) / (2 * h)
    assert np.allclose(gm.score(pts), fd, atol=5e-8)


def test_responsibilities_bayes_rule():
    rng = np.random.default_rng(8)
    gm = random_mixture(rng, k=3, d=2)
    pts = rng.normal(0.0, 2.0, (15, 2))
    r = gm.responsibilities(pts)
    assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)
    joint = gm.weights[None, :] * np.exp(gm.component_log_density(pts))
    assert np.allclose(r, joint / joint.sum(axis=1, keepdims=True), rtol=1e-10)


def test_sampling_is_seed_deterministic():
    gm = random_mixture(np.random.default_rng(9))
    a = gm.sample(100, seed=42)
    b = gm.sample(100, seed=42)
    assert np.array_equal(a, b)
    c = gm.sample_with(np.random.default_rng(42), 100)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, gm.sample(100, seed=43))


def test_serialization_round_trip():
    gm = random_mixture(np.random.default_rng(10), k=2, d=4)
    back = GaussianMixture.from_dict(gm.to_dict())
    assert np.array_equal(back.weights, gm.weights)
    assert np.array_equal(back.means, gm.means)
    assert np.array_equal(back.covs, gm.covs)
    # the raw arrays are checked on the way in, before construction symmetrizes them
    data = gm.to_dict()
    for bad in (
        {**data, "weights": [1.5, -0.5]},
        {**data, "covs": [np.diag([1.0, 1.0, 1.0, -1.0]).tolist(), data["covs"][1]]},
        {**data, "means": [["a"] * 4, data["means"][1]]},
        {"weights": data["weights"], "means": data["means"]},
        [data],
    ):
        with pytest.raises(ConfigError):
            GaussianMixture.from_dict(bad)
