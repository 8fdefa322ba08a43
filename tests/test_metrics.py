import itertools

import numpy as np
import pytest

from casmem.gm import GaussianMixture, Moments
from casmem.metrics import (
    AGE_CURVE_CSV_HEADER,
    RECORD_CSV_HEADER,
    ForgettingRecord,
    age_curve,
    age_curve_csv_lines,
    channel_shares,
    day_records,
    decomposed_forgetting,
    half_life,
    match_components,
    moment_gap,
    records_csv_lines,
)
from casmem.harness import RunConfig, run_experiment
from casmem.protocol import incorporate, new_memory
from casmem.streams import default_prior, make_config


def random_mixture(rng, k=3, d=2, spread=2.0):
    w = rng.uniform(0.5, 1.5, k)
    w /= w.sum()
    means = rng.normal(0.0, spread, (k, d))
    covs = np.empty((k, d, d))
    for i in range(k):
        a = rng.normal(0.0, 0.5, (d, d))
        covs[i] = a @ a.T + 0.4 * np.eye(d)
    return GaussianMixture(w, means, covs)


def brute_force_match(a, b):
    """Minimum-cost assignment by exhaustive K! enumeration."""
    k = a.k
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(k)):
        cost = sum(
            float(np.sum((a.means[i] - b.means[p]) ** 2)) for i, p in enumerate(perm)
        )
        if cost < best_cost:
            best, best_cost = perm, cost
    return np.array(best), best_cost


def assignment_cost(a, b, perm):
    return sum(float(np.sum((a.means[i] - b.means[p]) ** 2)) for i, p in enumerate(perm))


def test_moment_gap_is_a_squared_distance():
    m1 = Moments(np.array([1.0, 0.0]), np.eye(2))
    m2 = Moments(np.array([0.0, 0.0]), 2.0 * np.eye(2))
    assert moment_gap(m1, m1) == 0.0
    assert moment_gap(m1, m2) == pytest.approx(1.0 + 2.0)
    assert moment_gap(m1, m2) == moment_gap(m2, m1)


def test_moment_gap_between_mixtures():
    rng = np.random.default_rng(0)
    gm = random_mixture(rng)
    assert moment_gap(gm.overall_moments(), gm.overall_moments()) == 0.0
    prior = default_prior(gm.k, gm.d).overall_moments()
    assert moment_gap(prior, gm.overall_moments()) == moment_gap(gm.overall_moments(), prior)
    with pytest.raises(ValueError):
        moment_gap(gm.overall_moments(), random_mixture(rng, d=3).overall_moments())
    # batched over leading axes, one gap per pair
    others = [random_mixture(rng) for _ in range(3)]
    batch = Moments(
        np.stack([o.overall_moments().mean for o in others]),
        np.stack([o.overall_moments().cov for o in others]),
    )
    got = moment_gap(batch, gm.overall_moments())
    assert got.shape == (3,)
    for g, o in zip(got, others):
        assert g == pytest.approx(moment_gap(o.overall_moments(), gm.overall_moments()), rel=1e-14)


def test_day_records_guard_zero_baseline():
    # a day whose target is the prior has amnesia baseline 0: F_norm is None
    rng = np.random.default_rng(8)
    prior = default_prior(2, 2)
    targets = [random_mixture(rng, k=2), prior, random_mixture(rng, k=2)]
    state = new_memory(prior, targets[0], 3)
    for t in targets[1:]:
        state = incorporate(state, t)
    recs = day_records(state, targets)
    assert recs[1].F_norm is None
    for rec in (recs[0], recs[2]):
        baseline = moment_gap(prior.overall_moments(), targets[rec.m - 1].overall_moments())
        assert rec.F_norm == pytest.approx(rec.F_raw / baseline, rel=1e-14)
    assert age_curve(recs).skipped == 1


def test_match_components_equals_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(60):
        k = int(rng.integers(1, 6))
        a = random_mixture(rng, k=k)
        b = random_mixture(rng, k=k)
        perm = match_components(a, b)
        _, best_cost = brute_force_match(a, b)
        assert assignment_cost(a, b, perm) == pytest.approx(best_cost, rel=1e-12)


def test_match_prefers_identity_on_ties():
    # identical mixtures: every cost ties at the permutation diagonal,
    # but the identity must win so decompositions stay labeled
    gm = random_mixture(np.random.default_rng(2), k=4)
    assert np.array_equal(match_components(gm, gm), np.arange(4))


def test_match_recovers_planted_permutation():
    rng = np.random.default_rng(3)
    a = random_mixture(rng, k=5, spread=6.0)
    perm = rng.permutation(5)
    b = GaussianMixture(a.weights[perm], a.means[perm], a.covs[perm])
    got = match_components(a, b)
    assert np.array_equal(a.means, b.means[got])


def test_decomposition_zero_for_identical():
    gm = random_mixture(np.random.default_rng(4))
    assert decomposed_forgetting(gm, gm) == (0.0, 0.0, 0.0)


def test_decomposition_is_label_invariant():
    rng = np.random.default_rng(5)
    a = random_mixture(rng, k=4, spread=5.0)
    b = random_mixture(rng, k=4, spread=5.0)
    perm = rng.permutation(4)
    b_shuffled = GaussianMixture(b.weights[perm], b.means[perm], b.covs[perm])
    assert np.allclose(decomposed_forgetting(a, b), decomposed_forgetting(a, b_shuffled))


def test_decomposition_channels_isolate():
    rng = np.random.default_rng(6)
    base = random_mixture(rng, k=3, spread=5.0)
    shift = GaussianMixture(base.weights, base.means + 0.1, base.covs)
    f_mean, f_cov, f_weight = decomposed_forgetting(shift, base)
    assert f_cov == 0.0 and f_weight == 0.0
    # w_bar weighting: sum_k max(w) * d * 0.01
    assert f_mean == pytest.approx(0.01 * base.d * base.weights.sum())
    scaled = GaussianMixture(base.weights, base.means, 1.1 * base.covs)
    f_mean, f_cov, f_weight = decomposed_forgetting(scaled, base)
    assert f_mean == 0.0 and f_weight == 0.0 and f_cov > 0.0


def run_small_state(n_days=6, k=2, d=2, L=4):
    rng = np.random.default_rng(7)
    prior = default_prior(k, d)
    targets = [random_mixture(rng, k=k, d=d) for _ in range(n_days)]
    state = new_memory(prior, targets[0], L)
    for t in targets[1:]:
        state = incorporate(state, t)
    return state, targets


def test_day_records_shapes_and_flags():
    state, targets = run_small_state()
    recs = day_records(state, targets)
    n = state.day
    assert len(recs) == n
    assert [r.m for r in recs] == list(range(1, n + 1))
    assert all(r.n == n for r in recs)
    assert all(r.age == r.n - r.m for r in recs)
    # same-day replay is exact, so the newest record has zero raw forgetting
    assert recs[-1].F_raw == pytest.approx(0.0, abs=1e-20)
    # multi-component run: decompositions filled in
    assert all(r.F_mean is not None for r in recs)
    single = day_records(state, targets, decompose=False)
    assert all(r.F_mean is None for r in single)


def test_age_curve_aggregation_and_half_life():
    recs = [
        ForgettingRecord(1, 2, 0.4, 0.2),
        ForgettingRecord(2, 3, 0.4, 0.4),
        ForgettingRecord(1, 3, 0.9, 0.8),
        ForgettingRecord(3, 3, 0.0, None),  # zero-baseline day: skipped
    ]
    curve = age_curve(recs)
    assert curve.skipped == 1
    assert list(curve.ages) == [1, 2]
    assert curve.values[0] == pytest.approx(0.3)
    assert curve.values[1] == pytest.approx(0.8)
    assert list(curve.counts) == [2, 1]
    assert half_life(curve, theta=0.5) == 2
    assert half_life(curve, theta=0.25) == 1
    assert half_life(curve, theta=0.9) is None


def test_records_csv_schema_and_ordering():
    recs = run_experiment(RunConfig(stream=make_config("triangle", n_days=4), L=4)).records
    lines = records_csv_lines(recs)
    assert lines[0] == RECORD_CSV_HEADER == "m,n,age,F_raw,F_norm,F_mean,F_cov,F_weight"
    assert len(lines) == len(recs) + 1
    keys = []
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == 8
        keys.append((int(parts[1]), int(parts[0])))
        # floats round-trip through repr
        if parts[3]:
            assert repr(float(parts[3])) == parts[3]
    assert keys == sorted(keys)


def test_age_curve_csv_schema():
    curve = age_curve(run_experiment(RunConfig(stream=make_config("triangle", n_days=4))).records)
    lines = age_curve_csv_lines(curve)
    assert lines[0] == AGE_CURVE_CSV_HEADER == "age,F_bar,count"
    assert len(lines) == len(curve.ages) + 1


def test_channel_shares_average_and_min_age():
    recs = [
        ForgettingRecord(1, 2, 1.0, 0.5, F_mean=3.0, F_cov=1.0, F_weight=0.0),
        ForgettingRecord(1, 3, 1.0, 0.5, F_mean=0.0, F_cov=1.0, F_weight=1.0),
    ]
    shares = channel_shares(recs)
    # per-age shares (0.75,0.25,0) and (0,0.5,0.5), then averaged
    assert shares[0] == pytest.approx(0.375)
    assert shares[1] == pytest.approx(0.375)
    assert shares[2] == pytest.approx(0.25)
    assert channel_shares(recs, min_age=2)[0] == pytest.approx(0.0)
    assert channel_shares([ForgettingRecord(1, 2, 1.0, 0.5)]) is None
