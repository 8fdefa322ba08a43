import itertools

import numpy as np
import pytest

from casmem.gm import GaussianMixture, Moments, stack_mixtures
from casmem.metrics import (
    AGE_CURVE_CSV_HEADER,
    MAX_TABLE_K,
    RECORD_CSV_HEADER,
    RECORD_DTYPE,
    AgeCurve,
    age_curve,
    age_curve_csv_lines,
    channel_shares,
    day_records,
    decomposed_forgetting,
    half_life,
    match_components,
    moment_gap,
    records_csv_lines,
    score_recall,
)
from casmem.harness import BLOCK_PAIRS, RunConfig, daily_states, run_experiment
from casmem.protocol import incorporate, new_memory, replay, replay_block
from casmem.streams import default_prior, generate, make_config


def random_mixture(rng, k=3, d=2, spread=2.0):
    w = rng.uniform(0.5, 1.5, k)
    w /= w.sum()
    means = rng.normal(0.0, spread, (k, d))
    covs = np.empty((k, d, d))
    for i in range(k):
        a = rng.normal(0.0, 0.5, (d, d))
        covs[i] = a @ a.T + 0.4 * np.eye(d)
    return GaussianMixture(w, means, covs)


def parts(gm):
    return gm.weights, gm.means, gm.covs


def brute_force_match(a, b):
    """Minimum-cost assignment by exhaustive K! enumeration."""
    pair_cost = [[float(np.sum((x - y) ** 2)) for y in b.means] for x in a.means]
    best, best_cost = None, np.inf
    for perm in itertools.permutations(range(a.k)):
        cost = sum(pair_cost[i][p] for i, p in enumerate(perm))
        if cost < best_cost:
            best, best_cost = perm, cost
    return np.array(best), best_cost


def assignment_cost(a, b, perm):
    return sum(float(np.sum((a.means[i] - b.means[p]) ** 2)) for i, p in enumerate(perm))


def record_array(*rows):
    """Records from (m, n, F_raw, F_norm[, F_mean, F_cov, F_weight]) rows; NaN where left out."""
    nan = float("nan")
    full = [(m, n, n - m, *fs, *[nan] * (5 - len(fs))) for m, n, *fs in rows]
    return np.rec.array(full, dtype=RECORD_DTYPE)


def reference_day_records(state, targets):
    """The per-day scorer: every stored day of one state, replayed and scored on its own."""
    n = state.day
    days = tuple(a[:n] for a in targets)
    m = np.arange(1, n + 1)
    recalled = replay_block([state])[2]
    return score_recall(recalled, days, state.prior.overall_moments(), m, np.full(n, n))


def reference_age_curve(records):
    """Per-record loop over a dict of ages: the reference for age_curve."""
    sums, counts, skipped = {}, {}, 0
    for rec in records:
        if np.isnan(rec.F_norm):
            skipped += 1
            continue
        a = int(rec.age)
        sums[a] = sums.get(a, 0.0) + float(rec.F_norm)
        counts[a] = counts.get(a, 0) + 1
    ages = np.array(sorted(sums), dtype=int)
    values = np.array([sums[a] / counts[a] for a in ages], dtype=float)
    return AgeCurve(ages, values, np.array([counts[a] for a in ages], dtype=int), skipped)


def reference_channel_shares(records, min_age=0):
    """Per-record loop over a dict of ages: the reference for channel_shares."""
    by_age = {}
    for rec in records:
        if np.isnan(rec.F_mean) or rec.age < min_age:
            continue
        acc = by_age.setdefault(int(rec.age), [0.0, 0.0, 0.0])
        acc[0] += float(rec.F_mean)
        acc[1] += float(rec.F_cov)
        acc[2] += float(rec.F_weight)
    shares = [
        (tm / (tm + tc + tw), tc / (tm + tc + tw), tw / (tm + tc + tw))
        for tm, tc, tw in by_age.values()
        if tm + tc + tw > 0.0
    ]
    if not shares:
        return None
    means = np.asarray(shares).mean(axis=0)
    return float(means[0]), float(means[1]), float(means[2])


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
    # a day whose target is the prior has amnesia baseline 0: F_norm is NaN
    rng = np.random.default_rng(8)
    prior = default_prior(2, 2)
    targets = [random_mixture(rng, k=2), prior, random_mixture(rng, k=2)]
    state = new_memory(prior, targets[0], 3)
    for t in targets[1:]:
        state = incorporate(state, t)
    recs = day_records([state], stack_mixtures(targets))
    assert np.isnan(recs[1].F_norm)
    for rec in (recs[0], recs[2]):
        baseline = moment_gap(prior.overall_moments(), targets[rec.m - 1].overall_moments())
        assert rec.F_norm == pytest.approx(rec.F_raw / baseline, rel=1e-14)
    assert age_curve(recs).skipped == 1


def test_match_components_equals_brute_force():
    # K <= MAX_TABLE_K takes the permutation table, larger K the assignment method
    rng = np.random.default_rng(1)
    by_k = {}
    for k in np.repeat(np.arange(1, 9), 8):
        a = random_mixture(rng, k=k)
        b = random_mixture(rng, k=k)
        perm = match_components(a.means, b.means)
        _, best_cost = brute_force_match(a, b)
        assert assignment_cost(a, b, perm) == pytest.approx(best_cost, rel=1e-12)
        by_k.setdefault(k, []).append((a, b, perm, best_cost))
    # the same pairs stacked per K: every row is its pair's own answer
    assert min(by_k) <= MAX_TABLE_K < max(by_k)
    for k, group in by_k.items():
        batch = match_components(
            np.stack([a.means for a, _, _, _ in group]), np.stack([b.means for _, b, _, _ in group])
        )
        assert batch.shape == (len(group), k)
        for row, (a, b, perm, best_cost) in zip(batch, group):
            assert np.array_equal(row, perm)
            assert assignment_cost(a, b, row) == pytest.approx(best_cost, rel=1e-12)


def test_match_prefers_identity_on_ties():
    # identical mixtures: every cost ties at the permutation diagonal,
    # but the identity must win so decompositions stay labeled
    gm = random_mixture(np.random.default_rng(2), k=4)
    assert np.array_equal(match_components(gm.means, gm.means), np.arange(4))
    # batched, the tie-break is decided row by row
    swapped = gm.means[[1, 0, 2, 3]]
    got = match_components(np.stack([gm.means, gm.means]), np.stack([gm.means, swapped]))
    assert np.array_equal(got, [[0, 1, 2, 3], [1, 0, 2, 3]])
    # the assignment branch keeps the identity on ties as well
    big = random_mixture(np.random.default_rng(2), k=MAX_TABLE_K + 2)
    assert np.array_equal(match_components(big.means, big.means), np.arange(big.k))


def test_match_tie_between_non_identity_optima_takes_the_first_permutation():
    # components 0 and 1 coincide, so (1, 2, 0) and (2, 1, 0) both cost
    # 1 + 4 + 1 = 6; the first in lexicographic order wins
    a = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    b = np.array([[5.0, 4.0], [1.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(match_components(a, b), [1, 2, 0])
    assert np.array_equal(match_components(np.stack([a, a]), np.stack([b, b])), [[1, 2, 0]] * 2)


def test_match_recovers_planted_permutation():
    rng = np.random.default_rng(3)
    a = random_mixture(rng, k=5, spread=6.0)
    perm = rng.permutation(5)
    b = GaussianMixture(a.weights[perm], a.means[perm], a.covs[perm])
    got = match_components(a.means, b.means)
    assert np.array_equal(a.means, b.means[got])


def test_decomposition_zero_for_identical():
    gm = random_mixture(np.random.default_rng(4))
    assert decomposed_forgetting(parts(gm), parts(gm)) == (0.0, 0.0, 0.0)


def test_decomposition_is_label_invariant():
    rng = np.random.default_rng(5)
    a = random_mixture(rng, k=4, spread=5.0)
    b = random_mixture(rng, k=4, spread=5.0)
    perm = rng.permutation(4)
    b_shuffled = GaussianMixture(b.weights[perm], b.means[perm], b.covs[perm])
    assert np.allclose(
        decomposed_forgetting(parts(a), parts(b)), decomposed_forgetting(parts(a), parts(b_shuffled))
    )


def test_decomposition_channels_isolate():
    rng = np.random.default_rng(6)
    base = random_mixture(rng, k=3, spread=5.0)
    shift = GaussianMixture(base.weights, base.means + 0.1, base.covs)
    f_mean, f_cov, f_weight = decomposed_forgetting(parts(shift), parts(base))
    assert f_cov == 0.0 and f_weight == 0.0
    # w_bar weighting: sum_k max(w) * d * 0.01
    assert f_mean == pytest.approx(0.01 * base.d * base.weights.sum())
    scaled = GaussianMixture(base.weights, base.means, 1.1 * base.covs)
    f_mean, f_cov, f_weight = decomposed_forgetting(parts(scaled), parts(base))
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
    recs = day_records([state], stack_mixtures(targets))
    n = state.day
    assert len(recs) == n
    assert [r.m for r in recs] == list(range(1, n + 1))
    assert all(r.n == n for r in recs)
    assert all(r.age == r.n - r.m for r in recs)
    # same-day replay is exact, so the newest record has zero raw forgetting
    assert recs[-1].F_raw == pytest.approx(0.0, abs=1e-20)
    # multi-component run: decompositions filled in; single-component: NaN
    assert not np.isnan(recs.F_mean).any()
    state, targets = run_small_state(k=1)
    single = day_records([state], stack_mixtures(targets))
    for field in ("F_mean", "F_cov", "F_weight"):
        assert np.isnan(single[field]).all()


def test_day_records_channels_equal_single_pair_decomposition():
    targets = generate(make_config("triangle", n_days=20))
    stacked = stack_mixtures(targets)
    state = new_memory(default_prior(3, 2), targets[0], 6)
    for target in targets[1:]:
        state = incorporate(state, target)
        for rec in day_records([state], stacked):
            want = decomposed_forgetting(parts(replay(state, rec.m)), parts(targets[rec.m - 1]))
            got = (rec.F_mean, rec.F_cov, rec.F_weight)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_age_curve_aggregation_and_half_life():
    recs = record_array(
        (1, 2, 0.4, 0.2),
        (2, 3, 0.4, 0.4),
        (1, 3, 0.9, 0.8),
        (3, 3, 0.0, np.nan),  # zero-baseline day: skipped
    )
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
    recs = record_array(
        (1, 2, 1.0, 0.5, 3.0, 1.0, 0.0),
        (1, 3, 1.0, 0.5, 0.0, 1.0, 1.0),
    )
    shares = channel_shares(recs)
    # per-age shares (0.75,0.25,0) and (0,0.5,0.5), then averaged
    assert shares[0] == pytest.approx(0.375)
    assert shares[1] == pytest.approx(0.375)
    assert shares[2] == pytest.approx(0.25)
    assert channel_shares(recs, min_age=2)[0] == pytest.approx(0.0)
    assert channel_shares(record_array((1, 2, 1.0, 0.5))) is None


def assert_aggregations_equal_reference(records, shares_rel=None):
    got, want = age_curve(records), reference_age_curve(records)
    assert np.array_equal(got.ages, want.ages) and np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.values, want.values) and got.skipped == want.skipped
    for min_age in (0, 11):
        got, want = channel_shares(records, min_age), reference_channel_shares(records, min_age)
        assert got == (want if shares_rel is None else pytest.approx(want, rel=shares_rel))


def test_aggregations_equal_reference_loops():
    cfg = RunConfig(stream=make_config("triangle", n_days=60), L=8)
    assert_aggregations_equal_reference(run_experiment(cfg).records)
    # a target equal to the prior has a zero baseline on every later day
    targets = generate(make_config("triangle", n_days=30))
    targets[9] = default_prior(3, 2)
    stacked = stack_mixtures(targets)
    state = new_memory(targets[9], targets[0], 6)
    days = [state]
    for target in targets[1:]:
        state = incorporate(state, target)
        days.append(state)
    records = day_records(days, stacked)
    assert np.isnan(records.F_norm).sum() == 21
    assert_aggregations_equal_reference(records)
    # A resumed run's first day brings ages 20..0 in descending order. The
    # reference averages shares over ages in first-seen order, channel_shares
    # in ascending order, so the 60-term mean may differ by rounding.
    day_20 = run_experiment(RunConfig(stream=make_config("triangle", n_days=20), L=8))
    resumed = run_experiment(cfg, day_20.final_state).records
    assert_aggregations_equal_reference(resumed, shares_rel=60 * np.finfo(float).eps)


def test_block_scoring_equals_per_day_reference():
    # 100 triangle days give 5050 pairs; the resumed run's 3775 span at least three blocks
    cfg = RunConfig(stream=make_config("triangle"), L=10)
    targets = generate(cfg.stream)
    stacked = stack_mixtures(targets)
    want = np.concatenate([reference_day_records(s, stacked) for s in daily_states(cfg, targets)])
    later = want[want["n"] > 50]
    assert len(later) >= 3 * BLOCK_PAIRS
    assert run_experiment(cfg).records.tobytes() == want.tobytes()
    day_50 = run_experiment(RunConfig(stream=make_config("triangle", n_days=50), L=10))
    assert run_experiment(cfg, day_50.final_state).records.tobytes() == later.tobytes()
    # one block of states equals its days scored one by one
    states = list(daily_states(cfg, targets))[:30]
    assert day_records(states, stacked).tobytes() == want[want["n"] <= 30].tobytes()
