import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import casmem.protocol as protocol
from casmem.gm import GaussianMixture, _symmetrize, stack_mixtures
from casmem.harness import (
    RunConfig, build_final_state, daily_states, resolve_prior, restore_state, run_experiment,
    snapshot_state,
)
from casmem.protocol import (
    MemoryState,
    ProtocolGrid,
    add,
    eval_at,
    incorporate,
    memory_footprint,
    new_memory,
    readout_time,
    rebin_matrix,
    replay,
    replay_block,
    smooth,
)
from casmem.streams import KINDS, generate, make_config


def day_target(m, k=2, d=2):
    """Deterministic daily mixture with all three channels moving."""
    rng = np.random.default_rng(100 + m)
    w = rng.uniform(1.0, 2.0, k)
    w /= w.sum()
    means = rng.normal(0.0, 1.5, (k, d)) + 0.1 * m
    covs = np.empty((k, d, d))
    for i in range(k):
        a = rng.normal(0.0, 0.4, (d, d))
        covs[i] = a @ a.T + (0.5 + 0.05 * (m % 3)) * np.eye(d)
    return GaussianMixture(w, means, covs)


def standard_prior(k=2, d=2):
    return GaussianMixture(
        np.full(k, 1.0 / k), np.zeros((k, d)), np.tile(np.eye(d), (k, 1, 1))
    )


def params_of(gm):
    return np.concatenate([gm.weights.ravel(), gm.means.ravel(), gm.covs.ravel()])


def max_param_gap(a, b):
    return float(np.abs(params_of(a) - params_of(b)).max())


def same_params(a, b):
    return np.array_equal(params_of(a), params_of(b))


def node(grid, j):
    return GaussianMixture(grid.weights[j], grid.means[j], grid.covs[j])


def test_new_memory_ramp():
    prior, t1 = standard_prior(), day_target(1)
    state = new_memory(prior, t1, L=5)
    grid = state.grid
    assert state.day == 1 and same_params(state.prior, prior)
    assert grid.L == 5 and grid.means.shape[0] == 6
    assert same_params(node(grid, 0), prior)
    assert same_params(node(grid, -1), t1)
    # interior nodes are the exact parameter lerp
    assert np.allclose(grid.means[2], 0.6 * prior.means + 0.4 * t1.means)
    with pytest.raises(ValueError):
        new_memory(prior, day_target(1, k=3), L=5)
    with pytest.raises(ValueError):
        new_memory(prior, t1, L=0)


@pytest.mark.parametrize("L", [1, 5, 10, 100])
def test_new_memory_ramp_is_the_two_term_lerp_bit_for_bit(L):
    # a prior with every field off zero, so that another order of the lerp's terms shows
    prior, t1 = day_target(50), day_target(1)
    grid = new_memory(prior, t1, L).grid
    for j in range(L + 1):
        alpha = j / L
        want = [(1.0 - alpha) * p + alpha * x for p, x in zip(prior, t1)]
        assert same_bytes([a[j] for a in grid], want), j


def test_eval_at_endpoints_and_domain():
    grid = new_memory(standard_prior(), day_target(1), L=4).grid
    assert same_params(eval_at(grid, 0.0), node(grid, 0))
    assert same_params(eval_at(grid, 1.0), node(grid, -1))
    assert same_params(eval_at(grid, 0.5), node(grid, 2))
    with pytest.raises(ValueError):
        eval_at(grid, -0.01)
    with pytest.raises(ValueError):
        eval_at(grid, 1.01)


def test_compress_relabel_is_lossless():
    # The compressed path occupies [0, L/(L+1)] of the augmented path;
    # original time s maps to s * L / (L + 1). States must be untouched.
    L = 7
    state = new_memory(standard_prior(), day_target(1), L)
    for m in range(2, 5):
        state = incorporate(state, day_target(m))
    grid = state.grid
    # add returns plain arrays; a grid is built here only to call eval_at
    aug = ProtocolGrid(*add(grid, day_target(9)))
    shrink = L / (L + 1.0)
    worst = 0.0
    for s in np.linspace(0.0, 1.0, 201):
        worst = max(worst, max_param_gap(eval_at(aug, s * shrink), eval_at(grid, float(s))))
    assert worst <= 1e-13


def test_add_appends_target_at_one():
    state = new_memory(standard_prior(), day_target(1), L=4)
    grid = state.grid
    target = day_target(2)
    aug = add(grid, target)
    assert isinstance(aug, tuple) and len(aug) == 3
    assert [a.shape[0] for a in aug] == [grid.L + 2] * 3
    assert same_params(eval_at(ProtocolGrid(*aug), 1.0), target)
    w, m, c = aug
    for bad in ((w[:1], m[:1], c[:1]), (w[:, :1], m, c), (w, m[:-1], c), (w, m, c[..., :1]),
                (w[0], m[0], c[0])):
        with pytest.raises(ValueError, match="node|shapes"):
            ProtocolGrid(*bad)
    # the day's grid ends on the target, bit for bit
    assert same_params(node(incorporate(state, target).grid, grid.L), target)
    # a day of another shape is refused, whether a mixture or a row of bare arrays
    w, m, c = day_target(2)
    bad_days = (
        day_target(2, d=3), tuple(day_target(2, k=3)), tuple(day_target(2, d=3)),
        (w[:1], m, c), (w, m, c[..., :1]), (w, m, c[0]),
    )
    for bad in bad_days:
        with pytest.raises(ValueError, match="do not fit K = 2, d = 2"):
            add(grid, bad)


def reference_rebin_indices(L):
    """Per-node loop on Python integers: the reference for _rebin_terms' k and alpha."""
    out = []
    for j in range(L + 1):
        num = j * (L + 1)
        k = min(num // L, L)
        out.append((k, (num - k * L) / L))
    return out


@pytest.mark.parametrize("L", [1, 2, 3, 7, 10, 16])
def test_rebin_indices_partition_of_unity(L):
    k, *_, alpha = protocol._rebin_terms(L)
    assert len(k) == len(alpha) == L + 1
    assert (k[0], alpha[0]) == (0, 0.0)
    assert k[-1] == L and alpha[-1] == 1.0
    W = rebin_matrix(L)
    assert W.shape == (L + 1, L + 2)
    assert np.allclose(W.sum(axis=1), 1.0, atol=1e-15)
    assert np.count_nonzero(W > 0, axis=1).max() <= 2
    # each new node must land at position j*(L+1)/L exactly
    assert k + alpha == pytest.approx(np.arange(L + 1) * (L + 1) / L, abs=1e-12)
    # computed once per L: a repeat call returns the same read-only arrays
    again = protocol._rebin_terms(L)
    assert again[0] is k and again[3] is alpha
    for a in (k, alpha):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1


def lerp_oracle(nodes, j, a):
    """The two-term formula (1 - a) * x[j] + a * x[j + 1] per field, a broadcast over each field."""
    out = []
    for x in nodes:
        w = np.reshape(a, np.shape(a) + (1,) * (x.ndim - 1))
        out.append((1 - w) * x[j] + w * x[j + 1])
    return out


def same_bytes(got, want):
    return all(g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))


def fresh_c_order(arrays, *sources):
    return all(
        a.flags.c_contiguous and not any(np.shares_memory(a, s) for s in sources) for a in arrays
    )


def stream_states(kind):
    """Every state of the first 25 days of the built-in stream kind at L = 7, with its targets."""
    cfg = RunConfig(stream=make_config(kind), L=7)
    targets = generate(cfg.stream)[:25]
    prior = resolve_prior(cfg, targets[0].k, targets[0].d)
    return list(daily_states(cfg, stack_mixtures(targets), prior)), targets


BUILT_IN_KINDS = [kind for kind in KINDS if kind != "file"]


@pytest.mark.parametrize("kind", BUILT_IN_KINDS)
def test_node_lerp_equals_the_two_term_formula(kind):
    states, targets = stream_states(kind)
    L = states[0].grid.L
    k, *_, alpha = protocol._rebin_terms(L)
    for state, target in zip(states[:-1], targets[1:]):
        aug = add(state.grid, target)
        before = [a.copy() for a in aug]
        assert all(a.flags.writeable for a in aug)
        grid = smooth(aug)
        got = (grid.weights, grid.means, grid.covs)
        assert same_bytes(got, lerp_oracle(aug, k, alpha))
        # the gather copies: add's writable arrays are left as they were
        assert same_bytes(aug, before) and fresh_c_order(got, *aug)
    grid = states[-1].grid
    nodes = (grid.weights, grid.means, grid.covs)
    for t in (0.0, 0.3, 0.5, 1 / 7, 0.999, 1.0):
        j = min(int(t * L), L - 1)
        gm = eval_at(grid, t)
        got = (gm.weights, gm.means, gm.covs)
        assert same_bytes(got, lerp_oracle(nodes, j, t * L - j))
        assert fresh_c_order(got, *nodes)
    m, n, got = replay_block(states)
    want = [[], [], []]
    for mi, ni in zip(m, n):
        u = readout_time(L, int(ni - mi)) * L
        j = min(int(u), L - 1)
        for field, x in zip(want, lerp_oracle(states[ni - 1].grid, j, u - j)):
            field.append(x)
    assert same_bytes(got, [np.stack(field) for field in want])
    assert fresh_c_order(got, *(a for s in states for a in s.grid))


def test_node_lerp_leaves_writable_nodes_untouched():
    nodes = [np.arange(12.0).reshape(4, 3), np.arange(24.0).reshape(4, 3, 2)]
    before = [a.copy() for a in nodes]
    # a scalar segment would gather a view by plain indexing; every output must be a copy
    for j, alpha in ((2, 0.25), (0, 0.0), (2, 1.0), (np.array([0, 2, 1]), np.array([0.5, 0.0, 1.0]))):
        got = protocol._lerp_nodes(nodes, j, alpha)
        assert same_bytes(got, lerp_oracle(nodes, j, alpha)) and fresh_c_order(got, *nodes)
        for a in got:
            a += 1.0
        assert same_bytes(nodes, before)


@pytest.mark.parametrize("L", [1, 3, 10])
@pytest.mark.parametrize(
    "stream",
    [dict(kind="circular"), dict(kind="rotating_dominance", d=4), dict(kind="crowding", K=5)],
)
def test_eval_at_locates_as_the_array_path(stream, L):
    # eval_at's one time goes through the same code as an array of times: row i of that batch
    grid = build_final_state(RunConfig(stream=make_config(**stream, n_days=30), L=L)).grid
    nodes = [j / L for j in range(L + 1)]
    ts = [*np.linspace(0.0, 1.0, 1001).tolist(), *nodes, np.nextafter(1.0, 0.0)]
    w, m, c = protocol._lerp_nodes(grid, *protocol._segment(np.array(ts), L))
    c = _symmetrize(c)  # as a mixture stores its covariances
    for i, t in enumerate(ts):
        assert same_bytes(eval_at(grid, float(t)), (w[i], m[i], c[i])), t


@pytest.mark.parametrize("L", [1, 2, 7, 100])
def test_rebin_terms_are_cached_read_only(L):
    terms = protocol._rebin_terms(L)
    k, *_, alpha = terms
    assert same_bytes(terms, (k, k + 1, 1.0 - alpha, alpha))
    again = protocol._rebin_terms(L)
    assert all(a is b for a, b in zip(terms, again, strict=True))
    for a in terms:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1


def test_readout_table_is_built_once_per_length(monkeypatch):
    L = 10
    table = protocol._readout_times(L, 64)
    # the scalar power of every age, not a vector power, which differs in the last bit
    assert table.tobytes() == np.array([(L / (L + 1.0)) ** age for age in range(64)]).tobytes()
    assert protocol._readout_times(L, 64) is table and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.5
    calls = []
    real = protocol.readout_time

    def counted(L, age):
        calls.append(age)
        return real(L, age)

    monkeypatch.setattr(protocol, "readout_time", counted)
    protocol._readout_times.cache_clear()
    cfg = RunConfig(stream=make_config("circular", n_days=300), L=L)
    run_experiment(cfg)
    # one table per power of two up to 512: 1023 ages in all, not one per pair's block
    assert len(calls) <= 2 * 512
    calls.clear()
    run_experiment(cfg)
    assert calls == []


def test_rebin_indices_equal_reference_loop():
    for L in range(1, 401):
        k, *_, alpha = protocol._rebin_terms(L)
        want_k, want_alpha = np.array(reference_rebin_indices(L)).T
        assert np.array_equal(k, want_k) and np.array_equal(alpha, want_alpha)
        # smooth reads new node j from augmented nodes j and j + 1
        assert np.array_equal(k, np.arange(L + 1))


@pytest.mark.parametrize("L", [1, 2, 5, 10, 30])
def test_rebin_matrix_blocks(L):
    W = rebin_matrix(L)
    # nodes 1..L never draw on the prior
    assert not W[1:, 0].any()
    # on the old nodes 1..L the operator is upper bidiagonal, spectral radius 1 - 1 / L
    A = W[1:, 1:L + 1]
    assert not np.tril(A, -1).any() and not np.triu(A, 2).any()
    assert np.array_equal(np.diag(A), 1.0 - np.arange(1, L + 1) / L)
    # the new day enters through the last node only
    assert np.array_equal(W[1:, L + 1], np.eye(L)[-1])
    assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-15


@pytest.mark.parametrize("L", [1, 3, 10, 25])
def test_smooth_direct_equals_matrix(L):
    state = new_memory(standard_prior(), day_target(1), L)
    for m in range(2, 6):
        state = incorporate(state, day_target(m))
    aug_w, aug_m, aug_c = aug = add(state.grid, day_target(6))
    a = smooth(aug)
    W = rebin_matrix(L)
    b = ProtocolGrid(
        np.einsum("ja,ak->jk", W, aug_w),
        np.einsum("ja,akd->jkd", W, aug_m),
        np.einsum("ja,akde->jkde", W, aug_c),
    )
    worst = max(
        float(np.abs(x - y).max())
        for x, y in ((a.weights, b.weights), (a.means, b.means), (a.covs, b.covs))
    )
    assert worst <= 1e-14


def test_rebin_refuses_fewer_than_one_segment():
    two_nodes = stack_mixtures([standard_prior(), day_target(1)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        calls = (
            lambda: protocol._rebin_terms(0), lambda: protocol._rebin_terms(-2),
            lambda: rebin_matrix(0), lambda: smooth(two_nodes),
            lambda: new_memory(standard_prior(), day_target(1), L=0),
        )
        for call in calls:
            with pytest.raises(ValueError, match="L must be >= 1"):
                call()


def test_same_day_replay_is_exact():
    state = new_memory(standard_prior(), day_target(1), L=6)
    for m in range(2, 10):
        target = day_target(m)
        state = incorporate(state, target)
        assert same_params(replay(state, m), target)


def test_readout_times_contract_geometrically():
    L = 10
    assert readout_time(L, 0) == 1.0
    assert readout_time(L, 3) == (10 / 11) ** 3
    with pytest.raises(ValueError):
        readout_time(L, -1)
    state = new_memory(standard_prior(), day_target(1), L)
    for m in range(2, 8):
        state = incorporate(state, day_target(m))
    # the batched replay reads every day at the same readout time as replay
    w, means, covs = replay_block([state])[2]
    for m in range(1, 8):
        assert same_params(GaussianMixture(w[m - 1], means[m - 1], covs[m - 1]), replay(state, m))
    with pytest.raises(KeyError):
        replay(state, 99)


def reference_recursion(prior, targets, L):
    """Plain-array reimplementation of the daily update, for cross-checking.

    Keeps stacked node parameters and rebins them with np.interp over the
    node positions instead of going through the mixture objects.
    """
    k, d = prior.k, prior.d

    def flat(gm):
        return np.concatenate([gm.weights, gm.means.ravel(), gm.covs.ravel()])

    ramp = np.linspace(0.0, 1.0, L + 1)[:, None]
    params = (1 - ramp) * flat(prior) + ramp * flat(targets[0])
    old_pos = np.linspace(0.0, 1.0, L + 2)
    new_pos = np.linspace(0.0, 1.0, L + 1)
    for target in targets[1:]:
        aug = np.vstack([params, flat(target)])
        params = np.stack(
            [np.interp(new_pos, old_pos, aug[:, i]) for i in range(aug.shape[1])], axis=1
        )
    w = params[:, :k]
    m = params[:, k : k + k * d].reshape(L + 1, k, d)
    c = params[:, k + k * d :].reshape(L + 1, k, d, d)
    return w, m, c


def test_recursion_matches_reference_arrays():
    L, n_days = 5, 40
    prior = standard_prior()
    targets = [day_target(m) for m in range(1, n_days + 1)]
    state = new_memory(prior, targets[0], L)
    for target in targets[1:]:
        state = incorporate(state, target)
        # node 0 is the prior on every day, not only on day 1: old recall
        # interpolates toward it, which is why recall past the horizon is
        # amnesia rather than some earlier day's content
        assert same_params(node(state.grid, 0), prior)
    w, m, c = reference_recursion(prior, targets, L)
    assert np.array_equal(w[0], prior.weights)
    assert np.array_equal(m[0], prior.means)
    assert np.array_equal(c[0], prior.covs)
    assert np.allclose(state.grid.weights, w, atol=1e-12)
    assert np.allclose(state.grid.means, m, atol=1e-12)
    assert np.allclose(state.grid.covs, c, atol=1e-12)


def test_memory_footprint_formula():
    assert memory_footprint(20, 3, 8) == 4599
    assert memory_footprint(10, 1, 2) == 11 * 7
    # footprint counts exactly the scalars stored per grid node
    state = new_memory(standard_prior(k=3, d=4), day_target(1, k=3, d=4), L=6)
    grid = state.grid
    stored = grid.weights.size + grid.means.size + grid.covs.size
    assert stored == memory_footprint(6, 3, 4)


def snapshot_cfg(L):
    """A config whose stream has day_target's shape (K = 2, d = 2); snapshots record that stream."""
    return RunConfig(stream=make_config("crowding", K=2), L=L)


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_snapshot_round_trip_and_count_audit(tmp_path):
    L = 5
    cfg = snapshot_cfg(L)
    state = new_memory(standard_prior(), day_target(1), L)
    for m in range(2, 7):
        state = incorporate(state, day_target(m))
    path = snapshot_state(cfg, state, str(tmp_path))
    snap = json.loads(Path(path).read_text())
    # schema v2 has no stream config; v1 also carries a readout table, which is ignored
    v2 = {key: value for key, value in snap.items() if key != "stream"} | {"schema_version": 2}
    v1 = dict(v2, schema_version=1, readout={str(m): 1.0 for m in range(1, state.day + 1)})
    files = [path, write_json(tmp_path / "v2.json", v2), write_json(tmp_path / "v1.json", v1)]
    for back in (restore_state(cfg, file) for file in files):
        assert back.day == state.day
        for a, b in ((back.grid.weights, state.grid.weights), (back.grid.means, state.grid.means),
                     (back.grid.covs, state.grid.covs)):
            assert np.array_equal(a, b)
        assert max_param_gap(back.prior, state.prior) == 0.0
    # count audit: serialized reals = grid footprint + prior
    k, d = state.grid.k, state.grid.d
    node_reals = sum(
        len(g["weights"]) + np.asarray(g["means"]).size + np.asarray(g["covs"]).size
        for g in snap["nodes"]
    )
    prior_reals = (
        len(snap["prior"]["weights"])
        + np.asarray(snap["prior"]["means"]).size
        + np.asarray(snap["prior"]["covs"]).size
    )
    assert node_reals == memory_footprint(L, k, d)
    assert node_reals + prior_reals == memory_footprint(L, k, d) + k * (d * d + d + 1)


def test_snapshot_rejects_bad_schema(tmp_path):
    cfg = snapshot_cfg(3)
    state = new_memory(standard_prior(), day_target(1), L=3)
    snap = json.loads(Path(snapshot_state(cfg, state, str(tmp_path))).read_text())
    with pytest.raises(ValueError):
        restore_state(cfg, write_json(tmp_path / "bad.json", dict(snap, schema_version=99)))
    truncated = dict(snap, nodes=snap["nodes"][:-1])
    with pytest.raises(ValueError):
        restore_state(cfg, write_json(tmp_path / "truncated.json", truncated))


def test_resume_bisimulation(tmp_path):
    # restoring mid-run and continuing must reproduce the uninterrupted run
    L, n_days, cut = 6, 12, 7
    prior = standard_prior()
    targets = [day_target(m) for m in range(1, n_days + 1)]

    full = new_memory(prior, targets[0], L)
    for target in targets[1:]:
        full = incorporate(full, target)

    half = new_memory(prior, targets[0], L)
    for target in targets[1:cut]:
        half = incorporate(half, target)
    cfg = snapshot_cfg(L)
    resumed = restore_state(cfg, snapshot_state(cfg, half, str(tmp_path)))
    for target in targets[cut:]:
        resumed = incorporate(resumed, target)

    assert resumed.day == full.day
    for m in range(1, n_days + 1):
        assert max_param_gap(replay(resumed, m), replay(full, m)) == 0.0
