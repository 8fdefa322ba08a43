import numpy as np
import pytest

from casmem.errors import ConfigError
from casmem.gm import GaussianMixture, stack_mixtures
from casmem.harness import RunConfig, daily_states, resolve_prior
from casmem.metrics import run_targets
from casmem.protocol import add, incorporate, new_memory
from casmem.streams import (
    KINDS,
    StreamConfig,
    class_prior,
    crowding_ratio,
    daily_params,
    default_prior,
    generate,
    load_gm_file,
    make_config,
    nuisance_walks,
    ring_means,
    rotating_weights,
    save_gm_file,
    split_merge_radii,
    synthetic_class_mixture,
)


def test_make_config_defaults_and_unknown_kind():
    cfg = make_config("circular")
    assert cfg.K == 1 and cfg.cov_scale == 0.5 and cfg.n_days == 100
    cfg3 = make_config("triangle", n_days=20)
    assert cfg3.K == 3 and cfg3.cov_scale == 0.3 and cfg3.n_days == 20
    rot = make_config("rotating_dominance")
    assert rot.d == 12 and rot.P == 30.0
    with pytest.raises(ValueError):
        make_config("spiral")
    with pytest.raises(TypeError):
        make_config("circular", radius=2.0)
    # each kind's limits are checked when its config is made
    for kind, fields in [
        ("triangle", dict(d=1)),
        ("circular", dict(n_days=0)),
        ("circular", dict(n_days=20.5)),
        ("crowding", dict(K=4)),
        ("split_merge", dict(n_days=60)),
        ("circular", dict(nuisance="random_walk")),
        ("file", {}),
        ("circular", dict(K=4)),
        ("linear", dict(K=2)),
        ("circular", dict(K=0)),
        ("rotating_dominance", dict(K=0)),
        ("embedded", dict(K=0)),
        ("crowding", dict(K=-1)),
        # each field takes the values its annotation admits: no bools, finite floats
        ("circular", dict(P=0)),
        ("circular", dict(P="abc")),
        ("circular", dict(R=None)),
        ("circular", dict(R=float("nan"))),
        ("rotating_dominance", dict(A="x")),
        ("circular", dict(cov_scale=0)),
        ("circular", dict(cov_scale=-1)),
        ("circular", dict(n_days=True)),
        ("file", dict(path=0)),
    ]:
        with pytest.raises(ConfigError):
            make_config(kind, **fields)
    # a float field written as an integer is stored as a float
    assert make_config("circular", P=50) == make_config("circular", P=50.0)
    assert type(make_config("circular", P=50).P) is float
    # rotating_dominance gives each component its own mean direction
    for fields in (dict(d=2), dict(d=4, K=5)):
        with pytest.raises(ConfigError, match=f"d = {fields['d']} and K = {fields.get('K', 3)}"):
            make_config("rotating_dominance", **fields)
    assert len(generate(make_config("rotating_dominance", d=5, K=5, n_days=3))) == 3


def test_generate_covers_every_kind(tmp_path):
    gm = default_prior(2, 3)
    path = tmp_path / "mix.json"
    save_gm_file(gm, path)
    for kind in KINDS:
        extra = {"path": str(path), "d": 3, "K": 2} if kind == "file" else {}
        targets = generate(make_config(kind, n_days=100, **extra))
        assert len(targets) == 100
        assert all(isinstance(t, GaussianMixture) for t in targets)
    with pytest.raises(ValueError):
        generate(StreamConfig(kind="bogus"))


def test_circular_geometry():
    cfg = make_config("circular", n_days=120, P=40.0, R=1.5)
    targets = generate(cfg)
    for m, t in enumerate(targets, start=1):
        assert t.k == 1
        assert np.linalg.norm(t.means[0]) == pytest.approx(1.5, abs=1e-12)
        assert np.allclose(t.covs[0], 0.5 * np.eye(2))
    # exact periodicity: day m and m + P coincide
    assert np.allclose(targets[0].means, targets[40].means, atol=1e-12)


def test_linear_matches_circular_speed():
    circ = generate(make_config("circular", n_days=10))
    lin = generate(make_config("linear", n_days=10))
    v_circ = np.linalg.norm(circ[1].means[0] - circ[0].means[0])
    v_lin = np.linalg.norm(lin[1].means[0] - lin[0].means[0])
    # chord of the circle vs straight step: equal to first order in 1/P
    assert v_lin == pytest.approx(2 * np.pi * 2.0 / 50.0, rel=1e-12)
    assert v_circ == pytest.approx(v_lin, rel=1e-3)
    # drift stays on one axis
    assert all(t.means[0, 1] == 0.0 for t in lin)


def test_ring_means_offsets():
    cfg = make_config("triangle")
    means = ring_means(cfg, m=3)
    centre = means.mean(axis=0)
    for k in range(3):
        assert np.linalg.norm(means[k] - centre) == pytest.approx(cfg.r, rel=1e-9)
    targets = generate(make_config("triangle", n_days=5))
    assert np.allclose(targets[2].means, means)
    assert np.allclose(targets[0].weights, 1.0 / 3.0)


def test_crowding_kinds_and_ratio():
    cfg = make_config("crowding", K=5, r=0.4, cov_scale=0.25)
    assert crowding_ratio(cfg) == pytest.approx(0.8)
    targets = generate(cfg)
    assert targets[0].k == 5
    with pytest.raises(ValueError):
        generate(make_config("crowding", K=4))


def test_nuisance_walks_seeded_and_stable_across_d():
    cfg8 = make_config("embedded", d=8, nuisance="random_walk", seed=11, n_days=50)
    cfg16 = make_config("embedded", d=16, nuisance="random_walk", seed=11, n_days=50)
    w8 = nuisance_walks(cfg8)
    w16 = nuisance_walks(cfg16)
    assert w8.shape == (50, 6)
    # adding coordinates must not reshuffle the shared ones
    assert np.array_equal(w8, w16[:, :6])
    assert np.array_equal(w8, nuisance_walks(cfg8))
    with pytest.raises(ValueError):
        nuisance_walks(make_config("embedded", d=4, nuisance="brownian"))


def test_embedded_reduces_to_triangle_at_d2():
    tri = generate(make_config("triangle", n_days=15))
    emb = generate(make_config("embedded", d=2, n_days=15))
    for a, b in zip(tri, emb):
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.covs, b.covs)


def test_split_merge_schedule():
    assert np.allclose(split_merge_radii(1), 0.8)
    assert np.allclose(split_merge_radii(30), 0.8)
    # ramp: two components shrink linearly over the five days after day 30
    r33 = split_merge_radii(33)
    assert r33[2] == pytest.approx(0.8)
    assert r33[0] == pytest.approx(0.8 + (0.05 - 0.8) * 3 / 5)
    assert np.allclose(split_merge_radii(45), [0.05, 0.05, 0.8])
    assert np.allclose(split_merge_radii(70), 0.8)
    assert np.allclose(split_merge_radii(100), 0.1)
    with pytest.raises(ValueError):
        split_merge_radii(0)
    with pytest.raises(ValueError):
        generate(make_config("split_merge", n_days=60))


def test_rotating_weights_softmax_and_period():
    cfg = make_config("rotating_dominance", P=30.0, A=2.0)
    w = rotating_weights(cfg, m=4, k_components=3)
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0)
    w_later = rotating_weights(cfg, m=34, k_components=3)
    assert np.allclose(w, w_later, atol=1e-12)
    # dominance actually rotates: argmax changes within one period
    arg = {int(np.argmax(rotating_weights(cfg, m, 3))) for m in range(1, 31)}
    assert arg == {0, 1, 2}


def test_rotating_stream_fixes_shapes():
    targets = generate(make_config("rotating_dominance", n_days=40))
    base = targets[0]
    for t in targets[1:]:
        assert np.array_equal(t.means, base.means)
        assert np.array_equal(t.covs, base.covs)
    assert not np.allclose(targets[0].weights, targets[10].weights)


def test_synthetic_class_mixture_structure():
    gm = synthetic_class_mixture(d=12, k=3, seed=7)
    # orthogonal mean directions with distinct norms
    gram = gm.means @ gm.means.T
    assert np.allclose(gram, np.diag(np.diag(gram)), atol=1e-12)
    norms = np.linalg.norm(gm.means, axis=1)
    assert len(np.unique(np.round(norms, 6))) == 3
    # equal-weight covariance average whitens to the identity exactly
    avg = gm.covs.mean(axis=0)
    assert np.abs(avg - np.eye(12)).max() < 1e-12
    # each class covariance is anisotropic
    eigs = np.linalg.eigvalsh(gm.covs[0])
    assert eigs[-1] / eigs[0] > 1.5


def test_class_prior_whitens():
    base = synthetic_class_mixture()
    prior = class_prior(base)
    assert np.array_equal(prior.means, base.means)
    assert np.allclose(prior.weights, 1.0 / 3.0)
    assert all(np.array_equal(c, np.eye(12)) for c in prior.covs)


def test_gm_file_round_trip(tmp_path):
    gm = synthetic_class_mixture(d=4, k=2, seed=3)
    path = tmp_path / "gm.json"
    save_gm_file(gm, path)
    back = load_gm_file(path)
    assert np.array_equal(back.weights, gm.weights)
    assert np.array_equal(back.means, gm.means)
    assert np.array_equal(back.covs, gm.covs)
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    with pytest.raises(ValueError):
        load_gm_file(bad)
    missing = tmp_path / "missing.json"
    missing.write_text('{"weights": [1.0]}')
    with pytest.raises(ValueError):
        load_gm_file(missing)
    with pytest.raises(ConfigError, match="cannot read"):
        load_gm_file(tmp_path / "absent.json")


def test_generate_is_deterministic():
    cfg = make_config("embedded", d=6, nuisance="random_walk", seed=5, n_days=30)
    a = generate(cfg)
    b = generate(cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x.means, y.means)


# The per-day formulas generate stacks: one mixture at a time, in plain loops.


def reference_centre(cfg, m):
    phase = 2.0 * np.pi * m / cfg.P
    c = np.zeros(cfg.d)
    c[0] = cfg.R * np.cos(phase)
    c[1] = cfg.R * np.sin(phase)
    return c


def reference_ring_means(cfg, m, radii):
    means = np.tile(reference_centre(cfg, m), (cfg.K, 1))
    for k in range(cfg.K):
        theta = 2.0 * np.pi * m / cfg.P + 2.0 * np.pi * k / cfg.K
        means[k, 0] += radii[k] * np.cos(theta)
        means[k, 1] += radii[k] * np.sin(theta)
    return means


def reference_split_merge_radii(day):
    phases = [(30, (0.8,) * 3), (50, (0.05, 0.05, 0.8)), (80, (0.8,) * 3), (100, (0.1,) * 3)]
    prev, start = np.array(phases[0][1]), 1
    for last_day, radii in phases:
        radii = np.array(radii)
        if day <= last_day:
            if start == 1:
                return radii
            return prev + (radii - prev) * min((day - start + 1) / 5, 1.0)
        prev, start = radii, last_day + 1


def reference_rotating_weights(cfg, m, k):
    logits = cfg.A * np.cos(2.0 * np.pi * m / cfg.P + 2.0 * np.pi * np.arange(k) / k)
    e = np.exp(logits - logits.max())
    return e / e.sum()


def reference_day(cfg, m):
    """Day m's target of the stream cfg, built on its own."""
    eye = cfg.cov_scale * np.eye(cfg.d)
    if cfg.kind == "circular":
        return GaussianMixture(np.ones(1), reference_centre(cfg, m)[None, :], eye[None])
    if cfg.kind == "linear":
        mean = np.zeros(cfg.d)
        mean[0] = 2.0 * np.pi * cfg.R / cfg.P * m
        return GaussianMixture(np.ones(1), mean[None, :], eye[None])
    if cfg.kind == "rotating_dominance":
        base = synthetic_class_mixture(cfg.d, cfg.K, seed=cfg.seed + 7)
        return GaussianMixture(reference_rotating_weights(cfg, m, base.k), base.means, base.covs)
    if cfg.kind == "file":
        return load_gm_file(cfg.path)
    if cfg.kind == "split_merge":
        means = reference_ring_means(cfg, m, reference_split_merge_radii(m))
    else:
        means = reference_ring_means(cfg, m, np.full(cfg.K, cfg.r))
        means[:, 2:] = nuisance_walks(cfg)[m - 1]
    covs = np.repeat(eye[None], cfg.K, axis=0)
    return GaussianMixture(np.full(cfg.K, 1.0 / cfg.K), means, covs)


STACKED_CASES = [
    *(
        (kind, dict(P=P, n_days=3000))
        for kind in ("circular", "linear")
        for P in (50.0, 7.3)
    ),
    ("triangle", {}),
    *(("crowding", dict(K=K)) for K in (2, 3, 5, 8)),
    *(
        ("embedded", dict(d=d, nuisance=nuisance))
        for d in (2, 8)
        for nuisance in ("none", "random_walk")
    ),
    ("split_merge", {}),
    ("rotating_dominance", dict(d=4)),
    ("rotating_dominance", dict(d=12)),
    ("file", dict(n_days=20)),
]


def stacked_config(kind, fields, tmp_path):
    """make_config of a STACKED_CASES entry; the file kind reads a mixture saved under tmp_path."""
    if kind == "file":
        fields = dict(fields, path=str(tmp_path / "mix.json"))
        save_gm_file(synthetic_class_mixture(d=4, k=2, seed=3), fields["path"])
    return make_config(kind, **fields)


@pytest.mark.parametrize("kind, fields", STACKED_CASES)
def test_generate_equals_per_day_formulas(kind, fields, tmp_path):
    cfg = stacked_config(kind, fields, tmp_path)
    targets = generate(cfg)
    params = daily_params(cfg)
    assert len(targets) == cfg.n_days
    assert all(len(a) == cfg.n_days and not a.flags.writeable for a in params)
    for m, target in enumerate(targets, start=1):
        want = reference_day(cfg, m)
        for f, stacked in zip(("weights", "means", "covs"), params, strict=True):
            expected = getattr(want, f)
            for got in (getattr(target, f), stacked[m - 1]):
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (m, f)
    # the stacks need no construction's symmetrizing: they score as the mixtures do
    prior = default_prior(*params[1].shape[1:])
    got, want = run_targets(params, prior), run_targets(stack_mixtures(targets), prior)
    for a, b in zip(
        (*got.params, got.moments.mean, got.moments.cov, got.baseline),
        (*want.params, want.moments.mean, want.moments.cov, want.baseline),
        strict=True,
    ):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def same_bytes(xs, ys):
    return all(
        x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(xs, ys, strict=True)
    )


@pytest.mark.parametrize("kind, fields", STACKED_CASES)
def test_rows_go_in_as_their_mixtures(kind, fields, tmp_path):
    cfg = RunConfig(stream=stacked_config(kind, fields, tmp_path), L=7)
    covs = daily_params(cfg.stream)[2]
    # a row skips the mixture's symmetrizing, which leaves an exactly symmetric stack as it is
    assert covs.tobytes() == np.swapaxes(covs, -1, -2).tobytes()
    params = [a[:60] for a in daily_params(cfg.stream)]
    targets = generate(cfg.stream)[:60]
    gm = targets[0]
    assert all(a is b for a, b in zip(tuple(gm), (gm.weights, gm.means, gm.covs), strict=True))
    prior = resolve_prior(cfg, gm.k, gm.d)
    state = new_memory(prior, gm, cfg.L)
    states = daily_states(cfg, params, prior)
    assert same_bytes(next(states).grid, state.grid)
    for row, target, got in zip(zip(*(a[1:] for a in params)), targets[1:], states, strict=True):
        assert same_bytes(add(state.grid, row), add(state.grid, target))
        state = incorporate(state, target)
        assert got.day == state.day and same_bytes(got.grid, state.grid)
    grid = state.grid
    stacks = (grid.weights, grid.means, grid.covs)
    assert all(a is b for a, b in zip(tuple(grid), stacks, strict=True))


@pytest.mark.parametrize(
    "kind", ["circular", "crowding", "embedded", "split_merge", "rotating_dominance"]
)
def test_generated_targets_are_read_only_c_ordered(kind):
    # the targets may be row views of one stacked array; none may be written through
    targets = generate(make_config(kind, n_days=100))
    for target in targets:
        for a in (target.weights, target.means, target.covs):
            assert a.flags.c_contiguous and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
            # nor through the stacked array a row view is cut from
            assert a.base is None or not a.base.flags.writeable
