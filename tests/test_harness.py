import json
import os
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import casmem.dynamics as dyn
import casmem.harness as harness
from casmem.cli import main as cli_main
from casmem.dynamics import PathSlice, integrate_sde
from casmem.errors import ConfigError, NumericalError
from casmem.gm import GaussianMixture, mixture_moments, stack_mixtures
from casmem.harness import (
    SWEEP_COLUMNS,
    RunConfig,
    build_final_state,
    capacity_diagnostics,
    export,
    fifo_baseline,
    resolve_prior,
    restore_state,
    run_experiment,
    snapshot_state,
    sweep,
)
from casmem.metrics import (
    RECORD_CSV_HEADER, RECORD_DTYPE, decomposed_forgetting, moment_gap, records_csv_lines,
)
from casmem.protocol import MemoryState, ProtocolGrid, stored_pairs
from casmem.streams import (
    KINDS, class_prior, daily_params, default_prior, generate, make_config, save_gm_file,
    synthetic_class_mixture,
)


def small_cfg(**kw):
    stream_kw = {"n_days": kw.pop("n_days", 15)}
    for key in ("d", "K", "P", "R", "nuisance", "speed", "seed", "cov_scale", "r"):
        if key in kw:
            stream_kw[key] = kw.pop(key)
    kind = kw.pop("kind", "circular")
    return RunConfig(stream=make_config(kind, **stream_kw), L=kw.pop("L", 5), **kw)


def write_cfg(tmp_path, name="cfg.json", **body):
    body.setdefault("stream", {"kind": "circular", "n_days": 15, "d": 2})
    body.setdefault("L", 5)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


# ---------------------------------------------------------------- priors


def test_resolve_prior_forms():
    cfg = small_cfg(kind="triangle")
    first = generate(cfg.stream)[0]
    std = resolve_prior(cfg, first.k, first.d)
    assert np.array_equal(std.means, np.zeros((3, 2)))
    assert resolve_prior(RunConfig(stream=cfg.stream, prior=None), first.k, first.d).k == 3

    explicit = default_prior(3, 2)
    assert resolve_prior(RunConfig(stream=cfg.stream, prior=explicit), first.k, first.d) is explicit

    point = resolve_prior(
        RunConfig(stream=cfg.stream, prior={"kind": "point", "x0": [1.0, 2.0], "var": 1e-10}),
        first.k,
        first.d,
    )
    assert np.allclose(point.means, [1.0, 2.0])
    assert np.allclose(point.covs[0], 1e-10 * np.eye(2))

    as_dict = resolve_prior(
        RunConfig(stream=cfg.stream, prior=explicit.to_dict()), first.k, first.d
    )
    assert np.array_equal(as_dict.means, explicit.means)

    with pytest.raises(ConfigError):
        resolve_prior(RunConfig(stream=cfg.stream, prior=default_prior(2, 2)), first.k, first.d)
    with pytest.raises(ConfigError):
        resolve_prior(RunConfig(stream=cfg.stream, prior=42), first.k, first.d)
    with pytest.raises(ConfigError):
        resolve_prior(
            RunConfig(stream=cfg.stream, prior={"kind": "point", "x0": [1.0, 2.0, 3.0]}),
            first.k,
            first.d,
        )


# ---------------------------------------------------------------- runs


def test_run_experiment_record_count_and_state():
    n = 15
    res = run_experiment(small_cfg(n_days=n))
    assert len(res.records) == n * (n + 1) // 2
    assert res.final_state.day == n
    assert res.summary["theta"] == 0.5
    assert res.half_life == res.summary["half_life"]


def test_run_is_deterministic_and_exports_are_byte_identical(tmp_path):
    cfg = small_cfg(n_days=12)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        export(run_experiment(cfg), str(out))
    for name in ("records.csv", "age_curve.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_age_0_recall_is_exact_on_rotating_dominance():
    # node L is the day's target bit for bit, so recall at age 0 scores exactly 0
    res = run_experiment(small_cfg(kind="rotating_dominance", d=4, n_days=40))
    age0 = res.records.F_raw[res.records.age == 0]
    assert len(age0) == 40 and np.all(age0 == 0.0)


def test_scores_do_not_depend_on_memory_layout():
    # synthetic_class_mixture builds Fortran-ordered means; mixtures store them C-ordered,
    # so a round trip through the JSON form (C-ordered lists) scores bit for bit the same
    prior = class_prior(synthetic_class_mixture(12, 3, seed=7))  # demo 04's prior
    assert prior.means.flags.c_contiguous
    stream = make_config("rotating_dominance", n_days=20)
    straight = run_experiment(RunConfig(stream=stream, prior=prior)).records
    copied = GaussianMixture.from_dict(prior.to_dict())
    round_trip = run_experiment(RunConfig(stream=stream, prior=copied)).records
    assert straight.tobytes() == round_trip.tobytes()


def test_export_schemas(tmp_path):
    res = run_experiment(small_cfg(n_days=10))
    written = export(res, str(tmp_path))
    assert [os.path.basename(w) for w in written] == [
        "records.csv",
        "age_curve.csv",
        "summary.json",
    ]
    lines = (tmp_path / "records.csv").read_text().splitlines()
    assert lines[0] == RECORD_CSV_HEADER
    assert len(lines) == 10 * 11 // 2 + 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert list(summary) == [
        "half_life",
        "theta",
        "max_Fbar",
        "mean_share",
        "cov_share",
        "weight_share",
    ]


def test_partial_flush_on_midrun_failure(tmp_path, monkeypatch):
    cfg = small_cfg(n_days=10, outputs=str(tmp_path))
    real = harness.incorporate
    calls = {"n": 0}

    def failing(state, target):
        calls["n"] += 1
        if calls["n"] > 2:  # days 1, 2 and 3 were made; day 4 fails
            raise RuntimeError("disk full")
        return real(state, target)

    monkeypatch.setattr(harness, "incorporate", failing)
    with pytest.raises(RuntimeError):
        run_experiment(cfg)
    partial = (tmp_path / "records.partial.csv").read_text().splitlines()
    assert partial[0] == RECORD_CSV_HEADER
    assert len(partial) == 1 + 3 * 4 // 2


def test_partial_flush_leaves_out_a_block_whose_scoring_fails(tmp_path, monkeypatch):
    cfg = small_cfg(n_days=10)
    full = records_csv_lines(run_experiment(cfg).records)
    real = harness.day_records
    calls = {"n": 0}

    def failing(states, targets):
        calls["n"] += 1
        if calls["n"] > 1:
            raise RuntimeError("out of memory")
        return real(states, targets)

    monkeypatch.setattr(harness, "BLOCK_PAIRS", 10)
    monkeypatch.setattr(harness, "day_records", failing)
    with pytest.raises(RuntimeError):
        run_experiment(replace(cfg, outputs=str(tmp_path)))
    partial = (tmp_path / "records.partial.csv").read_text().splitlines()
    # days 1-4 (10 pairs) made the first block; the failed second block is not retried
    assert calls["n"] == 2
    assert partial == full[:1] + [line for line in full[1:] if int(line.split(",")[1]) <= 4]


def test_scoring_blocks_close_at_the_pair_or_parameter_bound(monkeypatch):
    blocks = []
    real = harness.day_records

    def recording(states, targets):
        blocks.append([s.day for s in states])
        return real(states, targets)

    monkeypatch.setattr(harness, "day_records", recording)
    run_experiment(small_cfg(kind="embedded", d=16, n_days=40))
    # K = 3, d = 16: 819 parameters per pair, so the parameter bound closes blocks at 80 pairs
    limit = harness.BLOCK_PARAMS // (3 * (16 * 16 + 16 + 1))
    assert limit < harness.BLOCK_PAIRS
    assert [day for days in blocks for day in days] == list(range(1, 41))
    assert all(sum(days[:-1]) < limit for days in blocks)
    assert all(sum(days) >= limit for days in blocks[:-1])


def test_periodic_snapshots_written(tmp_path):
    cfg = small_cfg(n_days=9, outputs=str(tmp_path), snapshot_every=4)
    run_experiment(cfg)
    assert sorted(p.name for p in tmp_path.glob("snapshot_day*.json")) == [
        "snapshot_day0004.json",
        "snapshot_day0008.json",
    ]


# ---------------------------------------------------------------- sweeps


def test_sweep_rows_match_individual_runs():
    # long enough that every window length crosses the threshold
    cfg = small_cfg(n_days=40)
    res = sweep(cfg, "L", [3, 5, 8])
    for row in res.rows:
        solo = run_experiment(harness._apply_axis(cfg, "L", row["value"]))
        assert row["half_life"] == solo.half_life
        assert row["max_Fbar"] == solo.summary["max_Fbar"]
    assert res.fit is not None and "c" in res.fit and "t_star" in res.fit


def test_theta_sweep_runs_once(monkeypatch):
    # the records do not depend on theta: one run gives every point's row
    cfg = small_cfg(n_days=40)
    values = [0.2, 0.5, 0.8]
    solo = [run_experiment(replace(cfg, theta=value)).summary for value in values]
    runs = []
    real = harness.run_experiment
    monkeypatch.setattr(harness, "run_experiment", lambda point: runs.append(point) or real(point))
    rows = sweep(cfg, "theta", values).rows
    assert len(runs) == 1
    assert rows == [
        {"axis": "theta", "value": value, **{k: summary[k] for k in SWEEP_COLUMNS[2:]}}
        for value, summary in zip(values, solo)
    ]
    assert len({row["half_life"] for row in rows}) == 3
    # a bad theta is refused before anything runs
    runs.clear()
    with pytest.raises(ConfigError, match="theta"):
        sweep(cfg, "theta", [0.5, 1.5])
    assert runs == []


@pytest.mark.parametrize("kind, value, stream", [
    ("circular", 1, {"d": 4}),
    ("embedded", 3, {"d": 6, "r": 0.5}),
])
def test_k_sweep_point_keeps_the_config(kind, value, stream):
    # the K point keeps d, r and nuisance: it is the run of the same config at that K
    cfg = RunConfig(stream=make_config(kind, n_days=30, **stream), L=5)
    row = sweep(cfg, "K", [value]).rows[0]
    solo = run_experiment(cfg).summary
    for key in SWEEP_COLUMNS[2:]:
        assert row[key] == solo[key], key
    # a nuisance walk neither K family takes is refused, not swept without it
    walk = RunConfig(stream=make_config("embedded", n_days=30, nuisance="random_walk"), L=5)
    with pytest.raises(ConfigError, match="nuisance"):
        sweep(walk, "K", [value])


def test_apply_axis_dispatch():
    cfg = small_cfg(n_days=20)
    assert harness._apply_axis(cfg, "L", 7).L == 7
    assert harness._apply_axis(cfg, "theta", 0.3).theta == 0.3
    assert harness._apply_axis(cfg, "P", 25).stream.P == 25.0
    k1 = harness._apply_axis(cfg, "K", 1)
    assert k1.stream.kind == "circular"
    k3 = harness._apply_axis(cfg, "K", 3)
    assert k3.stream.kind == "crowding" and k3.stream.K == 3 and k3.stream.r == 0.8
    tri = RunConfig(stream=make_config("triangle", n_days=20, r=0.5))
    assert harness._apply_axis(tri, "K", 5).stream.r == 0.5
    with pytest.raises(ConfigError):
        harness._apply_axis(cfg, "colour", 1)
    # integer axes take integral values only, never a silent truncation
    assert harness._apply_axis(cfg, "L", 7.0).L == 7
    assert harness._apply_axis(cfg, "n_days", 12.0).stream.n_days == 12
    for axis, value in (("L", 2.5), ("K", 2.5), ("n_days", 20.7), ("seed", 0.5)):
        with pytest.raises(ConfigError):
            harness._apply_axis(cfg, axis, value)
    # an axis whose value is not a number cannot take a swept number
    for axis in ("path", "nuisance"):
        with pytest.raises(ConfigError, match="must be str"):
            harness._apply_axis(cfg, axis, 1)
    # a float field written as an integer is still a float field, and a bool is no number
    p50 = RunConfig(stream=make_config("circular", n_days=20, P=50))
    assert harness._apply_axis(p50, "P", 25.5).stream.P == 25.5
    for axis in ("L", "K", "P", "n_days", "seed"):
        with pytest.raises(ConfigError):
            harness._apply_axis(cfg, axis, True)
    # RunConfig checks its own fields, so a swept value is checked too
    with pytest.raises(ConfigError):
        sweep(cfg, "theta", [0.0])


def test_capacity_diagnostics_fit_and_guards():
    # exact line: a_half = 2.4 L + 6
    fit = capacity_diagnostics([5, 10, 20], [18.0, 30.0, 54.0])
    assert fit["c"] == pytest.approx(2.4)
    assert fit["t_star"] == pytest.approx(np.exp(-2.4))
    with pytest.raises(NumericalError):
        capacity_diagnostics([5, 10], [18.0, 30.0])
    with pytest.raises(NumericalError):
        capacity_diagnostics([5, 10, 20], [18.0, np.nan, 54.0])
    with pytest.raises(NumericalError):
        capacity_diagnostics([5, 5, 5], [18.0, 19.0, 20.0])


# ---------------------------------------------------------------- fifo


@pytest.mark.parametrize("L", [3, 5, 8])
def test_fifo_half_life_equals_window(L):
    res = fifo_baseline(small_cfg(n_days=30, L=L))
    assert res.half_life == L


def test_fifo_records_are_step_shaped():
    res = fifo_baseline(small_cfg(n_days=12, L=4))
    assert res.final_state is None  # a sliding window keeps no memory state
    for rec in res.records:
        if rec.age < 4:
            assert rec.F_raw == 0.0
        else:
            assert rec.F_norm == pytest.approx(1.0)


def per_pair_fifo_records(cfg):
    """Every stored (m, n) pair scored as a pair: day m below age L, the prior after."""
    targets = generate(cfg.stream)
    prior = resolve_prior(cfg, targets[0].k, targets[0].d)
    m, n = stored_pairs(np.arange(1, len(targets) + 1))
    recalled = stack_mixtures([targets[i - 1] if j - i < cfg.L else prior for i, j in zip(m, n)])
    originals = stack_mixtures([targets[i - 1] for i in m])
    orig = mixture_moments(*originals)
    rec = np.recarray(len(m), dtype=RECORD_DTYPE)
    rec.m, rec.n, rec.age = m, n, n - m
    rec.F_raw = moment_gap(mixture_moments(*recalled), orig)
    baseline = moment_gap(prior.overall_moments(), orig)
    rec.F_norm = np.divide(rec.F_raw, baseline, out=np.full(len(m), np.nan), where=baseline > 0.0)
    channels = decomposed_forgetting(recalled, originals) if prior.k > 1 else (np.nan,) * 3
    rec.F_mean, rec.F_cov, rec.F_weight = channels
    return rec


@pytest.mark.parametrize(
    "kind, extra",
    [
        ("circular", {}), ("triangle", {}), ("crowding", {"K": 8}), ("file", {}),
        ("embedded", {"d": 16}), ("rotating_dominance", {"d": 12}),
    ],
)
def test_fifo_records_equal_per_pair_scoring(tmp_path, kind, extra):
    if kind == "file":  # every day is the prior: every baseline is 0, every F_norm NaN
        path = tmp_path / "prior.json"
        save_gm_file(default_prior(2, 2), path)
        cfg = RunConfig(stream=make_config("file", path=str(path), n_days=20), L=4)
    else:
        cfg = small_cfg(kind=kind, n_days=40, L=6, **extra)
    got = fifo_baseline(cfg).records
    assert got.tobytes() == per_pair_fifo_records(cfg).tobytes()
    if kind == "file":
        assert np.isnan(got.F_norm).all()


# ---------------------------------------------------------------- stacked stream


def forbid_generate(monkeypatch):
    """Make streams.generate raise, through every casmem module that binds it."""

    def refuse(cfg):
        raise AssertionError("streams.generate was called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "casmem" and getattr(module, "generate", None) is generate:
            monkeypatch.setattr(module, "generate", refuse)


def run_path_outputs(cfg, cfg_path, out):
    """A CLI snapshot, a fresh, a restored and a FIFO run's records and the final grid, as bytes."""
    assert cli_main(["snapshot", "--config", cfg_path, "--day", "9", "--out", str(out)]) == 0
    snap = out / "snapshot_day0009.json"
    fresh = run_experiment(cfg).records
    restored = run_experiment(cfg, restore_state(cfg, str(snap))).records
    assert restored.tobytes() == fresh[fresh.n > 9].tobytes()
    grid = build_final_state(cfg).grid
    return [
        snap.read_bytes(), fresh.tobytes(), restored.tobytes(), fifo_baseline(cfg).records.tobytes(),
        grid.weights.tobytes(), grid.means.tobytes(), grid.covs.tobytes(),
    ]


def test_run_path_reads_the_stacks_not_generate(tmp_path, monkeypatch):
    cfg = small_cfg(kind="triangle", n_days=16)
    cfg_path = write_cfg(tmp_path, stream={"kind": "triangle", "n_days": 16})
    want = run_path_outputs(cfg, cfg_path, tmp_path / "before")
    forbid_generate(monkeypatch)
    with pytest.raises(AssertionError, match="generate was called"):
        sys.modules["casmem.streams"].generate(cfg.stream)
    assert run_path_outputs(cfg, cfg_path, tmp_path / "after") == want


def test_file_stream_days_are_one_broadcast_mixture(tmp_path, monkeypatch):
    gm = synthetic_class_mixture(d=16, k=4, seed=3)
    save_gm_file(gm, tmp_path / "mix.json")
    stream = make_config("file", path=str(tmp_path / "mix.json"), n_days=500)
    tracemalloc.start()
    params = daily_params(stream)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    for got, want in zip(params, (gm.weights, gm.means, gm.covs), strict=True):
        # every day is the loaded mixture's one block, read-only
        assert got.shape == (500, *want.shape) and got.strides[0] == 0
        assert got[0].tobytes() == want.tobytes() and not got.flags.writeable
    # so building 500 days allocates less than a tenth of one (n, K, d, d) stack
    assert peak < params[2].size * params[2].itemsize // 10
    # and a run, FIFO or sweep on a file stream builds no per-day mixture list
    forbid_generate(monkeypatch)
    cfg = RunConfig(stream=replace(stream, n_days=40), L=5)
    assert len(run_experiment(cfg).records) == len(fifo_baseline(cfg).records) == 820
    assert [row["value"] for row in sweep(cfg, "L", [4, 6]).rows] == [4, 6]


@pytest.mark.parametrize("kind, K", [("circular", 1), ("crowding", 5)])
def test_runs_build_no_mixture_per_day(kind, K, tmp_path, monkeypatch):
    built, resolved = [0], [0]
    post_init, resolve = GaussianMixture.__post_init__, harness.resolve_prior

    def counted(self):
        built[0] += 1
        post_init(self)

    def counted_resolve(*args):
        resolved[0] += 1
        return resolve(*args)

    monkeypatch.setattr(GaussianMixture, "__post_init__", counted)
    monkeypatch.setattr(harness, "resolve_prior", counted_resolve)

    def snapshot(cfg):
        stream = {"kind": kind, "K": K, "n_days": cfg.stream.n_days}
        path = write_cfg(tmp_path, stream=stream, L=cfg.L)
        day = str(cfg.stream.n_days)
        assert cli_main(["snapshot", "--config", path, "--day", day, "--out", str(tmp_path)]) == 0

    for run in (run_experiment, fifo_baseline, build_final_state, snapshot):
        for L, n_days in ((5, 30), (20, 60)):
            built[0] = resolved[0] = 0
            run(small_cfg(kind=kind, K=K, n_days=n_days, L=L))
            # the one mixture built is the prior, resolved once: no per-day or per-node mixture
            assert (built[0], resolved[0]) == (1, 1), (run.__name__, L, built[0], resolved[0])


def old_snapshot_bytes(cfg, state):
    """The snapshot file as written through one GaussianMixture per node and one for the prior."""
    data = {
        "schema_version": harness.SNAPSHOT_SCHEMA_VERSION,
        "L": state.grid.L,
        "day": state.day,
        "prior": state.prior.to_dict(),
        "stream": harness._stream_fingerprint(cfg.stream),
        "nodes": [GaussianMixture(*node).to_dict() for node in zip(*state.grid)],
    }
    return (json.dumps(data) + "\n").encode()


def assert_snapshot_writes_node_mixtures(cfg, state, directory):
    path = snapshot_state(cfg, state, str(directory))
    assert Path(path).read_bytes() == old_snapshot_bytes(cfg, state)


@pytest.mark.parametrize("L", [1, 10])
@pytest.mark.parametrize("kind", KINDS)
def test_snapshot_bytes_equal_the_per_node_mixture_form(kind, L, tmp_path):
    stream = {"nuisance": "random_walk", "seed": 3} if kind == "embedded" else {}
    if kind == "file":
        save_gm_file(synthetic_class_mixture(d=4, k=2, seed=5), tmp_path / "mix.json")
        stream["path"] = str(tmp_path / "mix.json")
    cfg = RunConfig(stream=make_config(kind, **stream), L=L)
    params = [a[:12] for a in daily_params(cfg.stream)]
    k, d = params[1].shape[1:]
    point = {"kind": "point", "x0": [-0.0] + [0.5] * (d - 1), "var": 0.25}
    for prior in ("standard", point):
        run = replace(cfg, prior=prior)
        for state in harness.daily_states(run, params, resolve_prior(run, k, d)):
            assert_snapshot_writes_node_mixtures(run, state, tmp_path)


def test_snapshot_bytes_of_restored_and_hand_built_states(tmp_path):
    cfg = small_cfg(kind="triangle", n_days=20, L=6)
    restored = restore_state(cfg, snapshot_file(cfg, 9, tmp_path))
    for state in harness.daily_states(cfg, daily_params(cfg.stream), None, restored):
        assert_snapshot_writes_node_mixtures(cfg, state, tmp_path)
    # a grid built by hand may hold negative zeros and covariances asymmetric in the last bits
    w, m, c = (a.copy() for a in build_final_state(cfg).grid)
    m[:, 0, 0] = -0.0
    c[..., 0, 1] += 1e-12
    grid = ProtocolGrid(w, m, c)
    assert not np.array_equal(grid.covs, np.swapaxes(grid.covs, -1, -2))
    assert_snapshot_writes_node_mixtures(cfg, MemoryState(grid, 20), tmp_path)
    assert "-0.0" in (tmp_path / "snapshot_day0020.json").read_text()


# ---------------------------------------------------------------- snapshots


def test_snapshot_restore_resume_bisimulation(tmp_path):
    cfg = small_cfg(n_days=18)
    full = run_experiment(cfg)
    mid = small_cfg(n_days=10)
    mid_state = build_final_state(mid)
    path = snapshot_state(mid, mid_state, str(tmp_path))
    assert path == str(tmp_path / "snapshot_day0010.json")
    resumed = run_experiment(cfg, restore_state(cfg, path))
    assert resumed.final_state.day == 18
    full_rows = {(r.m, r.n): r for r in full.records}
    for rec in resumed.records:
        assert rec.n > 10
        ref = full_rows[(rec.m, rec.n)]
        assert np.array_equal(rec.tolist(), ref.tolist(), equal_nan=True)
    assert np.array_equal(resumed.final_state.grid.means, full.final_state.grid.means)
    assert np.array_equal(resumed.final_state.grid.covs, full.final_state.grid.covs)


def snapshot_file(cfg, day, directory):
    """Run cfg's stream to the given day and save the state as a snapshot file in directory."""
    short = replace(cfg, stream=replace(cfg.stream, n_days=day), outputs=None)
    return snapshot_state(short, build_final_state(short), str(directory))


def test_resumed_run_writes_the_periodic_snapshots_of_a_straight_run(tmp_path):
    straight = tmp_path / "straight"
    cfg = small_cfg(kind="triangle", n_days=30, L=6, snapshot_every=7)
    run_experiment(replace(cfg, outputs=str(straight)))
    path = snapshot_file(cfg, 12, tmp_path)
    # a schema-v2 file records no stream; the snapshots written after it record the config's
    v2 = {key: value for key, value in json.loads(Path(path).read_text()).items() if key != "stream"}
    v2_path = tmp_path / "v2.json"
    v2_path.write_text(json.dumps(dict(v2, schema_version=2)))
    for source, out in ((path, tmp_path / "resumed"), (v2_path, tmp_path / "resumed_v2")):
        run_experiment(replace(cfg, outputs=str(out)), restore_state(cfg, str(source)))
        names = sorted(p.name for p in out.glob("snapshot_day*.json"))
        assert names == ["snapshot_day0014.json", "snapshot_day0021.json", "snapshot_day0028.json"]
        for name in names:
            assert (out / name).read_bytes() == (straight / name).read_bytes()


def test_partial_flush_on_resumed_midrun_failure(tmp_path, monkeypatch):
    cfg = small_cfg(n_days=16)
    full = records_csv_lines(run_experiment(cfg).records)
    state = restore_state(cfg, snapshot_file(cfg, 10, tmp_path))
    real = harness.incorporate
    calls = {"n": 0}

    def failing(state, target):
        calls["n"] += 1
        if calls["n"] > 3:
            raise RuntimeError("disk full")
        return real(state, target)

    monkeypatch.setattr(harness, "incorporate", failing)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        run_experiment(replace(cfg, outputs=str(out)), state)
    partial = (out / "records.partial.csv").read_text().splitlines()
    # days 11, 12 and 13 were made before the failure
    assert partial == full[:1] + [line for line in full[1:] if line.split(",")[1] in ("11", "12", "13")]
    assert len(partial) == 1 + 11 + 12 + 13


def test_restore_rejects_garbage(tmp_path):
    tri = small_cfg(kind="triangle")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        restore_state(tri, str(bad))
    path = snapshot_file(tri, 6, tmp_path)
    assert restore_state(tri, path).day == 6
    good = json.loads((tmp_path / "snapshot_day0006.json").read_text())
    bad_weights, non_pd, moved = (json.loads(json.dumps(good)) for _ in range(3))
    bad_weights["nodes"][2]["weights"] = [1.5, -0.25, -0.25]
    non_pd["nodes"][3]["covs"][0] = [[0.0, 1.0], [1.0, 0.0]]  # eigenvalues -1 and 1
    # replay reads node 0 as the prior, so it must equal the recorded prior
    moved["nodes"][0]["means"][0] = [0.5, -0.5]
    garbage = [
        [1, 2],
        {key: value for key, value in good.items() if key != "day"},
        {key: value for key, value in good.items() if key != "nodes"},
        {**good, "day": 0},
        bad_weights,
        non_pd,
        {**good, "prior": {**good["prior"], "weights": [0.5, 0.5, 0.5]}},
        moved,
        # L and day are integers as config fields are: no fractions, strings, bools or Infinity
        {**good, "day": 5.9},
        {**good, "day": "6"},
        {**good, "day": True},
        {**good, "day": float("inf")},
        {**good, "L": 5.5},
        {**good, "L": "5"},
        {**good, "nodes": 5},
        {**good, "schema_version": True},
        {**good, "schema_version": 3.0},
        # the stream is an object or null
        {**good, "stream": 5},
        {**good, "stream": [1]},
        {**good, "stream": "x"},
        # another stream config
        {**good, "stream": {**good["stream"], "P": 20.0}},
    ]
    for i, data in enumerate(garbage):
        path = tmp_path / f"garbage{i}.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            restore_state(tri, str(path))
    for path in (tmp_path / "absent.json", tmp_path):
        with pytest.raises(ConfigError):
            restore_state(tri, str(path))
    # a v3 snapshot with a null stream, as v1 and v2 files, is not compared
    null_stream = tmp_path / "null_stream.json"
    null_stream.write_text(json.dumps({**good, "stream": None}))
    assert restore_state(small_cfg(kind="triangle", P=20.0), str(null_stream)).day == 6
    cfg = small_cfg(n_days=5)
    state = build_final_state(small_cfg(n_days=8))
    with pytest.raises(ConfigError):
        run_experiment(cfg, state)  # snapshot is past the end of the stream


def test_build_final_state_refuses_days_outside_the_stream():
    cfg = small_cfg(n_days=8)
    for days in (0, -5, 9):
        with pytest.raises(ConfigError, match=r"days must lie in \[1, 8\]"):
            build_final_state(cfg, days)
    assert [build_final_state(cfg, days).day for days in (1, 8, None)] == [1, 8, 8]


def test_build_final_state_refuses_days_that_are_no_int():
    # check_value's rule: a bool is no number, and a float or a string is no int
    cfg = small_cfg(n_days=8)
    for days in (True, 5.0, "5"):
        with pytest.raises(ConfigError, match=r"days must be int \| None"):
            build_final_state(cfg, days)
    assert build_final_state(cfg, np.int64(5)).day == 5


# ---------------------------------------------------------------- CLI


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["half_life"] is not None
    assert (out / "records.csv").exists()
    assert (out / "age_curve.csv").exists()
    assert json.loads((out / "summary.json").read_text())["theta"] == 0.5


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, L=5, theta=0.5, stream={"kind": "circular", "n_days": 40})
    assert cli_main(["run", "--config", cfg]) == 0
    base = json.loads(capsys.readouterr().out)
    assert cli_main(["run", "--config", cfg, "--L", "8"]) == 0
    bumped = json.loads(capsys.readouterr().out)
    assert bumped["half_life"] > base["half_life"]
    assert cli_main(["run", "--config", cfg, "--theta", "0.2"]) == 0
    assert json.loads(capsys.readouterr().out)["theta"] == 0.2


def test_cli_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nothere.json")
    assert cli_main(["run", "--config", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert cli_main(["run", "--config", str(bad)]) == 2
    no_stream = tmp_path / "nostream.json"
    no_stream.write_text(json.dumps({"L": 5}))
    assert cli_main(["run", "--config", str(no_stream)]) == 2
    bad_kind = write_cfg(tmp_path, "kind.json", stream={"kind": "wobble"})
    assert cli_main(["run", "--config", bad_kind]) == 2
    bad_field = write_cfg(tmp_path, "field.json", stream={"kind": "circular", "radius": 2})
    assert cli_main(["run", "--config", bad_field]) == 2
    bad_theta = write_cfg(tmp_path, "theta.json", theta=1.5)
    assert cli_main(["run", "--config", bad_theta]) == 2
    for every in (-5, 0):
        bad_snap = write_cfg(tmp_path, f"snap{every}.json", snapshot_every=every)
        assert cli_main(["run", "--config", bad_snap, "--out", str(tmp_path / "o")]) == 2
    good = write_cfg(tmp_path, "good.json")
    assert cli_main(["run", "--config", good, "--snapshot-every", "-2"]) == 2
    assert cli_main(["sweep", "--config", good, "--axis", "theta", "--values", "0,1.5"]) == 2
    assert not (tmp_path / "o").exists()
    # bad input files: each is refused as a config error, never a traceback
    capsys.readouterr()
    assert cli_main(["run", "--config", write_cfg(tmp_path, "L.json", L=2.5)]) == 2
    no_file = write_cfg(tmp_path, "file.json", stream={"kind": "file", "path": missing})
    assert cli_main(["run", "--config", no_file]) == 2
    tri = write_cfg(tmp_path, "tri.json", stream={"kind": "triangle", "n_days": 15})
    assert cli_main(["snapshot", "--config", tri, "--day", "6", "--out", str(tmp_path)]) == 0
    snap = json.loads((tmp_path / "snapshot_day0006.json").read_text())
    bad_weights, non_pd, moved = (json.loads(json.dumps(snap)) for _ in range(3))
    bad_weights["nodes"][2]["weights"] = [1.5, -0.25, -0.25]
    non_pd["nodes"][3]["covs"][0] = [[0.0, 1.0], [1.0, 0.0]]
    moved["nodes"][0]["means"][0] = [0.5, -0.5]  # node 0 no longer equals the prior
    no_day = {key: value for key, value in snap.items() if key != "day"}
    # L and day are typed as config fields are; the stream is an object or null
    mistyped = [{**snap, "day": 15.9}, {**snap, "day": "15"}, {**snap, "day": float("inf")},
                {**snap, "L": 5.5}, {**snap, "stream": 5}, {**snap, "stream": [1]},
                {**snap, "stream": "x"}]
    states = [missing, str(tmp_path)]
    for i, data in enumerate([[snap], no_day, bad_weights, non_pd, moved, *mistyped]):
        states.append(str(tmp_path / f"state{i}.json"))
        (tmp_path / f"state{i}.json").write_text(json.dumps(data))
    for state in states:
        assert cli_main(["restore", "--config", tri, "--state", state]) == 2
    # stream sections outside their limits, with values their fields refuse, or without a kind
    streams = [{"kind": "circular", "K": 4}, {"kind": "circular", "K": 0},
               {"kind": "rotating_dominance", "K": 0}, {"kind": "embedded", "K": 0},
               {"n_days": 15}, {"kind": "circular", "P": 0}, {"kind": "circular", "P": "abc"},
               {"kind": "circular", "R": None}, {"kind": "circular", "R": float("nan")},
               {"kind": "circular", "A": "x"}, {"kind": "circular", "cov_scale": 0},
               {"kind": "circular", "cov_scale": -1}, {"kind": "circular", "n_days": True},
               {"kind": "file", "path": 0}]
    for i, stream in enumerate(streams):
        assert cli_main(["run", "--config", write_cfg(tmp_path, f"s{i}.json", stream=stream)]) == 2
    # point priors without a positive variance; a mixture keeps its component axis, a lone one too
    priors = [{"kind": "point", "x0": [0.0, 0.0], "var": var} for var in (0, -1)]
    priors.append({"weights": [1.0], "means": [0.0, 0.0], "covs": [[1.0, 0.0], [0.0, 1.0]]})
    for prior in priors:
        assert cli_main(["run", "--config", write_cfg(tmp_path, "prior.json", prior=prior)]) == 2
    flags = [["sweep", "--axis", "path", "--values", "1"], ["sweep", "--axis", "L", "--values", ","],
             ["drift-check", "--t", "abc"], ["drift-check", "--t", ","]]
    for args in flags:
        assert cli_main([*args, "--config", good]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 + len(states) + len(streams) + len(priors) + len(flags)
    assert all(line.startswith("config error:") for line in err)
    # run settings, the seed and point priors take numbers, never bools or strings
    bodies = [{"L": True}, {"snapshot_every": True}, {"seed": True},
              {"prior": {"kind": "point", "x0": ["0", "1"], "var": "0.5"}},
              {"prior": {"kind": "point", "x0": [0.0, 0.0], "var": True}}]
    for i, body in enumerate(bodies):
        assert cli_main(["run", "--config", write_cfg(tmp_path, f"b{i}.json", **body)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(bodies) and all(line.startswith("config error:") for line in err)


def test_cli_unwritable_output_exits_2(tmp_path, capsys):
    # --out names an existing file, so no result file can be made under it
    cfg = write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("keep me")
    assert cli_main(["run", "--config", cfg, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write") and str(taken) in err
    assert taken.read_text() == "keep me"


def test_cli_rejects_unknown_config_keys(tmp_path, capsys):
    misspelt = write_cfg(tmp_path, snapshot_evry=3)
    assert cli_main(["run", "--config", misspelt]) == 2
    assert "snapshot_evry" in capsys.readouterr().err
    assert cli_main(["sweep", "--config", misspelt, "--axis", "L", "--values", "3"]) == 2


def test_cli_requires_seed_for_random_streams(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        stream={"kind": "embedded", "d": 4, "n_days": 12, "nuisance": "random_walk"},
    )
    assert cli_main(["run", "--config", cfg]) == 2
    capsys.readouterr()
    assert cli_main(["run", "--config", cfg, "--seed", "3"]) == 0
    capsys.readouterr()
    seeded = write_cfg(
        tmp_path,
        "seeded.json",
        stream={"kind": "embedded", "d": 4, "n_days": 12, "nuisance": "random_walk"},
        seed=3,
    )
    assert cli_main(["run", "--config", seeded]) == 0


def test_cli_numerical_failures_exit_3(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    monkeypatch.setattr(
        "casmem.cli.run_experiment",
        lambda _cfg: (_ for _ in ()).throw(NumericalError("quadrature stalled")),
    )
    assert cli_main(["run", "--config", cfg]) == 3
    # LinAlgError is a ValueError, but a failed factorization is numerical, not a config error
    monkeypatch.setattr(
        "casmem.cli.run_experiment",
        lambda _cfg: (_ for _ in ()).throw(np.linalg.LinAlgError("not positive definite")),
    )
    assert cli_main(["run", "--config", cfg]) == 3


def test_cli_sweep_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, stream={"kind": "circular", "n_days": 40})
    out = tmp_path / "sw"
    assert cli_main(
        ["sweep", "--config", cfg, "--axis", "L", "--values", "3,5,8", "--out", str(out)]
    ) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("axis,value,half_life")
    assert len(lines) == 4
    fit = json.loads((out / "fit.json").read_text())
    assert set(fit) == {"c", "t_star"}
    assert cli_main(["sweep", "--config", cfg, "--axis", "L", "--values", "x,y"]) == 2
    assert cli_main(["sweep", "--config", cfg, "--axis", "colour", "--values", "1,2,3"]) == 2
    assert cli_main(["sweep", "--config", cfg, "--axis", "L", "--values", "2.5"]) == 2
    assert cli_main(["sweep", "--config", cfg, "--axis", "n_days", "--values", "20.7"]) == 2
    # a sweep writes its table and fit only, never its points' periodic snapshots
    stream = {"kind": "circular", "n_days": 40}
    snap = write_cfg(tmp_path, "snap.json", stream=stream, snapshot_every=10)
    out = tmp_path / "sw_snap"
    assert cli_main(
        ["sweep", "--config", snap, "--axis", "L", "--values", "3,5,8", "--out", str(out)]
    ) == 0
    assert sorted(p.name for p in out.iterdir()) == ["fit.json", "sweep.csv"]
    # --values are JSON numbers: "P": 50 is a float field, and a bool is no number
    p50 = write_cfg(tmp_path, "p50.json", stream={"kind": "circular", "n_days": 40, "P": 50})
    assert cli_main(["sweep", "--config", p50, "--axis", "P", "--values", "25.5,40"]) == 0
    assert cli_main(["sweep", "--config", cfg, "--axis", "L", "--values", "true"]) == 2


def test_cli_movie_and_trajectories(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "mv"
    code = cli_main(
        ["movie", "--config", cfg, "--frames", "4", "--paths", "5", "--steps", "20",
         "--out", str(out)]
    )
    assert code == 0
    frames = json.loads((out / "frames.json").read_text())
    assert len(frames) == 4
    assert set(frames[0]) == {"weights", "means", "covs"}
    rows = (out / "trajectories.csv").read_text().splitlines()
    assert rows[0] == "path_id,step,t,x_0,x_1"
    assert len(rows) == 1 + 5 * 21
    first = rows[1].split(",")
    assert first[0] == "0" and first[1] == "0" and float(first[2]) == 0.0
    assert cli_main(["movie", "--config", cfg, "--frames", "1"]) == 2
    # the config seed and --seed are one setting: both seed the stream and the SDE
    seeded = write_cfg(tmp_path, "seeded.json", seed=5)
    for name, argv in (("flag", [cfg, "--seed", "5"]), ("file", [seeded])):
        assert cli_main(
            ["movie", "--config", *argv, "--frames", "4", "--paths", "5", "--steps", "20",
             "--out", str(tmp_path / name)]
        ) == 0
    for name in ("frames.json", "trajectories.csv"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()
    by_file = (tmp_path / "file" / "trajectories.csv").read_bytes()
    assert by_file != (out / "trajectories.csv").read_bytes()
    # constant weights: every log-weight is 0, and no log_weights.csv is written
    assert sorted(p.name for p in out.iterdir()) == ["frames.json", "trajectories.csv"]


def test_cli_movie_writes_log_weights_when_weights_move(tmp_path, capsys):
    stream = {"kind": "rotating_dominance", "n_days": 12, "d": 3}
    cfg = write_cfg(tmp_path, stream=stream, L=4)
    out = tmp_path / "mv"
    argv = ["movie", "--config", cfg, "--frames", "3", "--paths", "4", "--steps", "10"]
    assert cli_main([*argv, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {"paths": 4, "diverged": 0}
    rows = (out / "log_weights.csv").read_text().splitlines()
    assert rows[0] == "path_id,step,t,log_w" and len(rows) == 1 + 4 * 11
    # the rows follow trajectories.csv's (path_id, step, t) and hold each path's log_weight
    paths = (out / "trajectories.csv").read_text().splitlines()
    assert [r.rsplit(",", 1)[0] for r in rows[1:]] == [",".join(r.split(",")[:3]) for r in paths[1:]]
    grid = build_final_state(small_cfg(kind="rotating_dominance", n_days=12, d=3, L=4)).grid
    want = [w for tr in integrate_sde(grid, 4, 10, seed=0) for w in tr.log_weight]
    assert [float(r.rsplit(",", 1)[1]) for r in rows[1:]] == want
    assert want[0] == 0.0 and any(w != 0.0 for w in want)


def test_cli_drift_check(tmp_path, capsys):
    cfg = write_cfg(tmp_path, stream={"kind": "circular", "n_days": 12}, L=4)
    out = tmp_path / "dc"
    code = cli_main(
        ["drift-check", "--config", cfg, "--t", "0.3,0.6", "--points", "10", "--out", str(out)]
    )
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["times"] == [0.3, 0.6]
    assert stats["max_residual"] < 1e-3
    assert json.loads((out / "drift_check.json").read_text()) == stats
    # node-aligned time must be rejected as a config error
    assert cli_main(["drift-check", "--config", cfg, "--t", "0.5", "--points", "5"]) == 2
    # the config seed and --seed are one setting: both seed the bulk points
    seeded = write_cfg(
        tmp_path, "seeded.json", stream={"kind": "circular", "n_days": 12}, L=4, seed=5
    )
    for name, argv in (("flag", [cfg, "--seed", "5"]), ("file", [seeded])):
        assert cli_main(
            ["drift-check", "--config", *argv, "--t", "0.3,0.6", "--points", "10",
             "--out", str(tmp_path / name)]
        ) == 0
    by_flag = (tmp_path / "flag" / "drift_check.json").read_bytes()
    assert by_flag == (tmp_path / "file" / "drift_check.json").read_bytes()
    assert by_flag != (out / "drift_check.json").read_bytes()


def rounded_weights_cfg(tmp_path):
    """A config whose prior and target weights agree up to rounding (K = 2, d = 2, 3 days, L = 4).

    Each sums to 1 within SIMPLEX_TOL, in opposite directions, so the L-scaled weight rates
    sum to about -2.8e-12: rounding, not a rate that creates mass.
    """
    means, covs = [[0.0, 0.0], [1.0, 0.0]], [np.eye(2).tolist()] * 2
    prior = {"weights": [0.5, 0.5 + 9e-13], "means": means, "covs": covs}
    target = GaussianMixture(np.array([0.5, 0.5 - 9e-13]), np.array(means), np.array(covs))
    path = tmp_path / "target.json"
    save_gm_file(target, path)
    stream = {"kind": "file", "path": str(path), "n_days": 3, "K": 2, "d": 2}
    return write_cfg(tmp_path, stream=stream, L=4, prior=prior)


def test_cli_paths_accept_weights_on_the_simplex_within_its_tolerance(tmp_path):
    cfg = rounded_weights_cfg(tmp_path)
    out = str(tmp_path / "o")
    assert cli_main(["run", "--config", cfg]) == 0
    assert cli_main(["movie", "--config", cfg, "--frames", "3", "--paths", "5", "--steps", "10",
                     "--out", out]) == 0
    assert cli_main(["drift-check", "--config", cfg, "--t", "0.3", "--points", "10"]) == 0
    with pytest.raises(ValueError, match="sum to zero"):
        PathSlice(default_prior(2, 2), np.array([0.5, 0.1]), np.zeros((2, 2)), np.zeros((2, 2, 2)))


def test_cli_paths_hold_weights_constant_under_simplex_rounding(tmp_path, monkeypatch):
    # rates of about 7e-12 in absolute value are rounding: no log-weights, no Poisson term
    cfg = rounded_weights_cfg(tmp_path)
    quadratures = []
    psi_terms = dyn._psi_terms
    monkeypatch.setattr(dyn, "_psi_terms", lambda *args: quadratures.append(1) or psi_terms(*args))
    out = tmp_path / "o"
    assert cli_main(["movie", "--config", cfg, "--frames", "3", "--paths", "5", "--steps", "10",
                     "--out", str(out)]) == 0
    assert (out / "trajectories.csv").is_file() and not (out / "log_weights.csv").exists()
    assert cli_main(["drift-check", "--config", cfg, "--t", "0.3", "--points", "10"]) == 0
    assert quadratures == []


def test_cli_fifo(tmp_path, capsys):
    cfg = write_cfg(tmp_path, stream={"kind": "circular", "n_days": 20}, L=6)
    assert cli_main(["fifo", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["half_life"] == 6


def test_cli_snapshot_restore_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path, stream={"kind": "circular", "n_days": 16})
    state_dir = tmp_path / "state"
    assert cli_main(["snapshot", "--config", cfg, "--day", "9", "--out", str(state_dir)]) == 0
    snap = state_dir / "snapshot_day0009.json"
    assert json.loads(capsys.readouterr().out) == {"day": 9, "path": str(snap)}
    assert snap.exists()
    out = tmp_path / "resumed"
    code = cli_main(["restore", "--config", cfg, "--state", str(snap), "--out", str(out)])
    assert code == 0
    rows = (out / "records.csv").read_text().splitlines()
    assert all(int(line.split(",")[1]) > 9 for line in rows[1:])
    assert cli_main(["snapshot", "--config", cfg, "--day", "40", "--out", str(state_dir)]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text(json.dumps({"schema_version": 42}))
    assert cli_main(["restore", "--config", cfg, "--state", str(garbled)]) == 2


def test_cli_restore_refuses_other_config(tmp_path, capsys):
    # a snapshot resumed under another L or prior would report that config's
    # numbers for a different memory, so restore refuses it
    cfg = write_cfg(tmp_path, L=10, stream={"kind": "circular", "n_days": 40})
    state_dir = tmp_path / "state"
    assert cli_main(["snapshot", "--config", cfg, "--day", "10", "--out", str(state_dir)]) == 0
    snap = str(state_dir / "snapshot_day0010.json")
    capsys.readouterr()
    assert cli_main(["restore", "--config", cfg, "--state", snap]) == 0
    capsys.readouterr()
    other_L = write_cfg(tmp_path, "L20.json", L=20, stream={"kind": "circular", "n_days": 40})
    assert cli_main(["restore", "--config", other_L, "--state", snap]) == 2
    assert "L = 10" in capsys.readouterr().err
    point = {"kind": "point", "x0": [0.0, 0.0], "var": 0.5}
    other_prior = write_cfg(
        tmp_path, "prior.json", L=10, prior=point, stream={"kind": "circular", "n_days": 40}
    )
    assert cli_main(["restore", "--config", other_prior, "--state", snap]) == 2
    assert "prior" in capsys.readouterr().err
    # same L and prior, another stream: a P = 50 memory resumed under P = 20
    p50 = write_cfg(tmp_path, "p50.json", L=10, stream={"kind": "circular", "n_days": 60, "P": 50})
    p20 = write_cfg(tmp_path, "p20.json", L=10, stream={"kind": "circular", "n_days": 60, "P": 20})
    assert cli_main(["snapshot", "--config", p50, "--day", "30", "--out", str(state_dir)]) == 0
    snap = state_dir / "snapshot_day0030.json"
    capsys.readouterr()
    assert cli_main(["restore", "--config", p20, "--state", str(snap)]) == 2
    assert "['P']" in capsys.readouterr().err
    # a schema-v2 snapshot carries no stream config and still restores
    v2 = json.loads(snap.read_text())
    del v2["stream"]
    snap.write_text(json.dumps(dict(v2, schema_version=2)))
    assert cli_main(["restore", "--config", p50, "--state", str(snap)]) == 0
