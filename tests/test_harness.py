import json
import os
from dataclasses import replace

import numpy as np
import pytest

import casmem.harness as harness
from casmem.cli import main as cli_main
from casmem.errors import ConfigError, NumericalError
from casmem.gm import GaussianMixture
from casmem.harness import (
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
from casmem.metrics import RECORD_CSV_HEADER, records_csv_lines
from casmem.streams import default_prior, generate, make_config


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
    std = resolve_prior(cfg, first)
    assert np.array_equal(std.means, np.zeros((3, 2)))
    assert resolve_prior(RunConfig(stream=cfg.stream, prior=None), first).k == 3

    explicit = default_prior(3, 2)
    assert resolve_prior(RunConfig(stream=cfg.stream, prior=explicit), first) is explicit

    point = resolve_prior(
        RunConfig(stream=cfg.stream, prior={"kind": "point", "x0": [1.0, 2.0], "var": 1e-10}),
        first,
    )
    assert np.allclose(point.means, [1.0, 2.0])
    assert np.allclose(point.covs[0], 1e-10 * np.eye(2))

    as_dict = resolve_prior(RunConfig(stream=cfg.stream, prior=explicit.to_dict()), first)
    assert np.array_equal(as_dict.means, explicit.means)

    with pytest.raises(ConfigError):
        resolve_prior(RunConfig(stream=cfg.stream, prior=default_prior(2, 2)), first)
    with pytest.raises(ConfigError):
        resolve_prior(RunConfig(stream=cfg.stream, prior=42), first)
    with pytest.raises(ConfigError):
        resolve_prior(
            RunConfig(stream=cfg.stream, prior={"kind": "point", "x0": [1.0, 2.0, 3.0]}), first
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


def test_apply_axis_dispatch():
    cfg = small_cfg(n_days=20)
    assert harness._apply_axis(cfg, "L", "7").L == 7
    assert harness._apply_axis(cfg, "theta", 0.3).theta == 0.3
    assert harness._apply_axis(cfg, "P", "25").stream.P == 25.0
    k1 = harness._apply_axis(cfg, "K", 1)
    assert k1.stream.kind == "circular"
    k3 = harness._apply_axis(cfg, "K", 3)
    assert k3.stream.kind == "crowding" and k3.stream.K == 3 and k3.stream.r == 0.8
    tri = RunConfig(stream=make_config("triangle", n_days=20, r=0.5))
    assert harness._apply_axis(tri, "K", 5).stream.r == 0.5
    with pytest.raises(ConfigError):
        harness._apply_axis(cfg, "colour", 1)
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
    for rec in res.records:
        if rec.age < 4:
            assert rec.F_raw == 0.0
        else:
            assert rec.F_norm == pytest.approx(1.0)


# ---------------------------------------------------------------- snapshots


def test_snapshot_restore_resume_bisimulation(tmp_path):
    cfg = small_cfg(n_days=18)
    full = run_experiment(cfg)
    mid = small_cfg(n_days=10)
    mid_state = build_final_state(mid)
    path = tmp_path / "state.json"
    snapshot_state(mid_state, str(path))
    resumed = run_experiment(cfg, restore_state(str(path)))
    assert resumed.final_state.day == 18
    full_rows = {(r.m, r.n): r for r in full.records}
    for rec in resumed.records:
        assert rec.n > 10
        ref = full_rows[(rec.m, rec.n)]
        assert np.array_equal(rec.tolist(), ref.tolist(), equal_nan=True)
    assert np.array_equal(resumed.final_state.grid.means, full.final_state.grid.means)
    assert np.array_equal(resumed.final_state.grid.covs, full.final_state.grid.covs)


def snapshot_file(cfg, day, path):
    """Run cfg's stream to the given day and save the state as a snapshot file."""
    short = replace(cfg, stream=replace(cfg.stream, n_days=day), outputs=None)
    snapshot_state(build_final_state(short), str(path))
    return str(path)


def test_resumed_run_writes_the_periodic_snapshots_of_a_straight_run(tmp_path):
    straight, resumed = tmp_path / "straight", tmp_path / "resumed"
    cfg = small_cfg(kind="triangle", n_days=30, L=6, snapshot_every=7)
    run_experiment(replace(cfg, outputs=str(straight)))
    state = restore_state(snapshot_file(cfg, 12, tmp_path / "day12.json"))
    run_experiment(replace(cfg, outputs=str(resumed)), state)
    names = sorted(p.name for p in resumed.glob("snapshot_day*.json"))
    assert names == ["snapshot_day0014.json", "snapshot_day0021.json", "snapshot_day0028.json"]
    for name in names:
        assert (resumed / name).read_bytes() == (straight / name).read_bytes()


def test_partial_flush_on_resumed_midrun_failure(tmp_path, monkeypatch):
    cfg = small_cfg(n_days=16)
    full = records_csv_lines(run_experiment(cfg).records)
    state = restore_state(snapshot_file(cfg, 10, tmp_path / "day10.json"))
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
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError):
        restore_state(str(bad))
    cfg = small_cfg(n_days=5)
    state = build_final_state(small_cfg(n_days=8))
    with pytest.raises(ConfigError):
        run_experiment(cfg, state)  # snapshot is past the end of the stream


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


def test_cli_config_errors_exit_2(tmp_path):
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
