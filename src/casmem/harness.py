"""Experiment harness: run a curriculum, collect records, sweep, export, snapshot.

One state iterator drives every run: it yields the memory after each day
of the configured stream. The forgetting matrix is built incrementally:
the states are collected into blocks of consecutive days, and each block
is replayed and scored in one batch, every stored day of every state in
it. Exports are plain CSV and JSON with full double precision, so
repeated runs of the same config are byte-identical. Snapshot files are
written by snapshot_state and read by restore_state, and nowhere else.
"""
from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    ConfigError, NumericalError, check_fields, check_value, read_json_object, write_text,
)
from .gm import GaussianMixture, has_non_numbers, stack_mixtures, validate
from .metrics import (
    RECORD_DTYPE,
    AgeCurve,
    age_curve,
    age_curve_csv_lines,
    channel_shares,
    day_records,
    half_life,
    records_csv_lines,
    score_recall,
)
from .protocol import MemoryState, ProtocolGrid, incorporate, new_memory, stored_pairs
from .streams import StreamConfig, default_prior, generate, make_config

SUMMARY_KEYS = ("half_life", "theta", "max_Fbar", "mean_share", "cov_share", "weight_share")
SWEEP_COLUMNS = (
    "axis", "value", "half_life", "max_Fbar", "mean_share", "cov_share", "weight_share", "t_star"
)
# A block of days is scored once its stored (m, n) pairs reach BLOCK_PAIRS
# or their recalled mixtures BLOCK_PARAMS parameters, K (d^2 + d + 1) per
# pair (80 pairs at K = 3, d = 16). Larger blocks spend less time per pair
# on NumPy call overhead, but the scorer's temporaries grow with the block.
BLOCK_PAIRS = 1024
BLOCK_PARAMS = 65_536
SNAPSHOT_SCHEMA_VERSION = 3
# v1 also carries a readout table, which is ignored; v1 and v2 record no stream
_READABLE_SCHEMAS = (1, 2, 3)


@dataclass(frozen=True)
class RunConfig:
    """One run's settings. These defaults are the only ones: the CLI passes the keys it is given."""

    stream: StreamConfig
    L: int = 10
    theta: float = 0.5
    prior: object = "standard"  # "standard" | {"kind": "point", ...} | mixture dict
    outputs: str | None = None
    snapshot_every: int | None = None

    def __post_init__(self):
        check_fields(self)
        if self.L < 1:
            raise ConfigError(f"L must be >= 1, got {self.L!r}")
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta!r}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ConfigError(f"snapshot_every must be >= 1, got {self.snapshot_every!r}")


@dataclass
class RunResult:
    config: RunConfig
    records: np.recarray
    curve: AgeCurve
    half_life: int | None
    summary: dict
    final_state: MemoryState | None  # None for the FIFO baseline, which keeps no memory


def resolve_prior(cfg: RunConfig, first_target: GaussianMixture) -> GaussianMixture:
    spec = cfg.prior
    k, d = first_target.k, first_target.d
    if spec == "standard" or spec is None:
        return default_prior(k, d)
    if isinstance(spec, GaussianMixture):
        prior = spec
    elif isinstance(spec, dict) and spec.get("kind") == "point":
        x0, var = spec.get("x0", np.zeros(d)), spec.get("var", 1e-12)
        if has_non_numbers(x0) or has_non_numbers(var) or np.shape(x0) != (d,) or np.ndim(var):
            raise ConfigError(f"point prior needs x0 of {d} numbers and a number var, got {spec}")
        prior = GaussianMixture(
            np.full(k, 1.0 / k),
            np.tile(x0, (k, 1)),
            np.repeat(var * np.eye(d)[None, :, :], k, axis=0),
        )
    elif isinstance(spec, dict):
        prior = GaussianMixture.from_dict(spec)
    else:
        raise ConfigError(f"unrecognized prior spec {spec!r}")
    report = validate(prior)
    if report is not None:
        raise ConfigError(f"prior is not a valid mixture: {report}")
    if prior.k != k or prior.d != d:
        raise ConfigError(
            f"prior shape ({prior.k}, {prior.d}) does not match stream ({k}, {d})"
        )
    return prior


def _stream_fingerprint(stream: StreamConfig) -> dict:
    """The stream config without n_days: one config's streams agree on their common days."""
    return {key: value for key, value in asdict(stream).items() if key != "n_days"}


def daily_states(
    cfg: RunConfig, targets, state: MemoryState | None = None
) -> Iterator[MemoryState]:
    """The memory after each day of the stream.

    From scratch this starts with day 1; from a given state it continues
    with the day after it.
    """
    if state is None:
        state = new_memory(resolve_prior(cfg, targets[0]), targets[0], cfg.L)
        yield state
    for target in targets[state.day:]:
        state = incorporate(state, target)
        yield state


def run_experiment(cfg: RunConfig, state: MemoryState | None = None) -> RunResult:
    """Run the daily recursion over the configured stream and score recall.

    From scratch the run starts with the stream's first day. From a
    restored state it continues with the day after it, and its records
    cover those days only; the target history is regenerated from the
    config (streams are pure functions of it), so earlier days are
    scored although snapshots do not carry them.

    States are scored in blocks of consecutive days (see BLOCK_PAIRS and
    BLOCK_PARAMS). If the run fails and ``cfg.outputs`` is set, the
    states not yet scored are scored, and ``records.partial.csv`` gets
    the records of every day whose state was made before the failure;
    when the failure is in scoring a block, that block's days are left
    out.
    """
    targets = generate(cfg.stream)
    if state is not None:
        _check_resumable(cfg, targets, state)
    stacked = stack_mixtures(targets)
    block_pairs = _block_pairs(targets[0])
    blocks, pending = [], []
    try:
        for state in daily_states(cfg, targets, state):
            pending.append(state)
            _maybe_snapshot(cfg, state)
            if sum(s.day for s in pending) >= block_pairs:
                _score_pending(pending, blocks, stacked)
        _score_pending(pending, blocks, stacked)
    except Exception:
        if cfg.outputs:
            _score_pending(pending, blocks, stacked)
            _flush_partial(cfg, blocks)
        raise
    return _result(cfg, blocks, state)


def _block_pairs(target: GaussianMixture) -> int:
    """Pairs per scoring block for mixtures shaped like target; at least one."""
    per_pair = target.k * (target.d * target.d + target.d + 1)
    return max(1, min(BLOCK_PAIRS, BLOCK_PARAMS // per_pair))


def _score_pending(pending: list, blocks: list, stacked) -> None:
    """Score the pending states as one block onto ``blocks``.

    ``pending`` is emptied before scoring, so a block whose scoring fails
    is not scored again by the failure flush.
    """
    block = pending[:]
    pending.clear()
    if block:
        blocks.append(day_records(block, stacked))


def _check_resumable(cfg: RunConfig, targets, state: MemoryState) -> None:
    """Refuse a state made under another L or prior (node 0), or past the stream's end.

    restore_state has compared a snapshot's stream config with cfg's already.
    """
    if state.day > len(targets):
        raise ConfigError(
            f"snapshot is at day {state.day} but the stream has {len(targets)} days"
        )
    if state.grid.L != cfg.L:
        raise ConfigError(f"snapshot was made with L = {state.grid.L}, config has L = {cfg.L}")
    if state.prior.to_dict() != resolve_prior(cfg, targets[0]).to_dict():
        raise ConfigError("snapshot prior differs from the prior this config resolves to")


def _concat(blocks) -> np.recarray:
    """The per-block record arrays as one, in day order."""
    return np.concatenate(blocks or [np.recarray(0, dtype=RECORD_DTYPE)]).view(np.recarray)


def _result(cfg: RunConfig, blocks, state: MemoryState | None) -> RunResult:
    records = _concat(blocks)
    curve = age_curve(records)
    hl = half_life(curve, cfg.theta)
    shares = channel_shares(records) or (None, None, None)
    summary = {
        "half_life": hl,
        "theta": cfg.theta,
        "max_Fbar": float(curve.values.max()) if curve.values.size else None,
        "mean_share": shares[0],
        "cov_share": shares[1],
        "weight_share": shares[2],
        # Per-run capacity diagnostic; lives beside (not inside) the exported summary.
        "t_star": math.exp(-hl / cfg.L) if hl is not None else None,
    }
    return RunResult(cfg, records, curve, hl, summary, state)


def _maybe_snapshot(cfg: RunConfig, state: MemoryState) -> None:
    if cfg.outputs and cfg.snapshot_every and state.day % cfg.snapshot_every == 0:
        snapshot_state(cfg, state, cfg.outputs)


def _flush_partial(cfg: RunConfig, blocks) -> None:
    text = "\n".join(records_csv_lines(_concat(blocks))) + "\n"
    write_text(os.path.join(cfg.outputs, "records.partial.csv"), text)


def build_final_state(cfg: RunConfig) -> MemoryState:
    """Run the recursion only (no metrics); used by movie and drift checks."""
    for state in daily_states(cfg, generate(cfg.stream)):
        pass
    return state


def _apply_axis(cfg: RunConfig, axis: str, value) -> RunConfig:
    """cfg with one axis set to value; RunConfig and StreamConfig refuse a bad one."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)  # so that 7.0 sweeps L = 7
    if axis in ("L", "theta"):
        return replace(cfg, **{axis: value})
    if axis == "K":
        # K = 1 is the plain circular drift, K >= 2 the crowding ring on the same
        # centre track. Each kind keeps its own cov_scale default (circular 0.5,
        # crowding 0.3, which criterion 5 is stated at); a nuisance walk that
        # neither kind takes is refused, never dropped.
        fields = ("n_days", "d", "R", "P", "r", "nuisance", "seed")
        kept = {f: getattr(cfg.stream, f) for f in fields}
        kind = "circular" if value == 1 else "crowding"
        return replace(cfg, stream=make_config(kind, K=value, **kept))
    if axis == "kind" or axis not in StreamConfig.__dataclass_fields__:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return replace(cfg, stream=replace(cfg.stream, **{axis: value}))


@dataclass
class SweepResult:
    axis: str
    rows: list[dict]
    fit: dict | None = None


def sweep(cfg: RunConfig, axis: str, values) -> SweepResult:
    """Independent runs along one config axis; fits capacity when axis is L."""
    rows = []
    for value in values:
        summary = run_experiment(_apply_axis(cfg, axis, value)).summary
        rows.append({"axis": axis, "value": value, **{k: summary[k] for k in SWEEP_COLUMNS[2:]}})
    fit = None
    if axis == "L":
        usable = [(r["value"], r["half_life"]) for r in rows if r["half_life"] is not None]
        if len(usable) >= 3:
            fit = capacity_diagnostics([v for v, _ in usable], [h for _, h in usable])
    return SweepResult(axis, rows, fit)


def capacity_diagnostics(lengths, half_lives) -> dict:
    """Slope c of half-life against L (plain least squares) and t* = exp(-c)."""
    ls = np.asarray(lengths, dtype=float)
    hs = np.asarray(half_lives, dtype=float)
    if ls.size < 3:
        raise NumericalError(f"capacity fit needs at least 3 points, got {ls.size}")
    if np.any(~np.isfinite(hs)):
        raise NumericalError("capacity fit got a run without a half-life")
    var = np.var(ls)
    if var == 0.0:
        raise NumericalError("capacity fit is degenerate: all L values identical")
    c = float(np.cov(ls, hs, bias=True)[0, 1] / var)
    return {"c": c, "t_star": math.exp(-c)}


def fifo_baseline(cfg: RunConfig) -> RunResult:
    """Sliding-window reference: perfect recall for L days, then the prior."""
    targets = generate(cfg.stream)
    prior = resolve_prior(cfg, targets[0])
    pool = stack_mixtures([*targets, prior])  # day m at row m - 1, the prior last
    all_m, all_n = stored_pairs(np.arange(1, len(targets) + 1))
    size = _block_pairs(prior)
    blocks = []
    for start in range(0, len(all_m), size):
        m, n = all_m[start : start + size], all_n[start : start + size]
        rows = np.where(n - m < cfg.L, m - 1, len(targets))
        recalled = [a[rows] for a in pool]
        originals = [a[m - 1] for a in pool]
        blocks.append(score_recall(recalled, originals, prior.overall_moments(), m, n))
    return _result(cfg, blocks, None)


def export(result: RunResult, path: str) -> list[str]:
    """Write records.csv, age_curve.csv and summary.json under path.

    Returns the files written. Floats go through repr, which round-trips
    exactly at double precision.
    """
    summary = {key: result.summary[key] for key in SUMMARY_KEYS}
    contents = {
        "records.csv": "\n".join(records_csv_lines(result.records)) + "\n",
        "age_curve.csv": "\n".join(age_curve_csv_lines(result.curve)) + "\n",
        "summary.json": json.dumps(summary, indent=2) + "\n",
    }
    return [write_text(os.path.join(path, name), text) for name, text in contents.items()]


def snapshot_state(cfg: RunConfig, state: MemoryState, directory: str) -> str:
    """Write a state of cfg's stream to snapshot_dayNNNN.json (its day) in directory.

    Schema v3: L, day, the prior (node 0 again), the stream config without
    n_days and the grid nodes. Returns the file's path.
    """
    grid = state.grid
    nodes = zip(grid.weights, grid.means, grid.covs)
    data = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "L": grid.L,
        "day": state.day,
        "prior": state.prior.to_dict(),
        "stream": _stream_fingerprint(cfg.stream),
        "nodes": [GaussianMixture(*node).to_dict() for node in nodes],
    }
    path = os.path.join(directory, f"snapshot_day{state.day:04d}.json")
    return write_text(path, json.dumps(data) + "\n")


def restore_state(cfg: RunConfig, path: str) -> MemoryState:
    """The memory state of the snapshot file at path (schema v3, v2 or v1) for cfg's stream.

    ConfigError if the file is not a valid snapshot, or records a stream
    config other than cfg's (v1 and v2 record none). run_experiment checks
    the state's L, prior and day against cfg.
    """
    data = read_json_object(path)
    version = check_value("snapshot schema_version", data.get("schema_version"), "int")
    if version not in _READABLE_SCHEMAS:
        raise ConfigError(
            f"snapshot schema version {version!r} is not supported "
            f"(expected one of {_READABLE_SCHEMAS})"
        )
    missing = [key for key in ("L", "day", "nodes", "prior") if key not in data]
    if missing:
        raise ConfigError(f"snapshot lacks {missing}")
    L, day = (check_value(f"snapshot {key}", data[key], "int") for key in ("L", "day"))
    if L < 1 or day < 1:
        raise ConfigError(f"snapshot L and day must be >= 1, got {L} and {day}")
    if not isinstance(data["nodes"], list) or len(data["nodes"]) != L + 1:
        raise ConfigError(f"snapshot needs a list of L + 1 = {L + 1} nodes")
    nodes = [GaussianMixture.from_dict(g) for g in data["nodes"]]
    state = MemoryState(ProtocolGrid(*stack_mixtures(nodes)), day)
    if GaussianMixture.from_dict(data["prior"]).to_dict() != state.prior.to_dict():
        raise ConfigError("snapshot prior differs from its node 0, the prior replay reads")
    recorded, stream = data.get("stream"), _stream_fingerprint(cfg.stream)
    if not isinstance(recorded, dict | None):
        raise ConfigError(f"snapshot stream must be an object or null, got {recorded!r}")
    if recorded is not None and recorded != stream:
        differs = sorted(k for k in stream | recorded if stream.get(k) != recorded.get(k))
        raise ConfigError(f"snapshot was made from another stream config (differs in {differs})")
    return state
