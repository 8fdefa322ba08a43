"""Protocol grid and the daily compress-add-smooth recursion.

The memory is a piecewise-linear path of mixtures over [0, 1], stored as
L + 1 nodes on the uniform grid t_j = j / L: three stacked arrays of
weights (L+1, K), means (L+1, K, d) and covariances (L+1, K, d, d). Each
day:

* compress relabels node times onto [0, L / (L + 1)] (lossless; no array
  changes, only the node spacing reads as 1 / (L + 1)),
* add appends the new day's target as node L + 1 (non-destructive),
* smooth evaluates the augmented L+2-node path back onto the L-segment
  grid. This rebinning is the only lossy step of the recursion.

Every step is linear in the node parameters, costs O(L K d^2) per day and
keeps no data beyond the grid and the prior. Earlier days are recovered
by evaluating the path at their readout time, which contracts by
L / (L + 1) per day, so day m is found at t = (L / (L + 1)) ** (n - m)
after n days.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gm import GaussianMixture, _frozen, stack_mixtures

SNAPSHOT_SCHEMA_VERSION = 2
_READABLE_SCHEMAS = (1, 2)  # v1 also carries a readout table, which is ignored


@dataclass(frozen=True)
class ProtocolGrid:
    """L + 1 mixture nodes at times j / L, as stacked frozen parameter arrays."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w, m, c = (np.asarray(a, dtype=float) for a in (self.weights, self.means, self.covs))
        if w.ndim != 2 or m.ndim != 3 or c.ndim != 4:
            raise ValueError("expected shapes (L+1, K), (L+1, K, d), (L+1, K, d, d)")
        n, k, d = m.shape
        if n < 2:
            raise ValueError(f"need at least 2 nodes, got {n}")
        if w.shape != (n, k) or c.shape != (n, k, d, d):
            raise ValueError(
                f"inconsistent shapes: weights {w.shape}, means {m.shape}, covs {c.shape}"
            )
        for name, a in (("weights", w), ("means", m), ("covs", c)):
            object.__setattr__(self, name, _frozen(a))

    @classmethod
    def from_nodes(cls, nodes) -> "ProtocolGrid":
        """Stack a sequence of same-shape mixtures into a grid."""
        return cls(*stack_mixtures(nodes))

    @property
    def L(self) -> int:
        return self.means.shape[0] - 1

    @property
    def k(self) -> int:
        return self.means.shape[1]

    @property
    def d(self) -> int:
        return self.means.shape[2]

    def eval_at(self, t: float) -> GaussianMixture:
        return eval_at(self, t)


@dataclass(frozen=True)
class MemoryState:
    """Everything retained between days: the prior, the grid and the day count."""

    prior: GaussianMixture
    grid: ProtocolGrid
    day: int


def _lerp_nodes(grid: ProtocolGrid, j, alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1 - alpha) * node j + alpha * node j + 1; j and alpha are numbers or arrays of one shape."""

    def lerp(a):
        x = alpha if np.ndim(alpha) == 0 else alpha.reshape(alpha.shape + (1,) * (a.ndim - 1))
        return (1.0 - x) * a[j] + x * a[j + 1]

    return lerp(grid.weights), lerp(grid.means), lerp(grid.covs)


def eval_at(grid: ProtocolGrid, t: float) -> GaussianMixture:
    """Interpolate node parameters at time t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    j = min(int(t * grid.L), grid.L - 1)
    return GaussianMixture(*_lerp_nodes(grid, j, t * grid.L - j))


def init_protocol(prior: GaussianMixture, target1: GaussianMixture, L: int) -> ProtocolGrid:
    """Day-1 grid: the linear ramp from the prior (t=0) to the first target (t=1)."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    ramp = ProtocolGrid.from_nodes((prior, target1))
    return ProtocolGrid(*_lerp_nodes(ramp, np.zeros(L + 1, dtype=int), np.arange(L + 1) / L))


def add(grid: ProtocolGrid, target: GaussianMixture) -> ProtocolGrid:
    """Append the new day as node L + 1: the L+2-node path on the (L + 1)-grid."""
    if target.k != grid.k or target.d != grid.d:
        raise ValueError(
            f"target shape ({target.k}, {target.d}) does not match grid ({grid.k}, {grid.d})"
        )
    return ProtocolGrid(
        np.concatenate([grid.weights, target.weights[None]]),
        np.concatenate([grid.means, target.means[None]]),
        np.concatenate([grid.covs, target.covs[None]]),
    )


def rebin_indices(L: int) -> list[tuple[int, float]]:
    """Exact (segment, alpha) pairs locating each new node on the augmented grid.

    New node j sits at position j (L + 1) / L in augmented-node units; the
    arithmetic is done on integers so alpha is an exact rational r / L.
    """
    out = []
    for j in range(L + 1):
        num = j * (L + 1)
        k = num // L
        if k > L:
            k = L
        out.append((k, (num - k * L) / L))
    return out


def rebin_matrix(L: int) -> np.ndarray:
    """Dense (L + 1, L + 2) form of the rebin operator that smooth applies."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    W = np.zeros((L + 1, L + 2))
    for j, (k, alpha) in enumerate(rebin_indices(L)):
        W[j, k] = 1.0 - alpha
        W[j, k + 1] += alpha
    return W


def smooth(aug: ProtocolGrid, L: int) -> ProtocolGrid:
    """Rebin the augmented L+2-node path onto L + 1 nodes: one gather-and-lerp."""
    if aug.L != L + 1:
        raise ValueError(f"augmented grid has {aug.L + 1} nodes, expected {L + 2}")
    k, alpha = np.array(rebin_indices(L)).T
    return ProtocolGrid(*_lerp_nodes(aug, k.astype(int), alpha))


def new_memory(prior: GaussianMixture, target1: GaussianMixture, L: int) -> MemoryState:
    """State after day 1."""
    return MemoryState(prior, init_protocol(prior, target1, L), 1)


def incorporate(state: MemoryState, target: GaussianMixture) -> MemoryState:
    """One day of the recursion; returns the next state, inputs untouched."""
    grid = smooth(add(state.grid, target), state.grid.L)
    return MemoryState(state.prior, grid, state.day + 1)


def readout_time(L: int, age: int) -> float:
    """Exact readout time of a memory of the given age: (L / (L + 1)) ** age."""
    if age < 0:
        raise ValueError(f"age must be >= 0, got {age}")
    return (L / (L + 1.0)) ** age


def replay_all(state: MemoryState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recalled parameters of every stored day 1..n, stacked in day order.

    One gather-and-lerp at the readout times, located as eval_at locates one.
    """
    L, n = state.grid.L, state.day
    u = np.array([readout_time(L, n - m) for m in range(1, n + 1)]) * L
    j = np.minimum(u.astype(int), L - 1)
    return _lerp_nodes(state.grid, j, u - j)


def replay(state: MemoryState, m: int) -> GaussianMixture:
    """Reconstruct day m by evaluating the grid at its current readout time."""
    if not 1 <= m <= state.day:
        raise KeyError(f"day {m} is not tracked; run covers 1..{state.day}")
    return eval_at(state.grid, readout_time(state.grid.L, state.day - m))


def memory_footprint(L: int, K: int, d: int) -> int:
    """Scalar parameter count of the grid: (L + 1) * K * (d^2 + d + 1)."""
    return (L + 1) * K * (d * d + d + 1)


def snapshot_dict(state: MemoryState) -> dict:
    """JSON-ready snapshot: the grid nodes and the prior."""
    grid = state.grid
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "L": grid.L,
        "day": state.day,
        "prior": state.prior.to_dict(),
        "nodes": [
            {"weights": w.tolist(), "means": m.tolist(), "covs": c.tolist()}
            for w, m, c in zip(grid.weights, grid.means, grid.covs)
        ],
    }


def state_from_snapshot(data: dict) -> MemoryState:
    """Rebuild a state from a snapshot dict (schema v2, or v1 minus its readout table)."""
    version = data.get("schema_version")
    if version not in _READABLE_SCHEMAS:
        raise ValueError(
            f"snapshot schema version {version!r} is not supported "
            f"(expected one of {_READABLE_SCHEMAS})"
        )
    L = int(data["L"])
    nodes = [GaussianMixture.from_dict(g) for g in data["nodes"]]
    if len(nodes) != L + 1:
        raise ValueError(f"snapshot carries {len(nodes)} nodes but L = {L}")
    prior = GaussianMixture.from_dict(data["prior"])
    return MemoryState(prior, ProtocolGrid.from_nodes(nodes), int(data["day"]))
