"""Protocol grid and the daily compress-add-smooth recursion.

The memory is a piecewise-linear path of mixtures over [0, 1], stored as
L + 1 nodes on the uniform grid t_j = j / L: three stacked arrays of
weights (L+1, K), means (L+1, K, d) and covariances (L+1, K, d, d). Each
day:

* compress relabels node times onto [0, L / (L + 1)] (lossless; no array
  changes, only the node spacing reads as 1 / (L + 1)),
* add appends the new day's target as node L + 1 (non-destructive) and
  returns the augmented L+2-node path as stacked arrays, never as a grid,
* smooth evaluates that path back onto the L-segment grid, the day's only
  grid. This rebinning is the only lossy step of the recursion.

Every step is linear in the node parameters, costs O(L K d^2) per day and
keeps no data beyond the grid, whose node 0 is the prior. Earlier days
are recovered by evaluating the path at their readout time, which
contracts by L / (L + 1) per day, so day m is found at
t = (L / (L + 1)) ** (n - m) after n days.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .gm import GaussianMixture, _frozen, _param_arrays, stack_mixtures


@dataclass(frozen=True)
class ProtocolGrid:
    """L + 1 mixture nodes at times j / L, as stacked frozen parameter arrays."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        arrays = _param_arrays(self.weights, self.means, self.covs, lead=1)
        if len(arrays[0]) < 2:
            raise ValueError(f"need at least 2 nodes, got {len(arrays[0])}")
        for name, a in zip(("weights", "means", "covs"), arrays):
            object.__setattr__(self, name, _frozen(a))

    @property
    def L(self) -> int:
        return self.means.shape[0] - 1

    @property
    def k(self) -> int:
        return self.means.shape[1]

    @property
    def d(self) -> int:
        return self.means.shape[2]


@dataclass(frozen=True)
class MemoryState:
    """Everything retained between days: the grid and the day count."""

    grid: ProtocolGrid
    day: int

    @cached_property
    def prior(self) -> GaussianMixture:
        """Node 0: the rebin keeps it bit for bit and old recall is interpolated toward it."""
        return GaussianMixture(self.grid.weights[0], self.grid.means[0], self.grid.covs[0])


def _nodes(grid: ProtocolGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return grid.weights, grid.means, grid.covs


def _lerp_nodes(nodes, j, alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1 - alpha) * node j + alpha * node j + 1 of stacked (weights, means, covs) nodes.

    j and alpha are numbers or arrays of one shape.
    """

    def lerp(a):
        x = alpha if np.ndim(alpha) == 0 else alpha.reshape(alpha.shape + (1,) * (a.ndim - 1))
        return (1.0 - x) * a[j] + x * a[j + 1]

    return tuple(lerp(a) for a in nodes)


def _segment(t, L: int):
    """Segment j holding time t in [0, 1] and the position t * L - j within it.

    Segments are right-continuous and the last one is closed at t = 1.
    t is a number or an array; the density and the drift's rates are
    read on the segment this returns.
    """
    u = t * L
    j = np.minimum(u.astype(int), L - 1) if isinstance(u, np.ndarray) else min(int(u), L - 1)
    return j, u - j


def eval_at(grid: ProtocolGrid, t: float) -> GaussianMixture:
    """Interpolate node parameters at time t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return GaussianMixture(*_lerp_nodes(_nodes(grid), *_segment(t, grid.L)))


def add(grid: ProtocolGrid, target: GaussianMixture) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Append the new day as node L + 1: the L+2-node path on the (L + 1)-grid.

    Returns the path as stacked (weights, means, covs) arrays, the form
    stack_mixtures returns; smooth reads it once and it is never a grid.
    """
    if target.k != grid.k or target.d != grid.d:
        raise ValueError(
            f"target shape ({target.k}, {target.d}) does not match grid ({grid.k}, {grid.d})"
        )
    return (
        np.concatenate([grid.weights, target.weights[None]]),
        np.concatenate([grid.means, target.means[None]]),
        np.concatenate([grid.covs, target.covs[None]]),
    )


@cache
def rebin_indices(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact segments k and positions alpha locating each new node on the augmented path.

    New node j sits at position j (L + 1) / L in augmented-node units, so
    k = min(j (L + 1) // L, L) and alpha = (j (L + 1) - k L) / L; the
    arithmetic is done on integers so alpha is an exact rational r / L.
    Both arrays have L + 1 entries. They are computed once per L and
    returned read-only.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    num = np.arange(L + 1) * (L + 1)
    k = np.minimum(num // L, L)
    return _frozen(k), _frozen((num - k * L) / L)


def rebin_matrix(L: int) -> np.ndarray:
    """Dense (L + 1, L + 2) form of the rebin operator that smooth applies."""
    k, alpha = rebin_indices(L)
    W = np.zeros((L + 1, L + 2))
    rows = np.arange(L + 1)
    W[rows, k] = 1.0 - alpha
    W[rows, k + 1] += alpha
    return W


def smooth(aug) -> ProtocolGrid:
    """Rebin add's stacked L+2-node path onto L + 1 nodes: one gather-and-lerp."""
    return ProtocolGrid(*_lerp_nodes(aug, *rebin_indices(len(aug[0]) - 2)))


def new_memory(prior: GaussianMixture, target1: GaussianMixture, L: int) -> MemoryState:
    """State after day 1: the linear ramp from the prior (t = 0) to the first target (t = 1)."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    ramp = stack_mixtures((prior, target1))
    grid = ProtocolGrid(*_lerp_nodes(ramp, np.zeros(L + 1, dtype=int), np.arange(L + 1) / L))
    return MemoryState(grid, 1)


def incorporate(state: MemoryState, target: GaussianMixture) -> MemoryState:
    """One day of the recursion; returns the next state, inputs untouched."""
    return MemoryState(smooth(add(state.grid, target)), state.day + 1)


def readout_time(L: int, age: int) -> float:
    """Exact readout time of a memory of the given age: (L / (L + 1)) ** age."""
    if age < 0:
        raise ValueError(f"age must be >= 0, got {age}")
    return (L / (L + 1.0)) ** age


def stored_pairs(days) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) of every stored day m = 1, ..., n after each day n of ``days``, in that order."""
    n = np.repeat(np.asarray(days, dtype=np.int64), days)
    starts = np.cumsum(days) - days  # first pair of each day n
    m = np.arange(1, n.size + 1) - np.repeat(starts, days)
    return m, n


def replay_block(states) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Recalled parameters of every stored day of every state, with the pairs' m and n.

    Returns (m, n, (weights, means, covs)): pair (m, n) recalls day m
    from the state after day n, pairs ordered as ``stored_pairs`` orders
    them. The states share one L. One gather-and-lerp covers every pair,
    at readout times located as eval_at locates one; readout_time is
    called once per distinct age.
    """
    L = states[0].grid.L
    days = [s.day for s in states]
    m, n = stored_pairs(days)
    times = np.array([readout_time(L, age) for age in range(max(days))])[n - m]
    j, alpha = _segment(times, L)
    # node j of state i is row i (L + 1) + j of the concatenated grids
    j += np.repeat(np.arange(len(states)) * (L + 1), days)
    nodes = [np.concatenate(a) for a in zip(*(_nodes(s.grid) for s in states))]
    return m, n, _lerp_nodes(nodes, j, alpha)


def replay(state: MemoryState, m: int) -> GaussianMixture:
    """Reconstruct day m by evaluating the grid at its current readout time."""
    if not 1 <= m <= state.day:
        raise KeyError(f"day {m} is not tracked; run covers 1..{state.day}")
    return eval_at(state.grid, readout_time(state.grid.L, state.day - m))


def memory_footprint(L: int, K: int, d: int) -> int:
    """Scalar parameter count of the grid: (L + 1) * K * (d^2 + d + 1)."""
    return (L + 1) * K * (d * d + d + 1)

