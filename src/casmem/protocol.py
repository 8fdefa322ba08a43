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
  grid. This rebinning is the only lossy step of the recursion. New node j
  sits at j (L + 1) / L = j + j / L augmented-node units, on augmented
  segment j, so it is (1 - j / L) * aug[j] + (j / L) * aug[j + 1].

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
    """L + 1 mixture nodes at times j / L: stacked frozen parameter arrays, iterated as w, m, c."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        arrays = _param_arrays(self.weights, self.means, self.covs, lead=1)
        if len(arrays[0]) < 2:
            raise ValueError(f"need at least 2 nodes, got {len(arrays[0])}")
        for name, a in zip(("weights", "means", "covs"), arrays):
            object.__setattr__(self, name, _frozen(a))

    def __iter__(self):
        return iter((self.weights, self.means, self.covs))

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
        """Node 0, kept by the rebin up to the sign of zero; old recall interpolates toward it."""
        return GaussianMixture(*(a[0] for a in self.grid))


def _lerp_nodes(nodes, j, alpha) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1 - alpha) * node j + alpha * node j + 1 of stacked (weights, means, covs) nodes.

    j and alpha are numbers or arrays of one shape.
    """
    alpha = np.asarray(alpha)
    return _lerp_rows(nodes, j, j + 1, 1.0 - alpha, alpha)


def _lerp_rows(nodes, near, far, w_near, w_far) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w_near * node near + w_far * node far of each field: _lerp_nodes with its terms given.

    The weights are NumPy arrays or scalars, one per gathered row. Each field allocates
    two arrays: both rows are gathered by take, which always copies, and scaled and summed
    in place. The results are fresh, C-ordered and share no memory with the nodes.
    """
    out = []
    for a in nodes:
        x, y = a.take(near, axis=0), a.take(far, axis=0)
        shape = w_near.shape + (1,) * (a.ndim - 1)  # broadcast over the field's axes
        x *= w_near.reshape(shape)
        y *= w_far.reshape(shape)
        x += y
        out.append(x)
    return tuple(out)


def _segment(t, L: int):
    """Segment j holding time t in [0, 1] and the position t * L - j within it.

    Segments are right-continuous and the last one is closed at t = 1.
    t is a number or an array; a number gives NumPy scalars. The density
    and the drift's rates are read on the segment this returns.
    """
    u = np.multiply(t, L)
    j = np.minimum(u.astype(int), L - 1)
    return j, u - j


def eval_at(grid: ProtocolGrid, t: float) -> GaussianMixture:
    """Interpolate node parameters at time t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return GaussianMixture(*_lerp_nodes(grid, *_segment(t, grid.L)))


def add(grid: ProtocolGrid, target) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Append the new day as node L + 1: the L+2-node path on the (L + 1)-grid.

    The target is any (weights, means, covs) day, a GaussianMixture or a
    ``daily_params`` row, read as given. Returns the path as stacked arrays,
    the form stack_mixtures returns; smooth reads it once and it is never a grid.
    """
    w, m, c = target
    k, d = grid.means.shape[1:]
    if w.shape != (k,) or m.shape != (k, d) or c.shape != (k, d, d):
        raise ValueError(f"day shapes {w.shape}, {m.shape}, {c.shape} do not fit K = {k}, d = {d}")
    return (
        np.concatenate([grid.weights, w[None]]),
        np.concatenate([grid.means, m[None]]),
        np.concatenate([grid.covs, c[None]]),
    )


@cache
def _rebin_terms(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """smooth's lerp terms (k, k + 1, 1 - alpha, alpha): the one source of rebin weights.

    New node j lies on augmented segment k = j at alpha = j / L (module
    docstring). Each array has L + 1 entries, computed once per L, read-only.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    k = np.arange(L + 1)
    alpha = k / L
    return _frozen(k), _frozen(k + 1), _frozen(1.0 - alpha), _frozen(alpha)


def rebin_matrix(L: int) -> np.ndarray:
    """Dense (L + 1, L + 2) form of the rebin operator that smooth applies."""
    k, far, w_near, w_far = _rebin_terms(L)
    W = np.zeros((L + 1, L + 2))
    W[k, k] = w_near
    W[k, far] += w_far
    return W


def smooth(aug) -> ProtocolGrid:
    """Rebin add's stacked L+2-node path onto L + 1 nodes: one gather-and-lerp."""
    return ProtocolGrid(*_lerp_rows(aug, *_rebin_terms(len(aug[0]) - 2)))


def new_memory(prior: GaussianMixture, target1, L: int) -> MemoryState:
    """Day 1: the ramp from the prior (t = 0) to day 1's triple (t = 1), by smooth's weights."""
    k, _, w_near, w_far = _rebin_terms(L)
    ramp = stack_mixtures((prior, target1))
    grid = ProtocolGrid(*_lerp_rows(ramp, np.zeros_like(k), np.ones_like(k), w_near, w_far))
    return MemoryState(grid, 1)


def incorporate(state: MemoryState, target) -> MemoryState:
    """One day of the recursion on a day triple (see add): the next state, inputs untouched."""
    return MemoryState(smooth(add(state.grid, target)), state.day + 1)


def readout_time(L: int, age: int) -> float:
    """Exact readout time of a memory of the given age: (L / (L + 1)) ** age."""
    if age < 0:
        raise ValueError(f"age must be >= 0, got {age}")
    return (L / (L + 1.0)) ** age


@cache
def _readout_times(L: int, size: int) -> np.ndarray:
    """readout_time(L, age) of ages 0..size - 1, read-only.

    Each entry is readout_time's own scalar power; a vector power differs
    from it in the last bit at some ages. replay_block asks for a power of
    two of at least its oldest age + 1, so one L keeps at most one table
    per doubling of the run's length.
    """
    return _frozen(np.array([readout_time(L, age) for age in range(size)]))


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
    at readout times located as eval_at locates one, read from a table of
    readout_time built once per L and table length.
    """
    L = states[0].grid.L
    days = [s.day for s in states]
    m, n = stored_pairs(days)
    times = _readout_times(L, 1 << (max(days) - 1).bit_length())[n - m]
    j, alpha = _segment(times, L)
    # node j of state i is row i (L + 1) + j of the concatenated grids
    j += np.repeat(np.arange(len(states)) * (L + 1), days)
    nodes = [np.concatenate(a) for a in zip(*(s.grid for s in states))]
    return m, n, _lerp_nodes(nodes, j, alpha)


def replay(state: MemoryState, m: int) -> GaussianMixture:
    """Reconstruct day m by evaluating the grid at its current readout time."""
    if not 1 <= m <= state.day:
        raise KeyError(f"day {m} is not tracked; run covers 1..{state.day}")
    return eval_at(state.grid, readout_time(state.grid.L, state.day - m))


def memory_footprint(L: int, K: int, d: int) -> int:
    """Scalar parameter count of the grid: (L + 1) * K * (d^2 + d + 1)."""
    return (L + 1) * K * (d * d + d + 1)

