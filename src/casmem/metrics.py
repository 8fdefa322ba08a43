"""Forgetting metrics: raw moment gaps, amnesia normalization, age curves.

Raw forgetting between a replayed and an original mixture is the squared
gap of the overall moments, ||mu_r - mu_o||^2 + ||S_r - S_o||_F^2. It is
normalized by the amnesia baseline (the same gap with the replay replaced
by the prior), so 0 means perfect recall, 1 means no better than never
having seen the day, and values above 1 mean the replay is actively
misleading.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .gm import GaussianMixture, Moments, _param_arrays, mixture_moments
from .protocol import replay_block

# One row per (m, n) replay comparison; a missing value is NaN: F_norm on a
# zero-baseline day, and the channel split of a single-component run.
RECORD_DTYPE = np.dtype(
    [("m", np.int64), ("n", np.int64), ("age", np.int64)]
    + [(f, np.float64) for f in ("F_raw", "F_norm", "F_mean", "F_cov", "F_weight")]
)
RECORD_CSV_HEADER = ",".join(RECORD_DTYPE.names)
AGE_CURVE_CSV_HEADER = "age,F_bar,count"
# Largest K matched by scoring all K! permutations (720 at K = 6, 40,320 at
# K = 8). Above it scipy's assignment solver runs once per pair; it is
# imported on first use, so a run with K <= 6 never loads scipy.
MAX_TABLE_K = 6


@dataclass(frozen=True)
class AgeCurve:
    """Normalized forgetting averaged over all pairs of equal age."""

    ages: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    skipped: int = 0


def moment_gap(a: Moments, b: Moments) -> float | np.ndarray:
    """||mu_a - mu_b||^2 + ||S_a - S_b||_F^2, batched over any leading axes."""
    dm = a.mean - b.mean
    ds = a.cov - b.cov
    gap = np.einsum("...d,...d->...", dm, dm) + (ds * ds).sum(axis=(-2, -1))
    return float(gap) if np.ndim(gap) == 0 else gap


@cache
def _permutation_table(k: int) -> np.ndarray:
    """All k! permutations of range(k) as a read-only (k!, k) array, lexicographic, identity first."""
    table = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    table.setflags(write=False)
    return table


def match_components(a_means, b_means) -> np.ndarray:
    """Permutations sigma minimizing sum_k ||a_k - b_sigma(k)||^2, batched.

    ``a_means`` and ``b_means`` are (..., K, d) component means; the result
    is (..., K). Each pair is solved exactly. For K <= MAX_TABLE_K every
    permutation's cost is summed, term k = 0 first, and the first
    permutation of least cost in lexicographic order wins, so the identity
    wins every tie it takes part in. Above that the assignment method
    (Kuhn 1955) solves each pair, and the identity is returned when it ties
    the optimum (identical mixtures in particular).
    """
    a, b = np.asarray(a_means, dtype=float), np.asarray(b_means, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"component means shape mismatch: {a.shape} vs {b.shape}")
    diff = a[..., :, None, :] - b[..., None, :, :]
    cost = np.einsum("...ijd,...ijd->...ij", diff, diff)
    k = a.shape[-2]
    if k <= MAX_TABLE_K:
        table = _permutation_table(k)
        total = cost[..., 0, table[:, 0]]
        for i in range(1, k):
            total += cost[..., i, table[:, i]]
        return table[total.argmin(axis=-1)]
    from scipy.optimize import linear_sum_assignment

    perm = np.empty(cost.shape[:-1], dtype=np.intp)
    for i in np.ndindex(cost.shape[:-2]):
        perm[i] = linear_sum_assignment(cost[i])[1]
    identity = np.arange(a.shape[-2])
    chosen = np.take_along_axis(cost, perm[..., None], axis=-1)[..., 0]
    tie = cost[..., identity, identity].sum(axis=-1) <= chosen.sum(axis=-1)
    return np.where(tie[..., None], identity, perm)


def decomposed_forgetting(replayed, original) -> tuple:
    """Channel split (F_mean, F_cov, F_weight) under the optimal matching.

    ``replayed`` and ``original`` are (weights, means, covs) triples of
    shapes (..., K), (..., K, d) and (..., K, d, d); each channel has the
    leading shape. Component gaps are weighted by max of the two matched
    weights, so a component cannot hide its error by losing weight. The
    three channels are reported on their own scale; their sum is not the
    overall-moment raw forgetting except in the single-component case.
    """
    r_w, r_m, r_c = replayed
    perm = match_components(r_m, original[1])
    k = perm.shape[-1]
    # one flat gather per field: pair i's component perm[i, j] is row i * K + perm[i, j]
    flat = (perm.reshape(-1, k) + np.arange(0, perm.size, k)[:, None]).ravel()
    o_w, o_m, o_c = (a.reshape((-1,) + a.shape[perm.ndim:])[flat].reshape(a.shape) for a in original)
    w_bar = np.maximum(r_w, o_w)
    dm = r_m - o_m
    f_mean = np.einsum("...k,...k->...", w_bar, np.einsum("...kd,...kd->...k", dm, dm))
    ds = r_c - o_c
    f_cov = np.einsum("...k,...k->...", w_bar, np.einsum("...kde,...kde->...k", ds, ds))
    dw = r_w - o_w
    return f_mean, f_cov, np.einsum("...k,...k->...", dw, dw)


@dataclass(frozen=True)
class RunTargets:
    """A run's daily targets, scored once: day m is row m - 1 of every field.

    ``params`` are the stacked (weights, means, covs), ``moments`` their
    overall moments and ``baseline`` their amnesia baselines, the moment
    gap between the prior and each target.
    """

    params: tuple
    moments: Moments
    baseline: np.ndarray


def run_targets(params, prior: GaussianMixture) -> RunTargets:
    """The daily targets' stacked (weights, means, covs), day m at row m - 1, scored against prior."""
    params = _param_arrays(*params, lead=1)
    moments = mixture_moments(*params)
    return RunTargets(params, moments, moment_gap(prior.overall_moments(), moments))


def score_recall(recalled, targets: RunTargets, m, n) -> np.recarray:
    """Records of the pairs (m, n): day m recalled on day n.

    ``recalled`` is the stacked (weights, means, covs) triple of the
    recalled mixtures, one row per pair; ``targets`` are the run's daily
    targets (run_targets); ``m`` and ``n`` are the pairs' days. Every pair
    is scored at once: raw gaps of the overall moments, normalized by day
    m's amnesia baseline, and, for K > 1 components, the channel split
    (decomposed_forgetting) against day m's components, gathered once.
    The result is one RECORD_DTYPE array in pair order: F_norm is NaN
    where the baseline is 0, the channels are NaN for K = 1.
    """
    rows = np.asarray(m) - 1
    count, k = recalled[0].shape
    if not len(rows) == len(n) == count:
        raise ValueError(f"{count} recalled mixtures, {len(rows)} m and {len(n)} n")
    if count and not 0 <= rows.min() <= rows.max() < len(targets.baseline):
        raise ValueError(f"days m must lie in 1..{len(targets.baseline)}")
    rec = np.recarray(count, dtype=RECORD_DTYPE)
    rec.m = m
    rec.n = n
    rec.age = rec.n - rec.m
    orig = Moments(targets.moments.mean[rows], targets.moments.cov[rows])
    rec.F_raw = moment_gap(mixture_moments(*recalled), orig)
    baseline = targets.baseline[rows]
    rec.F_norm = np.divide(rec.F_raw, baseline, out=np.full(count, np.nan), where=baseline > 0.0)
    if k > 1:
        original = tuple(a[rows] for a in targets.params)
        rec.F_mean, rec.F_cov, rec.F_weight = decomposed_forgetting(recalled, original)
    else:
        rec.F_mean = rec.F_cov = rec.F_weight = np.nan
    return rec


def day_records(states, targets: RunTargets) -> np.recarray:
    """Records (m, n) of a block of states of one run: every stored day m <= n of each.

    ``states`` are the states after days n, in order; ``targets`` are the
    run's daily targets (run_targets). The block is replayed in one gather
    and scored in one score_recall call; records run state by state, in
    day order.
    """
    m, n, recalled = replay_block(states)
    return score_recall(recalled, targets, m, n)


def age_curve(records) -> AgeCurve:
    """Average F_norm per age; zero-baseline (NaN) records are skipped and counted."""
    kept = ~np.isnan(records.F_norm)
    age = records.age[kept]
    counts = np.bincount(age)
    sums = np.bincount(age, weights=records.F_norm[kept])
    ages = np.flatnonzero(counts)
    return AgeCurve(ages, sums[ages] / counts[ages], counts[ages], int(kept.size - age.size))


def half_life(curve: AgeCurve, theta: float = 0.5) -> int | None:
    """Smallest age at which the curve reaches theta; None if never crossed."""
    for a, v in zip(curve.ages, curve.values):
        if v >= theta:
            return int(a)
    return None


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else repr(x)


def records_csv_lines(records) -> list[str]:
    """Record rows in the export schema, ordered by (n, m); NaN is an empty cell."""
    lines = [RECORD_CSV_HEADER]
    for m, n, age, *fs in records[np.lexsort((records.m, records.n))].tolist():
        lines.append(",".join([str(m), str(n), str(age), *map(_fmt, fs)]))
    return lines


def age_curve_csv_lines(curve: AgeCurve) -> list[str]:
    lines = [AGE_CURVE_CSV_HEADER]
    for a, v, c in zip(curve.ages, curve.values, curve.counts):
        lines.append(f"{int(a)},{_fmt(float(v))},{int(c)}")
    return lines


def channel_shares(records, min_age: int = 0) -> tuple[float, float, float] | None:
    """Mean/cov/weight shares of the decomposition, averaged uniformly over ages.

    Channels are summed within each age first, so the crowded small-age
    pairs do not drown out the few old ones; ages below min_age or with a
    zero channel total are left out. None when no decomposition was run.
    """
    kept = ~np.isnan(records.F_mean) & (records.age >= min_age)
    age = records.age[kept]
    totals = np.stack(
        [np.bincount(age, weights=records[f][kept]) for f in ("F_mean", "F_cov", "F_weight")],
        axis=1,
    )
    total = totals[:, 0] + totals[:, 1] + totals[:, 2]
    shares = totals[total > 0.0] / total[total > 0.0, None]  # ages without records total 0
    if not len(shares):
        return None
    means = shares.mean(axis=0)
    return float(means[0]), float(means[1]), float(means[2])
