"""Forgetting metrics: raw moment gaps, amnesia normalization, age curves.

Raw forgetting between a replayed and an original mixture is the squared
gap of the overall moments, ||mu_r - mu_o||^2 + ||S_r - S_o||_F^2. It is
normalized by the amnesia baseline (the same gap with the replay replaced
by the prior), so 0 means perfect recall, 1 means no better than never
having seen the day, and values above 1 mean the replay is actively
misleading.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .gm import GaussianMixture, Moments, mixture_moments, stack_mixtures
from .protocol import MemoryState, replay_all

RECORD_CSV_HEADER = "m,n,age,F_raw,F_norm,F_mean,F_cov,F_weight"
AGE_CURVE_CSV_HEADER = "age,F_bar,count"


@dataclass(frozen=True)
class ForgettingRecord:
    """One (m, n) replay comparison; F_norm is None on zero-baseline days.

    The decomposition fields are populated only for multi-component runs.
    """

    m: int
    n: int
    F_raw: float
    F_norm: float | None
    F_mean: float | None = None
    F_cov: float | None = None
    F_weight: float | None = None

    @property
    def age(self) -> int:
        return self.n - self.m


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


def match_components(a: GaussianMixture, b: GaussianMixture) -> np.ndarray:
    """Permutation sigma minimizing sum_k ||m_k^a - m_sigma(k)^b||^2.

    Solved exactly by the assignment method; when the identity ties the
    optimum (identical mixtures in particular) it is returned.
    """
    if a.k != b.k or a.d != b.d:
        raise ValueError(f"mixture shape mismatch: ({a.k}, {a.d}) vs ({b.k}, {b.d})")
    diff = a.means[:, None, :] - b.means[None, :, :]
    cost = np.einsum("ijd,ijd->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    perm = cols[np.argsort(rows)]
    identity = np.arange(a.k)
    if cost[identity, identity].sum() <= cost[identity, perm].sum():
        return identity
    return perm


def decomposed_forgetting(
    replayed: GaussianMixture, original: GaussianMixture
) -> tuple[float, float, float]:
    """Channel split (F_mean, F_cov, F_weight) under the optimal matching.

    Component gaps are weighted by max of the two matched weights, so a
    component cannot hide its error by losing weight. The three channels
    are reported on their own scale; their sum is not the overall-moment
    raw forgetting except in the single-component case.
    """
    perm = match_components(replayed, original)
    w_bar = np.maximum(replayed.weights, original.weights[perm])
    dm = replayed.means - original.means[perm]
    f_mean = float(w_bar @ np.einsum("kd,kd->k", dm, dm))
    ds = replayed.covs - original.covs[perm]
    f_cov = float(w_bar @ np.einsum("kde,kde->k", ds, ds))
    dw = replayed.weights - original.weights[perm]
    f_weight = float(dw @ dw)
    return f_mean, f_cov, f_weight


def score_recall(
    n: int, recalled, targets, prior_moments: Moments, decompose: bool
) -> list[ForgettingRecord]:
    """Records (m, n) for days m = 1, 2, ... recalled on day n.

    ``recalled`` holds the stacked (weights, means, covs) recalled for
    those days and ``targets`` their original mixtures, in day order.
    Overall moments and raw gaps are computed for all days at once; the
    amnesia baseline is the gap between the prior and each target.
    """
    weights, means, covs = recalled
    if len(targets) != len(weights):
        raise ValueError(f"{len(weights)} recalled days but {len(targets)} targets")
    orig = mixture_moments(*stack_mixtures(targets))
    f_raw = moment_gap(mixture_moments(weights, means, covs), orig).tolist()
    baseline = moment_gap(prior_moments, orig).tolist()
    records = []
    for i, original in enumerate(targets):
        f_norm = f_raw[i] / baseline[i] if baseline[i] > 0.0 else None
        channels = (None, None, None)
        if decompose:
            rep = GaussianMixture(weights[i], means[i], covs[i])
            channels = decomposed_forgetting(rep, original)
        records.append(ForgettingRecord(i + 1, n, f_raw[i], f_norm, *channels))
    return records


def day_records(
    state: MemoryState, targets, decompose: bool | None = None
) -> list[ForgettingRecord]:
    """Records (m, n) for the current day n and every stored day m <= n.

    ``targets`` are the daily targets the memory has seen, day m at index
    m - 1; every stored day is replayed in one batch.
    """
    if decompose is None:
        decompose = state.grid.k > 1
    return score_recall(
        state.day, replay_all(state), targets[: state.day], state.prior.overall_moments(), decompose
    )


def age_curve(records) -> AgeCurve:
    """Average F_norm per age; zero-baseline records are skipped and counted."""
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    skipped = 0
    for rec in records:
        if rec.F_norm is None:
            skipped += 1
            continue
        a = rec.age
        sums[a] = sums.get(a, 0.0) + rec.F_norm
        counts[a] = counts.get(a, 0) + 1
    ages = np.array(sorted(sums), dtype=int)
    values = np.array([sums[a] / counts[a] for a in ages], dtype=float)
    ns = np.array([counts[a] for a in ages], dtype=int)
    return AgeCurve(ages, values, ns, skipped)


def half_life(curve: AgeCurve, theta: float = 0.5) -> int | None:
    """Smallest age at which the curve reaches theta; None if never crossed."""
    for a, v in zip(curve.ages, curve.values):
        if v >= theta:
            return int(a)
    return None


def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return repr(float(x))


def records_csv_lines(records) -> list[str]:
    """Record rows in the export schema, ordered by (n, m)."""
    lines = [RECORD_CSV_HEADER]
    for rec in sorted(records, key=lambda r: (r.n, r.m)):
        lines.append(
            f"{rec.m},{rec.n},{rec.age},{_fmt(rec.F_raw)},{_fmt(rec.F_norm)},"
            f"{_fmt(rec.F_mean)},{_fmt(rec.F_cov)},{_fmt(rec.F_weight)}"
        )
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
    by_age: dict[int, list[float]] = {}
    for rec in records:
        if rec.F_mean is None or rec.age < min_age:
            continue
        acc = by_age.setdefault(rec.age, [0.0, 0.0, 0.0])
        acc[0] += rec.F_mean
        acc[1] += rec.F_cov
        acc[2] += rec.F_weight
    shares = [
        (tm / (tm + tc + tw), tc / (tm + tc + tw), tw / (tm + tc + tw))
        for tm, tc, tw in by_age.values()
        if tm + tc + tw > 0.0
    ]
    if not shares:
        return None
    arr = np.asarray(shares)
    means = arr.mean(axis=0)
    return float(means[0]), float(means[1]), float(means[2])
