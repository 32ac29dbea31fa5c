"""Nonparametric tests: Wilcoxon signed-rank, Friedman, pairwise Bonferroni.

The chi-square survival function is computed in-house via the regularized
incomplete gamma function (series expansion below a+1, continued fraction
above), accurate to better than 1e-10; the normal CDF uses ``math.erf``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

EXACT_WILCOXON_MAX_N = 50  # 2**50 sign assignments still fit int64 counts
_GAMMA_EPS = 1e-14
_GAMMA_MAX_ITER = 10_000


class DegenerateDataError(ValueError):
    pass


@dataclass(frozen=True)
class StatTestResult:
    statistic: float
    p_value: float
    n: int
    method: str
    z_value: float | None = None
    exact: bool = False


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erf; absolute error below 1e-15."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _gamma_p_series(a: float, x: float) -> float:
    # lower regularized incomplete gamma, series expansion (x < a + 1)
    term = 1.0 / a
    total = term
    for k in range(1, _GAMMA_MAX_ITER):
        term *= x / (a + k)
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # upper regularized incomplete gamma, Lentz continued fraction (x >= a + 1)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, _GAMMA_MAX_ITER):
        an = -k * (k - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_q(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x); |error| < 1e-10."""
    if a <= 0:
        raise ValueError("a must be > 0")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X >= x) with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if x <= 0:
        return 1.0
    return gamma_q(df / 2.0, x / 2.0)


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = rank
        i = j + 1
    return ranks


def wilcoxon_signed_rank(a: Sequence[float], b: Sequence[float]) -> StatTestResult:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; the statistic is W = min(W+, W-) over
    midranked absolute differences. For n <= EXACT_WILCOXON_MAX_N the
    p-value is exact: the share of the 2^n sign assignments whose
    min(W+, W-) is at most W, counted by rank sum over doubled (so
    integer) midranks. Above it, a tie-corrected, continuity-corrected
    normal approximation is used. The normal z is reported in both cases.
    """
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    if n == 0:
        raise DegenerateDataError("all differences are zero")
    if n < 5:
        raise ValueError(f"need at least 5 nonzero differences, got {n}")
    absd = [abs(d) for d in diffs]
    doubled = [int(2 * r) for r in _midranks(absd)]  # midranks are multiples of 1/2
    w_doubled = min(sum(r for r, d in zip(doubled, diffs) if d > 0),
                    sum(r for r, d in zip(doubled, diffs) if d < 0))
    w = w_doubled / 2.0

    mean = n * (n + 1) / 4.0
    tie_term = sum(t ** 3 - t for t in Counter(absd).values()) / 48.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
    if var <= 0:
        raise DegenerateDataError("zero variance (all ranks tied away)")
    z = (w - mean + 0.5) / math.sqrt(var)  # w <= mean, correct toward the mean

    if n <= EXACT_WILCOXON_MAX_N:
        total = n * (n + 1)  # the doubled ranks' sum
        ways = np.zeros(total + 1, dtype=np.int64)  # ways[s]: sign assignments with doubled W+ = s
        ways[0] = 1
        for r in doubled:
            ways[r:] = ways[r:] + ways[:-r]
        sums = np.arange(total + 1)
        count = int(ways[np.minimum(sums, total - sums) <= w_doubled].sum())
        return StatTestResult(w, count / 2.0 ** n, n, "wilcoxon", z_value=z, exact=True)
    p = min(2.0 * normal_cdf(z), 1.0)
    return StatTestResult(w, p, n, "wilcoxon", z_value=z, exact=False)


def friedman(groups: Sequence[Sequence[float]]) -> StatTestResult:
    """Friedman chi-square test on an n-subjects x k-treatments matrix.

    Rows are ranked with midranks; the statistic carries the standard tie
    correction and p comes from the chi-square survival function with
    k - 1 degrees of freedom.
    """
    n = len(groups)
    if n < 2:
        raise ValueError("need at least 2 subjects")
    k = len(groups[0])
    if k < 3:
        raise ValueError("need at least 3 treatments")
    if any(len(row) != k for row in groups):
        raise ValueError("ragged matrix")

    col_rank_sums = [0.0] * k
    tie_sum = 0.0
    for row in groups:
        ranks = _midranks(row)
        for j, r in enumerate(ranks):
            col_rank_sums[j] += r
        tie_sum += sum(t ** 3 - t for t in Counter(row).values())

    chi2 = (12.0 / (n * k * (k + 1))) * sum(r * r for r in col_rank_sums) - 3.0 * n * (k + 1)
    correction = 1.0 - tie_sum / (n * k * (k * k - 1))
    if correction <= 0:
        # every row fully tied: no information
        return StatTestResult(0.0, 1.0, n, "friedman")
    chi2 /= correction
    chi2 = max(chi2, 0.0)
    return StatTestResult(chi2, chi2_sf(chi2, k - 1), n, "friedman")


@dataclass(frozen=True)
class PairwiseComparison:
    group_a: int
    group_b: int
    result: StatTestResult
    alpha_adjusted: float
    significant: bool


def pairwise_bonferroni(groups: Sequence[Sequence[float]], alpha: float = 0.05
                        ) -> list[PairwiseComparison]:
    """Wilcoxon per group pair; significance at the Bonferroni-corrected
    threshold alpha / number-of-pairs, for a finite alpha in (0, 1)."""
    if not (math.isfinite(alpha) and 0 < alpha < 1):
        raise ValueError(f"alpha must be a finite number in (0, 1), got {alpha}")
    if len(groups) < 2:
        raise ValueError("need at least 2 groups")
    pairs = list(itertools.combinations(range(len(groups)), 2))
    threshold = alpha / len(pairs)
    out = []
    for i, j in pairs:
        res = wilcoxon_signed_rank(groups[i], groups[j])
        out.append(PairwiseComparison(i, j, res, threshold, res.p_value < threshold))
    return out
