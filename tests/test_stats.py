import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from looptab.stats import (
    EXACT_WILCOXON_MAX_N,
    DegenerateDataError,
    chi2_sf,
    friedman,
    gamma_q,
    normal_cdf,
    pairwise_bonferroni,
    wilcoxon_signed_rank,
)


# special functions -----------------------------------------------------------

def test_normal_cdf_reference_points():
    assert abs(normal_cdf(0.0) - 0.5) < 1e-15
    assert abs(normal_cdf(1.959963984540054) - 0.975) < 1e-12
    assert abs(normal_cdf(-1.0) - 0.15865525393145707) < 1e-12


def test_chi2_sf_closed_forms():
    # df=2: sf(x) = exp(-x/2)
    for x in (0.5, 1.0, 3.0, 6.0, 20.0):
        assert abs(chi2_sf(x, 2) - math.exp(-x / 2)) < 1e-10
    # df=1: sf(x) = 2 * (1 - Phi(sqrt(x)))
    for x in (0.25, 1.0, 4.0):
        assert abs(chi2_sf(x, 1) - 2 * (1 - normal_cdf(math.sqrt(x)))) < 1e-10
    # df=4: sf(x) = exp(-x/2) * (1 + x/2)
    for x in (1.0, 5.0, 12.0):
        assert abs(chi2_sf(x, 4) - math.exp(-x / 2) * (1 + x / 2)) < 1e-10


def test_chi2_sf_edge_cases():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(-1.0, 3) == 1.0
    assert chi2_sf(1e6, 3) < 1e-12
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        gamma_q(0.0, 1.0)


def test_gamma_q_monotone_in_x():
    prev = 1.0
    for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        cur = gamma_q(2.5, x)
        assert cur < prev
        prev = cur


# wilcoxon --------------------------------------------------------------------

def test_wilcoxon_all_positive_n5_exact():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [0.0, 0.0, 0.0, 0.0, 0.0]
    res = wilcoxon_signed_rank(a, b)
    assert res.statistic == 0.0
    assert res.exact
    assert abs(res.p_value - 2.0 / 32.0) < 1e-12  # 0.0625
    assert res.n == 5


def test_wilcoxon_all_positive_n6():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    b = [0.0] * 6
    res = wilcoxon_signed_rank(a, b)
    assert abs(res.p_value - 2.0 / 64.0) < 1e-12  # 0.03125
    assert res.z_value < 0


def test_wilcoxon_symmetric_under_swap():
    rng = random.Random(2)
    a = [rng.random() for _ in range(10)]
    b = [rng.random() for _ in range(10)]
    r1 = wilcoxon_signed_rank(a, b)
    r2 = wilcoxon_signed_rank(b, a)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value


def test_wilcoxon_drops_zero_differences():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
    b = [0.0, 0.0, 0.0, 0.0, 0.0, 7.0]
    assert wilcoxon_signed_rank(a, b).n == 5


def test_wilcoxon_degenerate_and_small():
    with pytest.raises(DegenerateDataError):
        wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0], [0.0, 1.0])


def test_wilcoxon_exact_close_to_normal_at_boundary():
    # at n = 12 the exact enumeration and the normal approximation should
    # already agree to within a couple of percent
    rng = random.Random(7)
    for _ in range(10):
        diffs = [rng.uniform(-1, 1) for _ in range(12)]
        a = [d for d in diffs]
        b = [0.0] * 12
        res = wilcoxon_signed_rank(a, b)
        assert res.exact
        approx = min(2.0 * normal_cdf(res.z_value), 1.0)
        assert abs(res.p_value - approx) < 0.05


def test_wilcoxon_handles_tied_magnitudes():
    a = [1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
    b = [0.0] * 6
    res = wilcoxon_signed_rank(a, b)
    # all |d| tied: midrank 3.5 each, W- = 3.5
    assert res.statistic == 3.5
    assert 0.0 < res.p_value <= 1.0


def enumerated_p(a, b):
    """The exact two-sided p by enumerating all 2^n sign assignments."""
    diffs = [x - y for x, y in zip(a, b) if x != y]
    mags = sorted(abs(d) for d in diffs)
    ranks = [(mags.index(abs(d)) + len(mags) - mags[::-1].index(abs(d)) + 1) / 2.0 for d in diffs]
    w = min(sum(r for r, d in zip(ranks, diffs) if d > 0),
            sum(r for r, d in zip(ranks, diffs) if d < 0))
    count = 0
    for signs in itertools.product((1, -1), repeat=len(diffs)):
        wp = sum(r for r, s in zip(ranks, signs) if s > 0)
        if min(wp, sum(ranks) - wp) <= w:
            count += 1
    return count / 2.0 ** len(diffs)


def test_wilcoxon_exact_p_equals_enumeration_with_ties():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(5, 12)
        magnitudes = [rng.choice((0.5, 1.0, 2.0, 3.0)) for _ in range(3)]
        a = [rng.choice(magnitudes) * rng.choice((1, -1)) for _ in range(n)]
        try:
            res = wilcoxon_signed_rank(a, [0.0] * n)
        except DegenerateDataError:
            continue  # every magnitude tied and the variance gone
        assert res.exact
        assert res.p_value == enumerated_p(a, [0.0] * n)


def table_p(a, b):
    """The exact two-sided p from a table of sign assignments per doubled
    rank sum, filled one rank at a time."""
    diffs = [x - y for x, y in zip(a, b) if x != y]
    mags = sorted(abs(d) for d in diffs)
    doubled = [mags.index(abs(d)) + len(mags) - mags[::-1].index(abs(d)) + 1 for d in diffs]
    w = min(sum(r for r, d in zip(doubled, diffs) if d > 0),
            sum(r for r, d in zip(doubled, diffs) if d < 0))
    total = sum(doubled)
    ways = [1] + [0] * total
    for r in doubled:
        for s in range(total, r - 1, -1):
            ways[s] += ways[s - r]
    return sum(c for s, c in enumerate(ways) if min(s, total - s) <= w) / 2.0 ** len(diffs)


def test_wilcoxon_exact_p_equals_a_rank_sum_table_up_to_the_cap():
    # ties, W+ = W- and sizes past what enumeration reaches, up to the cap
    rng = random.Random(12)
    cases = [([1.0, -1.0, 2.0, -2.0, 3.0, -3.0], [0.0] * 6)]
    for n in (13, 20, 37, 49, EXACT_WILCOXON_MAX_N):
        for levels in (4, 1000):
            cases.append(([rng.randint(1, levels) * rng.choice((1, -1)) for _ in range(n)],
                          [0.0] * n))
    for a, b in cases:
        res = wilcoxon_signed_rank(a, b)
        assert res.exact and res.p_value == table_p(a, b)


@pytest.mark.parametrize("n", [5, 6, 12, 13, 20, 30, 49, 50])
def test_wilcoxon_exact_p_matches_scipy(n):
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(n)
    for shift in (0.0, 0.3, 0.8):
        a = [rng.uniform(-1, 1) + shift for _ in range(n)]
        res = wilcoxon_signed_rank(a, [0.0] * n)
        ref = scipy_stats.wilcoxon(a, method="exact")
        assert res.exact and res.statistic == ref.statistic
        assert abs(res.p_value - ref.pvalue) <= 1e-12


def test_wilcoxon_is_exact_up_to_the_cap_then_normal():
    assert EXACT_WILCOXON_MAX_N == 50
    rng = random.Random(5)
    for n, exact in ((EXACT_WILCOXON_MAX_N, True), (EXACT_WILCOXON_MAX_N + 1, False)):
        res = wilcoxon_signed_rank([rng.uniform(-1, 1) for _ in range(n)], [0.0] * n)
        assert res.exact is exact and 0.0 < res.p_value <= 1.0


@given(st.lists(st.floats(-100, 100), min_size=6, max_size=25),
       st.lists(st.floats(-100, 100), min_size=6, max_size=25))
def test_wilcoxon_swap_symmetry_property(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    try:
        r1 = wilcoxon_signed_rank(a, b)
    except ValueError:
        return  # too few nonzero differences; nothing to compare
    r2 = wilcoxon_signed_rank(b, a)
    assert r1.statistic == r2.statistic
    assert r1.p_value == r2.p_value


# friedman --------------------------------------------------------------------

def test_friedman_identical_columns():
    res = friedman([[1.0, 1.0, 1.0]] * 5)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_friedman_strict_order_3x3():
    res = friedman([[1.0, 2.0, 3.0]] * 3)
    assert abs(res.statistic - 6.0) < 1e-12
    assert abs(res.p_value - math.exp(-3.0)) < 1e-3


def test_friedman_column_permutation_invariant():
    rng = random.Random(3)
    rows = [[rng.random() for _ in range(4)] for _ in range(6)]
    base = friedman(rows)
    perm = friedman([[r[2], r[0], r[3], r[1]] for r in rows])
    assert abs(base.statistic - perm.statistic) < 1e-9
    assert abs(base.p_value - perm.p_value) < 1e-9


def test_friedman_row_shift_invariant():
    rng = random.Random(4)
    rows = [[rng.random() for _ in range(3)] for _ in range(6)]
    shifted = [[v + 100.0 * i for v in row] for i, row in enumerate(rows)]
    base = friedman(rows)
    assert abs(friedman(shifted).statistic - base.statistic) < 1e-9


def test_friedman_input_validation():
    with pytest.raises(ValueError):
        friedman([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        friedman([[1.0, 2.0]] * 4)
    with pytest.raises(ValueError):
        friedman([[1.0, 2.0, 3.0], [1.0, 2.0]])


# bonferroni ------------------------------------------------------------------

def test_bonferroni_threshold_three_groups():
    rng = random.Random(5)
    groups = [[rng.random() for _ in range(8)] for _ in range(3)]
    comparisons = pairwise_bonferroni(groups, alpha=0.05)
    assert len(comparisons) == 3
    for c in comparisons:
        assert abs(c.alpha_adjusted - 0.05 / 3) < 1e-12
        assert c.significant == (c.result.p_value < c.alpha_adjusted)


def test_bonferroni_detects_shifted_group():
    base = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    groups = [base, [v + 5.0 for v in base], list(base)]
    # identical pair raises on zero differences
    with pytest.raises(DegenerateDataError):
        pairwise_bonferroni(groups)
    groups[2] = [v + 0.01 * i for i, v in enumerate(base)]
    comparisons = pairwise_bonferroni([groups[0], groups[1], groups[2]])
    shifted = next(c for c in comparisons if (c.group_a, c.group_b) == (0, 1))
    assert shifted.result.p_value < 0.05
