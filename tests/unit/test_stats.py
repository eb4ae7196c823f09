"""Unit tests for the one-sided t-test helper."""

import pytest

from repro.core.stats import one_sided_t_pvalue


def test_clear_increase_is_significant():
    assert one_sided_t_pvalue([10, 11, 12, 11, 10], [5, 6, 5, 6, 5]) < 0.01


def test_equal_samples_not_significant():
    assert one_sided_t_pvalue([5, 6, 5, 6, 5], [5, 6, 5, 6, 5]) >= 0.1


def test_decrease_not_significant():
    assert one_sided_t_pvalue([1, 2, 1, 2, 1], [9, 10, 9, 10, 9]) > 0.5


def test_constant_equal_samples_pvalue_one():
    assert one_sided_t_pvalue([3, 3, 3], [3, 3, 3]) == 1.0


def test_constant_strict_increase_pvalue_zero():
    # Deterministic counterfactual runs: identical seeds, counts constant.
    assert one_sided_t_pvalue([7, 7, 7], [3, 3, 3]) == 0.0


def test_constant_decrease_pvalue_one():
    assert one_sided_t_pvalue([3, 3, 3], [7, 7, 7]) == 1.0


def test_too_few_samples_no_evidence():
    assert one_sided_t_pvalue([5], [1, 1, 1]) == 1.0
    assert one_sided_t_pvalue([5, 6], [1]) == 1.0
    assert one_sided_t_pvalue([], []) == 1.0


def test_one_side_constant_still_works():
    p = one_sided_t_pvalue([10, 10, 10, 10, 10], [5, 6, 5, 6, 5])
    assert p < 0.05


def test_noisy_equal_means_not_significant():
    a = [100, 102, 98, 101, 99]
    b = [99, 101, 100, 98, 102]
    assert one_sided_t_pvalue(a, b) > 0.1


# ---------------------------------------------------------- batched variant


def test_batch_matches_scalar_on_random_samples():
    import random

    from repro.core.stats import one_sided_t_pvalues

    rng = random.Random(42)
    treatments, controls = [], []
    for _ in range(40):
        treatments.append([rng.randint(0, 30) for _ in range(5)])
        controls.append([rng.randint(0, 30) for _ in range(5)])
    # Degenerate rows: both constant (equal, higher, lower).
    treatments += [[7, 7, 7, 7, 7], [9, 9, 9, 9, 9], [1, 1, 1, 1, 1]]
    controls += [[7, 7, 7, 7, 7], [2, 2, 2, 2, 2], [5, 5, 5, 5, 5]]
    batch = one_sided_t_pvalues(treatments, controls)
    scalar = [one_sided_t_pvalue(t, c) for t, c in zip(treatments, controls)]
    assert len(batch) == len(scalar)
    for b, s in zip(batch, scalar):
        assert b == pytest.approx(s, rel=1e-12, abs=1e-15)
    # The decision (p < 0.1) must agree exactly on every row.
    assert [b < 0.1 for b in batch] == [s < 0.1 for s in scalar]


def test_batch_empty_and_short_rows():
    from repro.core.stats import one_sided_t_pvalues

    assert one_sided_t_pvalues([], []) == []
    assert one_sided_t_pvalues([[5]], [[3]]) == [1.0]
