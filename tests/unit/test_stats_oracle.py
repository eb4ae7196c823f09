"""SciPy as the oracle of the in-house Welch test: p-values within 1e-10
relative of ``scipy.stats.ttest_ind(equal_var=False, alternative=
"greater")`` and the ``p < 0.1`` decision identical on every row, over
integer counts at the repetition counts campaigns use.  Skipped where
SciPy is not installed (``tests/unit/test_golden_stats.py`` still checks
SciPy's recorded answers there)."""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import one_sided_t_pvalues

pytestmark = pytest.mark.contract

scipy_stats = pytest.importorskip("scipy.stats")

REL_TOL = 1e-10
P_VALUE = 0.1


def scipy_pvalues(treatments, controls):
    """SciPy's Welch test per row; the rows where both sides are constant
    (SciPy: nan) resolved by the documented rule."""
    T, C = np.array(treatments, dtype=float), np.array(controls, dtype=float)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        p = scipy_stats.ttest_ind(T, C, axis=1, equal_var=False, alternative="greater").pvalue
    constant = (np.ptp(T, axis=1) == 0) & (np.ptp(C, axis=1) == 0)
    return np.where(constant, np.where(T[:, 0] > C[:, 0], 0.0, 1.0), p).tolist()


def worst_relative_error(treatments, controls):
    ours = one_sided_t_pvalues(treatments, controls)
    ref = scipy_pvalues(treatments, controls)
    assert [p < P_VALUE for p in ours] == [p < P_VALUE for p in ref]
    return max(abs(o - r) / r if r else abs(o) for o, r in zip(ours, ref))


def _sample(n):
    return st.one_of(
        st.lists(st.integers(0, 1000), min_size=n, max_size=n),
        st.integers(0, 1000).map(lambda v: [v] * n),
    )


def _row(n):
    return st.one_of(
        st.tuples(_sample(n), _sample(n)),
        _sample(n).map(lambda s: (s, list(s))),
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5)).flatmap(lambda n: st.lists(_row(n), min_size=1, max_size=12)))
def test_pvalues_and_decisions_match_scipy(rows):
    assert worst_relative_error([t for t, _ in rows], [c for _, c in rows]) <= REL_TOL


def test_worst_error_over_a_seeded_sweep(capsys):
    """9 000 rows; the observed maximum is printed (``pytest -s``)."""
    rng = random.Random(7)
    worst = 0.0
    for n in (2, 3, 5):
        for _ in range(250):
            hi = rng.choice((2, 5, 40, 1000))
            treatments = [[rng.randint(0, hi) for _ in range(n)] for _ in range(12)]
            controls = [[rng.randint(0, hi) for _ in range(n)] for _ in range(12)]
            worst = max(worst, worst_relative_error(treatments, controls))
    with capsys.disabled():
        print(f"\nwelch vs scipy: max relative p-value error {worst:.3g}")
    assert worst <= REL_TOL
