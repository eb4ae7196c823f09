"""Statistical helpers for fault causality analysis.

The paper uses a one-sided t-test with p = 0.1 to decide whether a loop's
iteration count *statistically increased* in injection runs relative to
profile runs (§4.3).  :func:`one_sided_t_pvalues` is the batched form FCA
uses on its hot path: all candidate loop sites of a run group are tested
in one vectorized numpy/scipy call instead of one python-level t-test per
site.
"""

from __future__ import annotations

import warnings
from typing import List, Sequence

import numpy as _np
from scipy import stats as _scipy_stats


def one_sided_t_pvalue(treatment: Sequence[float], control: Sequence[float]) -> float:
    """P-value for ``mean(treatment) > mean(control)`` (Welch one-sided).

    Degenerate cases are resolved the way the analysis needs them:

    * fewer than two samples on either side → 1.0 (no evidence);
    * both sides constant and equal → 1.0;
    * both sides constant, treatment strictly higher → 0.0 (a deterministic
      increase is maximal evidence);
    * both sides constant, treatment lower → 1.0.
    """
    if len(treatment) < 2 or len(control) < 2:
        return 1.0
    mt = sum(treatment) / len(treatment)
    mc = sum(control) / len(control)
    vt = sum((x - mt) ** 2 for x in treatment) / (len(treatment) - 1)
    vc = sum((x - mc) ** 2 for x in control) / (len(control) - 1)
    if vt == 0.0 and vc == 0.0:
        return 0.0 if mt > mc else 1.0
    with warnings.catch_warnings():
        # Near-identical samples trigger a precision-loss RuntimeWarning;
        # the resulting p-value is still on the right side of 0.1.
        warnings.simplefilter("ignore", RuntimeWarning)
        result = _scipy_stats.ttest_ind(
            list(treatment), list(control), equal_var=False, alternative="greater"
        )
    return float(result.pvalue)


def one_sided_t_pvalues(
    treatments: Sequence[Sequence[float]], controls: Sequence[Sequence[float]]
) -> List[float]:
    """Row-wise batch of :func:`one_sided_t_pvalue`.

    ``treatments[i]`` is tested against ``controls[i]``; all rows of each
    matrix must have equal length (they come from the repeated runs of one
    run group).  Decisions are identical to calling the scalar function
    per row — the degenerate cases are resolved the same way, and the
    non-degenerate rows go through the same Welch test, just vectorized.
    """
    n_rows = len(treatments)
    if n_rows == 0:
        return []
    T = _np.asarray(treatments, dtype=float)
    C = _np.asarray(controls, dtype=float)
    out = _np.ones(n_rows)
    if T.shape[1] < 2 or C.shape[1] < 2:
        return out.tolist()
    mt = T.mean(axis=1)
    mc = C.mean(axis=1)
    vt = T.var(axis=1, ddof=1)
    vc = C.var(axis=1, ddof=1)
    const = (vt == 0.0) & (vc == 0.0)
    out[const & (mt > mc)] = 0.0
    live = ~const
    if live.any():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = _scipy_stats.ttest_ind(
                T[live], C[live], axis=1, equal_var=False, alternative="greater"
            )
        out[live] = result.pvalue
    return [float(p) for p in out]


def significant_increase(
    treatment: Sequence[float], control: Sequence[float], p_value: float = 0.1
) -> bool:
    """True if treatment counts statistically exceed control counts."""
    if not treatment:
        return False
    return one_sided_t_pvalue(treatment, control) < p_value
