"""Statistical helpers for fault causality analysis.

The paper uses a one-sided t-test with p = 0.1 to decide whether a loop's
iteration count *statistically increased* in injection runs relative to
profile runs (§4.3).  :func:`one_sided_t_pvalues` is the form FCA uses on
its hot path: all candidate loop sites of a run group are tested in one
call — means, variances and Welch's statistic in numpy over the whole
matrix, then the Student-t tail of each non-degenerate row from
:func:`student_t_sf`, written here on the stdlib so that a campaign
process needs no statistics library.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as _np

_EPS = 1e-15  # the continued fraction stops when a term moves it by less
_TINY = 1e-300  # stands in for a zero denominator (Lentz)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz);
    converges in a few dozen terms for ``x < (a + 1) / (a + b + 2)``."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        for numerator in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + numerator / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) <= _EPS:
            break
    return h


def student_t_sf(t: float, df: float) -> float:
    """``P(T > t)`` for Student's t with ``df`` (real, > 0) degrees of freedom.

    ``P(|T| > |t|) = I_x(df/2, 1/2)`` with ``x = df / (df + t²)``.  The
    continued fraction is evaluated on whichever of ``I_x(a, b)`` and
    ``1 - I_{1-x}(b, a)`` converges fast, with ``1 - x`` formed as
    ``t² / (df + t²)`` so that no precision is lost near ``t = 0``.
    """
    t2 = t * t
    x = df / (df + t2)
    y = t2 / (df + t2)
    a, b = 0.5 * df, 0.5
    if y <= 0.0:
        two_sided = 1.0
    elif x <= 0.0:
        two_sided = 0.0
    else:
        log_front = (
            math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
            + a * math.log(x) + b * math.log(y)
        )
        if x < (a + 1.0) / (a + b + 2.0):
            two_sided = math.exp(log_front) * _beta_continued_fraction(a, b, x) / a
        else:
            two_sided = 1.0 - math.exp(log_front) * _beta_continued_fraction(b, a, y) / b
    return 0.5 * two_sided if t >= 0.0 else 1.0 - 0.5 * two_sided


def one_sided_t_pvalues(
    treatments: Sequence[Sequence[float]], controls: Sequence[Sequence[float]]
) -> List[float]:
    """P-values for ``mean(treatments[i]) > mean(controls[i])`` (Welch,
    one-sided), one per row.

    All rows of each matrix must have equal length (they come from the
    repeated runs of one run group).  Degenerate cases are resolved the
    way the analysis needs them:

    * fewer than two samples on either side → 1.0 (no evidence);
    * both sides constant and equal → 1.0;
    * both sides constant, treatment strictly higher → 0.0 (a deterministic
      increase is maximal evidence);
    * both sides constant, treatment lower → 1.0.
    """
    n_rows = len(treatments)
    if n_rows == 0:
        return []
    T = _np.asarray(treatments, dtype=float)
    C = _np.asarray(controls, dtype=float)
    nt, nc = T.shape[1], C.shape[1]
    if nt < 2 or nc < 2:
        return [1.0] * n_rows
    diff = T.mean(axis=1) - C.mean(axis=1)
    vt = T.var(axis=1, ddof=1) / nt
    vc = C.var(axis=1, ddof=1) / nc
    total = vt + vc
    # 0/0 on the rows where both sides are constant; never read below.
    with _np.errstate(divide="ignore", invalid="ignore"):
        t = diff / _np.sqrt(total)
        df = total**2 / (vt**2 / (nt - 1) + vc**2 / (nc - 1))
    return [
        student_t_sf(t_i, df_i) if var_i > 0.0 else (0.0 if diff_i > 0.0 else 1.0)
        for diff_i, var_i, t_i, df_i in zip(
            diff.tolist(), total.tolist(), t.tolist(), df.tolist()
        )
    ]


def one_sided_t_pvalue(treatment: Sequence[float], control: Sequence[float]) -> float:
    """:func:`one_sided_t_pvalues` for one pair of samples (which, alone,
    may differ in length)."""
    return one_sided_t_pvalues([treatment], [control])[0]
