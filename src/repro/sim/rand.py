"""Small randomness helpers for seeded, repeatable workload variation."""

from __future__ import annotations

import random


def jittered(rng: random.Random, base: float, frac: float = 0.1) -> float:
    """``base`` scaled by a uniform factor in ``[1-frac, 1+frac]``.

    Workloads use this to give loop iteration counts natural run-to-run
    variance, which the one-sided t-test of the fault causality analysis
    needs to be meaningful.
    """
    if frac <= 0.0:
        return base
    return base * rng.uniform(1.0 - frac, 1.0 + frac)
