"""Probes of the host's momentary speed.

The host's speed drifts: on the reference machine a fixed loop ran up to twice
as slow, in spells of a few seconds to a minute. A probe, a short fixed piece
of work, runs just before and just after each timed interval. :func:`scaled`
divides the interval by the mean of the two probes and multiplies it by
``REFERENCE_S``, what a probe takes on the quiet reference machine, so that
the interval reads as it would there.

The slowdown is not the same for every kind of work: interpreted Python slows
more than numpy's array loops. So there are two probes, and a workload uses
the one that does the kind of work its requests do. The probes are the
benchmark's own code: a change to gcdft moves a scaled time as much as the
raw one.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 1.0e-3
_K = np.arange(1, 10001, dtype=np.int64)


def fraction_probe() -> float:
    """Seconds a fixed loop of Fraction and integer arithmetic takes now."""
    start = time.perf_counter()
    for _ in range(2):
        total = Fraction(0)
        for i in range(1, 200):
            total += Fraction(i % 7 + 1, i)
    return time.perf_counter() - start


def array_probe() -> float:
    """Seconds a fixed numpy gcd, complex exponential and masked sum take
    now: the operations of the brute float oracle."""
    start = time.perf_counter()
    g = np.gcd(_K, 5040)
    w = np.exp(-2j * np.pi * ((_K * 7) % 10000) / 10000)
    w[g == 1].sum()
    w[g == 2].sum()
    return time.perf_counter() - start


PROBES = {"fraction": fraction_probe, "array": array_probe}


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` seconds, read between probes ``before`` and ``after``, at
    the reference machine's speed."""
    return elapsed * 2 * REFERENCE_S / (before + after)
