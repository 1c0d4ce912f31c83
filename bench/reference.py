"""The reference kernel that job times are divided by.

The benchmark machine is a shared two-CPU VM whose speed drifts by tens of
percent within a minute.  A job time divided by the time of a fixed piece
of work timed right beside it cancels most of that drift, because both
slow down together.  The kernel mixes the operations radialscope spends
its time on: pure-Python int and dict work, `Fraction` arithmetic (the
exact normal form) and small numpy calls (the flow and quadrature layers).

Do not change this file once baselines exist: every `_ref` figure is in
units of this kernel's run time.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


def reference_kernel() -> int:
    """About 10 ms of fixed work on the reference machine; returns a checksum."""
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(1, 1000):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(i % 5 + 1, i % 3 + 1)
        key = (i * 2654435761) % 1021
        table[key] = table.get(key, 0) + i * i
    total = sum(table.values())
    vec = np.linspace(0.0, 1.0, 64)
    for _ in range(400):
        vec = np.sqrt(vec * vec + 0.5) - 0.25 * np.sin(vec)
    return acc.numerator % 1009 + total % 1013 + int(vec.sum() * 1e6) % 1019


def time_reference() -> float:
    """Wall time of one reference-kernel call, in seconds."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0
