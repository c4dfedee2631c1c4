"""The reference kernel that defines the benchmark's time unit.

The host's vCPU switches between a fast and a slow speed every ~0.1 s, so a
raw wall-clock reading mostly measures the host.  Every timed call is
therefore bracketed by this kernel, run in the same thread right before and
right after it, and reported in reference-normalised seconds:

    normalised = raw / mean(kernel_before, kernel_after) * NOMINAL_S

The kernel uses only the standard library (``Fraction`` arithmetic plus dict
updates, as a sparse polynomial product) and no supersphere code, so no change
to the program can move it.
``NOMINAL_S`` is a pinned constant, never re-measured, so two commits
measured on different days report in the same unit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

# About the kernel's median on the 2-vCPU guest described in README.md
# (Python 3.11), where its readings span ~6-12 ms; a normalised second there
# reads about like a wall-clock second.
NOMINAL_S = 0.010

# Two fixed sparse polynomials: monomial (even part, odd part) -> Fraction,
# shaped like the program's own monomials, so the kernel hashes tuples, grows
# dicts and allocates the way the program does.  At the whole-run level this
# tracked the program's speed about twice as well as plain Fraction
# arithmetic on a 32-entry dict (see README.md).
_P = {(((i % 5, 1 + i % 3), (5 + i % 4, 1)), (i % 2,)): Fraction(i % 7 - 3 or 1, 1 + i % 5)
      for i in range(36)}
_Q = {(((i % 6, 1 + i % 2), (4 + i % 5, 2)), ()): Fraction(2 - i % 4 or 3, 2 + i % 3)
      for i in range(40)}
# The kernel's exact result; a mismatch means the kernel did other work.
EXPECTED = Fraction(353003, 360)


def kernel() -> Fraction:
    """The product of the two polynomials, reduced to a checksum; about 6-12 ms."""
    out: dict = {}
    for (e1, o1), c1 in _P.items():
        for (e2, o2), c2 in _Q.items():
            acc = dict(e1)
            for i, e in e2:
                acc[i] = acc.get(i, 0) + e
            key = (tuple(sorted(acc.items())), o1 + o2)
            v = c1 * c2
            out[key] = out[key] + v if key in out else v
    return sum(out.values()) + len(out)


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def check_kernel() -> None:
    got = kernel()
    if got != EXPECTED:
        raise RuntimeError("reference kernel returned %s, expected %s" % (got, EXPECTED))


@dataclass
class Timing:
    raw: float               # wall-clock seconds of the call
    norm: float              # the same call in normalised seconds
    factor: float            # normalised seconds per raw second around the call
    kernels: tuple[float, float]  # the kernel readings before and after


def bracketed(fn):
    """Run fn between two kernel readings; returns (result, Timing)."""
    before = kernel_seconds()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    after = kernel_seconds()
    factor = NOMINAL_S / ((before + after) / 2.0)
    return result, Timing(raw, raw * factor, factor, (before, after))
