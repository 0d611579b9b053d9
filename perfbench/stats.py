"""Summary statistics used by the benchmark and its steadiness check."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles.
    """
    values = list(values)
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def share(part, base) -> float:
    """``part / base``; 0.0 when the base is 0, so report the base beside it."""
    return part / base if base else 0.0
