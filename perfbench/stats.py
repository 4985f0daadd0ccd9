"""Percentiles by the nearest-rank rule, with the sample counts behind them."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many samples of ``count`` lie beyond the nearest-rank ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (the lowest and highest quarter dropped)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("interquartile mean of an empty sample")
    cut = len(ordered) // 4
    middle = ordered[cut : len(ordered) - cut]
    return sum(middle) / len(middle)


def latency_metrics(prefix: str, windows: Sequence[Sequence[float]], to_ms: float, record: dict) -> dict:
    """``{prefix}_p50_ms`` and ``{prefix}_p90_ms``: medians over consecutive windows.

    Each window's p50 and p90 are taken separately and the median across
    windows is reported, so a host stall that spoils one window does not
    move the result.  The whole sample's p99 and count go to ``record``; the
    sample must be large enough that its p99 has ten samples beyond it.
    """
    ordered = sorted(value for window in windows for value in window)
    if beyond(len(ordered), 99) < 10:
        raise RuntimeError(
            f"{prefix}: {len(ordered)} samples leave fewer than 10 beyond the p99; "
            "lengthen the phase"
        )
    per_window = [sorted(window) for window in windows if window]
    p50s = [percentile(window, 50) * to_ms for window in per_window]
    p90s = [percentile(window, 90) * to_ms for window in per_window]
    record[prefix] = {
        "samples": len(ordered),
        "p99_ms": percentile(ordered, 99) * to_ms,
        "window_p50_ms": [round(value, 4) for value in p50s],
        "window_p90_ms": [round(value, 4) for value in p90s],
    }
    return {f"{prefix}_p50_ms": median(p50s), f"{prefix}_p90_ms": median(p90s)}
