"""Deterministic key choosers: zipfian over a fixed key set, and sequential."""

from __future__ import annotations

import bisect
import itertools
import random


class ZipfianChooser:
    """Draws key indices ``0..n-1`` with P(i) proportional to ``1 / (i+1)**theta``.

    Rank 0 is the hottest key.  The ranks are shuffled onto key indices with
    the same seed, so the hot keys are spread over the key space (and over
    the server's shards) instead of clustering at the low indices.
    """

    def __init__(self, n: int, theta: float, seed: int) -> None:
        if n < 1:
            raise ValueError("zipfian chooser needs at least one key")
        self._rng = random.Random(f"zipf:{seed}:{n}:{theta}")
        self._cumulative = list(
            itertools.accumulate(1.0 / (rank + 1) ** theta for rank in range(n))
        )
        self._total = self._cumulative[-1]
        self._index_of_rank = list(range(n))
        self._rng.shuffle(self._index_of_rank)

    def next(self) -> int:
        point = self._rng.random() * self._total
        rank = min(bisect.bisect_right(self._cumulative, point), len(self._cumulative) - 1)
        return self._index_of_rank[rank]


class SequentialChooser:
    """Hands out new key indices ``start, start+1, ...`` (append-only ingest)."""

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def next(self) -> int:
        index = self._next
        self._next += 1
        return index
