"""Seeded request values and the read oracle.

Every value the benchmark writes is a deterministic function of
``(seed, key index, version)``, drawn from the repository's own dataset
generators, so a reply can be checked without storing what was sent.
Version 0 of a key is its preload (or first ingest) value.
"""

from __future__ import annotations

from repro.datasets import load_dataset

#: Version-0 values are generated in seeded blocks of this many keys.
_BLOCK = 512


def key_name(index: int) -> str:
    """The wire key of key index ``index`` (fixed width, so keys sort by index)."""
    return f"user{index:09d}"


class ValueSource:
    """``value(key_index, version)`` for one dataset and seed."""

    def __init__(self, dataset: str, seed: int) -> None:
        self.dataset = dataset
        self.seed = seed
        self._blocks: dict[tuple[int, int], list[str]] = {}

    def value(self, index: int, version: int) -> str:
        # Version 0 (preloads, ingested keys) covers runs of consecutive keys;
        # later versions are overwrites of scattered keys, generated one at a
        # time so that one overwrite does not generate a whole block.
        size = _BLOCK if version == 0 else 1
        block_key = (index // size, version)
        block = self._blocks.get(block_key)
        if block is None:
            block = load_dataset(
                self.dataset,
                count=size,
                seed=(self.seed * 1_000_003 + block_key[0]) * 1_000_003 + version,
            )
            self._blocks[block_key] = block
        return block[index % size]


class Oracle:
    """Tracks per-key versions and judges every GET reply.

    A GET may return the version acknowledged last before it was sent, or
    any later version that was sent before its reply arrived (still in
    flight).  ``None`` is right only when no version had been acknowledged.
    Versions are allocated when a schedule is built, marked sent when the
    frame leaves, and acknowledged when the OK arrives.
    """

    def __init__(self, values: ValueSource) -> None:
        self.values = values
        self.acked: dict[int, int] = {}
        self.sent: dict[int, int] = {}
        self._allocated: dict[int, int] = {}

    def preloaded(self, indices) -> None:
        """Record that version 0 of every key in ``indices`` is acknowledged."""
        for index in indices:
            self.acked[index] = 0
            self.sent[index] = 0
            self._allocated[index] = 0

    def allocate(self, index: int) -> int:
        """The version the next scheduled SET of ``index`` writes."""
        version = self._allocated.get(index, -1) + 1
        self._allocated[index] = version
        return version

    def mark_sent(self, index: int, version: int) -> None:
        if version > self.sent.get(index, -1):
            self.sent[index] = version

    def ack(self, index: int, version: int) -> None:
        if version > self.acked.get(index, -1):
            self.acked[index] = version

    def check(self, index: int, low: int, high: int, value: str | None) -> bool:
        """Whether ``value`` is a version of ``index`` within ``[low, high]``.

        ``low`` is the version acknowledged when the GET was sent (-1: none),
        ``high`` the newest version sent when its reply arrived.
        """
        if value is None:
            return low < 0
        for version in range(max(low, 0), high + 1):
            if self.values.value(index, version) == value:
                return True
        return False
