"""Spans around the public calls of each layer, recorded from outside the program.

:func:`install` replaces each traced callable *where it is looked up* (a
class attribute, or a module global such as ``repro.net.server.encode_frame``)
with a wrapper that records a span and returns the call's result or re-raises
its exception unchanged.  Parents are tracked per thread, so a span's
children are exactly the traced calls it made on its own thread; work handed
to another thread (shard executors, the compaction scheduler) starts a new
root there and is reported as background work.

A span's *self time* is its duration minus the part of it its children
cover.  Spans stay in memory and are written out once, when the traced
process ends; :func:`analyse` turns them into per-call counts and times.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

#: Thread-name prefixes whose root spans are background work.
BACKGROUND_THREADS = ("kv-shard-", "lsm-compaction-")

# Span layout (a list, so the wrapper can fill in the end time in place).
NAME, THREAD, START, END, PARENT, UNITS = range(6)


class SpanRecorder:
    """Collects spans from every thread of the process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.threads: dict[int, str] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.current_thread()
            self.threads[threading.get_ident()] = thread.name
        return stack

    def wrap(
        self,
        name: str,
        function: Callable,
        units: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        """``function`` wrapped in a ``name`` span; ``units(args, result)`` tags it."""
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans = self.spans
        clock = time.perf_counter_ns
        get_ident = threading.get_ident
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name_id, get_ident(), clock(), 0, stack[-1] if stack else None, 0]
            spans.append(span)
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if units is not None:
                span[UNITS] = units(args, result)
            return result

        return functools.wraps(function)(traced)

    def dump(self) -> dict:
        """The spans as plain data; parents become list indices."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        rows = [
            [
                span[NAME],
                span[THREAD],
                span[START],
                span[END],
                -1 if span[PARENT] is None else index.get(id(span[PARENT]), -1),
                span[UNITS],
            ]
            for span in self.spans
        ]
        return {
            "names": self.names,
            "threads": {str(tid): name for tid, name in self.threads.items()},
            "spans": rows,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle)


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every traced call of every layer; returns a function that undoes it."""
    import repro.net.server as net_server
    from repro.codecs.base import RecordCoder
    from repro.compressors.fsst import FSSTCodec
    from repro.core.compressor import PBCCompressor, PBCFCompressor
    from repro.core.matcher import MultiPatternMatcher
    from repro.lsm.engine import LSMEngine
    from repro.net.protocol import FrameDecoder
    from repro.oplog.disk import DiskSink
    from repro.oplog.log import OperationLog
    from repro.service.cache import CompressedLRUCache
    from repro.service.service import KVService
    from repro.tierbase.compression import VersionedValueCompressor
    from repro.tierbase.store import TierBase

    frames = lambda args, result: len(result)  # noqa: E731
    is_none = lambda args, result: int(result is None)  # noqa: E731
    is_hit = lambda args, result: int(result is not None)  # noqa: E731
    drains = lambda args, result: int(args[0].sync_mode != "none")  # noqa: E731
    characters = lambda args, result: len(args[1])  # noqa: E731

    targets = [
        ("net.decode", FrameDecoder, "feed", frames),
        ("net.encode", net_server, "encode_frame", None),
        ("service.get", KVService, "get", None),
        ("service.get", KVService, "mget", None),
        ("service.set", KVService, "set", None),
        ("service.set", KVService, "mset", None),
        ("service.cache_get", CompressedLRUCache, "get", is_hit),
        ("tierbase.get", TierBase, "get_compressed", None),
        ("tierbase.set", TierBase, "set", None),
        ("lsm.get", LSMEngine, "get", None),
        ("lsm.put", LSMEngine, "put", None),
        ("lsm.put", LSMEngine, "put_many", None),
        ("lsm.flush", LSMEngine, "flush", None),
        ("oplog.append", OperationLog, "append", None),
        ("oplog.append", OperationLog, "append_many", None),
        ("oplog.sink_append", DiskSink, "append", drains),
        ("oplog.sink_flush", DiskSink, "flush", None),
        ("oplog.sink_flush", DiskSink, "sync", None),
        ("oplog.fsync", DiskSink, "_fsync", None),
        ("codecs.compress", VersionedValueCompressor, "compress", None),
        ("codecs.decompress", VersionedValueCompressor, "decompress", None),
        ("codecs.compress", RecordCoder, "compress", None),
        ("codecs.decompress", RecordCoder, "decompress", None),
        ("core.compress", PBCCompressor, "compress", characters),
        ("core.decompress", PBCCompressor, "decompress", None),
        ("core.match", MultiPatternMatcher, "match", is_none),
        ("core.train", PBCCompressor, "train", None),
        ("core.train", PBCFCompressor, "train", None),
        ("compressors.fsst", FSSTCodec, "compress", None),
        ("compressors.fsst", FSSTCodec, "decompress", None),
    ]
    originals = []
    for name, owner, attribute, units in targets:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(name, original, units))

    def undo() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return undo


# ---------------------------------------------------------------- analysis


@dataclass
class CallStats:
    count: int = 0
    self_ns: int = 0
    total_ns: int = 0
    units: int = 0
    #: inclusive time of the spans not nested in a span of the same name.
    outer_ns: int = 0


@dataclass
class Analysis:
    calls: dict[str, CallStats] = field(default_factory=dict)
    background_self_ns: int = 0
    roots: int = 0
    #: roots whose subtree self times do not sum to the root's duration.
    unbalanced_roots: int = 0
    #: GET-side child counts, keyed by (child name, parent name).
    edges: dict[tuple[str, str], CallStats] = field(default_factory=dict)

    def get(self, name: str) -> CallStats:
        return self.calls.get(name, CallStats())

    def edge(self, child: str, parent: str) -> CallStats:
        return self.edges.get((child, parent), CallStats())


def analyse(dump: dict, window: tuple[int, int] | None = None) -> Analysis:
    """Per-name counts and self times of a dumped span set.

    Unfinished spans (still open when the process wrote its spans) and
    their descendants are skipped.  With ``window = (start_ns, end_ns)`` only
    root spans starting inside it count, with all their descendants.
    """
    names: list[str] = dump["names"]
    threads: dict[str, str] = dump["threads"]
    rows: list[list] = dump["spans"]
    count = len(rows)
    finished = [row[END] >= row[START] and row[END] > 0 for row in rows]
    # A span counts only if it and all its ancestors finished.
    alive = [False] * count
    for position, row in enumerate(rows):
        parent = row[PARENT]
        if parent >= 0:
            alive[position] = finished[position] and alive[parent]
        else:
            alive[position] = finished[position] and (
                window is None or window[0] <= row[START] <= window[1]
            )
    covered = [0] * count
    for position, row in enumerate(rows):
        parent = row[PARENT]
        if not alive[position] or parent < 0:
            continue
        parent_row = rows[parent]
        overlap = min(row[END], parent_row[END]) - max(row[START], parent_row[START])
        if overlap > 0:
            covered[parent] += overlap
    analysis = Analysis()
    self_times = [0] * count
    for position, row in enumerate(rows):
        if not alive[position]:
            continue
        name = names[row[NAME]]
        duration = row[END] - row[START]
        self_time = duration - covered[position]
        self_times[position] = self_time
        stats = analysis.calls.setdefault(name, CallStats())
        stats.count += 1
        stats.self_ns += self_time
        stats.total_ns += duration
        stats.units += row[UNITS]
        parent = row[PARENT]
        if parent < 0 or names[rows[parent][NAME]] != name:
            stats.outer_ns += duration
        if parent >= 0:
            edge = analysis.edges.setdefault((name, names[rows[parent][NAME]]), CallStats())
            edge.count += 1
            edge.self_ns += self_time
            edge.units += row[UNITS]
        elif threads.get(str(row[THREAD]), "").startswith(BACKGROUND_THREADS):
            analysis.background_self_ns += self_time
    # Check: the self times of a root's subtree sum to the root's duration.
    subtree = list(self_times)
    for position in range(count - 1, -1, -1):
        parent = rows[position][PARENT]
        if alive[position] and parent >= 0:
            subtree[parent] += subtree[position]
    for position, row in enumerate(rows):
        if alive[position] and row[PARENT] < 0:
            analysis.roots += 1
            if subtree[position] != row[END] - row[START]:
                analysis.unbalanced_roots += 1
    return analysis
