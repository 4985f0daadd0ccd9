"""``codec-paper``: the paper's product, per-record PBC_F, in one thread.

For each dataset, train a :class:`~repro.core.PBCFCompressor` on a seeded
256-record sample (the offline phase, ``setup_s``), compress every record,
then decompress every record in seeded random order (random access) and
check each round trip.  Reads are decompressions, writes are compressions.
"""

from __future__ import annotations

import gc
import random
import time
from array import array

from repro.core import ExtractionConfig, PBCFCompressor
from repro.datasets import load_dataset

from perfbench import procfs
from perfbench.layers import WIRE_ONLY, overhead_metrics, span_metrics
from perfbench.stats import median, percentile
from perfbench.tracing import SpanRecorder, analyse, install

#: The paper's KV, log and JSON families; ``cities`` makes training heavy.
DATASETS = ("kv1", "apache", "hdfs", "cities")
SAMPLE = 256
MAX_PATTERNS = 16
#: Trainings per run; ``setup_s`` is their median.
SETUPS = 3


def _throughput(reads: list[int], writes: list[int]) -> float:
    """Record operations per second of codec time over the fastest 99% of each.

    ``reads`` and ``writes`` are ascending nanosecond timings.  A host
    preemption landing inside one 20-microsecond operation would otherwise
    weigh as much as hundreds of operations.
    """
    kept = int(len(reads) * 0.99)
    return 2 * kept / ((sum(reads[:kept]) + sum(writes[:kept])) / 1e9)


class CodecRun:
    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.records = {name: load_dataset(name, seed=seed) for name in DATASETS}
        self.samples = {
            name: random.Random(f"sample:{name}:{seed}").sample(records, SAMPLE)
            for name, records in self.records.items()
        }
        self.orders = {
            name: random.Random(f"order:{name}:{seed}").sample(range(len(records)), len(records))
            for name, records in self.records.items()
        }
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.unbalanced_roots = 0
        self.record = {
            "records": {name: len(records) for name, records in self.records.items()},
            "sample": SAMPLE,
            "max_patterns": MAX_PATTERNS,
        }

    def train(self) -> tuple[dict[str, PBCFCompressor], float]:
        started = time.perf_counter()
        compressors = {}
        for name in DATASETS:
            compressor = PBCFCompressor(config=ExtractionConfig(max_patterns=MAX_PATTERNS))
            compressor.train(self.samples[name])
            compressors[name] = compressor
        return compressors, time.perf_counter() - started

    def _round(self, compressors, writes: array, reads: array) -> tuple[int, int]:
        """Compress then randomly decompress every record once; returns (raw, stored) bytes."""
        clock = time.perf_counter_ns
        raw = stored = 0
        for name in DATASETS:
            compressor = compressors[name]
            records = self.records[name]
            payloads = []
            for record in records:
                started = clock()
                payload = compressor.compress(record)
                writes.append(clock() - started)
                payloads.append(payload)
                raw += len(record.encode("utf-8"))
                stored += len(payload)
            for index in self.orders[name]:
                started = clock()
                restored = compressor.decompress(payloads[index])
                reads.append(clock() - started)
                if restored != records[index]:
                    self.wrong += 1
            self.attempted += 2 * len(records)
        return raw, stored

    def _measure(self, compressors, record: dict, seconds: float, rounds: int | None = None) -> dict:
        """Rounds for ``seconds`` (or exactly ``rounds``), collector paused.

        The garbage collector is paused so the per-record times measure the
        codec, not collections triggered by the benchmark's own bookkeeping.
        Each round is reduced to its percentiles and throughput at once (so
        memory does not grow with the number of rounds); the metrics are
        medians over rounds.
        """
        summaries: dict[str, list[tuple[float, float, float]]] = {"read": [], "write": []}
        throughputs = []
        gc.collect()
        gc.disable()
        try:
            cpu_before = procfs.cpu_seconds()
            started = time.perf_counter()
            done = 0
            while True:
                writes, reads = array("q"), array("q")
                raw, stored = self._round(compressors, writes, reads)
                writes, reads = sorted(writes), sorted(reads)
                for name, ordered in (("read", reads), ("write", writes)):
                    summaries[name].append(
                        tuple(percentile(ordered, q) * 1e-6 for q in (50, 90, 99))
                    )
                throughputs.append(_throughput(reads, writes))
                done += 1
                if done == rounds or (rounds is None and time.perf_counter() - started >= seconds):
                    break
            cpu = procfs.cpu_seconds() - cpu_before
        finally:
            gc.enable()
        per_round = sum(len(records) for records in self.records.values())
        record["rounds"] = done
        metrics = {"compression_ratio": raw / stored}
        for name, rows in summaries.items():
            metrics[f"{name}_p50_ms"] = median([row[0] for row in rows])
            metrics[f"{name}_p90_ms"] = median([row[1] for row in rows])
            record[name] = {"samples": done * per_round, "p99_ms": median([row[2] for row in rows])}
        metrics["capacity_ops_s"] = median(throughputs)
        metrics["cpu_us_per_op"] = cpu / (2 * done * per_round) * 1e6
        return metrics

    def measure(self) -> dict:
        setups = []
        compressors = None
        for _ in range(SETUPS):
            compressors, elapsed = self.train()
            setups.append(elapsed)
        self.record["setup_s_samples"] = setups
        metrics = self._measure(compressors, self.record, self.seconds)
        self.record["p90_ms"] = {name: metrics.pop(f"{name}_p90_ms") for name in ("read", "write")}
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = procfs.peak_rss_mib()
        return metrics

    def trace(self) -> dict:
        compressors, _ = self.train()
        untraced = self._measure(compressors, self.record.setdefault("untraced", {}), 0.0, rounds=1)
        recorder = SpanRecorder()
        undo = install(recorder)
        try:
            compressors, _ = self.train()
            traced = self._measure(compressors, self.record.setdefault("traced", {}), 0.0, rounds=1)
        finally:
            undo()
        dump = recorder.dump()
        analysis = analyse(dump)
        self.unbalanced_roots = analysis.unbalanced_roots
        self.record["trace_roots"] = analysis.roots
        metrics = span_metrics(analysis)
        metrics.update(dict.fromkeys(WIRE_ONLY, 0.0))
        metrics.update(overhead_metrics(untraced, traced))
        return metrics
