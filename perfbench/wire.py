"""The two wire workloads: ``repro serve`` in a subprocess, driven open-loop.

``wire-read`` preloads kv1 values into the in-memory TierBase backend and
reads them with zipfian skew; ``wire-ingest`` appends hdfs log lines to the
LSM backend while reading back keys it already wrote.  Both run a
nominal-rate phase (the latency metrics) and then the capacity phase.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import json
import os
import random
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from perfbench import procfs
from perfbench.keys import SequentialChooser, ZipfianChooser
from perfbench.layers import overhead_metrics, prometheus_totals, span_metrics, wire_metrics
from perfbench.openloop import GET, OK, SET, LoadClient, Phase, build_phase
from perfbench.oracle import Oracle, ValueSource, key_name
from perfbench.server import ServerProcess
from perfbench.stats import interquartile_mean, latency_metrics, median, percentile
from perfbench.tracing import analyse


@dataclass(frozen=True)
class WireWorkload:
    """One wire workload: the server it starts and the traffic it offers."""

    name: str
    backend: str
    dataset: str
    #: keys written before the measured phases (version 0 of keys 0..n-1).
    preload: int
    #: share of requests that are SETs.
    set_share: float
    #: fixed rate (ops/s) of the latency phase: well below the lowest capacity
    #: the reference host showed in its slow periods, so the phase measures
    #: the server rather than a growing queue.
    nominal_rate: float
    #: requests in each block of the capacity phase (a fixed amount of work).
    capacity_requests: int
    #: 0 = SETs append new keys and GETs read keys already written.
    zipf_theta: float = 0.0
    #: WAL durability per acknowledged write (lsm only).
    sync_mode: str | None = None

    def sizes(self) -> dict:
        """The sizes and settings a run record reports."""
        return {
            "keys_preloaded": self.preload,
            "set_share": self.set_share,
            "nominal_rate": self.nominal_rate,
            "capacity_requests": self.capacity_requests,
            "capacity_window": CAPACITY_WINDOW,
            "capacity_blocks": CAPACITY_BLOCKS,
            "cache_entries": CACHE_ENTRIES,
            "memtable_bytes": LSM_MEMTABLE_BYTES if self.backend == "lsm" else 0,
            "sync_mode": self.sync_mode,
            "shards": SHARDS,
            "connections": CONNECTIONS,
        }


WIRE_READ = WireWorkload(
    name="wire-read",
    backend="tierbase",
    dataset="kv1",
    preload=20_000,
    set_share=0.20,
    nominal_rate=400.0,
    capacity_requests=2_000,
    zipf_theta=0.99,
)

WIRE_INGEST = WireWorkload(
    name="wire-ingest",
    backend="lsm",
    dataset="hdfs",
    preload=4_000,
    set_share=0.70,
    nominal_rate=250.0,
    capacity_requests=1_500,
    sync_mode="flush",
)

SHARDS = 2
#: The server's default compressed read cache; wire-read's working set is
#: about 20 times larger.
CACHE_ENTRIES = 1024
#: Per-shard memtable of ``repro serve --backend lsm`` (its fixed default).
LSM_MEMTABLE_BYTES = 64 * 1024
#: Connections the load process opens (one per core of the reference host).
CONNECTIONS = 2
#: Windows the nominal phase is split into for the latency medians, and its
#: CPU sampling intervals (2 s each at 30 s): the reference host slows by
#: 40-80% for 0.1-0.3 s now and then, and a median over windows ignores those.
WINDOWS = 15
#: Generator lateness p99 beyond which a nominal phase is invalid.
MAX_LATENESS_S = 0.050
#: Requests the capacity phase keeps outstanding (over all connections).
CAPACITY_WINDOW = 64
#: Measured blocks of the capacity phase, half on each of two servers, each
#: half after one warm-up block (the first block after the preload ran up
#: to 30% off the later ones).  Single
#: blocks of about half a second vary by ±25% with the host's slow spells;
#: the median of 16 ignores those.
CAPACITY_BLOCKS = 16
#: Offered rate of the capacity phase: every request is due at once, so the
#: window alone paces the load.
UNPACED = 1e9
#: GETs in wire-ingest only pick keys whose SET was due this long ago.
INGEST_READ_LAG_S = 0.25


def _serve_args(workload: WireWorkload, data_dir: Path | None) -> list[str]:
    args = [
        "serve",
        "--backend", workload.backend,
        "--compressor", "pbc_f",
        "--shards", str(SHARDS),
        "--train-dataset", workload.dataset,
        "--cache-entries", str(CACHE_ENTRIES),
    ]
    if workload.sync_mode is not None:
        args += ["--sync-mode", workload.sync_mode]
    if data_dir is not None:
        args += ["--data-dir", str(data_dir)]
    return args


class _Chooser:
    """The workload's request stream: ``choose() -> (op, key_index)``.

    With ``zipf_theta`` both GETs and SETs pick preloaded keys with zipfian
    skew (SETs overwrite).  Without it, SETs append new sequential keys and
    GETs pick uniformly among keys preloaded or scheduled for writing at
    least :data:`INGEST_READ_LAG_S` earlier (schedule time).
    """

    def __init__(self, workload: WireWorkload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(f"mix:{workload.name}:{seed}")
        self.zipf = (
            ZipfianChooser(workload.preload, workload.zipf_theta, seed)
            if workload.zipf_theta
            else None
        )
        self.sequence = SequentialChooser(workload.preload)
        self.scheduled: deque[tuple[float, int]] = deque()
        self.readable = workload.preload
        self.clock = 0.0
        self.rate = 1.0

    def bind(self, rate: float) -> "_Chooser":
        self.rate = rate
        return self

    def __call__(self) -> tuple[int, int]:
        self.clock += 1.0 / self.rate
        is_set = self.rng.random() < self.workload.set_share
        if self.zipf is not None:
            return (SET if is_set else GET), self.zipf.next()
        if is_set:
            index = self.sequence.next()
            self.scheduled.append((self.clock, index + 1))
            return SET, index
        horizon = self.clock - INGEST_READ_LAG_S
        while self.scheduled and self.scheduled[0][0] <= horizon:
            self.readable = self.scheduled.popleft()[1]
        return GET, self.rng.randrange(self.readable)


@dataclass
class _Live:
    server: ServerProcess
    client: LoadClient
    data_dir: Path | None


class WireRun:
    """One benchmark run of a wire workload."""

    def __init__(self, workload: WireWorkload, seed: int, seconds: float, root: Path, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = work
        self.values = ValueSource(workload.dataset, seed)
        self.preload_items = [(i, self.values.value(i, 0)) for i in range(workload.preload)]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.unbalanced_roots = 0
        self.record: dict = {"sizes": workload.sizes()}

    # ------------------------------------------------------------ servers

    async def _start(self, traced_spans: Path | None = None) -> tuple[_Live, float]:
        """Spawn a server and preload it; returns it with the set-up seconds."""
        workload = self.workload
        data_dir = None
        if workload.backend == "lsm":
            data_dir = Path(tempfile.mkdtemp(prefix="lsm-", dir=self.work))
        args = _serve_args(workload, data_dir)
        if traced_spans is None:
            argv = ["repro.cli", *args]
        else:
            argv = ["perfbench.traced_serve", "--spans-out", str(traced_spans), *args]
        started = time.perf_counter()
        server = ServerProcess(argv, self.root)
        client = LoadClient(server.host, server.port, CONNECTIONS, Oracle(self.values))
        live = _Live(server, client, data_dir)
        try:
            await client.open()
            await client.preload(self.preload_items)
        except BaseException:
            await self._stop(live)
            raise
        return live, time.perf_counter() - started

    async def _stop(self, live: _Live, remove: bool = True) -> None:
        try:
            await live.client.close()
        except (OSError, asyncio.TimeoutError):
            pass
        finally:
            live.server.stop()
            if remove and live.data_dir is not None:
                shutil.rmtree(live.data_dir, ignore_errors=True)

    # ------------------------------------------------------------- phases

    async def _phase(
        self, live: _Live, chooser: _Chooser, rate: float, count: int, window: int | None = None
    ) -> Phase:
        phase = build_phase(rate, count, chooser, live.client.oracle)
        gc.collect()
        gc.disable()
        try:
            await live.client.run(phase, window)
        finally:
            gc.enable()
        if live.client.fatal_errors:
            raise RuntimeError(f"reply stream broken: {live.client.fatal_errors[:3]}")
        self.attempted += len(phase)
        self.failed += phase.failures()
        self.wrong += live.client.verify(phase)
        self.errors.extend(phase.errors[:5])
        return phase

    async def _nominal(self, live: _Live) -> Phase:
        """``--seconds`` of requests at the workload's nominal rate.

        Raises if the generator, not the server, fell behind the schedule:
        such a phase never offered the nominal rate.
        """
        rate = self.workload.nominal_rate
        chooser = _Chooser(self.workload, self.seed).bind(rate)
        phase = await self._phase(live, chooser, rate, max(1, int(rate * self.seconds)))
        lateness = percentile(phase.lateness(), 99)
        if lateness > MAX_LATENESS_S:
            raise RuntimeError(
                f"generator lateness p99 {lateness * 1e3:.1f} ms exceeds "
                f"{MAX_LATENESS_S * 1e3:.0f} ms: the nominal rate was not offered"
            )
        return phase

    @staticmethod
    def _summary(phase: Phase) -> dict:
        lateness = phase.lateness()
        return {
            "rate": phase.rate,
            "achieved": round(phase.achieved_rate(), 1),
            "failures": phase.failures(),
            "lateness_p99_ms": round(percentile(lateness, 99) * 1e3, 3),
            "lateness_max_ms": round(lateness[-1] * 1e3, 3),
            "max_backlog": phase.max_backlog,
            "samples": len(phase),
        }

    def _latency_metrics(self, phase: Phase, record: dict) -> dict:
        return {
            **latency_metrics("read", phase.latency_windows(GET, WINDOWS), 1e3, record),
            **latency_metrics("write", phase.latency_windows(SET, WINDOWS), 1e3, record),
        }

    # ---------------------------------------------------------------- runs

    async def measure(self) -> dict:
        """Untraced run: every end-to-end metric.

        Three set-ups (``setup_s`` is their median).  The first and the third
        server each run half of the capacity phase, so that its blocks are
        spread over the whole run rather than one stretch of the host's
        speed.  The second serves the nominal phase and is then stopped, so
        that the compression ratio and peak RSS describe a fixed amount of
        data.
        """
        workload = self.workload
        setups = []
        blocks = []
        live, elapsed = await self._start()
        setups.append(elapsed)
        try:
            blocks += await self._capacity_blocks(live)
        finally:
            await self._stop(live)

        live, elapsed = await self._start()
        setups.append(elapsed)
        try:
            pid = live.server.pid
            stop = asyncio.Event()
            sampler = asyncio.ensure_future(
                _sample_cpu(pid, self.seconds / WINDOWS, stop)
            )
            try:
                nominal = await self._nominal(live)
            finally:
                stop.set()
                cpu_samples = await sampler
            metrics = self._latency_metrics(nominal, self.record)
            self.record["p90_ms"] = {name: metrics.pop(f"{name}_p90_ms") for name in ("read", "write")}
            metrics["cpu_us_per_op"] = self._cpu_per_op(nominal, cpu_samples)
            self.record["nominal"] = self._summary(nominal)
            if workload.backend == "tierbase":
                stats = await live.client.stats()
                metrics["compression_ratio"] = 1.0 / stats["ratio"]
            metrics["peak_rss_mb"] = procfs.peak_rss_mib(pid)
            live_keys = dict(live.client.oracle.acked)
        finally:
            await self._stop(live, remove=False)
        try:
            if workload.backend == "lsm":
                metrics["compression_ratio"] = self._disk_ratio(live.data_dir, live_keys)
        finally:
            if live.data_dir is not None:
                shutil.rmtree(live.data_dir, ignore_errors=True)

        live, elapsed = await self._start()
        setups.append(elapsed)
        try:
            blocks += await self._capacity_blocks(live)
        finally:
            await self._stop(live)
        self.record["capacity_blocks"] = blocks
        metrics["capacity_ops_s"] = median([block["rate"] for block in blocks])
        metrics["setup_s"] = median(setups)
        self.record["setup_s_samples"] = setups
        return metrics

    def _cpu_per_op(self, phase: Phase, samples: list[tuple[float, float]]) -> float:
        """Server CPU µs per request answered: the interquartile mean over
        sampling intervals wholly inside the phase's schedule (a median would
        read one interval, and the kernel counts CPU time in 10 ms ticks)."""
        done = sorted(phase.done[i] for i in range(len(phase)) if phase.status[i] == OK)
        end = max(phase.due)
        per_op = []
        for (t0, c0), (t1, c1) in zip(samples, samples[1:]):
            if t0 < phase.start or t1 > end:
                continue
            answered = bisect.bisect_left(done, t1) - bisect.bisect_left(done, t0)
            if answered:
                per_op.append((c1 - c0) / answered * 1e6)
        self.record["cpu_us_per_op_windows"] = [round(value, 1) for value in per_op]
        return interquartile_mean(per_op)

    async def _capacity_blocks(self, live: _Live) -> list[dict]:
        """Half of the capacity phase on one fresh server.

        Requests per second the server completes while the load process
        keeps :data:`CAPACITY_WINDOW` requests outstanding (a closed loop: the
        server sets the pace, and its queue cannot grow past the window):
        one warm-up block, then :data:`CAPACITY_BLOCKS` ÷ 2 measured blocks,
        each ``capacity_requests`` of the workload's mix.  Both halves send
        the same requests.  Every reply is checked like in any other phase.
        """
        workload = self.workload
        chooser = _Chooser(workload, self.seed).bind(workload.nominal_rate)
        blocks = []
        for _ in range(1 + CAPACITY_BLOCKS // 2):
            cpu0, host0 = procfs.cpu_seconds(live.server.pid), procfs.host_cpu()
            phase = await self._phase(live, chooser, UNPACED, workload.capacity_requests, CAPACITY_WINDOW)
            cpu1, host1 = procfs.cpu_seconds(live.server.pid), procfs.host_cpu()
            service = sorted(
                phase.done[i] - phase.sent[i] for i in range(len(phase)) if phase.status[i] == OK
            )
            blocks.append(
                {
                    "rate": phase.achieved_rate(),
                    "server_cpu_s": cpu1 - cpu0,
                    "steal": procfs.steal_share(host0, host1),
                    "failures": phase.failures(),
                    "p50_ms": percentile(service, 50) * 1e3,
                    "p99_ms": percentile(service, 99) * 1e3,
                }
            )
        self.record.setdefault("capacity_warmup", []).append(blocks[0])
        return blocks[1:]

    def _disk_ratio(self, data_dir: Path, live_keys: dict[int, int]) -> float:
        user = sum(
            len(key_name(index)) + len(self.values.value(index, version).encode("utf-8"))
            for index, version in live_keys.items()
        )
        stored = sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(data_dir)
            for name in names
        )
        return user / stored

    async def trace(self) -> dict:
        """Traced run: an untraced and a traced nominal phase; per-layer metrics."""
        plain, _ = await self._start()
        try:
            untraced = await self._nominal(plain)
        finally:
            await self._stop(plain)
        spans_path = self.work / "spans.json"
        live, _ = await self._start(traced_spans=spans_path)
        try:
            pid = live.server.pid
            before = prometheus_totals(await live.client.metrics())
            io_before = procfs.io_counters(pid)
            sent_before = live.client.bytes_sent
            received_before = live.client.bytes_received
            stop = asyncio.Event()
            sampler = asyncio.ensure_future(self._sample_sstables(live, stop))
            try:
                traced = await self._nominal(live)
            finally:
                stop.set()
                sstables = await sampler
            io_after = procfs.io_counters(pid)
            received = live.client.bytes_received - received_before
            sent = live.client.bytes_sent - sent_before
            after = prometheus_totals(await live.client.metrics())
        finally:
            await self._stop(live)
        dump = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        # Server and benchmark share CLOCK_MONOTONIC, so the traced phase's
        # own time span selects its spans; training happened at start-up.
        window = (int(traced.start * 1e9), int(max(traced.done) * 1e9))
        analysis = analyse(dump, window)
        self.unbalanced_roots = analyse(dump).unbalanced_roots
        self.record["trace_roots"] = analysis.roots
        metrics = span_metrics(analysis)
        metrics["core.train_s"] = analyse(dump, (0, window[0])).get("core.train").outer_ns / 1e9
        metrics.update(
            wire_metrics(
                analysis,
                traced,
                before=before,
                after=after,
                sstables=sstables,
                io_before=io_before,
                io_after=io_after,
                client_sent=sent,
                client_received=received,
                user_set_bytes=_set_bytes(traced, self.values),
            )
        )
        metrics.update(
            overhead_metrics(
                self._latency_metrics(untraced, self.record.setdefault("untraced", {})),
                self._latency_metrics(traced, self.record.setdefault("traced", {})),
            )
        )
        return metrics

    @staticmethod
    async def _sample_sstables(live: _Live, stop: asyncio.Event) -> list[float]:
        """``repro_shard_sstables`` once a second until ``stop`` is set."""
        samples: list[float] = []
        while not stop.is_set():
            try:
                await asyncio.wait_for(stop.wait(), 1.0)
            except asyncio.TimeoutError:
                totals = prometheus_totals(await live.client.metrics())
                samples.append(totals.get("repro_shard_sstables", 0.0))
        return samples


async def _sample_cpu(pid: int, interval: float, stop: asyncio.Event) -> list[tuple[float, float]]:
    """``(time, CPU seconds of pid)`` now and every ``interval`` until ``stop``."""
    samples = [(time.perf_counter(), procfs.cpu_seconds(pid))]
    while not stop.is_set():
        try:
            await asyncio.wait_for(stop.wait(), interval)
        except asyncio.TimeoutError:
            samples.append((time.perf_counter(), procfs.cpu_seconds(pid)))
    return samples


def _set_bytes(phase: Phase, values: ValueSource) -> int:
    return sum(
        len(values.value(phase.keys[i], phase.versions[i]).encode("utf-8"))
        for i in range(len(phase))
        if phase.ops[i] == SET
    )
