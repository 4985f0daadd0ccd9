"""Per-layer metrics of a traced run, from spans and from the server's counters."""

from __future__ import annotations

from perfbench.openloop import GET, SET, Phase
from perfbench.stats import percentile
from perfbench.tracing import Analysis

#: Per-layer metrics only a wire run can measure; ``codec-paper`` reports 0.
WIRE_ONLY = (
    "net.decode_us",
    "net.outside_service_share_get",
    "net.outside_service_share_set",
    "service.retrains",
    "lsm.compactions",
    "lsm.stall_s",
    "lsm.sstables",
    "lsm.disk_write_per_user_byte",
    "lsm.disk_read_per_get",
    "gen.lateness_p99_ms",
    "gen.lateness_max_ms",
)


def _mean_us(stats) -> float:
    return stats.self_ns / stats.count / 1e3 if stats.count else 0.0


def span_metrics(analysis: Analysis) -> dict[str, float]:
    """The metrics every workload derives from its spans the same way."""
    get = analysis.get
    metrics: dict[str, float] = {}
    metrics["net.decode_frames"] = float(get("net.decode").units)
    metrics["net.encode_us"] = _mean_us(get("net.encode"))
    metrics["net.encode_count"] = float(get("net.encode").count)
    for name in ("get", "set"):
        metrics[f"service.{name}_self_us"] = _mean_us(get(f"service.{name}"))
        metrics[f"service.{name}_count"] = float(get(f"service.{name}").count)
    cache = get("service.cache_get")
    metrics["service.cache_hit_rate"] = cache.units / cache.count if cache.count else 0.0
    for name in ("get", "set"):
        metrics[f"tierbase.{name}_us"] = _mean_us(get(f"tierbase.{name}"))
        metrics[f"tierbase.{name}_count"] = float(get(f"tierbase.{name}").count)
    for name in ("get", "put"):
        metrics[f"lsm.{name}_us"] = _mean_us(get(f"lsm.{name}"))
        metrics[f"lsm.{name}_count"] = float(get(f"lsm.{name}").count)
    flush = get("lsm.flush")
    metrics["lsm.flush_count"] = float(flush.count)
    metrics["lsm.flush_s"] = flush.total_ns / 1e9
    for name in ("append", "sink_append"):
        metrics[f"oplog.{name}_us"] = _mean_us(get(f"oplog.{name}"))
        metrics[f"oplog.{name}_count"] = float(get(f"oplog.{name}").count)
    metrics["oplog.flush_count"] = float(
        get("oplog.sink_append").units + get("oplog.sink_flush").count
    )
    metrics["oplog.fsync_count"] = float(get("oplog.fsync").count)
    for name in ("compress", "decompress"):
        metrics[f"codecs.{name}_us"] = _mean_us(get(f"codecs.{name}"))
        metrics[f"codecs.{name}_count"] = float(get(f"codecs.{name}").count)
        metrics[f"core.{name}_us"] = _mean_us(get(f"core.{name}"))
        metrics[f"core.{name}_count"] = float(get(f"core.{name}").count)
    compress = get("core.compress")
    metrics["core.compress_mb_s"] = compress.units / compress.total_ns * 1e3 if compress.total_ns else 0.0
    metrics["core.match_us"] = _mean_us(get("core.match"))
    metrics["core.train_s"] = get("core.train").outer_ns / 1e9
    matched = analysis.edge("core.match", "core.compress")
    metrics["core.outlier_frac"] = matched.units / matched.count if matched.count else 0.0
    metrics["compressors.fsst_us"] = _mean_us(get("compressors.fsst"))
    metrics["compressors.fsst_count"] = float(get("compressors.fsst").count)
    metrics["trace.background_self_s"] = analysis.background_self_ns / 1e9
    return metrics


def prometheus_totals(text: str) -> dict[str, float]:
    """Sum of every sample of each metric family in Prometheus text format."""
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_part, _, value = line.rpartition(" ")
        name = name_part.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


def wire_metrics(
    analysis: Analysis,
    traced: Phase,
    before: dict[str, float],
    after: dict[str, float],
    sstables: list[float],
    io_before: dict[str, int],
    io_after: dict[str, int],
    client_sent: int,
    client_received: int,
    user_set_bytes: int,
) -> dict[str, float]:
    """The :data:`WIRE_ONLY` metrics of a traced wire phase."""
    metrics: dict[str, float] = {}
    decode = analysis.get("net.decode")
    metrics["net.decode_us"] = decode.self_ns / decode.units / 1e3 if decode.units else 0.0
    for op, name in ((GET, "get"), (SET, "set")):
        client_total = sum(traced.latencies(op))
        service_total = analysis.get(f"service.{name}").total_ns / 1e9
        metrics[f"net.outside_service_share_{name}"] = (
            1.0 - service_total / client_total if client_total else 0.0
        )

    def delta(family: str) -> float:
        return after.get(family, 0.0) - before.get(family, 0.0)

    metrics["service.retrains"] = delta("repro_shard_retrain_events")
    metrics["lsm.compactions"] = delta("repro_shard_compactions")
    metrics["lsm.stall_s"] = delta("repro_shard_compaction_stall_seconds")
    metrics["lsm.sstables"] = sum(sstables) / len(sstables) if sstables else 0.0
    written = io_after["wchar"] - io_before["wchar"] - client_received
    read = io_after["rchar"] - io_before["rchar"] - client_sent
    gets = traced.count(GET)
    metrics["lsm.disk_write_per_user_byte"] = max(written, 0) / user_set_bytes if user_set_bytes else 0.0
    metrics["lsm.disk_read_per_get"] = max(read, 0) / gets if gets else 0.0
    lateness = traced.lateness()
    metrics["gen.lateness_p99_ms"] = percentile(lateness, 99) * 1e3
    metrics["gen.lateness_max_ms"] = lateness[-1] * 1e3
    return metrics


def overhead_metrics(untraced: dict[str, float], traced: dict[str, float]) -> dict[str, float]:
    """Traced / untraced of each end-to-end latency percentile."""
    return {
        f"trace.overhead_{name}_p{q}": traced[f"{name}_p{q}_ms"] / untraced[f"{name}_p{q}_ms"]
        for name in ("read", "write")
        for q in (50, 90)
    }
