"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` lists the same metrics (with the end-to-end bounds) and
``README.md`` defines each; the benchmark's own tests keep the three in
agreement.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "higher" or "lower": which direction is an improvement.
    better: str


END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("compression_ratio", "x", "higher"),
    Metric("read_p50_ms", "ms", "lower"),
    Metric("write_p50_ms", "ms", "lower"),
    Metric("capacity_ops_s", "ops/s", "higher"),
    Metric("cpu_us_per_op", "us", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
    Metric("success_rate", "fraction", "higher"),
)

PER_LAYER = (
    Metric("net.decode_us", "us", "lower"),
    Metric("net.decode_frames", "count", "lower"),
    Metric("net.encode_us", "us", "lower"),
    Metric("net.encode_count", "count", "lower"),
    Metric("net.outside_service_share_get", "fraction", "lower"),
    Metric("net.outside_service_share_set", "fraction", "lower"),
    Metric("service.get_self_us", "us", "lower"),
    Metric("service.get_count", "count", "lower"),
    Metric("service.set_self_us", "us", "lower"),
    Metric("service.set_count", "count", "lower"),
    Metric("service.cache_hit_rate", "fraction", "higher"),
    Metric("service.retrains", "count", "lower"),
    Metric("tierbase.get_us", "us", "lower"),
    Metric("tierbase.get_count", "count", "lower"),
    Metric("tierbase.set_us", "us", "lower"),
    Metric("tierbase.set_count", "count", "lower"),
    Metric("lsm.get_us", "us", "lower"),
    Metric("lsm.get_count", "count", "lower"),
    Metric("lsm.put_us", "us", "lower"),
    Metric("lsm.put_count", "count", "lower"),
    Metric("lsm.flush_count", "count", "lower"),
    Metric("lsm.flush_s", "s", "lower"),
    Metric("lsm.compactions", "count", "lower"),
    Metric("lsm.stall_s", "s", "lower"),
    Metric("lsm.sstables", "count", "lower"),
    Metric("lsm.disk_write_per_user_byte", "ratio", "lower"),
    Metric("lsm.disk_read_per_get", "B", "lower"),
    Metric("oplog.append_us", "us", "lower"),
    Metric("oplog.append_count", "count", "lower"),
    Metric("oplog.sink_append_us", "us", "lower"),
    Metric("oplog.sink_append_count", "count", "lower"),
    Metric("oplog.flush_count", "count", "lower"),
    Metric("oplog.fsync_count", "count", "lower"),
    Metric("codecs.compress_us", "us", "lower"),
    Metric("codecs.compress_count", "count", "lower"),
    Metric("codecs.decompress_us", "us", "lower"),
    Metric("codecs.decompress_count", "count", "lower"),
    Metric("core.compress_us", "us", "lower"),
    Metric("core.compress_count", "count", "lower"),
    Metric("core.compress_mb_s", "MB/s", "higher"),
    Metric("core.decompress_us", "us", "lower"),
    Metric("core.decompress_count", "count", "lower"),
    Metric("core.match_us", "us", "lower"),
    Metric("core.train_s", "s", "lower"),
    Metric("core.outlier_frac", "fraction", "lower"),
    Metric("compressors.fsst_us", "us", "lower"),
    Metric("compressors.fsst_count", "count", "lower"),
    Metric("gen.lateness_p99_ms", "ms", "lower"),
    Metric("gen.lateness_max_ms", "ms", "lower"),
    Metric("trace.overhead_read_p50", "ratio", "lower"),
    Metric("trace.overhead_read_p90", "ratio", "lower"),
    Metric("trace.overhead_write_p50", "ratio", "lower"),
    Metric("trace.overhead_write_p90", "ratio", "lower"),
    Metric("trace.background_self_s", "s", "lower"),
)
