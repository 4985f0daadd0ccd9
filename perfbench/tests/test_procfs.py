import os

import pytest

from perfbench import procfs

STAT = (
    "4242 (repro serve (x)) S 1 4242 4242 0 -1 4194304 3036 0 0 0 "
    "250 70 0 0 20 0 11 0 123456 300000000 9000 18446744073709551615"
)
IO = "rchar: 1000\nwchar: 2500\nsyscr: 10\nsyscw: 20\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
STATUS = "Name:\tpython3\nVmPeak:\t  300000 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   30000 kB\n"


def test_stat_cpu_seconds_counts_fields_after_the_command_name():
    ticks = os.sysconf("SC_CLK_TCK")
    assert procfs.parse_stat_cpu_seconds(STAT) == pytest.approx((250 + 70) / ticks)


def test_io_counters():
    counters = procfs.parse_io(IO)
    assert counters["rchar"] == 1000
    assert counters["wchar"] == 2500
    assert counters["write_bytes"] == 4096


def test_status_field():
    assert procfs.parse_status_kib(STATUS, "VmHWM") == 40960
    with pytest.raises(KeyError):
        procfs.parse_status_kib(STATUS, "VmSwap")


HOST_STAT = "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 3 0\nintr 1 2 3\n"


def test_host_cpu_reads_steal_and_excludes_guest_time():
    assert procfs.parse_host_cpu(HOST_STAT) == (30, 1000)
    assert procfs.steal_share((30, 1000), (80, 1500)) == pytest.approx(0.1)
    assert procfs.steal_share((30, 1000), (30, 1000)) == 0.0


def test_live_readers_on_this_process():
    assert procfs.cpu_seconds() >= 0.0
    assert procfs.io_counters()["rchar"] >= 0
    assert procfs.peak_rss_mib() > 0.0
    steal, total = procfs.host_cpu()
    assert 0 <= steal <= total
