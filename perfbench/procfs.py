"""Readers for ``/proc/<pid>/{stat,io,status}`` and host-wide ``/proc/stat`` (Linux)."""

from __future__ import annotations

import os

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def parse_stat_cpu_seconds(text: str) -> float:
    """utime + stime of a ``/proc/<pid>/stat`` line, in seconds.

    The command name (field 2) is parenthesised and may contain spaces, so
    fields are counted from the last ``)``.
    """
    fields = text[text.rindex(")") + 2 :].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def parse_io(text: str) -> dict[str, int]:
    """``/proc/<pid>/io`` as a dict (``rchar``, ``wchar``, ``syscr``, ...)."""
    counters: dict[str, int] = {}
    for line in text.splitlines():
        name, _, value = line.partition(":")
        if value.strip():
            counters[name.strip()] = int(value)
    return counters


def parse_status_kib(text: str, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status`` (e.g. ``VmHWM``), in KiB."""
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    raise KeyError(f"{field} not in /proc status")


def parse_host_cpu(text: str) -> tuple[int, int]:
    """(steal, total) ticks from the aggregate ``cpu`` line of ``/proc/stat``."""
    for line in text.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            ticks = [int(value) for value in fields[1:]]
            # user nice system idle iowait irq softirq steal [guest guest_nice];
            # guest time is already counted in user and nice.
            return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])
    raise KeyError("no cpu line in /proc/stat")


def _read(pid: int | str, name: str) -> str:
    with open(f"/proc/{pid}/{name}", encoding="ascii") as handle:
        return handle.read()


def cpu_seconds(pid: int | str = "self") -> float:
    return parse_stat_cpu_seconds(_read(pid, "stat"))


def io_counters(pid: int | str = "self") -> dict[str, int]:
    return parse_io(_read(pid, "io"))


def peak_rss_mib(pid: int | str = "self") -> float:
    return parse_status_kib(_read(pid, "status"), "VmHWM") / 1024.0


def loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as handle:
        return handle.read().strip()


def host_cpu() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole host since boot."""
    with open("/proc/stat", encoding="ascii") as handle:
        return parse_host_cpu(handle.read())


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of the host's CPU time stolen by the hypervisor between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0
