"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload codec-paper|wire-read|wire-ingest \
        --seed N --seconds S --trace 0|1

Run it from the repository root (it imports ``repro`` from ``src/``).  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; ``perfbench/README.md`` defines both.
The line before the result is the run record (host, sizes, phase summaries).
The exit code is 0 unless a reply or round trip was wrong or the run failed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        reference = head.read_text(encoding="ascii").strip()
        if reference.startswith("ref: "):
            return (root / ".git" / reference[5:]).read_text(encoding="ascii").strip()
        return reference
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["codec-paper", "wire-read", "wire-ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # A process started in the background may inherit SIGINT as ignored, and
    # an ignored disposition survives exec: the servers this benchmark stops
    # with SIGINT (their graceful drain) would never exit.  A handled signal
    # is reset to the default on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import procfs
    from perfbench.metrics import END_TO_END, PER_LAYER

    work = ROOT / "perfbench" / ".work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    host_before = procfs.host_cpu()
    try:
        if args.workload == "codec-paper":
            from perfbench.codec import CodecRun

            run = CodecRun(args.seed, args.seconds)
            metrics = run.trace() if args.trace else run.measure()
        else:
            from perfbench.wire import WIRE_INGEST, WIRE_READ, WireRun

            workload = WIRE_READ if args.workload == "wire-read" else WIRE_INGEST
            run = WireRun(workload, args.seed, args.seconds, ROOT, run_dir)
            metrics = asyncio.run(run.trace() if args.trace else run.measure())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    if not args.trace:
        metrics["success_rate"] = 1.0 - (run.failed + run.wrong) / run.attempted
    declared = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != {metric.name for metric in declared}:
        missing = sorted({metric.name for metric in declared} - set(metrics))
        extra = sorted(set(metrics) - {metric.name for metric in declared})
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")

    correct = run.wrong == 0 and run.unbalanced_roots == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg": procfs.loadavg(),
        "host_steal_share": procfs.steal_share(host_before, procfs.host_cpu()),
        "python": platform.python_version(),
        "git_sha": _git_sha(ROOT),
        "wrong_values": run.wrong,
        "errors": run.errors[:10],
        **run.record,
    }
    print("run record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed + run.wrong,
        "metrics": {
            metric.name: {"value": metrics[metric.name], "unit": metric.unit}
            for metric in declared
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
