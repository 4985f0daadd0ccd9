"""Spawn, address and stop one ``repro serve`` subprocess."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

_ADDRESS = re.compile(r"^serving .* on ([^\s:]+):(\d+)\s*$")

#: Hard ceiling on a server's lifetime, passed as ``--serve-seconds``: a
#: benchmark process that dies without its ``finally`` still cannot leave a
#: server running for long.
BACKSTOP_SECONDS = 150.0


class ServerProcess:
    """A server subprocess whose stdout is parsed for its ephemeral address.

    ``argv`` is the module invocation after ``python3 -u -m`` (for example
    ``["repro.cli", "serve", ...]``); ``--port 0`` and ``--serve-seconds``
    are appended here.  :meth:`stop` sends SIGINT (the CLI drains, flushes
    and closes the service), waits, and kills on timeout.
    """

    def __init__(self, argv: list[str], root: Path, start_timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", *argv, "--port", "0",
             "--serve-seconds", str(BACKSTOP_SECONDS)],
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.pid = self.process.pid
        self.output: list[str] = []
        self.errors: list[str] = []
        self._stdout: threading.Thread | None = None
        self._stderr = threading.Thread(target=self._drain_stderr, daemon=True)
        self._stderr.start()
        self.host, self.port = self._await_address(start_timeout)
        self._stdout = threading.Thread(target=self._drain_stdout, daemon=True)
        self._stdout.start()

    def _await_address(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        result: list[tuple[str, int]] = []

        def read() -> None:
            assert self.process.stdout is not None
            for line in self.process.stdout:
                self.output.append(line)
                match = _ADDRESS.match(line.strip())
                if match:
                    result.append((match.group(1), int(match.group(2))))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(max(0.0, deadline - time.monotonic()))
        if not result:
            self.kill()
            raise RuntimeError(
                "server did not report its address; stderr tail:\n"
                + "".join(self.errors[-20:])
            )
        return result[0]

    def _drain_stdout(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.output.append(line)

    def _drain_stderr(self) -> None:
        assert self.process.stderr is not None
        for line in self.process.stderr:
            self.errors.append(line)

    def stop(self, timeout: float = 60.0) -> int:
        """Graceful drain (SIGINT), then SIGKILL if it does not exit in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        self._join_readers()
        return self.process.returncode

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._join_readers()

    def _join_readers(self) -> None:
        for thread in (self._stdout, self._stderr):
            if thread is not None:
                thread.join(5.0)
