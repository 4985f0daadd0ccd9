"""Open-loop load over pipelined RKV1 connections, timed from the schedule.

One asyncio loop in the benchmark process drives every connection.  A phase
is a pre-built schedule of requests, each with the time it is due; the
sender writes every due request without waiting for replies (so a slow
server builds a queue instead of slowing the offered load), and each
request's latency runs from its *due* time to its reply.  How late the
sender itself ran (``sent - due``) is recorded per request: that is the
generator's lateness, never the server's, because writes never block.

Every key is owned by one connection (``key % connections``).  The server
executes one connection's requests in order, so a key's SETs are applied in
version order and the read oracle's bounds are exact.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field

from repro.net.protocol import (
    ErrorResponse,
    FrameDecoder,
    GetRequest,
    Message,
    MetricsRequest,
    MSetRequest,
    OkResponse,
    SetRequest,
    StatsRequest,
    ValueResponse,
    encode_frame,
)

from perfbench.oracle import Oracle, key_name

GET = 0
SET = 1

PENDING = 0
OK = 1
ERROR = 2  # an ErrorResponse, an unexpected frame type, or a disconnect
TIMEOUT = 3
WRONG = 4  # a GET reply the oracle rejected


@dataclass
class Phase:
    """One schedule of requests and, once run, their outcomes."""

    rate: float
    ops: list[int] = field(default_factory=list)
    keys: list[int] = field(default_factory=list)
    versions: list[int] = field(default_factory=list)
    frames: list[bytes] = field(default_factory=list)
    offsets: list[float] = field(default_factory=list)
    # Filled in by the run.
    start: float = 0.0
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    low: list[int] = field(default_factory=list)
    high: list[int] = field(default_factory=list)
    replies: dict[int, str | None] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    max_backlog: int = 0

    def __len__(self) -> int:
        return len(self.ops)

    def add(self, op: int, key: int, version: int, frame: bytes) -> None:
        self.offsets.append(len(self.ops) / self.rate)
        self.ops.append(op)
        self.keys.append(key)
        self.versions.append(version)
        self.frames.append(frame)

    # ------------------------------------------------------------- results

    def latencies(self, op: int) -> list[float]:
        """Sorted scheduled-clock latencies (seconds) of completed ``op`` requests."""
        return sorted(
            self.done[i] - self.due[i]
            for i in range(len(self.ops))
            if self.ops[i] == op and self.status[i] == OK
        )

    def latency_windows(self, op: int, windows: int) -> list[list[float]]:
        """Scheduled-clock latencies of completed ``op`` requests, split into
        ``windows`` consecutive windows of due time."""
        span = len(self.ops) / self.rate
        split: list[list[float]] = [[] for _ in range(windows)]
        for i in range(len(self.ops)):
            if self.ops[i] == op and self.status[i] == OK:
                window = min(int(self.offsets[i] / span * windows), windows - 1)
                split[window].append(self.done[i] - self.due[i])
        return split

    def lateness(self) -> list[float]:
        return sorted(self.sent[i] - self.due[i] for i in range(len(self.ops)))

    def failures(self) -> int:
        return sum(1 for status in self.status if status != OK)

    def count(self, op: int) -> int:
        return sum(1 for value in self.ops if value == op)

    def achieved_rate(self) -> float:
        """Replies per second from the first due time to the last reply."""
        answered = [self.done[i] for i in range(len(self.ops)) if self.status[i] == OK]
        if not answered:
            return 0.0
        return len(answered) / (max(answered) - self.start)


def build_phase(
    rate: float,
    count: int,
    choose,
    oracle: Oracle,
) -> Phase:
    """A schedule of ``count`` requests evenly spaced at ``rate`` per second.

    ``choose()`` returns ``(op, key_index)``; SET values come from the
    oracle's value source at a freshly allocated version.
    """
    phase = Phase(rate=rate)
    for _ in range(count):
        op, key = choose()
        name = key_name(key).encode("ascii")
        if op == SET:
            version = oracle.allocate(key)
            value = oracle.values.value(key, version).encode("utf-8")
            phase.add(op, key, version, encode_frame(SetRequest(key=name, value=value)))
        else:
            phase.add(op, key, -1, encode_frame(GetRequest(key=name)))
    return phase


class _Connection(asyncio.Protocol):
    def __init__(self, client: "LoadClient") -> None:
        self.client = client
        self.decoder = FrameDecoder()
        self.pending: deque = deque()
        self.transport: asyncio.Transport | None = None
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        self.client.bytes_received += len(data)
        try:
            messages = self.decoder.feed(data)
        except Exception as error:  # noqa: BLE001 — a broken stream fails the run
            self.client.fatal(f"undecodable reply stream: {error!r}")
            self.transport.close()
            return
        pending = self.pending
        for message in messages:
            if not pending:
                self.client.fatal(f"unsolicited {message.wire_name} frame")
                continue
            pending.popleft()(message, now)

    def connection_lost(self, exc) -> None:
        now = time.perf_counter()
        while self.pending:
            self.pending.popleft()(None, now)
        if not self.lost.done():
            self.lost.set_result(exc)


class LoadClient:
    """The benchmark's client: ``connections`` pipelined load sockets to one server.

    One more connection carries control traffic (STATS, METRICS), so that
    sampling the server never queues behind load requests.
    """

    def __init__(self, host: str, port: int, connections: int, oracle: Oracle) -> None:
        self.host = host
        self.port = port
        self.connection_count = connections
        self.oracle = oracle
        self.connections: list[_Connection] = []
        self.control: _Connection | None = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.fatal_errors: list[str] = []

    async def open(self) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(self.connection_count + 1):
            _, protocol = await loop.create_connection(
                lambda: _Connection(self), self.host, self.port
            )
            self.connections.append(protocol)
        self.control = self.connections.pop()

    async def close(self) -> None:
        every = [*self.connections, *([self.control] if self.control else [])]
        for connection in every:
            if connection.transport is not None:
                connection.transport.close()
        for connection in every:
            await asyncio.wait_for(asyncio.shield(connection.lost), 10.0)

    def fatal(self, message: str) -> None:
        self.fatal_errors.append(message)

    def outstanding(self) -> int:
        return sum(len(connection.pending) for connection in self.connections)

    # ------------------------------------------------------------ requests

    async def call(
        self, message: Message, connection: int | None = None, timeout: float = 60.0
    ) -> Message:
        """One request, awaited; on the control connection unless ``connection`` is given."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def complete(reply, _now) -> None:
            if not future.done():
                future.set_result(reply)

        target = self.control if connection is None else self.connections[connection]
        target.pending.append(complete)
        payload = encode_frame(message)
        self.bytes_sent += len(payload)
        target.transport.write(payload)
        reply = await asyncio.wait_for(future, timeout)
        if reply is None:
            raise ConnectionError("server closed the connection")
        return reply

    async def stats(self) -> dict:
        reply = await self.call(StatsRequest())
        return json.loads(reply.payload.decode("utf-8"))

    async def metrics(self) -> str:
        reply = await self.call(MetricsRequest())
        return reply.payload.decode("utf-8")

    async def preload(self, items: list[tuple[int, str]], batch: int = 200) -> None:
        """MSET ``(key_index, value)`` pairs, pipelined, each on its key's connection."""
        width = len(self.connections)
        calls = []
        for lane in range(width):
            group = [
                (key_name(index).encode("ascii"), value.encode("utf-8"))
                for index, value in items
                if index % width == lane
            ]
            for start in range(0, len(group), batch):
                calls.append(self.call(MSetRequest(items=tuple(group[start : start + batch])), lane))
        for reply in await asyncio.gather(*calls):
            if not isinstance(reply, OkResponse):
                raise RuntimeError(f"preload MSET failed: {reply!r}")
        self.oracle.preloaded(index for index, _ in items)

    # --------------------------------------------------------------- phases

    async def run(self, phase: Phase, window: int | None = None, drain_timeout: float = 30.0) -> Phase:
        """Send ``phase`` on schedule, then wait (bounded) for every reply.

        With ``window``, a due request is held back while ``window`` requests
        are outstanding: the load then follows the server instead of the
        schedule (a closed loop), which is how the capacity phase keeps the
        server saturated without building an unbounded queue.
        """
        count = len(phase)
        phase.due = [0.0] * count
        phase.sent = [0.0] * count
        phase.done = [0.0] * count
        phase.status = [PENDING] * count
        phase.low = [-1] * count
        phase.high = [-1] * count
        oracle = self.oracle
        connections = self.connections
        width = len(connections)
        loop = asyncio.get_running_loop()
        finished = loop.create_future()
        remaining = [count]
        #: resolved by the next reply while the sender waits for window room.
        room: list[asyncio.Future | None] = [None]

        def completer(i: int):
            op = phase.ops[i]
            key = phase.keys[i]

            def complete(reply, now) -> None:
                phase.done[i] = now
                if reply is None:
                    phase.status[i] = ERROR
                    phase.errors.append("disconnected")
                elif op == GET and type(reply) is ValueResponse:
                    phase.status[i] = OK
                    phase.high[i] = oracle.sent.get(key, -1)
                    value = reply.value
                    phase.replies[i] = None if value is None else value.decode("utf-8")
                elif op == SET and type(reply) is OkResponse:
                    phase.status[i] = OK
                    oracle.ack(key, phase.versions[i])
                else:
                    phase.status[i] = ERROR
                    if isinstance(reply, ErrorResponse):
                        phase.errors.append(f"{reply.kind}: {reply.message}")
                    else:
                        phase.errors.append(f"unexpected {reply.wire_name} reply")
                remaining[0] -= 1
                if remaining[0] == 0 and not finished.done():
                    finished.set_result(None)
                if room[0] is not None and not room[0].done():
                    room[0].set_result(None)

            return complete

        start = time.perf_counter() + 0.005
        phase.start = start
        offsets = phase.offsets
        i = 0
        buffers: list[list[bytes]] = [[] for _ in range(width)]
        while i < count:
            now = time.perf_counter()
            due = start + offsets[i]
            if due > now:
                await asyncio.sleep(due - now)
                continue
            free = count if window is None else window - self.outstanding()
            while i < count and free > 0:
                due = start + offsets[i]
                if due > now:
                    break
                free -= 1
                key = phase.keys[i]
                lane = key % width
                phase.due[i] = due
                phase.sent[i] = now
                if phase.ops[i] == GET:
                    phase.low[i] = oracle.acked.get(key, -1)
                else:
                    oracle.mark_sent(key, phase.versions[i])
                connections[lane].pending.append(completer(i))
                buffers[lane].append(phase.frames[i])
                i += 1
            for lane, buffer in enumerate(buffers):
                if buffer:
                    payload = b"".join(buffer)
                    self.bytes_sent += len(payload)
                    connections[lane].transport.write(payload)
                    buffer.clear()
            backlog = self.outstanding()
            if backlog > phase.max_backlog:
                phase.max_backlog = backlog
            if window is not None and i < count and backlog >= window:
                room[0] = loop.create_future()
                try:
                    await asyncio.wait_for(room[0], drain_timeout)
                except asyncio.TimeoutError:
                    break
        if remaining[0]:
            try:
                await asyncio.wait_for(asyncio.shield(finished), drain_timeout)
            except asyncio.TimeoutError:
                pass
        for j in range(count):
            if phase.status[j] == PENDING:
                phase.status[j] = TIMEOUT
        return phase

    def verify(self, phase: Phase) -> int:
        """Check every GET reply against the oracle; returns the wrong-value count."""
        wrong = 0
        for i, value in phase.replies.items():
            if not self.oracle.check(phase.keys[i], phase.low[i], phase.high[i], value):
                phase.status[i] = WRONG
                wrong += 1
        return wrong
