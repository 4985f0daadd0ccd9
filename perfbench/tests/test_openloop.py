import asyncio

from repro.net.protocol import FrameDecoder, GetRequest, OkResponse, SetRequest, ValueResponse, encode_frame

from perfbench.openloop import OK, SET, LoadClient, build_phase
from perfbench.oracle import Oracle, ValueSource


class _SlowServer(asyncio.Protocol):
    """Answers every SET with OK and every GET with a miss, one reply per tick,
    and records the most requests it ever held unanswered."""

    deepest = 0

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.decoder = FrameDecoder()
        self.queue: list = []
        asyncio.get_running_loop().call_later(0.001, self._tick)

    def data_received(self, data: bytes) -> None:
        self.queue.extend(self.decoder.feed(data))
        _SlowServer.deepest = max(_SlowServer.deepest, len(self.queue))

    def _tick(self) -> None:
        if self.queue:
            message = self.queue.pop(0)
            reply = OkResponse() if isinstance(message, SetRequest) else ValueResponse(value=None)
            assert isinstance(message, (SetRequest, GetRequest))
            self.transport.write(encode_frame(reply))
        if not self.transport.is_closing():
            asyncio.get_running_loop().call_later(0.001, self._tick)


async def _run(window: int | None, count: int):
    loop = asyncio.get_running_loop()
    server = await loop.create_server(_SlowServer, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client = LoadClient("127.0.0.1", port, 1, Oracle(ValueSource("kv1", seed=3)))
    await client.open()
    try:
        keys = iter(range(count))
        phase = build_phase(1e9, count, lambda: (SET, next(keys)), client.oracle)
        await client.run(phase, window)
    finally:
        await client.close()
        server.close()
        await server.wait_closed()
    return phase


def test_window_caps_outstanding_requests_and_rate_is_measured():
    _SlowServer.deepest = 0
    phase = asyncio.run(_run(window=4, count=60))
    assert all(status == OK for status in phase.status)
    assert phase.max_backlog == 4
    assert _SlowServer.deepest <= 4
    # The server sets the pace: far below the offered 1e9 requests/s.
    assert phase.achieved_rate() < 2000


def test_without_window_every_due_request_is_sent_at_once():
    _SlowServer.deepest = 0
    phase = asyncio.run(_run(window=None, count=60))
    assert all(status == OK for status in phase.status)
    assert phase.max_backlog == 60
