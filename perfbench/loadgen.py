"""Open-loop HTTP load generator: one asyncio thread, a few keep-alive connections.

Requests are due on a fixed schedule whatever the server does.  Each is
sent on the next idle connection; when every connection is busy it waits,
and that wait is part of its latency, which is timed from the due time,
not the send time.  How late each request went out is kept separately
(``sent - due``): when that grows, the run measured the generator rather
than the server.  A refused, reset or timed-out request has status 0.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass


@dataclass
class Outcome:
    due: float
    sent: float
    done: float
    status: int
    cache: str
    body: bytes

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return self.sent - self.due


class Connection:
    """One keep-alive HTTP/1.1 client connection, opened lazily."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, dict[str, str], bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(body)}",
            "Content-Type: application/json",
        ]
        self._writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("connection closed by server")
        status = int(status_line.split()[1])
        reply: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            reply[name.strip().lower()] = value.strip()
        payload = await self._reader.readexactly(int(reply.get("content-length", "0")))
        if reply.get("connection", "").lower() == "close":
            await self.close()
        return status, reply, payload

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def drive(
    host: str,
    port: int,
    arrivals: list[tuple[float, bytes]],
    connections: int,
    timeout: float = 10.0,
) -> list[Outcome]:
    """POST each ``(due_offset_s, body)`` on schedule; one outcome each."""
    loop = asyncio.get_running_loop()
    idle: asyncio.Queue[Connection] = asyncio.Queue()
    for _ in range(connections):
        idle.put_nowait(Connection(host, port))
    outcomes: list[Outcome | None] = [None] * len(arrivals)
    origin = loop.time() + 0.05

    async def fire(index: int, due: float, body: bytes) -> None:
        conn = await idle.get()
        sent = loop.time()
        status, cache, payload = 0, "", b""
        try:
            status, reply, payload = await asyncio.wait_for(
                conn.request("POST", "/v1/balance", body), timeout
            )
            cache = reply.get("x-cache", "")
        except (OSError, ValueError, IndexError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            await conn.close()  # unknown stream state: start afresh
        finally:
            idle.put_nowait(conn)
        outcomes[index] = Outcome(due, sent, loop.time(), status, cache, payload)

    tasks = []
    for index, (offset, body) in enumerate(arrivals):
        due = origin + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(fire(index, due, body)))
    await asyncio.gather(*tasks)
    while not idle.empty():
        await idle.get_nowait().close()
    return outcomes  # type: ignore[return-value]

