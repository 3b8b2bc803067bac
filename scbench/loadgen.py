"""Keep-alive HTTP load for ``POST /v1/predict``, open or closed loop.

Stdlib asyncio only.  Every request body is prepared before the timed
window, and responses are kept as raw bytes to be decoded after it, so
the generator does as little as possible while it measures.

* :func:`open_loop` sends request ``i`` when it is due, at
  ``t0 + offsets[i]``, over at most ``connections`` keep-alive
  connections.  Latency counts from the due time, so a stall in the
  server or the generator is charged to every request it delays; how
  late the generator itself woke up is recorded per request.
* :func:`closed_loop` runs ``clients`` callers that each send their
  next request when the previous reply has arrived.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass


@dataclass
class Record:
    """One request: what was sent, when, and what came back."""

    key: int  #: index of the request body (the caller's input id)
    due: float  #: when it was due (open loop) or sent (closed loop)
    sent: float
    done: float
    status: int
    body: bytes
    late: float = 0.0  #: generator wake-up minus due time


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def post(self, head: bytes, body: bytes) -> tuple[int, bytes]:
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


def request_head(body: bytes, content_type: str, extra: dict[str, str]) -> bytes:
    lines = [
        "POST /v1/predict HTTP/1.1",
        "Host: 127.0.0.1",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
    ]
    lines += [f"{k}: {v}" for k, v in extra.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


async def open_loop(port: int, requests: list[tuple[bytes, bytes]], offsets: list[float],
                    connections: int) -> list[Record]:
    """Send ``requests`` round-robin, request ``i`` at ``offsets[i]`` seconds."""
    idle: asyncio.Queue[Connection] = asyncio.Queue()
    for _ in range(connections):
        idle.put_nowait(await Connection.open(port))
    records: list[Record] = []

    async def one(i: int, due: float, late: float) -> None:
        conn = await idle.get()
        key = i % len(requests)
        sent = time.perf_counter()
        try:
            status, body = await conn.post(*requests[key])
        finally:
            idle.put_nowait(conn)
        records.append(Record(key, due, sent, time.perf_counter(), status, body, late))

    tasks = []
    t0 = time.perf_counter() + 0.01
    for i, offset in enumerate(offsets):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(i, due, time.perf_counter() - due)))
    await asyncio.gather(*tasks)
    while not idle.empty():
        await idle.get_nowait().close()
    return records


async def closed_loop(port: int, requests: list[tuple[bytes, bytes]], clients: int,
                      seconds: float) -> list[Record]:
    """``clients`` callers, each cycling through ``requests`` from its own offset."""
    records: list[Record] = []
    end = time.perf_counter() + seconds

    async def client(c: int) -> None:
        conn = await Connection.open(port)
        i = c
        try:
            while time.perf_counter() < end:
                key = i % len(requests)
                sent = time.perf_counter()
                status, body = await conn.post(*requests[key])
                records.append(Record(key, sent, sent, time.perf_counter(), status, body))
                i += clients
        finally:
            await conn.close()

    await asyncio.gather(*(client(c) for c in range(clients)))
    return records
