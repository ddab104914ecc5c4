"""Open-loop fleet traffic: a Zipf tenant schedule and a one-thread sender.

Every request is built before the run as a tuple of byte strings (the
parts are shared between requests that carry the same samples, which
keeps generator memory bounded).  One asyncio thread writes each request
at its scheduled time, whatever the replies are doing, and a reader per
connection matches replies to requests in order — HTTP/1.1 keep-alive
and the WebSocket session both answer in request order.  Latency is
taken from the *scheduled* send time, so a stall also delays every
request queued behind it; how late the sender itself ran is recorded
separately.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

import numpy as np

#: Reads one reply from a connection: ``(ok, payload)``; raises
#: :class:`ConnectionError` once the connection has ended.
ReplyReader = Callable[[asyncio.StreamReader], Awaitable[tuple[bool, bytes]]]
#: Time between starting a run and its first scheduled send.
LEAD_S = 0.05


def zipf_weights(n_tenants: int, exponent: float) -> np.ndarray:
    """Popularity of tenant ``i`` proportional to ``1 / (i + 1) ** exponent``."""
    ranks = np.arange(1, n_tenants + 1, dtype=float)
    weights = ranks ** -exponent
    return weights / weights.sum()


def zipf_schedule(seed: int, n_tenants: int, n_sends: int, exponent: float) -> np.ndarray:
    """Tenant index of each of ``n_sends`` requests; deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    return rng.choice(n_tenants, size=n_sends, p=zipf_weights(n_tenants, exponent))


@dataclass(frozen=True)
class Request:
    due_s: float                 # scheduled send time, from the run start
    conn: int                    # connection index
    parts: tuple[bytes, ...]     # written back to back


@dataclass
class Outcome:
    """Per request: reply status, payload and timings (seconds)."""

    ok: list[bool] = field(default_factory=list)
    payloads: list[bytes | None] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    missing: int = 0


async def run_open_loop(
    connections: Sequence[tuple[asyncio.StreamReader, asyncio.StreamWriter]],
    readers: Sequence[ReplyReader],
    requests: Sequence[Request],
    *,
    timeout_s: float,
) -> Outcome:
    """Send ``requests`` on schedule over open ``connections``; gather replies.

    Requests are written in ``due_s`` order.  A reply that has not
    arrived ``timeout_s`` after the last scheduled send counts as
    missing (``ok`` False, latency ``inf``).
    """
    loop = asyncio.get_running_loop()
    n = len(requests)
    out = Outcome(
        ok=[False] * n, payloads=[None] * n,
        latency_s=[float("inf")] * n, late_s=[0.0] * n,
    )
    pending: list[deque[int]] = [deque() for _ in connections]
    remaining = [sum(1 for r in requests if r.conn == c) for c in range(len(connections))]
    start = loop.time() + LEAD_S

    async def read_replies(conn: int) -> None:
        reader = connections[conn][0]
        while remaining[conn]:
            try:
                ok, payload = await readers[conn](reader)
            except ConnectionError:
                return  # the rest of this connection's requests stay missing
            now = loop.time()
            if not pending[conn]:
                raise RuntimeError(f"connection {conn}: reply without a request")
            i = pending[conn].popleft()
            out.ok[i] = ok
            out.payloads[i] = payload
            out.latency_s[i] = now - (start + requests[i].due_s)
            remaining[conn] -= 1

    async def send_all() -> None:
        for i, request in enumerate(requests):
            delay = start + request.due_s - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            out.late_s[i] = max(0.0, loop.time() - (start + request.due_s))
            writer = connections[request.conn][1]
            pending[request.conn].append(i)
            writer.writelines(request.parts)
            with contextlib.suppress(ConnectionError):
                await writer.drain()

    tasks = [asyncio.ensure_future(read_replies(c)) for c in range(len(connections))]
    try:
        await send_all()
        last_due = max((r.due_s for r in requests), default=0.0)
        deadline = start + last_due + timeout_s
        done, not_done = await asyncio.wait(tasks, timeout=max(0.0, deadline - loop.time()))
        for task in done:
            task.result()
        out.missing = sum(remaining)
    finally:
        for task in tasks:
            if not task.done():
                task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    return out


async def run_closed_loop(
    connections: Sequence[tuple[asyncio.StreamReader, asyncio.StreamWriter]],
    readers: Sequence[ReplyReader],
    requests: Sequence[Request],
) -> tuple[int, float]:
    """Send ``requests`` in order, each once its connection has no reply pending.

    The schedule's mix of connections is kept, and the connections
    overlap as far as that order allows.  Returns ``(replies, seconds)``:
    the gateway's closed-loop capacity for this mix is their ratio.
    """
    idle = [asyncio.Event() for _ in connections]
    for event in idle:
        event.set()

    async def await_reply(conn: int) -> None:
        ok, _payload = await readers[conn](connections[conn][0])
        if not ok:
            raise RuntimeError(f"connection {conn}: request failed")
        idle[conn].set()

    started = time.perf_counter()
    tasks = []
    for request in requests:
        await idle[request.conn].wait()
        idle[request.conn].clear()
        writer = connections[request.conn][1]
        writer.writelines(request.parts)
        await writer.drain()
        tasks.append(asyncio.ensure_future(await_reply(request.conn)))
    await asyncio.gather(*tasks)
    return len(requests), time.perf_counter() - started
