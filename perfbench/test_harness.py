"""Self-tests of the benchmark harness.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import asyncio

import numpy as np

from perfbench.harness import Span, Tracer, layer_totals, self_times, tail_percentile
from perfbench.openloop import Request, run_open_loop, zipf_schedule, zipf_weights
from perfbench.startup import parse_importtime
from repro.fleet.protocol import read_http_request, read_http_response


def test_self_time_merges_overlapping_children():
    parent = Span(0, None, 0, "op", start=0.0, end=10.0)
    children = [
        Span(1, 0, 0, "a", start=1.0, end=4.0),
        Span(2, 0, 0, "b", start=3.0, end=6.0),    # overlaps a: union is 1..6
        Span(3, 0, 0, "c", start=8.0, end=12.0),   # runs past the parent: clipped to 8..10
        Span(4, 1, 0, "a.inner", start=1.5, end=2.0),
    ]
    selfs = self_times([parent, *children])
    assert selfs[0] == 10.0 - 5.0 - 2.0
    assert selfs[1] == 3.0 - 0.5
    assert selfs[2] == 3.0
    assert selfs[4] == 0.5


def test_tracer_nests_spans_and_totals_self_time():
    tracer = Tracer()
    tracer.trace = 7
    with tracer.span("op"):
        tracer.call("layer", sum, [1, 2], count=lambda out: {"items": out})
    op, layer = tracer.spans
    assert layer.parent == op.span_id and layer.trace == 7
    totals = layer_totals(tracer.spans)
    assert totals["layer"].counts == {"items": 3}
    assert abs(totals["op"].self_s + totals["layer"].self_s - op.duration) < 1e-12


def test_wrap_restores_methods_and_classmethods():
    class Thing:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return x * 2

    tracer = Tracer()
    with tracer.wrap(Thing, "method", "m"), tracer.wrap(Thing, "build", "b"):
        assert Thing().method(1) == 2 and Thing.build(2) == 4
    assert [s.name for s in tracer.spans] == ["m", "b"]
    assert isinstance(vars(Thing)["build"], classmethod)
    assert Thing().method(1) == 2 and len(tracer.spans) == 2


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(9) is None
    assert tail_percentile(40) == (75.0, 10)
    assert tail_percentile(64) == (80.0, 12)
    assert tail_percentile(200) == (95.0, 10)
    assert tail_percentile(1000) == (99.0, 10)
    assert tail_percentile(999) == (95.0, 49)


def test_zipf_schedule_is_deterministic_per_seed():
    a = zipf_schedule(5, 8, 2000, 1.0)
    assert np.array_equal(a, zipf_schedule(5, 8, 2000, 1.0))
    assert not np.array_equal(a, zipf_schedule(6, 8, 2000, 1.0))
    counts = np.bincount(a, minlength=8)
    assert counts[0] == counts.max()
    assert abs(counts[0] / 2000 - zipf_weights(8, 1.0)[0]) < 0.05


async def _stalling_server(stall_at: int, stall_s: float):
    seen = 0

    async def handle(reader, writer):
        nonlocal seen
        while await read_http_request(reader) is not None:
            if seen == stall_at:
                await asyncio.sleep(stall_s)
            seen += 1
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


async def _read(reader):
    status, _headers, body = await read_http_response(reader)
    return status == 200, body


def test_open_loop_latency_counts_a_stall_against_later_requests():
    gap, stall = 0.02, 0.3

    async def main():
        server = await _stalling_server(stall_at=5, stall_s=stall)
        port = server.sockets[0].getsockname()[1]
        conn = await asyncio.open_connection("127.0.0.1", port)
        request = b"POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}"
        requests = [Request(i * gap, 0, (request,)) for i in range(30)]
        try:
            return await run_open_loop([conn], [_read], requests, timeout_s=5.0)
        finally:
            conn[1].close()
            server.close()
            await server.wait_closed()

    out = asyncio.run(main())
    assert all(out.ok) and out.missing == 0
    assert max(out.latency_s[:5]) < 0.1
    # Requests sent on schedule during the stall waited for it: each one's
    # latency, measured from its scheduled time, carries the remainder.
    for i in range(5, 15):
        assert out.latency_s[i] >= stall - (i - 5) * gap - 0.01
    assert max(out.late_s) < 0.1  # the sender itself kept the schedule


def test_parse_importtime_totals():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        500 |   repro.analog",
        "import time:        10 |        900 | repro",
        "import time:        20 |        400 | repro.cli",
        "import time:        30 |         30 | json",
    ])
    parsed = parse_importtime(text)
    assert parsed["<total>"] == 900e-6 + 400e-6
    assert parsed["<scipy>"] == 300e-6
    assert parsed["repro.analog"] == 500e-6

