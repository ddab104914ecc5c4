"""``fleet``: the multi-tenant gateway under open-loop Zipf traffic.

The gateway runs as its own process (``python -m repro.cli fleet serve
--max-resident M``) and serves ``T = 2M`` tenants whose popularity
follows a Zipf law: the hot set stays resident while the cold tail is
evicted and rehydrated, so checkpoint writes happen beside steady
ingest.  Traffic is Sterling at 2 MS/s in 32768-sample chunks (~175 KB
of JSON each).  The generator opens one connection per usable CPU at
most: one WebSocket session for the hottest tenant and one REST
keep-alive connection for all the others, and sends from one asyncio
thread on a fixed schedule at ``OFFERED_RATE`` (about 40 % of the
gateway's closed-loop capacity; ``python3 -m perfbench.wl_fleet``
re-measures it, and NOTES.md says why half of it was too unsteady).

Tenant traffic carries physical hijacks: a share of the frames is
rendered through another ECU's transceiver while keeping the claimed
SA, so the verdicts have a ground truth.  Tenants share a few rendered
streams, each looped with idle padding at both ends, which bounds the
generator's memory without giving the gateway anything to cache.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import http.client
import json
import os
import re
import selectors
import shutil
import signal
import subprocess
import sys
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

import repro.stream.extractor as stream_extractor
from perfbench.harness import Tracer, derive_seed, f_score, layer_totals, pct, tree_peak_rss_mb
from perfbench.openloop import Request, run_closed_loop, run_open_loop, zipf_schedule
from repro.acquisition.segmentation import assemble_stream
from repro.core.detection import Detector
from repro.core.model import VProfileModel
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.fleet.protocol import (
    OP_CLOSE,
    OP_TEXT,
    ProtocolError,
    client_ws_connect,
    encode_ws_frame,
    read_http_response,
    read_ws_frame,
)
from repro.fleet.tenant import (
    CaptureParams,
    TenantEngine,
    builtin_vehicle,
    decode_chunk,
    model_from_b64,
    model_to_b64,
)
from repro.obs.export import parse_prometheus
from repro.perf.engine import plan_transmissions, render_transmissions
from repro.stream import StreamingExtractor, StreamingSegmenter
from repro.vehicles.dataset import capture_session
from repro.vehicles.profiles import VehicleConfig

VEHICLE = "sterling"
SAMPLE_RATE = 2_000_000.0
CHUNK_SAMPLES = 32768
MARGIN = 5.0
TRAIN_S = 4.0
MAX_RESIDENT = 4
TENANTS = 2 * MAX_RESIDENT
#: The hottest tenant, alone on the WebSocket session, gets ~23 % of the
#: chunks.  WebSocket chunks take about three times as long as REST ones,
#: and at exponent 1 (~37 %) the median fell in the sparse gap between
#: the two and moved with every seed; NOTES.md has the figures.
ZIPF_EXPONENT = 0.5
STREAMS = 3                # distinct rendered streams the tenants share
STREAM_S = 1.5             # bus seconds per stream before it loops
IDLE_BITS = 64             # idle padding at each end of a stream
HIJACK_P = 0.1
#: Offered chunks per second, fixed once at about 40 % of the closed-loop
#: capacity measured on a 2-CPU x86_64 host; NOTES.md says why not half.
OFFERED_RATE = 40.0
TAIL_PCT = 95.0
REPLY_TIMEOUT_S = 30.0
TRACED_WS_FRAMES = 16


# ----------------------------------------------------------------------
# The gateway process
# ----------------------------------------------------------------------

@dataclass
class Gateway:
    proc: subprocess.Popen[str]
    host: str
    port: int
    cold_start_s: float
    state_dir: Path
    log: Any

    @classmethod
    def start(cls, ctx: Any) -> "Gateway":
        state_dir = ctx.out_dir / f"gateway-state-{os.getpid()}"
        shutil.rmtree(state_dir, ignore_errors=True)
        log = (ctx.out_dir / f"gateway-{os.getpid()}.log").open("w")
        env = {**os.environ, "PYTHONUNBUFFERED": "1"}
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-s", "-m", "repro.cli", "fleet", "serve",
             "--address", "127.0.0.1:0", "--state-dir", str(state_dir),
             "--max-resident", str(MAX_RESIDENT)],
            cwd=ctx.root, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
        )
        try:
            host, port = _read_address(proc, timeout_s=60.0)
            while True:
                with contextlib.suppress(OSError):
                    status, _ = _http(host, port, "GET", "/fleet")
                    if status == 200:
                        break
                if proc.poll() is not None or time.perf_counter() - spawned > 60.0:
                    raise RuntimeError("fleet gateway did not come up")
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            proc.wait()
            log.close()
            raise
        return cls(proc, host, port, time.perf_counter() - spawned, state_dir, log)

    def stop(self) -> None:
        """SIGTERM (the gateway drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def _read_address(proc: subprocess.Popen[str], timeout_s: float) -> tuple[str, int]:
    assert proc.stdout is not None
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout_s):
            raise RuntimeError("fleet gateway printed no address")
        line = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if match is None:
        raise RuntimeError(f"unexpected gateway banner: {line!r}")
    return match.group(1), int(match.group(2))


def _http(host: str, port: int, method: str, path: str,
          body: dict[str, Any] | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def tenant_name(index: int) -> str:
    return f"bench-{index}"


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------

@dataclass
class State:
    vehicle: VehicleConfig
    model_b64: str
    gateway: Gateway
    train_s: float


def _train(seed: int, vehicle: VehicleConfig) -> tuple[VProfileModel, float]:
    session = capture_session(vehicle, TRAIN_S, seed=seed)
    pipeline = VProfilePipeline(PipelineConfig(margin=MARGIN, sa_clusters=vehicle.sa_clusters))
    started = time.perf_counter()
    model = pipeline.train(session.traces)
    return model, time.perf_counter() - started


def setup(ctx: Any) -> State:
    vehicle = builtin_vehicle(VEHICLE, SAMPLE_RATE)
    model, train_s = _train(derive_seed(ctx.seed, 0), vehicle)
    model_b64 = model_to_b64(model)
    gateway = Gateway.start(ctx)
    try:
        for index in range(TENANTS):
            status, body = _http(gateway.host, gateway.port, "POST", "/tenants", {
                "tenant": tenant_name(index), "vehicle": VEHICLE,
                "sample_rate": SAMPLE_RATE, "margin": MARGIN, "model_b64": model_b64,
            })
            if status != 200:
                raise RuntimeError(f"register {tenant_name(index)} failed: {body[:200]!r}")
    except BaseException:
        gateway.stop()
        raise
    return State(vehicle, model_b64, gateway, train_s)


def teardown(state: State) -> None:
    state.gateway.stop()


# ----------------------------------------------------------------------
# Load generation (untimed): streams, schedule, request bytes
# ----------------------------------------------------------------------

@dataclass
class Stream:
    """One looped sample stream, pre-encoded chunk by chunk."""

    b64: list[bytes]              # base64 counts per content chunk
    dtype: str
    message_s: np.ndarray         # message start offsets within the loop
    attacked: np.ndarray          # physical hijack ground truth per message

    @property
    def period_s(self) -> float:
        return len(self.b64) * CHUNK_SAMPLES / SAMPLE_RATE


def render_stream(vehicle: VehicleConfig, seed: int) -> Stream:
    """Render ``STREAM_S`` of traffic with physical hijacks, idle-padded to loop."""
    rng = np.random.default_rng(derive_seed(seed, 0))
    names = [ecu.name for ecu in vehicle.ecus]
    transmissions, attacked = [], []
    for tx in plan_transmissions(vehicle, STREAM_S, seed=derive_seed(seed, 1)):
        forged = rng.random() < HIJACK_P
        if forged:
            others = [name for name in names if name != tx.sender]
            tx = replace(tx, sender=others[int(rng.integers(len(others)))])
        transmissions.append(tx)
        attacked.append(forged)
    traces = render_transmissions(vehicle, transmissions, seed=derive_seed(seed, 2), jobs=1)
    stream = assemble_stream(traces)
    pad = int(IDLE_BITS * SAMPLE_RATE / vehicle.bitrate)
    total = -(-(len(stream) + 2 * pad) // CHUNK_SAMPLES) * CHUNK_SAMPLES
    counts = np.full(total, int(np.median(stream.counts)), dtype=stream.counts.dtype)
    counts[pad : pad + len(stream)] = stream.counts
    starts = np.array([t.start_s for t in traces]) - stream.start_s + pad / SAMPLE_RATE
    return Stream(
        b64=[base64.b64encode(counts[lo : lo + CHUNK_SAMPLES].tobytes())
             for lo in range(0, total, CHUNK_SAMPLES)],
        dtype=str(counts.dtype),
        message_s=starts,
        attacked=np.array(attacked),
    )


def stream_of(tenant: int) -> int:
    """The hottest tenant owns stream 0; the others alternate over the rest."""
    return 0 if tenant == 0 else 1 + (tenant - 1) % (STREAMS - 1)


def _prefix(seq: int, dtype: str, ws: bool) -> bytes:
    """JSON up to the counts string, space-padded to a multiple of 4 bytes.

    The padding keeps every chunk's counts at the same offset modulo the
    4-byte WebSocket mask, so masked counts can be shared between frames.
    """
    head = '"type": "chunk", ' if ws else ""
    body = f'{head}"seq": {seq}, "start_s": {seq * CHUNK_SAMPLES / SAMPLE_RATE!r}, ' \
           f'"dtype": "{dtype}", "counts": "'
    return ("{" + " " * ((-(len(body) + 1)) % 4) + body).encode()


SUFFIX = b'"}'


def _mask(data: bytes, key: bytes) -> bytes:
    raw = np.frombuffer(data, dtype=np.uint8)
    return (raw ^ np.resize(np.frombuffer(key, dtype=np.uint8), raw.size)).tobytes()


@dataclass
class Plan:
    streams: list[Stream]
    tenants: np.ndarray            # tenant of each request
    chunks: np.ndarray             # tenant-local chunk index of each request
    requests: list[Request]
    ws_key: bytes
    body_bytes: float = 0.0

    def body(self, i: int, ws: bool = False) -> bytes:
        """The unmasked JSON payload of request ``i``."""
        stream = self.streams[stream_of(int(self.tenants[i]))]
        k = int(self.chunks[i])
        return _prefix(k, stream.dtype, ws) + stream.b64[k % len(stream.b64)] + SUFFIX


def build_plan(seed: int, part: int, vehicle: VehicleConfig, seconds: float) -> Plan:
    streams = [render_stream(vehicle, derive_seed(seed, 10, j)) for j in range(STREAMS)]
    n = int(round(OFFERED_RATE * seconds))
    tenants = zipf_schedule(derive_seed(seed, 11, part), TENANTS, n, ZIPF_EXPONENT)
    chunks = np.zeros(n, dtype=np.int64)
    next_chunk = [0] * TENANTS
    for i, tenant in enumerate(tenants):
        chunks[i] = next_chunk[tenant]
        next_chunk[tenant] += 1
    ws_key = derive_seed(seed, 12).to_bytes(4, "little")
    hot = streams[0]
    masked_counts = [_mask(b, ws_key) for b in hot.b64]
    masked_suffix = _mask(SUFFIX, ws_key)
    requests: list[Request] = []
    sizes = []
    for i, (tenant, k) in enumerate(zip(tenants.tolist(), chunks.tolist())):
        stream = streams[stream_of(tenant)]
        counts = stream.b64[k % len(stream.b64)]
        due = i / OFFERED_RATE
        if tenant == 0:
            prefix = _prefix(k, stream.dtype, True)
            length = len(prefix) + len(counts) + len(SUFFIX)
            if length < 1 << 16:  # the 64-bit length form below must be the minimal one
                raise ValueError(f"chunk payload of {length} bytes is too small")
            header = bytes([0x80 | OP_TEXT, 0x80 | 127]) + length.to_bytes(8, "big") + ws_key
            requests.append(Request(due, 0, (
                header + _mask(prefix, ws_key),
                masked_counts[k % len(hot.b64)],
                masked_suffix,
            )))
        else:
            prefix = _prefix(k, stream.dtype, False)
            length = len(prefix) + len(counts) + len(SUFFIX)
            head = (f"POST /tenants/{tenant_name(tenant)}/ingest HTTP/1.1\r\n"
                    f"Host: fleet\r\nContent-Length: {length}\r\n\r\n").encode()
            requests.append(Request(due, 1, (head + prefix, counts, SUFFIX)))
        sizes.append(length)
    return Plan(streams, tenants, chunks, requests, ws_key, body_bytes=float(np.mean(sizes)))


# ----------------------------------------------------------------------
# The timed run
# ----------------------------------------------------------------------

async def _read_rest(reader: asyncio.StreamReader) -> tuple[bool, bytes]:
    try:
        status, _headers, body = await read_http_response(reader)
    except ProtocolError as exc:
        raise ConnectionError(str(exc)) from exc
    return status == 200, body


async def _read_ws(reader: asyncio.StreamReader) -> tuple[bool, bytes]:
    opcode, payload = await read_ws_frame(reader)
    if opcode == OP_CLOSE:
        raise ConnectionError("the gateway closed the WebSocket session")
    return opcode == OP_TEXT and json.loads(payload).get("type") == "verdicts", payload


async def _connect(host: str, port: int, seed: int) -> list[tuple[Any, Any]]:
    ws = await asyncio.open_connection(host, port)
    await client_ws_connect(ws[0], ws[1], f"/tenants/{tenant_name(0)}/stream", key_seed=seed)
    rest = await asyncio.open_connection(host, port)
    return [ws, rest]


async def _close(connections: list[tuple[Any, Any]]) -> None:
    for _reader, writer in connections:
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()


async def _open_loop(host: str, port: int, plan: Plan, seed: int) -> Any:
    connections = await _connect(host, port, seed)
    try:
        return await run_open_loop(connections, [_read_ws, _read_rest], plan.requests,
                                   timeout_s=REPLY_TIMEOUT_S)
    finally:
        await _close(connections)


def reference_verdicts(plan: Plan, model_b64: str, vehicle: VehicleConfig) -> list[list[Any]]:
    """Per stream, per chunk: what an in-process ``TenantEngine`` returns."""
    out: list[list[Any]] = []
    params = CaptureParams.for_vehicle(vehicle)
    for j in range(STREAMS):
        needed = max((int(k) + 1 for t, k in zip(plan.tenants, plan.chunks)
                      if stream_of(int(t)) == j), default=0)
        engine = TenantEngine("reference", vehicle=VEHICLE, model=model_from_b64(model_b64),
                              params=params, margin=MARGIN)
        stream = plan.streams[j]
        per_chunk = []
        for k in range(needed):
            body = _prefix(k, stream.dtype, False) + stream.b64[k % len(stream.b64)] + SUFFIX
            per_chunk.append(json.loads(json.dumps(
                engine.process_chunk(decode_chunk(json.loads(body), params)))))
        out.append(per_chunk)
    return out


def _attacked(stream: Stream, start_s: float) -> bool:
    offset = start_s % stream.period_s
    return bool(stream.attacked[int(np.argmin(np.abs(stream.message_s - offset)))])


def run(ctx: Any, state: State, result: Any) -> None:
    gateway = state.gateway
    plan = build_plan(ctx.seed, ctx.part, state.vehicle, ctx.seconds)
    outcome = asyncio.run(_open_loop(gateway.host, gateway.port, plan, ctx.seed))
    peak_rss = tree_peak_rss_mb(gateway.proc.pid)
    _status, metrics_text = _http(gateway.host, gateway.port, "GET", "/metrics")
    _status, fleet_json = _http(gateway.host, gateway.port, "GET", "/fleet")

    reference = reference_verdicts(plan, state.model_b64, state.vehicle)
    frames = 0
    tp = fp = fn = 0
    done_s = 0.0
    for i, request in enumerate(plan.requests):
        tenant, k = int(plan.tenants[i]), int(plan.chunks[i])
        result.attempted += 1
        if not outcome.ok[i]:
            result.fail(f"chunk {i} (tenant {tenant}, #{k}): no verdicts "
                        f"({(outcome.payloads[i] or b'')[:120]!r})")
            continue
        verdicts = json.loads(outcome.payloads[i])["verdicts"]
        if verdicts != reference[stream_of(tenant)][k]:
            result.fail(f"chunk {i} (tenant {tenant}, #{k}): verdicts differ from "
                        "an in-process TenantEngine")
        frames += len(verdicts)
        done_s = max(done_s, request.due_s + outcome.latency_s[i])
        stream = plan.streams[stream_of(tenant)]
        for verdict in verdicts:
            is_attack = _attacked(stream, verdict["start_s"])
            flagged = verdict["verdict"] == "anomaly"
            tp += is_attack and flagged
            fp += (not is_attack) and flagged
            fn += is_attack and not flagged

    latencies = [x for x, ok in zip(outcome.latency_s, outcome.ok) if ok]
    result.e2e.update({
        "peak_rss_mb": peak_rss,
        "f_score": f_score(tp, fp, fn),
    })
    # Open loop: one rate per part, verdicts over the span of the run.
    result.rates = [frames / done_s if done_s > 0 else 0.0]
    result.latencies, result.tail_pct = latencies, TAIL_PCT
    result.info.update({
        "offered_rate": OFFERED_RATE, "chunks": len(plan.requests), "frames": frames,
        "tenants": TENANTS, "max_resident": MAX_RESIDENT, "zipf_exponent": ZIPF_EXPONENT,
        "missing": outcome.missing,
    })
    if ctx.trace:
        _gateway_layers(result, state, plan, outcome, metrics_text, fleet_json)
        _traced(ctx, state, result, plan, latencies)


def _gateway_layers(result: Any, state: State, plan: Plan, outcome: Any,
                    metrics_text: bytes, fleet_json: bytes) -> None:
    snapshot = parse_prometheus(metrics_text.decode())

    def counter(name: str, exclude_status: str | None = None) -> float:
        return sum(c["value"] for c in snapshot["counters"] if c["name"] == name
                   and (exclude_status is None or c["labels"].get("status") != exclude_status))

    latency = json.loads(fleet_json).get("verdict_latency", {})
    by_conn = [[x for x, r, ok in zip(outcome.latency_s, plan.requests, outcome.ok)
                if ok and r.conn == conn] for conn in (0, 1)]
    result.layers.update({
        "fleet.cold_start_s": state.gateway.cold_start_s,
        "fleet.protocol.bytes_per_chunk": plan.body_bytes,
        "fleet.protocol.ws_rtt_p50_ms": pct(by_conn[0], 50) * 1e3,
        "fleet.protocol.rest_rtt_p50_ms": pct(by_conn[1], 50) * 1e3,
        "fleet.supervisor.evictions": counter("vprofile_fleet_evictions_total"),
        "fleet.supervisor.rehydrations": counter("vprofile_fleet_rehydrations_total"),
        "fleet.gateway.ingest_p50_ms": (latency.get("p50") or 0.0) * 1e3,
        "fleet.gateway.ingest_p99_ms": (latency.get("p99") or 0.0) * 1e3,
        "fleet.gateway.requests_failed": counter("vprofile_fleet_requests_total", "200"),
        "loadgen.late_p99_ms": pct(outcome.late_s, 99) * 1e3,
        "loadgen.offered_chunks_per_s": OFFERED_RATE,
        "core.train_s": state.train_s,
    })


def _traced(ctx: Any, state: State, result: Any, plan: Plan, untraced: list[float]) -> None:
    """The same chunks through the public layer calls, in process, under the same LRU."""
    tracer = Tracer()
    params = CaptureParams.for_vehicle(state.vehicle)
    spill = ctx.out_dir / f"traced-state-{os.getpid()}"
    shutil.rmtree(spill, ignore_errors=True)
    resident: OrderedDict[int, TenantEngine] = OrderedDict()
    msgs = {"msgs": 1.0}

    def admit(tenant: int, engine: TenantEngine) -> None:
        resident[tenant] = engine
        resident.move_to_end(tenant)
        while len(resident) > MAX_RESIDENT:
            victim = next(iter(resident))
            tracer.call("fleet.tenant.checkpoint", resident.pop(victim).checkpoint,
                        spill / tenant_name(victim))

    with contextlib.ExitStack() as wraps:
        wraps.enter_context(tracer.wrap(StreamingExtractor, "push", "stream.extractor"))
        wraps.enter_context(tracer.wrap(StreamingSegmenter, "push", "stream.segment"))
        wraps.enter_context(tracer.wrap(stream_extractor, "extract_edge_set", "core.extract",
                                        count=lambda _out: msgs))
        wraps.enter_context(tracer.wrap(Detector, "classify_batch", "core.classify",
                                        count=lambda out: {"msgs": len(out.slack)}))
        tracer.trace = -1
        for tenant in range(TENANTS):
            admit(tenant, TenantEngine(tenant_name(tenant), vehicle=VEHICLE,
                                       model=model_from_b64(state.model_b64),
                                       params=params, margin=MARGIN))
        ws_probes = 0
        frames = 0
        for i in range(len(plan.requests)):
            tenant = int(plan.tenants[i])
            body = plan.body(i)
            tracer.trace = i
            with tracer.span("fleet.chunk"):
                chunk = tracer.call("fleet.protocol.decode",
                                    lambda raw: decode_chunk(json.loads(raw), params), body)
                if tenant in resident:
                    resident.move_to_end(tenant)
                else:
                    admit(tenant, tracer.call("fleet.tenant.rehydrate", TenantEngine.rehydrate,
                                              spill / tenant_name(tenant)))
                frames += len(tracer.call("fleet.tenant.process",
                                          resident[tenant].process_chunk, chunk))
            if tenant == 0 and ws_probes < TRACED_WS_FRAMES:
                ws_probes += 1
                tracer.call("fleet.protocol.ws_frame", encode_ws_frame, plan.body(i, ws=True),
                            opcode=OP_TEXT, mask_key=plan.ws_key)
    shutil.rmtree(spill, ignore_errors=True)
    tracer.dump(ctx.out_dir / "spans.jsonl")
    layers = layer_totals(tracer.spans)

    def self_s(name: str) -> float:
        return layers[name].self_s if name in layers else 0.0

    def durations_ms(name: str) -> list[float]:
        return [d * 1e3 for d in layers[name].durations] if name in layers else []

    process = durations_ms("fleet.tenant.process")
    result.layers.update({
        "fleet.protocol.decode_ms": pct(durations_ms("fleet.protocol.decode"), 50),
        "fleet.protocol.ws_frame_ms": pct(durations_ms("fleet.protocol.ws_frame"), 50),
        "fleet.tenant.process_p50_ms": pct(process, 50),
        "fleet.tenant.process_p99_ms": pct(process, 99),
        "fleet.tenant.checkpoint_ms": pct(durations_ms("fleet.tenant.checkpoint"), 50),
        "fleet.tenant.rehydrate_ms": pct(durations_ms("fleet.tenant.rehydrate"), 50),
        "core.extract_s": self_s("core.extract"),
        "core.extract_msgs": layers["core.extract"].counts.get("msgs", 0.0),
        "core.classify_s": self_s("core.classify"),
        "core.classify_msgs": layers["core.classify"].counts.get("msgs", 0.0),
        "stream.segment_s": self_s("stream.segment"),
        "stream.extractor_s": self_s("stream.extractor"),
        "stream.chunks": float(len(process)),
        "stream.messages": float(frames),
        "trace.ops": float(len(plan.requests)),
        "trace.untraced_op_ms": pct(untraced, 50) * 1e3,
        "trace.traced_op_ms": pct(durations_ms("fleet.chunk"), 50),
    })
    result.info["self_s"] = {name: t.self_s for name, t in layers.items()}


# ----------------------------------------------------------------------
# Capacity calibration: python3 -m perfbench.wl_fleet
# ----------------------------------------------------------------------

async def _closed_loop(host: str, port: int, plan: Plan, seed: int) -> tuple[int, float]:
    connections = await _connect(host, port, seed)
    try:
        return await run_closed_loop(connections, [_read_ws, _read_rest], plan.requests)
    finally:
        await _close(connections)


#: Length of the schedule the calibration replays closed-loop.
CALIBRATE_S = 10.0


def calibrate() -> None:
    """Print the gateway's closed-loop capacity with this connection mix."""
    from perfbench.child import Context

    root = Path.cwd()
    ctx = Context(seed=0, part=0, seconds=CALIBRATE_S, trace=False, root=root,
                  out_dir=root / ".perfbench_out" / "fleet-calibrate")
    ctx.out_dir.mkdir(parents=True, exist_ok=True)
    state = setup(ctx)
    try:
        plan = build_plan(0, 0, state.vehicle, CALIBRATE_S)
        replies, elapsed = asyncio.run(_closed_loop(state.gateway.host, state.gateway.port,
                                                    plan, 0))
    finally:
        teardown(state)
    print(f"closed-loop capacity: {replies / elapsed:.1f} chunks/s "
          f"({replies} chunks in {elapsed:.2f} s); offered rate is {OFFERED_RATE:g}")


if __name__ == "__main__":
    calibrate()
