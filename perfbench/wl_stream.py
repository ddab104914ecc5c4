"""``stream``: online detection on Vehicle B (8 ECUs, 10 MS/s, 12-bit).

One capture is rendered before the run (load generation, untimed) and
replayed through ``VProfilePipeline.stream`` with the ``repro stream``
CLI defaults — 2 workers, batch size 8, 4096-sample chunks, margin 5 —
plus Algorithm 4 online updates and 10 % in-flight hijack injection.
Chunked segmentation, streaming Algorithm 1, classification and the
update do the work; updates write the model while classification reads
it.  Synthesis and the process pool are never touched.

Each replay starts from a fresh copy of the trained model, so updates
from one replay never leak into the next, and draws its own injection
seed from the run seed.
"""

from __future__ import annotations

import contextlib
import copy
import threading
import time
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

import repro.stream.extractor as stream_extractor
from perfbench.harness import Tracer, derive_seed, f_score, layer_totals, pct, tree_peak_rss_mb
from repro.acquisition.segmentation import assemble_stream, segment_capture
from repro.acquisition.trace import VoltageTrace
from repro.core.detection import Detector
from repro.core.online_update import OnlineUpdater
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.obs import MetricsRegistry, use_registry
from repro.stream import (
    DEFAULT_CHUNK_SAMPLES,
    DROPPED_METRIC,
    LATENCY_METRIC,
    QUEUE_DEPTH_METRIC,
    ReplaySource,
    StreamConfig,
    StreamingExtractor,
    StreamingSegmenter,
    result_from_batch,
)
from repro.stream.extractor import StreamMessage
from repro.vehicles.dataset import capture_session
from repro.vehicles.profiles import VehicleConfig, vehicle_b

TRAIN_S = 5.0          # the CLI's --train-duration default
REPLAY_S = 1.0         # bus seconds per replay (~235 frames)
WORKERS = 2            # CLI defaults: --workers, --batch-size, --margin
BATCH_SIZE = 8
MARGIN = 5.0
HIJACK_P = 0.1
WARMUP_REPLAYS = 2
TAIL_PCT = 75.0
TRACED_REPLAYS = 3


@dataclass
class State:
    vehicle: VehicleConfig
    pipeline: VProfilePipeline
    train_s: float
    capture: VoltageTrace | None = None
    expected_messages: int = 0


def _fresh_pipeline(trained: VProfilePipeline) -> VProfilePipeline:
    """A pipeline over a private copy of the trained model."""
    assert trained.model is not None and trained.extraction is not None
    pipeline = VProfilePipeline(trained.config)
    pipeline.load_model(copy.deepcopy(trained.model), trained.extraction)
    return pipeline


def _config(seed: int) -> StreamConfig:
    return StreamConfig(
        n_workers=WORKERS, batch_size=BATCH_SIZE,
        hijack_probability=HIJACK_P, hijack_seed=seed,
    )


def setup(ctx: Any) -> State:
    vehicle = vehicle_b()
    training = capture_session(vehicle, TRAIN_S, seed=derive_seed(ctx.seed, 0))
    pipeline = VProfilePipeline(PipelineConfig(
        margin=MARGIN, sa_clusters=vehicle.sa_clusters, online_update=True,
    ))
    started = time.perf_counter()
    pipeline.train(training.traces)
    train_s = time.perf_counter() - started
    # Warm the runtime on the training traffic: first replays run slower.
    warmup = assemble_stream(training.traces[: len(training.traces) // 2])
    for k in range(WARMUP_REPLAYS):
        _fresh_pipeline(pipeline).stream(
            ReplaySource(warmup, DEFAULT_CHUNK_SAMPLES), _config(derive_seed(ctx.seed, 1, k))
        )
    return State(vehicle=vehicle, pipeline=pipeline, train_s=train_s)


def _render(ctx: Any, state: State) -> None:
    """Load generation: the replayed capture and its batch segmentation.

    Rendered in process, without the engine's worker pool, so that no
    pool worker outlives it and counts towards ``peak_rss_mb``.
    """
    session = capture_session(state.vehicle, REPLAY_S, seed=derive_seed(ctx.seed, 2))
    state.capture = assemble_stream(session.traces)
    state.expected_messages = len(segment_capture(state.capture))


def run(ctx: Any, state: State, result: Any) -> None:
    _render(ctx, state)
    assert state.capture is not None
    latencies: list[float] = []
    rates: list[float] = []
    frames = 0
    tp = fp = fn = 0
    deadline = time.perf_counter() + ctx.seconds
    k = 0
    while time.perf_counter() < deadline:
        pipeline = _fresh_pipeline(state.pipeline)
        source = ReplaySource(state.capture, DEFAULT_CHUNK_SAMPLES)
        config = _config(derive_seed(ctx.seed, 3, ctx.part, k))
        started = time.perf_counter()
        report = pipeline.stream(source, config)
        latencies.append(time.perf_counter() - started)
        rates.append(report.messages / latencies[-1])
        frames += report.messages
        result.attempted += 1
        if report.dropped or report.extraction_failures:
            result.fail(f"replay {k}: dropped={report.dropped} "
                        f"extraction_failures={report.extraction_failures}")
        elif report.messages != state.expected_messages:
            result.fail(f"replay {k}: {report.messages} messages, "
                        f"segment_capture finds {state.expected_messages}")
        attacked = set(report.injected_attacks)
        for verdict in report.verdicts:
            is_attack = verdict.seq in attacked
            tp += is_attack and verdict.is_anomaly
            fp += (not is_attack) and verdict.is_anomaly
            fn += is_attack and not verdict.is_anomaly
        k += 1
    result.e2e.update({
        "peak_rss_mb": tree_peak_rss_mb(ctx.pid),
        "f_score": f_score(tp, fp, fn),
    })
    result.latencies, result.rates, result.tail_pct = latencies, rates, TAIL_PCT
    result.info.update({
        "replay_bus_s": REPLAY_S, "frames": frames,
        "messages_per_replay": state.expected_messages,
    })
    if ctx.trace:
        _registry_replay(ctx, state, result)
        _traced(ctx, state, result, latencies)


def _registry_replay(ctx: Any, state: State, result: Any) -> None:
    """One untraced replay with the metrics registry on, for queue/latency metrics."""
    registry = MetricsRegistry()
    depth_max = 0.0
    stop = threading.Event()

    def sample_depth() -> None:
        nonlocal depth_max
        while not stop.wait(0.0005):
            try:
                depths = [g.value for _l, g in registry.samples(QUEUE_DEPTH_METRIC)]
            except RuntimeError:  # a shard's gauge was created mid-iteration
                continue
            depth_max = max([depth_max, *depths])

    sampler = threading.Thread(target=sample_depth, daemon=True)
    with use_registry(registry):
        sampler.start()
        try:
            _fresh_pipeline(state.pipeline).stream(
                ReplaySource(state.capture, DEFAULT_CHUNK_SAMPLES),
                _config(derive_seed(ctx.seed, 4)),
            )
        finally:
            stop.set()
            sampler.join(timeout=5)
    latency = registry.histogram(LATENCY_METRIC)
    result.layers.update({
        "stream.queue_depth_max": depth_max,
        "stream.dropped": sum(m.value for _l, m in registry.samples(DROPPED_METRIC)),
        "stream.latency_p50_ms": (latency.quantile(0.5) or 0.0) * 1e3,
        "stream.latency_p99_ms": (latency.quantile(0.99) or 0.0) * 1e3,
    })


def _inject(pipeline: VProfilePipeline, message: StreamMessage, seq: int,
            seed: int) -> StreamMessage:
    """The runtime's in-flight hijack rule, applied by the traced drive."""
    rng = np.random.default_rng([seed, seq])
    if rng.random() >= HIJACK_P:
        return message
    model = pipeline.model
    assert model is not None
    own = model.sa_to_cluster.get(message.edge_set.source_address)
    candidates = [sa for sa, cluster in model.sa_to_cluster.items() if cluster != own]
    forged = int(candidates[int(rng.integers(len(candidates)))])
    return StreamMessage(
        edge_set=replace(message.edge_set, source_address=forged),
        start_s=message.start_s, index=message.index,
    )


class _Classifier:
    """Single-threaded stand-in for the sharded pool: same shards, same batches."""

    def __init__(self, pipeline: VProfilePipeline, counts: dict[str, float]):
        self.detector: Detector = pipeline.detector
        self.updater: OnlineUpdater | None = pipeline.updater
        self.shards: list[list[StreamMessage]] = [[] for _ in range(WORKERS)]
        self.counts = counts

    def submit(self, message: StreamMessage) -> None:
        shard = self.shards[message.edge_set.identity % WORKERS]
        shard.append(message)
        if len(shard) == BATCH_SIZE:
            self.flush(shard)

    def flush(self, shard: list[StreamMessage]) -> None:
        if not shard:
            return
        vectors = np.stack([m.edge_set.vector for m in shard])
        sas = np.array([m.edge_set.source_address for m in shard], dtype=np.int64)
        detection = self.detector.classify_batch(vectors, sas)
        for row, message in enumerate(shard):
            verdict = result_from_batch(detection, row, int(sas[row]), self.detector.margin)
            if not verdict.is_anomaly and self.updater is not None:
                report = self.updater.update([message.edge_set])
                self.counts["offered"] += 1
                self.counts["folded"] += sum(report.updated.values())
        self.counts["classified"] += len(shard)
        shard.clear()


def _traced(ctx: Any, state: State, result: Any, untraced: list[float]) -> None:
    tracer = Tracer()
    counts = {"offered": 0.0, "folded": 0.0, "classified": 0.0, "chunks": 0.0,
              "messages": 0.0}
    extract_count = {"msgs": 1.0}
    with contextlib.ExitStack() as wraps:
        wraps.enter_context(tracer.wrap(StreamingExtractor, "push", "stream.extractor"))
        wraps.enter_context(tracer.wrap(StreamingSegmenter, "push", "stream.segment"))
        wraps.enter_context(tracer.wrap(stream_extractor, "extract_edge_set", "core.extract",
                                        count=lambda _out: extract_count))
        wraps.enter_context(tracer.wrap(Detector, "classify_batch", "core.classify"))
        wraps.enter_context(tracer.wrap(OnlineUpdater, "update", "core.update"))
        for k in range(TRACED_REPLAYS):
            pipeline = _fresh_pipeline(state.pipeline)
            seed = derive_seed(ctx.seed, 5, k)
            tracer.trace = k
            with tracer.span("stream.replay"):
                extractor = StreamingExtractor(pipeline.extraction)
                classifier = _Classifier(pipeline, counts)
                seq = 0
                source = ReplaySource(state.capture, DEFAULT_CHUNK_SAMPLES)
                for chunk in source.chunks():
                    counts["chunks"] += 1
                    for message in extractor.push(chunk):
                        classifier.submit(_inject(pipeline, message, seq, seed))
                        seq += 1
                for message in extractor.finish():
                    classifier.submit(_inject(pipeline, message, seq, seed))
                    seq += 1
                for shard in classifier.shards:
                    classifier.flush(shard)
                counts["messages"] += seq
    tracer.dump(ctx.out_dir / "spans.jsonl")
    layers = layer_totals(tracer.spans)

    def self_s(name: str) -> float:
        return layers[name].self_s if name in layers else 0.0

    def total_s(name: str) -> float:
        return sum(layers[name].durations) if name in layers else 0.0

    worked = total_s("stream.extractor") + total_s("core.classify") + total_s("core.update")
    result.layers.update({
        "core.extract_s": self_s("core.extract"),
        "core.extract_msgs": layers["core.extract"].counts.get("msgs", 0.0),
        "core.classify_s": self_s("core.classify"),
        "core.classify_msgs": counts["classified"],
        "core.update_s": self_s("core.update"),
        "core.update_offered": counts["offered"],
        "core.update_folded": counts["folded"],
        "core.update_accept_ratio": counts["folded"] / max(counts["offered"], 1.0),
        "core.train_s": state.train_s,
        "stream.segment_s": self_s("stream.segment"),
        "stream.extractor_s": self_s("stream.extractor"),
        "stream.chunks": counts["chunks"],
        "stream.messages": counts["messages"],
        "stream.runtime_overhead_s": pct(untraced, 50) - worked / TRACED_REPLAYS,
        "trace.ops": TRACED_REPLAYS,
        "trace.untraced_op_ms": pct(untraced, 50) * 1e3,
        "trace.traced_op_ms": pct(layers["stream.replay"].durations, 50) * 1e3,
    })
    result.info["self_s"] = {name: t.self_s for name, t in layers.items()}
