"""``batch``: the paper's offline path on Vehicle A (20 MS/s, 16-bit).

One operation renders a fresh capture through the parallel engine
(``capture_and_extract`` at ``jobs`` = usable CPUs: synthesis,
quantization, worker fan-out, shared-memory hand-off, Algorithm 1),
rewrites 20 % of the SAs (``apply_hijack``) and classifies the batch.
Segmentation, the online updater and the fleet are never touched.

Every operation draws its own capture seed from the run seed, so no
timed operation is served from the plan memo or the capture cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from perfbench.harness import Tracer, derive_seed, f_score, layer_totals, pct, tree_peak_rss_mb
from repro.acquisition.trace import VoltageTrace
from repro.attacks.hijack import apply_hijack
from repro.core.detection import Detector
from repro.core.edge_extraction import ExtractionConfig, extract_many
from repro.core.model import Metric, VProfileModel
from repro.core.training import TrainingData, train_model
from repro.obs import MetricsRegistry, use_registry
from repro.perf.batch import synthesize_waveform_matrix
from repro.perf.engine import (
    PLAN_MEMO_HITS_METRIC,
    capture_and_extract,
    plan_transmissions,
    render_transmissions,
)
from repro.perf.parallel import rngs_for_slice
from repro.perf.shm import SHM_BYTES_METRIC, SHM_LEAKED_METRIC, SHM_SEGMENTS_METRIC
from repro.vehicles.profiles import VehicleConfig, vehicle_a

TRAIN_S = 5.0        # training capture (bus seconds)
OP_S = 2.0           # one operation's capture (bus seconds, ~600 messages)
HIJACK_P = 0.2       # the paper's hijack imitation rate (Section 4.1)
MARGIN = 5.0         # detection margin (the CLI's streaming default)
F_FLOOR = 0.97       # Table 4.1 hijack band (benchmarks/test_table_4_1.py)
TAIL_PCT = 75.0      # tail percentile of per-operation latency
TRACED_OPS = 4       # operations in the traced drive


@dataclass
class State:
    vehicle: VehicleConfig
    jobs: int
    model: VProfileModel
    detector: Detector
    extraction: ExtractionConfig
    train_s: float


def _operation(state: State, seed: int) -> tuple[Any, list, list, np.ndarray]:
    session, edges = capture_and_extract(state.vehicle, OP_S, seed=seed, jobs=state.jobs)
    labelled = apply_hijack(
        edges, state.vehicle.sa_clusters, probability=HIJACK_P,
        rng=np.random.default_rng(seed),
    )
    vectors = np.stack([item.edge_set.vector for item in labelled])
    sas = np.array([item.edge_set.source_address for item in labelled])
    flagged = state.detector.classify_batch(vectors, sas).anomalies()
    return session, edges, labelled, flagged


def _confusion(labelled: list, flagged: np.ndarray) -> tuple[int, int, int]:
    actual = np.array([item.is_attack for item in labelled])
    return (
        int(np.sum(actual & flagged)),
        int(np.sum(~actual & flagged)),
        int(np.sum(actual & ~flagged)),
    )


def setup(ctx: Any) -> State:
    vehicle = vehicle_a()
    # The training capture is the first engine call: it also spawns and
    # warms the worker pool.
    session, edges = capture_and_extract(
        vehicle, TRAIN_S, seed=derive_seed(ctx.seed, 0), jobs=ctx.jobs
    )
    started = time.perf_counter()
    model = train_model(
        TrainingData.from_edge_sets(edges),
        metric=Metric.MAHALANOBIS,
        sa_clusters=vehicle.sa_clusters,
    )
    state = State(
        vehicle=vehicle, jobs=ctx.jobs, model=model,
        detector=Detector(model, margin=MARGIN),
        extraction=ExtractionConfig.for_trace(session.traces[0]),
        train_s=time.perf_counter() - started,
    )
    _operation(state, derive_seed(ctx.seed, 1))  # first-call lazy state
    return state


def _identical_to_inline(state: State, seed: int, session: Any, edges: list) -> bool:
    """Traces and edge vectors at ``jobs`` are byte-identical to jobs=1."""
    inline_session, inline_edges = capture_and_extract(state.vehicle, OP_S, seed=seed, jobs=1)
    return (
        len(session.traces) == len(inline_session.traces)
        and len(edges) == len(inline_edges)
        and all(a.counts.tobytes() == b.counts.tobytes()
                for a, b in zip(session.traces, inline_session.traces))
        and all(a.vector.tobytes() == b.vector.tobytes()
                for a, b in zip(edges, inline_edges))
    )


def run(ctx: Any, state: State, result: Any) -> None:
    latencies: list[float] = []
    rates: list[float] = []
    messages = 0
    tp = fp = fn = 0
    first: tuple[int, Any, list] | None = None
    deadline = time.perf_counter() + ctx.seconds
    k = 0
    while time.perf_counter() < deadline:
        seed = derive_seed(ctx.seed, 2, ctx.part, k)
        started = time.perf_counter()
        session, edges, labelled, flagged = _operation(state, seed)
        latencies.append(time.perf_counter() - started)
        rates.append(len(labelled) / latencies[-1])
        messages += len(labelled)
        op_tp, op_fp, op_fn = _confusion(labelled, flagged)
        tp, fp, fn = tp + op_tp, fp + op_fp, fn + op_fn
        result.attempted += 1
        op_f = f_score(op_tp, op_fp, op_fn)
        if op_f <= F_FLOOR:
            result.fail(f"op {k}: hijack F-score {op_f:.4f} <= {F_FLOOR}")
        if first is None:
            first = (seed, session, edges)
        k += 1
    assert first is not None
    peak_rss = tree_peak_rss_mb(ctx.pid)
    result.attempted += 1
    if not _identical_to_inline(state, *first):
        result.fail("jobs=%d output differs from jobs=1 on the first seed" % state.jobs)

    result.e2e.update({
        "peak_rss_mb": peak_rss,
        "f_score": f_score(tp, fp, fn),
    })
    result.latencies, result.rates, result.tail_pct = latencies, rates, TAIL_PCT
    result.info.update({"op_bus_s": OP_S, "messages": messages, "jobs": state.jobs})
    if ctx.trace:
        _traced(ctx, state, result, latencies)


def _probe_synthesis(tracer: Tracer, state: State, transmissions: list, seed: int) -> None:
    """In-process replay of one worker's render: synthesis, then quantization."""
    chain = state.vehicle.capture_chain()
    transceivers = {ecu.name: ecu.transceiver for ecu in state.vehicle.ecus}
    rngs = rngs_for_slice(seed, 0, len(transmissions))
    wires = [tx.frame.stuffed_bits() for tx in transmissions]
    groups: dict[str, list[int]] = {}
    for j, tx in enumerate(transmissions):
        groups.setdefault(tx.sender, []).append(j)
    for sender, rows in groups.items():
        lengths = [len(wires[j]) for j in rows]
        matrix = np.ones((len(rows), max(lengths)), dtype=np.int8)
        for i, j in enumerate(rows):
            matrix[i, : lengths[i]] = wires[j]
        volts, n_samples = tracer.call(
            "analog.synth", synthesize_waveform_matrix,
            matrix, transceivers[sender], chain.synthesis,
            noise=chain.noise, rngs=[rngs[j] for j in rows], wire_lengths=lengths,
            count=lambda out: {"samples": float(np.sum(out[1]))},
        )
        tracer.call("acquisition.quantize", chain.adc.quantize, volts)


def _traced(ctx: Any, state: State, result: Any, untraced: list[float]) -> None:
    tracer = Tracer()
    registry = MetricsRegistry()
    with use_registry(registry):
        for k in range(TRACED_OPS):
            seed = derive_seed(ctx.seed, 3, k)
            tracer.trace = k
            with tracer.span("batch.op"):
                txs = tracer.call("can.plan", plan_transmissions, state.vehicle, OP_S,
                                  seed=seed, count=lambda out: {"frames": len(out)})
                traces: list[VoltageTrace] = tracer.call(
                    "perf.render", render_transmissions, state.vehicle, txs,
                    seed=seed, jobs=state.jobs,
                )
                edges = tracer.call("core.extract", extract_many, traces, state.extraction,
                                    count=lambda out: {"msgs": len(out)})
                labelled = tracer.call(
                    "attacks.hijack", apply_hijack, edges, state.vehicle.sa_clusters,
                    probability=HIJACK_P, rng=np.random.default_rng(seed),
                )
                vectors = np.stack([item.edge_set.vector for item in labelled])
                sas = np.array([item.edge_set.source_address for item in labelled])
                tracer.call("core.classify", state.detector.classify_batch, vectors, sas,
                            count=lambda out: {"msgs": len(sas)})
            with tracer.span("batch.probe"):
                tracer.call("perf.render_inline", render_transmissions, state.vehicle, txs,
                            seed=seed, jobs=1)
                _probe_synthesis(tracer, state, txs, seed)
    tracer.dump(ctx.out_dir / "spans.jsonl")
    layers = layer_totals(tracer.spans)

    def self_s(name: str) -> float:
        return layers[name].self_s if name in layers else 0.0

    def count(name: str, key: str) -> float:
        return layers[name].counts.get(key, 0.0) if name in layers else 0.0

    def registry_total(metric: str) -> float:
        return sum(m.value for _labels, m in registry.samples(metric))

    render_s = sum(layers["perf.render"].durations)
    inline_s = sum(layers["perf.render_inline"].durations)
    result.layers.update({
        "can.plan_s": self_s("can.plan"),
        "can.frames": count("can.plan", "frames"),
        "analog.synth_s": self_s("analog.synth"),
        "analog.samples": count("analog.synth", "samples"),
        "acquisition.quantize_s": self_s("acquisition.quantize"),
        "attacks.hijack_s": self_s("attacks.hijack"),
        "perf.render_s": render_s,
        "perf.render_inline_s": inline_s,
        "perf.parallel_speedup": inline_s / render_s,
        "perf.shm_bytes": registry_total(SHM_BYTES_METRIC),
        "perf.shm_segments": registry_total(SHM_SEGMENTS_METRIC),
        "perf.shm_leaked": registry_total(SHM_LEAKED_METRIC),
        "perf.plan_memo_hits": registry_total(PLAN_MEMO_HITS_METRIC),
        "core.extract_s": self_s("core.extract"),
        "core.extract_msgs": count("core.extract", "msgs"),
        "core.extract_skipped": registry_total("vprofile_extraction_skipped_total"),
        "core.classify_s": self_s("core.classify"),
        "core.classify_msgs": count("core.classify", "msgs"),
        "core.train_s": state.train_s,
        "trace.ops": TRACED_OPS,
        "trace.untraced_op_ms": pct(untraced, 50) * 1e3,
        "trace.traced_op_ms": pct(layers["batch.op"].durations, 50) * 1e3,
    })
    result.info["self_s"] = {name: t.self_s for name, t in layers.items()}
