"""Capture→extraction engine entry points.

Ties the batched renderer (:mod:`repro.perf.batch`), the deterministic
fan-out (:mod:`repro.perf.parallel`), the zero-copy hand-off
(:mod:`repro.perf.shm`) and the capture cache (:mod:`repro.perf.cache`)
into the library's dataset workflow:

* :func:`render_transmissions` — turn a scheduled transmission list
  into voltage traces, pad-batched per sender and fanned out over
  workers;
* :func:`capture_session_engine` — the engine-backed equivalent of
  :func:`repro.vehicles.dataset.capture_session`, with optional
  content-addressed caching;
* :func:`capture_and_extract` — fused capture + extraction in a single
  worker pass (one IPC round per chunk instead of two).

The hot path is zero-copy end to end: the parent ships each worker a
small padded wire-bit matrix, the worker renders and quantizes its
whole chunk, writes the counts into a shared-memory segment and returns
only a :class:`~repro.perf.shm.ShmChunk` descriptor (plus the extracted
edge vectors when fused).  The parent reassembles
:class:`~repro.acquisition.trace.VoltageTrace` objects as views into
the shared pages and attaches the ground-truth metadata itself — frame
objects never cross the process boundary twice.

Each input shape has one path.  Chunks that cross a process boundary
always come back through shared memory; inline chunks (``jobs=1``, or a
run too small to split) return their traces directly.  Extraction runs
the columnar walker over a chunk's traces, or the per-trace vector
walker when the chunk holds a single trace.

Every message draws from its own ``SeedSequence`` child (see
:mod:`repro.perf.parallel`), so traces are byte-identical across
``jobs`` values, inline vs cross-process chunks, and cache hit vs miss,
and match rendering each message on its own with
:meth:`~repro.acquisition.sampler.CaptureChain.capture_frame`.  Note
this per-message seeding scheme is deliberately *different* from the
legacy ``capture_session`` path, which threads one sequential generator
through all messages and stays the default for existing seed-pinned
results; pass ``jobs=`` to opt into the engine.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.acquisition.trace import VoltageTrace
from repro.analog.environment import NOMINAL_ENVIRONMENT, Environment
from repro.can.bus import BusTransmission, CanBus
from repro.can.frame import CanFrame
from repro.can.traffic import TrafficGenerator
from repro.core.edge_extraction import (
    ExtractedEdgeSet,
    ExtractionConfig,
    extract_many,
    extract_many_indexed,
)
from repro.errors import DatasetError
from repro.obs import get_registry
from repro.perf.batch import synthesize_waveform_matrix
from repro.perf.cache import CaptureCache, capture_cache_key
from repro.perf.parallel import (
    chunk_slices,
    parallel_map,
    resolve_jobs,
    rngs_for_slice,
)
from repro.perf.shm import ShmChunk, get_arena, pack_arrays
from repro.vehicles.dataset import CaptureSession
from repro.vehicles.profiles import DEFAULT_TRUNCATE_BITS, VehicleConfig

#: Transmission-plan memo hits (VPL401: metric names stay literal).
PLAN_MEMO_HITS_METRIC = "vprofile_perf_plan_memo_hits_total"

_SKIPPED_METRIC = "vprofile_extraction_skipped_total"
_SKIPPED_HELP = "Traces dropped by extract_many(skip_failures=True)"


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _effective_workers(jobs: int) -> int:
    """Worker processes to fan out to for a requested ``jobs``.

    ``jobs`` is a ceiling, not a demand: CPU-bound workers beyond the
    machine's usable CPU count only add context-switch thrash to the
    hot path, so the engine never oversubscribes.  Results are
    byte-identical either way — seeding is per message, not per worker.
    """
    return max(1, min(jobs, _usable_cpus()))


@dataclass(frozen=True, eq=False)
class _RenderChunk:
    """Picklable unit of work: render messages ``lo .. lo+n``.

    Every chunk carries the padded wire matrix plus per-row
    lengths/senders/starts.  Inline chunks also carry the frames and
    return finished traces; cross-process chunks leave the frames in the
    parent, which attaches metadata after the shared-memory hand-off.
    """

    vehicle: VehicleConfig
    env: Environment
    truncate_bits: int | None
    seed: int
    lo: int
    wire: np.ndarray  # (n, W) int8, padded recessive
    wire_lengths: tuple[int, ...]
    starts: tuple[float, ...]
    senders: tuple[str, ...]
    frames: tuple[CanFrame, ...]  # inline chunks only
    extract: bool
    extraction: ExtractionConfig | None
    skip_failures: bool


#: Worker→parent result: (payload, edges, skip ledger).  The payload is
#: the finished traces for an inline chunk and a ShmChunk descriptor for
#: a chunk that crossed a process boundary.
_ChunkResult = tuple[
    list[VoltageTrace] | ShmChunk,
    list[ExtractedEdgeSet] | None,
    list[tuple[int, str]],
]


def _render_chunk(task: _RenderChunk) -> _ChunkResult:
    chain = task.vehicle.capture_chain(task.truncate_bits)
    transceivers = {ecu.name: ecu.transceiver for ecu in task.vehicle.ecus}
    n = task.wire.shape[0]
    rngs = rngs_for_slice(task.seed, task.lo, task.lo + n)
    counts_rows: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    groups: dict[str, list[int]] = {}
    for j, sender in enumerate(task.senders):
        groups.setdefault(sender, []).append(j)
    for sender, indices in groups.items():
        volts, n_samples = synthesize_waveform_matrix(
            task.wire[indices],
            transceivers[sender],
            chain.synthesis,
            env=task.env,
            noise=chain.noise,
            rngs=[rngs[j] for j in indices],
            wire_lengths=[task.wire_lengths[j] for j in indices],
        )
        # Quantization is elementwise (rint → clip → astype), so one
        # pass over the group's whole render buffer — scratch columns
        # included — is byte-identical to quantizing row by row, and
        # skips a concatenate/split round-trip.
        group_counts = chain.adc.quantize(volts)
        for i, j in enumerate(indices):
            counts_rows[j] = group_counts[i, : int(n_samples[i])]
    # Inline chunks have the frames at hand and skip the descriptor
    # round entirely; cross-process chunks leave metadata empty — the
    # parent grafts it on after hand-off.
    traces = [
        VoltageTrace(
            counts=counts_rows[j],
            sample_rate=chain.synthesis.sample_rate,
            resolution_bits=chain.adc.resolution_bits,
            bitrate=chain.synthesis.bitrate,
            start_s=task.starts[j],
            metadata=(
                {
                    "sender": transceivers[task.senders[j]].name,
                    "frame": task.frames[j],
                }
                if task.frames
                else {}
            ),
        )
        for j in range(n)
    ]
    edges: list[ExtractedEdgeSet] | None = None
    ledger: list[tuple[int, str]] = []
    if task.extract:
        edges, ledger = extract_many_indexed(
            traces,
            task.extraction,
            skip_failures=task.skip_failures,
            index_base=task.lo,
        )
    if task.frames:
        return traces, edges, ledger
    return pack_arrays(counts_rows), edges, ledger


def _run_engine(
    vehicle: VehicleConfig,
    messages: Sequence[tuple[str, CanFrame, float]],
    *,
    env: Environment,
    seed: int,
    truncate_bits: int | None,
    jobs: int | None,
    extract: bool,
    extraction: ExtractionConfig | None,
    skip_failures: bool,
) -> tuple[list[VoltageTrace], list[ExtractedEdgeSet] | None]:
    messages = tuple(messages)
    if not messages:
        return [], [] if extract else None
    n_workers = _effective_workers(resolve_jobs(jobs))
    wires = [frame.stuffed_bits() for _, frame, _ in messages]
    wire_lengths = tuple(len(w) for w in wires)
    wire_matrix = np.ones((len(messages), max(wire_lengths)), dtype=np.int8)
    for j, w in enumerate(wires):
        # bytes() packs the 0/1 ints at C speed; the row assignment
        # is then a memcpy instead of 100+ PyObject conversions.
        wire_matrix[j, : len(w)] = np.frombuffer(bytes(w), dtype=np.uint8)
    # One chunk per worker: big chunks amortise the per-chunk numpy setup
    # (and give the columnar extractor wide blocks); the persistent pool
    # keeps dispatch latency negligible.
    slices = chunk_slices(
        len(messages), n_workers, chunk_size=math.ceil(len(messages) / n_workers)
    )
    # parallel_map runs a lone chunk in-process, so exactly the runs
    # with more than one chunk cross a process boundary.
    inline = len(slices) == 1
    tasks = [
        _RenderChunk(
            vehicle=vehicle,
            env=env,
            truncate_bits=truncate_bits,
            seed=seed,
            lo=lo,
            wire=wire_matrix[lo:hi],
            wire_lengths=wire_lengths[lo:hi],
            starts=tuple(start_s for _, _, start_s in messages[lo:hi]),
            senders=tuple(sender for sender, _, _ in messages[lo:hi]),
            frames=(
                tuple(frame for _, frame, _ in messages[lo:hi]) if inline else ()
            ),
            extract=extract,
            extraction=extraction,
            skip_failures=skip_failures,
        )
        for lo, hi in slices
    ]
    chunked: list[_ChunkResult] = parallel_map(
        _render_chunk, tasks, jobs=n_workers, chunk_size=1
    )

    chain = vehicle.capture_chain(truncate_bits)
    transceiver_names = {
        ecu.name: ecu.transceiver.name for ecu in vehicle.ecus
    }
    traces: list[VoltageTrace] = []
    edges: list[ExtractedEdgeSet] | None = [] if extract else None
    n_skipped = 0
    for task, (payload, chunk_edges, ledger) in zip(tasks, chunked):
        n_skipped += len(ledger)
        if not isinstance(payload, ShmChunk):
            traces.extend(payload)
            if edges is not None:
                edges.extend(chunk_edges or [])
            continue
        for j, counts in enumerate(get_arena().attach(payload)):
            sender, frame, start_s = messages[task.lo + j]
            traces.append(
                VoltageTrace(
                    counts=counts,
                    sample_rate=chain.synthesis.sample_rate,
                    resolution_bits=chain.adc.resolution_bits,
                    bitrate=chain.synthesis.bitrate,
                    start_s=start_s,
                    metadata={
                        "sender": transceiver_names[sender],
                        "frame": frame,
                    },
                )
            )
        if edges is not None:
            # Worker-side traces carried empty metadata; graft the
            # ground truth back on, skipping dropped messages.
            dropped = {index for index, _ in ledger}
            kept = [
                g
                for g in range(task.lo, task.lo + len(payload.lengths))
                if g not in dropped
            ]
            for edge, g in zip(chunk_edges or [], kept):
                edges.append(replace(edge, metadata=dict(traces[g].metadata)))
    if n_skipped:
        # Ledgers survive the process boundary, unlike in-worker
        # counters; fold them into the metric exactly once.
        get_registry().counter(_SKIPPED_METRIC, help=_SKIPPED_HELP).inc(
            n_skipped
        )
    return traces, edges


#: Transmission planning is deterministic in (vehicle, duration, seed),
#: so repeated captures of the same run — benchmark sweeps over ``jobs``,
#: cache-miss/hit pairs — reuse the schedule instead of re-arbitrating.
_PLAN_MEMO_MAX = 8
_PLAN_MEMO: OrderedDict[str, list[BusTransmission]] = OrderedDict()
_PLAN_LOCK = threading.Lock()


def clear_plan_memo() -> None:
    """Drop all memoised transmission schedules (tests)."""
    with _PLAN_LOCK:
        _PLAN_MEMO.clear()


def plan_transmissions(
    vehicle: VehicleConfig, duration_s: float, *, seed: int = 0
) -> list[BusTransmission]:
    """The bus-arbitrated transmission schedule of a capture run.

    Identical to the planning half of
    :func:`repro.vehicles.dataset.capture_session`: traffic generation
    and arbitration are deterministic, so the schedule is memoised on
    ``(vehicle, duration, seed)`` — environment and truncation never
    influence planning — and a fresh list is returned per call.
    """
    if duration_s <= 0:
        raise DatasetError(f"duration must be positive, got {duration_s}")
    # The cache key digests the vehicle profile canonically; pinning the
    # env/truncation axes to constants leaves exactly the planning inputs.
    key = capture_cache_key(
        vehicle,
        duration_s=duration_s,
        env=NOMINAL_ENVIRONMENT,
        seed=seed,
        truncate_bits=None,
    )
    with _PLAN_LOCK:
        memoised = _PLAN_MEMO.get(key)
        if memoised is not None:
            _PLAN_MEMO.move_to_end(key)
            get_registry().counter(
                PLAN_MEMO_HITS_METRIC,
                help="Transmission schedules served from the plan memo",
            ).inc()
            return list(memoised)
    generator = TrafficGenerator(
        schedules=[
            (ecu.name, schedule)
            for ecu in vehicle.ecus
            for schedule in ecu.schedules
        ],
        seed=seed,
    )
    bus = CanBus(bitrate=vehicle.bitrate)
    plan = bus.schedule(generator.frames_until(duration_s))
    with _PLAN_LOCK:
        _PLAN_MEMO[key] = list(plan)
        _PLAN_MEMO.move_to_end(key)
        while len(_PLAN_MEMO) > _PLAN_MEMO_MAX:
            _PLAN_MEMO.popitem(last=False)
    return plan


def render_transmissions(
    vehicle: VehicleConfig,
    transmissions: Sequence[BusTransmission],
    *,
    env: Environment = NOMINAL_ENVIRONMENT,
    seed: int = 0,
    truncate_bits: int | None = DEFAULT_TRUNCATE_BITS,
    jobs: int | None = None,
) -> list[VoltageTrace]:
    """Render scheduled transmissions to voltage traces, in bus order."""
    traces, _ = _run_engine(
        vehicle,
        [(tx.sender, tx.frame, tx.start_s) for tx in transmissions],
        env=env,
        seed=seed,
        truncate_bits=truncate_bits,
        jobs=jobs,
        extract=False,
        extraction=None,
        skip_failures=False,
    )
    return traces


def capture_session_engine(
    vehicle: VehicleConfig,
    duration_s: float,
    *,
    env: Environment = NOMINAL_ENVIRONMENT,
    seed: int = 0,
    truncate_bits: int | None = DEFAULT_TRUNCATE_BITS,
    jobs: int | None = None,
    cache: CaptureCache | None = None,
) -> CaptureSession:
    """Engine-backed capture: pad-batched, parallel, optionally cached.

    The cache key covers everything the output depends on (vehicle
    profile, environment, duration, seed, truncation, schema version)
    and deliberately *excludes* ``jobs`` — it changes only how the work
    is scheduled and shipped, never the bytes produced.
    """
    key = None
    if cache is not None:
        key = capture_cache_key(
            vehicle,
            duration_s=duration_s,
            env=env,
            seed=seed,
            truncate_bits=truncate_bits,
        )
        cached = cache.get(key)
        if cached is not None:
            return CaptureSession(vehicle=vehicle, traces=cached, environment=env)
    transmissions = plan_transmissions(vehicle, duration_s, seed=seed)
    traces = render_transmissions(
        vehicle,
        transmissions,
        env=env,
        seed=seed,
        truncate_bits=truncate_bits,
        jobs=jobs,
    )
    if cache is not None and key is not None:
        cache.put(key, traces)
    return CaptureSession(vehicle=vehicle, traces=traces, environment=env)


def capture_and_extract(
    vehicle: VehicleConfig,
    duration_s: float,
    *,
    env: Environment = NOMINAL_ENVIRONMENT,
    seed: int = 0,
    truncate_bits: int | None = DEFAULT_TRUNCATE_BITS,
    extraction: ExtractionConfig | None = None,
    jobs: int | None = None,
    cache: CaptureCache | None = None,
    skip_failures: bool = False,
) -> tuple[CaptureSession, list[ExtractedEdgeSet]]:
    """Capture a session and extract its edge sets in one fused pass.

    Each worker chunk renders *and* extracts before returning, halving
    the IPC rounds of capture-then-extract.  On a cache hit the stored
    traces are extracted in this process: extraction is cheap relative to
    synthesis, and shipping the traces to workers costs more than it saves.
    """
    if cache is not None:
        key = capture_cache_key(
            vehicle,
            duration_s=duration_s,
            env=env,
            seed=seed,
            truncate_bits=truncate_bits,
        )
        cached = cache.get(key)
        if cached is not None:
            session = CaptureSession(
                vehicle=vehicle, traces=cached, environment=env
            )
            edges = extract_many(
                cached, extraction, skip_failures=skip_failures
            )
            return session, edges
    transmissions = plan_transmissions(vehicle, duration_s, seed=seed)
    traces, edges = _run_engine(
        vehicle,
        [(tx.sender, tx.frame, tx.start_s) for tx in transmissions],
        env=env,
        seed=seed,
        truncate_bits=truncate_bits,
        jobs=jobs,
        extract=True,
        extraction=extraction,
        skip_failures=skip_failures,
    )
    if cache is not None:
        cache.put(key, traces)
    session = CaptureSession(vehicle=vehicle, traces=traces, environment=env)
    return session, edges or []


__all__ = [
    "PLAN_MEMO_HITS_METRIC",
    "clear_plan_memo",
    "plan_transmissions",
    "render_transmissions",
    "capture_session_engine",
    "capture_and_extract",
]
