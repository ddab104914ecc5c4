"""Chunk-boundary equivalence: streaming extraction == batch extraction.

The incremental segmenter/extractor must produce *byte-identical* edge
sets to ``segment_capture`` + ``extract_many`` on the concatenated
stream, no matter where the chunk boundaries fall — sub-bit chunks,
chunks that split a frame, chunks spanning many frames, and irregular
random chunkings all land on the same cut points.
"""

from __future__ import annotations

import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.acquisition.adc import AdcConfig
from repro.acquisition.segmentation import (
    SegmentationConfig,
    assemble_stream,
    segment_capture,
)
from repro.acquisition.trace import VoltageTrace
from repro.core.edge_extraction import extract_many
from repro.core.model import VProfileModel
from repro.fleet import CaptureParams, TenantEngine
from repro.stream import (
    ReplaySource,
    SampleChunk,
    StreamingExtractor,
    StreamingSegmenter,
)


@pytest.fixture(scope="module")
def full_stream(stream_test_session):
    return assemble_stream(stream_test_session.traces)


@pytest.fixture(scope="module")
def short_stream(full_stream):
    """~10 frames' worth of samples, cheap enough for 1-sample chunks."""
    counts = full_stream.counts[:60_000]
    return VoltageTrace(
        counts=counts,
        sample_rate=full_stream.sample_rate,
        resolution_bits=full_stream.resolution_bits,
        bitrate=full_stream.bitrate,
        start_s=full_stream.start_s,
        metadata=dict(full_stream.metadata),
    )


def _batch_reference(stream):
    traces = segment_capture(stream)
    return extract_many(traces, None, skip_failures=True), traces


def _stream_messages(stream, chunk_sizes):
    """Push ``stream`` through a fresh extractor with the given cuts."""
    extractor = StreamingExtractor(metadata=dict(stream.metadata))
    messages = []
    position = 0
    for seq, size in enumerate(chunk_sizes):
        counts = stream.counts[position : position + size]
        messages.extend(
            extractor.push(
                SampleChunk(
                    counts=counts,
                    seq=seq,
                    start_s=stream.start_s + position / stream.sample_rate,
                    sample_rate=stream.sample_rate,
                    resolution_bits=stream.resolution_bits,
                    bitrate=stream.bitrate,
                )
            )
        )
        position += len(counts)
        if position >= len(stream):
            break
    messages.extend(extractor.finish())
    return messages


def _assert_equivalent(messages, reference):
    edge_sets, traces = reference
    assert len(messages) == len(edge_sets)
    for message, expected, trace in zip(messages, edge_sets, traces):
        assert message.edge_set.source_address == expected.source_address
        np.testing.assert_array_equal(message.edge_set.vector, expected.vector)
        assert message.start_s == pytest.approx(trace.start_s, abs=0.0)


@pytest.mark.parametrize("chunk_samples", [7, 40, 333, 4096, 100_000])
def test_fixed_chunk_sizes_match_batch(full_stream, chunk_samples):
    reference = _batch_reference(full_stream)
    n_chunks = -(-len(full_stream) // chunk_samples)
    messages = _stream_messages(full_stream, [chunk_samples] * n_chunks)
    _assert_equivalent(messages, reference)


def test_whole_stream_in_one_chunk(full_stream):
    reference = _batch_reference(full_stream)
    messages = _stream_messages(full_stream, [len(full_stream)])
    _assert_equivalent(messages, reference)


@pytest.mark.parametrize("chunk_samples", [1, 3])
def test_sub_sample_chunks_match_batch(short_stream, chunk_samples):
    """Even one-sample chunks reproduce the batch cut points."""
    reference = _batch_reference(short_stream)
    assert reference[0], "short stream must contain extractable frames"
    n_chunks = -(-len(short_stream) // chunk_samples)
    messages = _stream_messages(short_stream, [chunk_samples] * n_chunks)
    _assert_equivalent(messages, reference)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    cuts=st.lists(
        st.integers(min_value=1, max_value=59_999), max_size=12, unique=True
    )
)
def test_random_irregular_chunking_matches_batch(short_stream, cuts):
    """Property: any partition of the stream yields identical edge sets."""
    total = len(short_stream)
    bounds = [0, *sorted(cuts), total]
    sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
    reference = _batch_reference(short_stream)
    messages = _stream_messages(short_stream, sizes)
    _assert_equivalent(messages, reference)


# ----------------------------------------------------------------------
# Fleet eviction equivalence: an evicted-then-rehydrated tenant engine
# reproduces the uninterrupted verdict sequence byte-for-byte.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fleet_chunks(short_stream):
    return list(ReplaySource(short_stream, 4096).chunks())


def _fresh_engine(stream_vehicle, stream_model_file):
    path, _extraction = stream_model_file
    return TenantEngine(
        "prop",
        vehicle="sterling",
        model=VProfileModel.load(path),
        params=CaptureParams.for_vehicle(stream_vehicle),
        margin=5.0,
        online_update=True,
    )


def _verdict_bytes(verdicts):
    return json.dumps(verdicts, sort_keys=True)


@pytest.fixture(scope="module")
def uninterrupted_verdicts(stream_vehicle, stream_model_file, fleet_chunks):
    engine = _fresh_engine(stream_vehicle, stream_model_file)
    verdicts = []
    for chunk in fleet_chunks:
        verdicts.extend(engine.process_chunk(chunk))
    assert verdicts, "reference run must produce verdicts"
    return _verdict_bytes(verdicts)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    evict_after=st.sets(
        st.integers(min_value=-1, max_value=13), min_size=1, max_size=4
    )
)
def test_eviction_is_invisible_in_the_verdict_stream(
    stream_vehicle, stream_model_file, fleet_chunks,
    uninterrupted_verdicts, evict_after,
):
    """Property: evicting (checkpoint + rehydrate) at any set of chunk
    boundaries — including before the first chunk (-1) — leaves the
    verdict sequence byte-identical to the uninterrupted run, online
    profile updates included."""
    engine = _fresh_engine(stream_vehicle, stream_model_file)
    verdicts = []
    with tempfile.TemporaryDirectory() as spill:
        if -1 in evict_after:
            engine.checkpoint(spill)
            engine = TenantEngine.rehydrate(spill)
        for index, chunk in enumerate(fleet_chunks):
            verdicts.extend(engine.process_chunk(chunk))
            if index in evict_after:
                engine.checkpoint(spill)
                engine = TenantEngine.rehydrate(spill)
    assert _verdict_bytes(verdicts) == uninterrupted_verdicts


def test_state_roundtrip_at_every_boundary(short_stream):
    """Serialising and restoring the extractor between every chunk is
    invisible in the output — the checkpoint/resume guarantee."""
    reference = _batch_reference(short_stream)
    chunk = 4096
    source = ReplaySource(short_stream, chunk)
    extractor = StreamingExtractor(metadata=dict(short_stream.metadata))
    messages = []
    for sample_chunk in source.chunks():
        if sample_chunk.seq > 0:  # checkpoints only exist after ingest begins
            state = extractor.state_dict()
            restored = StreamingExtractor(
                extractor.extraction, metadata=dict(short_stream.metadata)
            )
            restored.load_state(state)
            extractor = restored
        messages.extend(extractor.push(sample_chunk))
    messages.extend(extractor.finish())
    _assert_equivalent(messages, reference)


# ----------------------------------------------------------------------
# The segmenter's idle-chunk fast path: an all-recessive chunk with no
# burst open and nothing pending keeps only its trailing padding.  Every
# case below must stay byte-identical to the batch cut.
# ----------------------------------------------------------------------
def _padding_samples(stream, config=None):
    padding_bits = (config or SegmentationConfig(threshold=0.0)).padding_bits
    return int(round(padding_bits * stream.sample_rate / stream.bitrate))


def _takes_fast_path(segmenter, counts):
    """Whether ``segmenter.push`` will skip the cut work for ``counts``."""
    return (
        segmenter.config is not None
        and segmenter._burst_start is None
        and not segmenter._pending
        and len(counts) >= segmenter._padding
        and counts.max() < segmenter.config.threshold
    )


def _segment_chunked(stream, chunk_samples, config=None):
    """Segmenter traces for ``stream`` re-chunked at ``chunk_samples``."""
    segmenter = StreamingSegmenter(config, metadata=dict(stream.metadata))
    traces = []
    for chunk in ReplaySource(stream, chunk_samples).chunks():
        traces.extend(segmenter.push(chunk))
    return traces + segmenter.finish()


def _assert_same_cuts(traces, expected):
    """Sample-for-sample equality with the batch segmenter's traces."""
    assert len(traces) == len(expected) > 0
    for got, want in zip(traces, expected):
        np.testing.assert_array_equal(got.counts, want.counts)
        assert got.start_s == want.start_s


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_chunks_around_the_padding_window_match_batch(short_stream, delta):
    """Chunks shorter than the padding window take the full cut path;
    chunks at and above it may take the fast path."""
    chunk_samples = _padding_samples(short_stream) + delta
    _assert_same_cuts(
        _segment_chunked(short_stream, chunk_samples), segment_capture(short_stream)
    )


def test_float_codes_take_the_full_path(short_stream):
    """The fast path's peak test truncates to int, so only integer codes
    may take it.  Here every dominant sample lies between the threshold
    and the next integer: float codes must still cut like the batch path."""
    threshold = AdcConfig(resolution_bits=short_stream.resolution_bits).volts_to_counts(
        1.0
    )
    scaled = VoltageTrace(
        counts=10.5 + (short_stream.counts - threshold) / (4 * threshold),
        sample_rate=short_stream.sample_rate,
        resolution_bits=short_stream.resolution_bits,
        bitrate=short_stream.bitrate,
        start_s=short_stream.start_s,
    )
    assert 10.5 <= scaled.counts.max() < 11.0
    config = SegmentationConfig(threshold=10.5)
    _assert_same_cuts(
        _segment_chunked(scaled, 4096, config), segment_capture(scaled, config)
    )


def test_idle_chunk_while_a_burst_awaits_padding(full_stream):
    """With padding longer than the idle window a closed burst waits for
    its trailing padding; an idle chunk arriving then must not drop the
    burst's samples."""
    config = SegmentationConfig(
        threshold=AdcConfig(
            resolution_bits=full_stream.resolution_bits
        ).volts_to_counts(1.0),
        padding_bits=20.0,
    )
    chunk_samples = int(round(25 * full_stream.sample_rate / full_stream.bitrate))
    segmenter = StreamingSegmenter(config, metadata=dict(full_stream.metadata))
    traces = []
    idle_while_pending = 0
    for chunk in ReplaySource(full_stream, chunk_samples).chunks():
        if segmenter._pending and chunk.counts.max() < config.threshold:
            idle_while_pending += 1
        traces.extend(segmenter.push(chunk))
    traces.extend(segmenter.finish())
    assert idle_while_pending > 0, "the stream never exercised the case"
    _assert_same_cuts(traces, segment_capture(full_stream, config))


def test_checkpoint_right_after_a_fast_path_chunk(short_stream):
    """Serialising the extractor right after an idle fast-path chunk,
    then resuming from the snapshot, is invisible in the output."""
    reference = _batch_reference(short_stream)
    extractor = StreamingExtractor(metadata=dict(short_stream.metadata))
    messages = []
    resumed_after_fast_path = 0
    for chunk in ReplaySource(short_stream, 4096).chunks():
        fast = _takes_fast_path(extractor.segmenter, chunk.counts)
        messages.extend(extractor.push(chunk))
        if fast:
            restored = StreamingExtractor(
                extractor.extraction, metadata=dict(short_stream.metadata)
            )
            restored.load_state(extractor.state_dict())
            extractor = restored
            resumed_after_fast_path += 1
    messages.extend(extractor.finish())
    assert resumed_after_fast_path > 0
    _assert_equivalent(messages, reference)
