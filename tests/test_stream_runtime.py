"""The streaming supervisor: verdict parity, shards, checkpoint/resume."""

from __future__ import annotations

import itertools
import threading

import pytest

from repro import obs
from repro.acquisition.segmentation import assemble_stream, segment_capture
from repro.core.edge_extraction import extract_many
from repro.core.pipeline import VProfilePipeline
from repro.errors import StreamError
from repro.stream import (
    CHUNKS_METRIC,
    LATENCY_METRIC,
    QUEUE_DEPTH_METRIC,
    ReplaySource,
    StreamConfig,
    StreamRuntime,
    load_checkpoint,
)


@pytest.fixture(scope="module")
def stream(stream_test_session):
    return assemble_stream(stream_test_session.traces)


class _TruncatedSource:
    """Stop a replay after ``n`` chunks — a simulated interruption."""

    def __init__(self, inner, n):
        self.inner, self.n = inner, n

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def chunks(self, start_chunk=0):
        return itertools.islice(
            self.inner.chunks(start_chunk), max(0, self.n - start_chunk)
        )


class TestVerdictParity:
    def test_matches_batch_detector(self, stream_pipeline, stream):
        pipeline = stream_pipeline()
        report = pipeline.stream(ReplaySource(stream, 4096))
        traces = segment_capture(stream)
        edge_sets = extract_many(traces, pipeline.extraction, skip_failures=True)
        assert report.messages == len(edge_sets)
        for verdict, edge_set in zip(report.verdicts, edge_sets):
            assert verdict.result == pipeline.detector.classify(edge_set)

    def test_worker_count_is_invisible(self, stream_pipeline, stream):
        reports = [
            stream_pipeline().stream(
                ReplaySource(stream, 4096), StreamConfig(n_workers=n)
            )
            for n in (1, 4)
        ]
        assert reports[0].messages == reports[1].messages > 0
        for one, four in zip(reports[0].verdicts, reports[1].verdicts):
            assert one.seq == four.seq
            assert one.result == four.result

    def test_verdicts_sorted_by_seq(self, stream_pipeline, stream):
        report = stream_pipeline().stream(
            ReplaySource(stream, 4096), StreamConfig(n_workers=4, batch_size=4)
        )
        assert [v.seq for v in report.verdicts] == list(range(report.messages))


class TestHijackInjection:
    def test_injected_attacks_are_flagged(self, stream_pipeline, stream):
        config = StreamConfig(hijack_probability=0.3, hijack_seed=5)
        report = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        assert report.injected_attacks
        assert report.anomalies >= len(report.injected_attacks)
        flagged = {v.seq for v in report.verdicts if v.is_anomaly}
        assert set(report.injected_attacks) <= flagged
        assert report.reasons["cluster-mismatch"] >= len(report.injected_attacks)
        assert len(report.alerts) == report.anomalies

    def test_injection_is_deterministic(self, stream_pipeline, stream):
        config = StreamConfig(hijack_probability=0.3, hijack_seed=5)
        first = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        second = stream_pipeline().stream(ReplaySource(stream, 4096), config)
        assert first.injected_attacks == second.injected_attacks


class TestBackpressure:
    def test_block_policy_is_lossless(self, stream_pipeline, stream):
        """Sources are pulled, so the smallest batch over the largest
        chunk still judges every message the batch path extracts."""
        pipeline = stream_pipeline()
        config = StreamConfig(n_workers=1, batch_size=1)
        report = pipeline.stream(ReplaySource(stream, len(stream)), config)
        assert report.dropped == 0
        expected = extract_many(
            segment_capture(stream), pipeline.extraction, skip_failures=True
        )
        assert report.messages == len(expected) > 0


def _model_bytes(model):
    """Every running statistic of a model, as raw bytes."""
    parts = []
    for cluster in model.clusters:
        parts.append((cluster.count, cluster.max_distance, cluster.mean.tobytes()))
        for matrix in (cluster.covariance, cluster.inv_covariance):
            parts.append(None if matrix is None else matrix.tobytes())
    return parts


class TestSingleThreadDesign:
    def test_stream_starts_no_thread(self, stream_pipeline, stream, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def spy(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        config = StreamConfig(n_workers=4, hijack_probability=0.3, hijack_seed=5)
        report = stream_pipeline(online_update=True).stream(
            ReplaySource(stream, 4096), config
        )
        assert report.messages > 0
        assert started == []

    def test_online_update_runs_are_identical(self, stream_pipeline, stream):
        config = StreamConfig(n_workers=2, hijack_probability=0.3, hijack_seed=5)
        runs = []
        for _ in range(2):
            pipeline = stream_pipeline(online_update=True)
            report = pipeline.stream(ReplaySource(stream, 4096), config)
            runs.append((report, _model_bytes(pipeline.model)))
        (first, first_model), (second, second_model) = runs
        assert first.updated > 0 and first.injected_attacks
        assert [(v.seq, v.worker, v.result) for v in first.verdicts] == [
            (v.seq, v.worker, v.result) for v in second.verdicts
        ]
        assert first.updated == second.updated
        assert first_model == second_model


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_workers", 0),
            ("batch_size", 0),
            ("hijack_probability", -0.5),
            ("hijack_probability", 1.5),
            ("checkpoint_every_chunks", -3),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(StreamError, match=field):
            StreamConfig(**{field: value})

    @pytest.mark.parametrize("probability", [0.0, 1.0])
    def test_accepts_probability_bounds(self, probability):
        assert StreamConfig(hijack_probability=probability).hijack_probability == (
            probability
        )


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(
        self, stream_pipeline, stream, tmp_path
    ):
        config = dict(n_workers=2, hijack_probability=0.3, hijack_seed=9)
        full = stream_pipeline().stream(
            ReplaySource(stream, 4096), StreamConfig(**config)
        )

        source = ReplaySource(stream, 4096)
        interrupted = StreamRuntime(
            stream_pipeline(),
            StreamConfig(
                checkpoint_dir=tmp_path, checkpoint_every_chunks=50, **config
            ),
        ).run(_TruncatedSource(source, 100))
        assert interrupted.checkpoints >= 2
        assert interrupted.messages < full.messages

        resumed_pipeline = VProfilePipeline(stream_pipeline().config)
        resumed = StreamRuntime(resumed_pipeline, StreamConfig(**config)).run(
            source, resume=tmp_path
        )

        combined = interrupted.verdicts + resumed.verdicts
        assert len(combined) == full.messages
        for got, expected in zip(combined, full.verdicts):
            assert got.seq == expected.seq
            assert got.result == expected.result
        combined_alerts = interrupted.alerts.alerts + resumed.alerts.alerts
        assert [
            (a.timestamp_s, a.can_id, a.reason) for a in combined_alerts
        ] == [(a.timestamp_s, a.can_id, a.reason) for a in full.alerts.alerts]

    def test_checkpoint_roundtrip_fields(self, stream_pipeline, stream, tmp_path):
        pipeline = stream_pipeline()
        pipeline.stream(
            ReplaySource(stream, 4096), StreamConfig(checkpoint_dir=tmp_path)
        )
        checkpoint = load_checkpoint(tmp_path)
        assert checkpoint.next_chunk == ReplaySource(stream, 4096).n_chunks
        assert checkpoint.margin == pipeline.config.margin
        assert checkpoint.extraction == pipeline.extraction

    def test_resume_rejects_non_checkpoint(self, stream_pipeline, stream, tmp_path):
        with pytest.raises(StreamError):
            stream_pipeline().stream(
                ReplaySource(stream, 4096), resume=tmp_path / "missing"
            )


class TestRuntimeContract:
    def test_untrained_pipeline_raises(self, stream):
        with pytest.raises(StreamError):
            VProfilePipeline().stream(ReplaySource(stream, 4096))

    def test_online_updates_fold_into_shared_stats(self, stream_pipeline, stream):
        pipeline = stream_pipeline(online_update=True)
        report = pipeline.stream(ReplaySource(stream, 4096))
        assert report.updated > 0
        assert pipeline.stats.updated == report.updated
        assert pipeline.stats.processed == report.messages

    def test_exports_obs_metrics(self, stream_pipeline, stream):
        registry = obs.MetricsRegistry()
        previous = obs.set_registry(registry)
        try:
            stream_pipeline().stream(ReplaySource(stream, 4096))
        finally:
            obs.set_registry(previous)
        assert registry.get(CHUNKS_METRIC).value > 0
        assert registry.get(QUEUE_DEPTH_METRIC, shard="0") is not None
        latency = registry.get(LATENCY_METRIC)
        assert latency is not None and latency.count > 0
        assert registry.get("vprofile_messages_total").value > 0
