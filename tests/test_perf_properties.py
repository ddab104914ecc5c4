"""Property tests: engine variants are interchangeable, byte for byte.

The contract under test is the one :mod:`repro.perf` promises — the
job count and the capture cache change scheduling and storage, never
the traces, the edge-set vectors, or the detector's verdict sequence.
"""

from __future__ import annotations

import dataclasses
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detection import Detector
from repro.core.edge_extraction import (
    ExtractionConfig,
    _extract_edge_set,
    extract_edge_set,
    extract_edge_sets_batch,
    extract_many,
    extract_many_indexed,
)
from repro.core.model import VProfileModel
from repro.core.pipeline import PipelineConfig, VProfilePipeline
from repro.errors import ExtractionError
from repro.perf import engine as engine_mod
from repro.perf.cache import CaptureCache
from repro.perf.engine import capture_and_extract, extract_many_parallel

DURATION_S = 0.6

SETTINGS = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="session")
def trained_detector(stream_vehicle, stream_train_session):
    pipeline = VProfilePipeline(
        PipelineConfig(margin=5.0, sa_clusters=stream_vehicle.sa_clusters)
    )
    pipeline.train(stream_train_session.traces)
    return pipeline.detector


def _verdicts(detector: Detector, edges) -> list[tuple[bool, str | None]]:
    results = [detector.classify(edge_set) for edge_set in edges]
    return [
        (r.is_anomaly, r.reason.value if r.reason else None) for r in results
    ]


def _assert_equivalent(detector, reference, candidate):
    ref_session, ref_edges = reference
    cand_session, cand_edges = candidate
    assert len(cand_session.traces) == len(ref_session.traces)
    for a, b in zip(ref_session.traces, cand_session.traces):
        assert np.array_equal(a.counts, b.counts)
    assert len(cand_edges) == len(ref_edges)
    for a, b in zip(ref_edges, cand_edges):
        assert a.source_address == b.source_address
        assert np.array_equal(a.vector, b.vector)
    assert _verdicts(detector, cand_edges) == _verdicts(detector, ref_edges)


class TestEngineProperties:
    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_jobs_one_and_four_are_identical(
        self, stream_vehicle, trained_detector, seed
    ):
        serial = capture_and_extract(
            stream_vehicle, DURATION_S, seed=seed, jobs=1
        )
        fanned = capture_and_extract(
            stream_vehicle, DURATION_S, seed=seed, jobs=4
        )
        _assert_equivalent(trained_detector, serial, fanned)

    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        jobs=st.integers(min_value=2, max_value=4),
    )
    def test_shm_handoff_matches_inline(
        self, stream_vehicle, trained_detector, seed, jobs
    ):
        """Chunks handed back through shared memory equal inline chunks.

        The CPU-affinity cap would collapse multi-job runs to the
        inline path on small CI boxes, so it is lifted for the test —
        the fanned-out run must actually cross the worker boundary.
        Varying ``jobs`` also varies the chunking, exercising descriptor
        reassembly at several chunk shapes.
        """
        inline = capture_and_extract(
            stream_vehicle, DURATION_S, seed=seed, jobs=1
        )
        with mock.patch.object(engine_mod, "_usable_cpus", return_value=4):
            shared = capture_and_extract(
                stream_vehicle, DURATION_S, seed=seed, jobs=jobs
            )
        _assert_equivalent(trained_detector, inline, shared)

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_vector_and_scalar_extraction_are_identical(
        self, stream_vehicle, trained_detector, seed
    ):
        session, _ = capture_and_extract(
            stream_vehicle, DURATION_S, seed=seed, jobs=1
        )
        config = ExtractionConfig.for_trace(session.traces[0])
        columnar = extract_many(session.traces, config)
        vector = [extract_edge_set(trace, config) for trace in session.traces]
        scalar = [_extract_edge_set(trace, config) for trace in session.traces]
        assert len(columnar) == len(vector) == len(scalar)
        for a, b, c in zip(columnar, vector, scalar):
            assert a.source_address == b.source_address == c.source_address
            assert np.array_equal(a.vector, c.vector)
            assert np.array_equal(b.vector, c.vector)
        assert _verdicts(trained_detector, columnar) == _verdicts(
            trained_detector, scalar
        )

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_cache_hit_is_identical_to_fresh(
        self, stream_vehicle, trained_detector, seed
    ):
        fresh = capture_and_extract(
            stream_vehicle, DURATION_S, seed=seed, jobs=1
        )
        with tempfile.TemporaryDirectory() as root:
            cache = CaptureCache(root)
            miss = capture_and_extract(
                stream_vehicle, DURATION_S, seed=seed, jobs=1, cache=cache
            )
            hit = capture_and_extract(
                stream_vehicle, DURATION_S, seed=seed, jobs=1, cache=cache
            )
        _assert_equivalent(trained_detector, fresh, miss)
        _assert_equivalent(trained_detector, fresh, hit)


class TestExtractionParity:
    """Serial and parallel extraction agree on failures, not just bytes."""

    @pytest.fixture()
    def corrupted_traces(self, stream_train_session):
        traces = list(stream_train_session.traces[:24])
        bad = dataclasses.replace(traces[13], counts=traces[13].counts[:8])
        traces[13] = bad
        return traces

    def test_error_context_matches_serial(self, corrupted_traces):
        """Workers must report the run-global message index and sample
        offset, exactly as the serial walker would."""
        config = ExtractionConfig.for_trace(corrupted_traces[0])
        with pytest.raises(ExtractionError) as serial_exc:
            extract_many(corrupted_traces, config)
        with mock.patch.object(engine_mod, "_usable_cpus", return_value=4):
            with pytest.raises(ExtractionError) as parallel_exc:
                extract_many_parallel(corrupted_traces, config, jobs=3)
        assert str(parallel_exc.value) == str(serial_exc.value)
        assert "message 13" in str(parallel_exc.value)

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_skip_counting_matches_serial(self, corrupted_traces, jobs):
        """The skip ledger survives the process boundary: the metric is
        folded exactly once per dropped trace, at any job count."""
        import repro.obs as obs

        config = ExtractionConfig.for_trace(corrupted_traces[0])
        serial_registry = obs.MetricsRegistry()
        with obs.use_registry(serial_registry):
            serial = extract_many(corrupted_traces, config, skip_failures=True)
        fanned_registry = obs.MetricsRegistry()
        with obs.use_registry(fanned_registry):
            with mock.patch.object(engine_mod, "_usable_cpus", return_value=4):
                fanned = extract_many_parallel(
                    corrupted_traces, config, jobs=jobs, skip_failures=True
                )
        assert len(fanned) == len(serial) == len(corrupted_traces) - 1
        for a, b in zip(serial, fanned):
            assert np.array_equal(a.vector, b.vector)
        name = "vprofile_extraction_skipped_total"
        assert serial_registry.get(name).value == 1
        assert fanned_registry.get(name).value == 1


def _outcome(outcome):
    """An edge set or an extraction error, as a comparable value."""
    if isinstance(outcome, ExtractionError):
        return str(outcome)
    return outcome.source_address, outcome.vector.tobytes()


def _oracle(walker, trace, config):
    try:
        return _outcome(walker(trace, config))
    except ExtractionError as exc:
        return _outcome(exc)


class TestScalarOracleParity:
    """Both production walkers reproduce the scalar oracle's edge sets
    and its exact error messages, and the skip ledger follows suit."""

    @pytest.fixture()
    def damaged_traces(self, stream_train_session):
        base = stream_train_session.traces[0]
        config = ExtractionConfig.for_trace(base)
        n = base.counts.size
        # Truncations at every stage of the walk: before the SOF, inside
        # the identifier, before the edge set and inside its windows.
        traces = [
            dataclasses.replace(base, counts=base.counts[:cut])
            for cut in range(1, n)
        ]
        traces.append(
            dataclasses.replace(
                base, counts=np.full_like(base.counts, base.counts.min())
            )
        )
        # Eight dominant bit times straight after the SOF break the
        # stuffing rule.
        stuck = base.counts.copy()
        sof = int(np.argmax(stuck >= config.threshold))
        width = int(config.bit_width)
        stuck[sof : sof + 8 * width] = stuck.max()
        traces.append(dataclasses.replace(base, counts=stuck))
        return traces, config

    def test_walkers_match_oracle_on_damaged_traces(self, damaged_traces):
        traces, config = damaged_traces
        scalar = [_oracle(_extract_edge_set, t, config) for t in traces]
        vector = [_oracle(extract_edge_set, t, config) for t in traces]
        columnar = [_outcome(o) for o in extract_edge_sets_batch(traces, config)]
        assert vector == scalar
        assert columnar == scalar
        kinds = {" ".join(o.split()[:2]) for o in scalar if isinstance(o, str)}
        assert kinds >= {
            "no start-of-frame", "bit walk", "stuff violation",
            "trace ended", "edge search", "edge window",
        }, kinds
        assert any(not isinstance(o, str) for o in scalar)

    def test_skip_ledger_matches_oracle(self, damaged_traces):
        traces, config = damaged_traces
        scalar = [_oracle(_extract_edge_set, t, config) for t in traces]
        results, ledger = extract_many_indexed(
            traces, config, skip_failures=True, index_base=100
        )
        assert [_outcome(r) for r in results] == [
            o for o in scalar if not isinstance(o, str)
        ]
        assert ledger == [
            (100 + i, o) for i, o in enumerate(scalar) if isinstance(o, str)
        ]


def test_model_trained_on_engine_capture_is_job_invariant(stream_vehicle):
    """The whole training path is job-invariant, not just extraction."""
    models: list[VProfileModel] = []
    for jobs in (1, 3):
        session, _ = capture_and_extract(
            stream_vehicle, 1.5, seed=42, jobs=jobs
        )
        pipeline = VProfilePipeline(
            PipelineConfig(margin=5.0, sa_clusters=stream_vehicle.sa_clusters)
        )
        pipeline.train(session.traces)
        models.append(pipeline.model)
    a, b = models
    assert a.n_clusters == b.n_clusters
    for name in sorted(c.name for c in a.clusters):
        ca = next(c for c in a.clusters if c.name == name)
        cb = next(c for c in b.clusters if c.name == name)
        assert np.array_equal(ca.mean, cb.mean)
