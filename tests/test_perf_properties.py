"""Property tests: engine variants are interchangeable, byte for byte.

The contract under test is the one :mod:`repro.perf` promises — the
job count and the capture cache change scheduling and storage, never
the traces, the edge-set vectors, or the detector's verdict sequence.
"""

from __future__ import annotations

import dataclasses
import tempfile
from bisect import bisect_left
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detection import Detector
from repro.core.edge_extraction import (
    ExtractionConfig,
    _extract_columnar_block,
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
from repro.perf.engine import (
    capture_and_extract,
    plan_transmissions,
    render_transmissions,
)

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
    """Chunked extraction agrees with one pass on failures, not just bytes."""

    @pytest.fixture()
    def corrupted_traces(self, stream_train_session):
        traces = list(stream_train_session.traces[:24])
        bad = dataclasses.replace(traces[13], counts=traces[13].counts[:8])
        traces[13] = bad
        return traces

    def test_error_context_matches_serial(self, corrupted_traces):
        """A chunk extracted with ``index_base`` reports the run-global
        message index and sample offset, exactly as one pass would."""
        config = ExtractionConfig.for_trace(corrupted_traces[0])
        with pytest.raises(ExtractionError) as serial_exc:
            extract_many(corrupted_traces, config)
        with pytest.raises(ExtractionError) as chunk_exc:
            extract_many(corrupted_traces[8:16], config, index_base=8)
        assert str(chunk_exc.value) == str(serial_exc.value)
        assert "message 13" in str(chunk_exc.value)

    @pytest.mark.parametrize("n_chunks", [1, 2, 3])
    def test_skip_counting_matches_serial(self, corrupted_traces, n_chunks):
        """Chunk ledgers carry run-global indices and count nothing; the
        metric is folded exactly once per dropped trace, as one pass
        folds it, however the run is chunked."""
        import repro.obs as obs

        config = ExtractionConfig.for_trace(corrupted_traces[0])
        serial_registry = obs.MetricsRegistry()
        with obs.use_registry(serial_registry):
            serial = extract_many(corrupted_traces, config, skip_failures=True)
        step = -(-len(corrupted_traces) // n_chunks)
        chunked_registry = obs.MetricsRegistry()
        chunked, ledger = [], []
        with obs.use_registry(chunked_registry):
            for lo in range(0, len(corrupted_traces), step):
                edges, skipped = extract_many_indexed(
                    corrupted_traces[lo:lo + step],
                    config,
                    skip_failures=True,
                    index_base=lo,
                )
                chunked.extend(edges)
                ledger.extend(skipped)
        name = "vprofile_extraction_skipped_total"
        assert chunked_registry.get(name) is None
        assert [index for index, _ in ledger] == [13]
        assert len(chunked) == len(serial) == len(corrupted_traces) - 1
        for a, b in zip(serial, chunked):
            assert np.array_equal(a.vector, b.vector)
        assert serial_registry.get(name).value == 1


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

    @pytest.fixture(scope="class")
    def vehicle_a_block(self, veh_a):
        """Vehicle A rows (20 MS/s, 80 samples per bit) of mixed length.

        Full 5039-sample traces, 5040-sample rows (one extra recessive or
        dominant sample), rows whose last sample is dominant, every
        truncation around the edge-set windows and a sparse sweep of
        truncations over the whole trace, in a fixed shuffled order.  A
        full-width row that ends dominant puts a polarity change on the
        next row's first column of the flattened block; truncations
        shifted right to the full width make the walk reach that column.
        """
        seed = 11
        traces = render_transmissions(
            veh_a, plan_transmissions(veh_a, 0.03, seed=seed), seed=seed, jobs=1
        )
        config = ExtractionConfig.for_trace(traces[0])
        assert config.bit_width == 80
        dominant = max(t.counts.max() for t in traces)

        def cut(trace, n):
            return dataclasses.replace(trace, counts=trace.counts[:n])

        def extends(trace, n):
            return not isinstance(_oracle(_extract_edge_set, cut(trace, n), config), str)

        rows = list(traces)
        for trace in traces[:4]:
            rows.append(dataclasses.replace(
                trace, counts=np.append(trace.counts, trace.counts[-1])
            ))
            rows.append(dataclasses.replace(
                trace, counts=np.append(trace.counts, dominant)
            ))
            ends_dominant = trace.counts.copy()
            ends_dominant[-1] = dominant
            rows.append(dataclasses.replace(trace, counts=ends_dominant))
        for trace in traces[:2]:
            n = trace.counts.size
            # The shortest prefix that still yields an edge set ends at
            # the rising window; the cuts before it fail in both window
            # searches and both window bounds.
            shortest = bisect_left(range(n + 1), True, key=lambda k: extends(trace, k))
            near = range(shortest - 140, shortest + 2)
            rows += [cut(trace, k) for k in near]
            rows += [cut(trace, k) for k in range(1, n, 61)]
            # The same cuts shifted right behind idle bus to the full
            # 5040-sample width: the walk reaches the row's last column.
            idle = np.full(5040, trace.counts[0])
            rows += [
                dataclasses.replace(
                    trace, counts=np.concatenate([idle[k:], trace.counts[:k]])
                )
                for k in near
            ]
        stuck = traces[0].counts.copy()
        sof = int(np.argmax(stuck >= config.threshold))
        stuck[sof : sof + 8 * 80] = dominant
        rows.append(dataclasses.replace(traces[0], counts=stuck))
        rows.append(dataclasses.replace(
            traces[0], counts=np.full_like(stuck, stuck.min())
        ))
        order = np.random.default_rng(seed).permutation(len(rows))
        return [rows[i] for i in order], config

    def test_columnar_matches_oracle_at_vehicle_a_shape(self, vehicle_a_block):
        traces, config = vehicle_a_block
        lengths = {t.counts.size for t in traces}
        assert {5039, 5040} <= lengths and min(lengths) < 5039
        scalar = [_oracle(_extract_edge_set, t, config) for t in traces]
        vector = [_oracle(extract_edge_set, t, config) for t in traces]
        block = [_outcome(o) for o in _extract_columnar_block(traces, config)]
        assert vector == scalar
        assert block == scalar
        kinds = {" ".join(o.split()[:2]) for o in scalar if isinstance(o, str)}
        assert kinds >= {
            "no start-of-frame", "stuff violation", "trace ended",
            "edge search", "edge window",
        }, kinds
        extracted = {t.counts.size for t, o in zip(traces, scalar) if not isinstance(o, str)}
        assert {5039, 5040} <= extracted

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
