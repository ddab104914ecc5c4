"""Engine equivalence: jobs, batching and fusion never change bytes."""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest

from repro.core.edge_extraction import ExtractionConfig, extract_many
from repro.errors import DatasetError, PerfError
from repro.perf import engine as engine_mod
from repro.perf.engine import (
    capture_and_extract,
    capture_session_engine,
    plan_transmissions,
    render_transmissions,
)
from repro.perf.parallel import (
    chunk_slices,
    default_jobs,
    message_seed,
    parallel_map,
    resolve_jobs,
    rngs_for_slice,
    spawn_seeds,
)


def _assert_traces_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert np.array_equal(left.counts, right.counts)
        assert left.start_s == right.start_s
        assert left.metadata["sender"] == right.metadata["sender"]
        assert left.metadata["frame"] == right.metadata["frame"]


def _assert_edges_equal(a, b):
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.source_address == right.source_address
        assert np.array_equal(left.vector, right.vector)


class TestSeeding:
    def test_message_seed_matches_spawn(self):
        parent = np.random.SeedSequence(42)
        children = parent.spawn(6)
        for i, child in enumerate(children):
            assert np.array_equal(
                message_seed(42, i).generate_state(4), child.generate_state(4)
            )

    def test_spawn_seeds_offsets(self):
        tail = spawn_seeds(7, 3, start=2)
        for offset, seq in enumerate(tail):
            assert np.array_equal(
                seq.generate_state(4), message_seed(7, 2 + offset).generate_state(4)
            )


class TestJobsResolution:
    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() is None
        assert resolve_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert resolve_jobs(None) == 3

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "8")
        assert resolve_jobs(2) == 2

    @pytest.mark.parametrize("raw", ["zero", "1.5", "0", "-2"])
    def test_bad_env_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(PerfError):
            default_jobs()

    def test_blank_env_is_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert default_jobs() is None

    def test_bad_explicit_jobs(self):
        with pytest.raises(PerfError):
            resolve_jobs(0)


class TestParallelMap:
    def test_preserves_order(self):
        items = [-5, 3, -1, 0, 9, -2, 4]
        assert parallel_map(abs, items, jobs=2) == [abs(x) for x in items]

    def test_inline_when_single_job(self):
        assert parallel_map(abs, [-1, -2], jobs=1) == [1, 2]

    def test_chunk_slices_cover_range(self):
        for n, jobs in [(1, 1), (7, 2), (16, 4), (5, 8)]:
            slices = chunk_slices(n, jobs)
            flat = [i for lo, hi in slices for i in range(lo, hi)]
            assert flat == list(range(n))
        assert chunk_slices(0, 4) == []
        assert chunk_slices(10, 2, chunk_size=4) == [(0, 4), (4, 8), (8, 10)]


class TestEngineEquivalence:
    def test_plan_rejects_bad_duration(self, stream_vehicle):
        with pytest.raises(DatasetError):
            plan_transmissions(stream_vehicle, 0.0)

    def test_jobs_do_not_change_traces(self, stream_vehicle):
        serial = capture_session_engine(stream_vehicle, 1.0, seed=7, jobs=1)
        fanned = capture_session_engine(stream_vehicle, 1.0, seed=7, jobs=2)
        _assert_traces_equal(serial.traces, fanned.traces)

    def test_batched_matches_unbatched(self, stream_vehicle):
        """The pad-batched renderer equals rendering one message at a
        time through the capture chain, with the same per-message
        generators."""
        transmissions = plan_transmissions(stream_vehicle, 1.0, seed=7)
        batched = render_transmissions(stream_vehicle, transmissions, seed=7)
        chain = stream_vehicle.capture_chain()
        transceivers = {ecu.name: ecu.transceiver for ecu in stream_vehicle.ecus}
        rngs = rngs_for_slice(7, 0, len(transmissions))
        unbatched = [
            chain.capture_frame(
                tx.frame, transceivers[tx.sender], rng=rng, start_s=tx.start_s
            )
            for tx, rng in zip(transmissions, rngs)
        ]
        _assert_traces_equal(batched, unbatched)
        starts = [trace.start_s for trace in batched]
        assert starts == sorted(starts)

    def test_fused_matches_capture_then_extract(self, stream_vehicle):
        session, edges = capture_and_extract(
            stream_vehicle, 1.0, seed=7, jobs=2
        )
        reference = capture_session_engine(stream_vehicle, 1.0, seed=7, jobs=1)
        _assert_traces_equal(session.traces, reference.traces)
        expected = extract_many(
            reference.traces, ExtractionConfig.for_trace(reference.traces[0])
        )
        _assert_edges_equal(edges, expected)


class TestWorkerClamp:
    def test_jobs_beyond_usable_cpus_run_the_same_tasks(self, stream_vehicle):
        """On a 2-CPU host, jobs=4 is clamped before anything reads it:
        the engine hands the pool the same slices as jobs=2."""
        transmissions = plan_transmissions(stream_vehicle, 0.5, seed=7)
        calls = []

        def record(fn, tasks, *, jobs, chunk_size):
            calls.append((tasks, jobs, chunk_size))
            return [fn(task) for task in tasks]

        with mock.patch.object(engine_mod, "_usable_cpus", return_value=2), \
                mock.patch.object(engine_mod, "parallel_map", record):
            for jobs in (2, 4):
                render_transmissions(stream_vehicle, transmissions, seed=7, jobs=jobs)
        (tasks_2, jobs_2, size_2), (tasks_4, jobs_4, size_4) = calls
        assert (jobs_2, size_2) == (jobs_4, size_4) == (2, 1)
        assert len(tasks_2) == len(tasks_4) == 2
        for left, right in zip(tasks_2, tasks_4):
            for field in dataclasses.fields(left):
                a, b = getattr(left, field.name), getattr(right, field.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), field.name
                else:
                    assert a == b, field.name
