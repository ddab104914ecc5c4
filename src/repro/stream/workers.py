"""SA-sharded classification of each chunk's messages, on the ingest thread.

Messages are sharded by sender identity (J1939 source address), so
every message from a given ECU lands in the same shard — its flight
recorder ring and its ``worker`` tag stay stable for the whole run.
After each chunk, :class:`ShardClassifier` classifies every shard's
messages in vectorised detector batches and folds the OK verdicts into
the model (Algorithm 4) before the next chunk is ingested, so every
chunk boundary is quiesced and two runs over one source are identical.

Classification runs on the thread that ingests: the detector is
GIL-bound numpy work on tiny batches, and handing it to worker threads
cost more in GIL hand-off than it saved.  Every ``ChunkSource`` is
pull-based, so nothing waits for the classifier and nothing is dropped.

Verdicts leave in shard order within a chunk; the supervisor restores
stream order (results carry their stream sequence number).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.detection import (
    AnomalyReason,
    BatchDetection,
    DetectionResult,
    Detector,
    Verdict,
)
from repro.core.online_update import OnlineUpdater
from repro.obs.clock import monotonic
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import get_registry
from repro.stream.extractor import StreamMessage

#: Messages of the current chunk waiting in a shard (at most one chunk's).
QUEUE_DEPTH_METRIC = "vprofile_stream_queue_depth"
#: Dropped messages; never incremented, since sources are pulled, not pushed.
DROPPED_METRIC = "vprofile_stream_dropped_total"
#: Chunk-arrival-to-verdict latency of one message through the runtime.
LATENCY_METRIC = "vprofile_stream_latency_seconds"


@dataclass(frozen=True)
class StreamVerdict:
    """One classified message, tagged with its stream position and shard."""

    seq: int
    message: StreamMessage
    result: DetectionResult
    worker: int

    @property
    def is_anomaly(self) -> bool:
        return self.result.is_anomaly


def result_from_batch(
    detection: BatchDetection, row: int, sa: int, margin: float
) -> DetectionResult:
    """Rebuild the single-message :class:`DetectionResult` shape.

    Mirrors ``Detector._classify``'s reason precedence so a verdict from
    any batched consumer (the shard classifier here, the fleet gateway's
    per-tenant engines) is indistinguishable from one produced by
    ``VProfilePipeline.process``.
    """
    expected = int(detection.expected_cluster[row])
    if expected < 0:
        return DetectionResult(
            verdict=Verdict.ANOMALY,
            reason=AnomalyReason.UNKNOWN_SA,
            source_address=sa,
            expected_cluster=None,
            predicted_cluster=None,
            min_distance=None,
            slack=None,
        )
    predicted = int(detection.predicted_cluster[row])
    min_distance = float(detection.min_distance[row])
    slack = float(detection.slack[row])
    if predicted != expected:
        reason: AnomalyReason | None = AnomalyReason.CLUSTER_MISMATCH
    elif slack > margin:
        reason = AnomalyReason.DISTANCE_EXCEEDED
    else:
        reason = None
    return DetectionResult(
        verdict=Verdict.ANOMALY if reason else Verdict.OK,
        reason=reason,
        source_address=sa,
        expected_cluster=expected,
        predicted_cluster=predicted,
        min_distance=min_distance,
        slack=slack,
    )


class ShardClassifier:
    """Classify messages shard by shard in batches of ``batch_size``.

    Parameters
    ----------
    detector:
        The shared trained detector.
    n_shards:
        Shard count; identity ``SA % n_shards`` picks the shard.
    batch_size:
        Max feature vectors classified per vectorised detector call.
    updater:
        Optional Algorithm 4 online updater; OK verdicts are folded into
        the shared model right after their batch is classified.
    on_result:
        Callback invoked for every verdict, in shard order.
    recorder:
        Optional flight recorder; every verdict is appended to its
        shard's ring.
    """

    def __init__(
        self,
        detector: Detector,
        n_shards: int,
        *,
        batch_size: int,
        updater: OnlineUpdater | None,
        on_result: Callable[[StreamVerdict], None],
        recorder: FlightRecorder | None = None,
    ):
        self.detector = detector
        self.n_shards = int(n_shards)
        self.batch_size = int(batch_size)
        self.updater = updater
        self.on_result = on_result
        self.recorder = recorder
        self.updated = 0
        self._registry = get_registry()

    def classify(
        self, items: list[tuple[int, StreamMessage]], ingest_t: float
    ) -> None:
        """Judge ``(seq, message)`` pairs that arrived with one chunk.

        ``ingest_t`` is the chunk's arrival time (0 when metrics are
        off); each verdict's latency is measured from it.
        """
        shards: list[list[tuple[int, StreamMessage]]] = [
            [] for _ in range(self.n_shards)
        ]
        for item in items:
            shards[item[1].edge_set.identity % self.n_shards].append(item)
        registry = self._registry
        for index, shard in enumerate(shards):
            if not shard:
                continue
            depth = None
            if registry.enabled:
                depth = registry.gauge(
                    QUEUE_DEPTH_METRIC,
                    help="Messages of the current chunk waiting in a shard",
                    shard=str(index),
                )
                depth.set(len(shard))
            for lo in range(0, len(shard), self.batch_size):
                self._classify_batch(index, shard[lo : lo + self.batch_size], ingest_t)
            if depth is not None:
                depth.set(0)

    def _classify_batch(
        self, index: int, batch: list[tuple[int, StreamMessage]], ingest_t: float
    ) -> None:
        vectors = np.stack([message.edge_set.vector for _, message in batch])
        sas = np.array(
            [message.edge_set.source_address for _, message in batch], dtype=np.int64
        )
        detection = self.detector.classify_batch(vectors, sas)
        registry = self._registry
        for row, (seq, message) in enumerate(batch):
            result = result_from_batch(
                detection, row, int(sas[row]), self.detector.margin
            )
            if not result.is_anomaly and self.updater is not None:
                report = self.updater.update([message.edge_set])
                self.updated += sum(report.updated.values())
            if registry.enabled and ingest_t:
                registry.histogram(
                    LATENCY_METRIC,
                    help="Chunk-arrival-to-verdict latency through the stream runtime",
                ).observe(monotonic() - ingest_t)
            if self.recorder is not None:
                self.recorder.record(
                    seq,
                    index,
                    int(sas[row]),
                    message.start_s,
                    message.edge_set.vector,
                    result,
                )
            self.on_result(
                StreamVerdict(seq=seq, message=message, result=result, worker=index)
            )
