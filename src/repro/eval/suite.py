"""The paper's three detection experiments (Section 4.1).

* **False positive test** — train on all ECUs, replay the capture
  unmodified; every alarm is a false positive.  Margin tuned for
  accuracy.
* **Hijack imitation test** — replay with each message's SA rewritten to
  another cluster's SA with 20 % probability.  Margin tuned for F-score.
* **Foreign device imitation test** — the two most similar ECUs play
  imposter and victim: the imposter is removed from training and its
  replayed messages claim the victim's SA.  Margin tuned for F-score.

Running all three for a (vehicle, metric) pair regenerates one of the
paper's confusion-matrix tables (4.1-4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.attacks.foreign import (
    ForeignScenario,
    apply_foreign_imitation,
    most_similar_pair,
)
from repro.attacks.hijack import LabelledEdgeSet, apply_hijack
from repro.core.detection import Detector
from repro.core.edge_extraction import (
    ExtractedEdgeSet,
    ExtractionConfig,
    extract_many,
)
from repro.core.model import Metric, VProfileModel
from repro.core.training import TrainingData, train_model
from repro.errors import DatasetError
from repro.eval.confusion import ConfusionMatrix
from repro.eval.margin import margin_removing_false_positives, tune_margin
from repro.obs.events import get_event_log
from repro.obs.registry import get_registry
from repro.obs.spans import span
from repro.vehicles.dataset import CaptureSession, capture_session
from repro.vehicles.profiles import VehicleConfig


@dataclass(frozen=True)
class TestOutcome:
    """One experiment's confusion matrix with its tuned margin.

    Attributes
    ----------
    name:
        ``"false-positive"``, ``"hijack"`` or ``"foreign"``.
    confusion:
        Counts at the tuned margin.
    margin:
        The margin selected by the paper's tuning rule.
    zero_fp_score:
        The headline score re-evaluated at the smallest margin that
        removes every false positive (``None`` when impossible) — the
        paper's "if we increase the margin..." variants.
    """

    #: Not a pytest class, despite the name.
    __test__ = False

    name: str
    confusion: ConfusionMatrix
    margin: float
    zero_fp_score: float | None = None

    @property
    def accuracy(self) -> float:
        return self.confusion.accuracy

    @property
    def f_score(self) -> float:
        return self.confusion.f_score


@dataclass(frozen=True)
class DetectionSuiteResult:
    """All three experiments for one (vehicle, metric) pair."""

    vehicle_name: str
    metric: Metric
    false_positive: TestOutcome
    hijack: TestOutcome
    foreign: TestOutcome
    foreign_scenario: ForeignScenario
    similarity_ranking: tuple[tuple[float, str, str], ...] = field(default=())

    def outcomes(self) -> tuple[TestOutcome, TestOutcome, TestOutcome]:
        return (self.false_positive, self.hijack, self.foreign)


@dataclass
class SuiteInputs:
    """Prepared train/test edge sets for a vehicle, reusable across metrics."""

    vehicle: VehicleConfig
    extraction: ExtractionConfig
    train: list[ExtractedEdgeSet]
    test: list[ExtractedEdgeSet]

    @classmethod
    def from_session(
        cls,
        session: CaptureSession,
        *,
        train_fraction: float = 0.5,
        seed: int = 0,
        extraction: ExtractionConfig | None = None,
    ) -> "SuiteInputs":
        """Split one capture into train/test and extract edge sets."""
        train_traces, test_traces = session.split(train_fraction, seed=seed)
        if extraction is None:
            extraction = ExtractionConfig.for_trace(session.traces[0])
        return cls(
            vehicle=session.vehicle,
            extraction=extraction,
            train=extract_many(train_traces, extraction),
            test=extract_many(test_traces, extraction),
        )

    @classmethod
    def capture(
        cls,
        vehicle: VehicleConfig,
        *,
        duration_s: float = 30.0,
        seed: int = 0,
        train_fraction: float = 0.5,
        jobs: int | None = None,
        cache=None,
    ) -> "SuiteInputs":
        """Record a fresh session and split it.

        ``jobs``/``cache`` opt the capture into the :mod:`repro.perf`
        engine (see :func:`repro.vehicles.dataset.capture_session`);
        extraction always runs in this process.
        """
        session = capture_session(vehicle, duration_s, seed=seed, jobs=jobs, cache=cache)
        return cls.from_session(session, train_fraction=train_fraction, seed=seed)


def _evaluate(
    detector_model: VProfileModel,
    labelled: Sequence[LabelledEdgeSet],
    objective: str,
) -> TestOutcome:
    """Run detection over labelled messages and tune the margin."""
    vectors = np.stack([l.edge_set.vector for l in labelled])
    sas = np.array([l.edge_set.source_address for l in labelled])
    actual = np.array([l.is_attack for l in labelled])
    batch = Detector(detector_model).classify_batch(vectors, sas)
    choice = tune_margin(batch, actual, objective=objective)
    confusion = ConfusionMatrix.from_predictions(actual, batch.anomalies(choice.margin))
    zero_fp_margin = margin_removing_false_positives(batch, actual)
    zero_fp_score: float | None = None
    if zero_fp_margin is not None:
        zero_confusion = ConfusionMatrix.from_predictions(
            actual, batch.anomalies(zero_fp_margin)
        )
        zero_fp_score = (
            zero_confusion.accuracy if objective == "accuracy" else zero_confusion.f_score
        )
    return TestOutcome(
        name=objective,
        confusion=confusion,
        margin=choice.margin,
        zero_fp_score=zero_fp_score,
    )


def run_detection_suite(
    inputs: SuiteInputs,
    metric: Metric | str,
    *,
    hijack_probability: float = 0.2,
    seed: int = 0,
    shrinkage: float = 0.0,
) -> DetectionSuiteResult:
    """Regenerate one confusion-matrix table (paper Tables 4.1-4.4).

    Observability: the whole suite runs under an ``eval.suite`` span,
    each experiment under its own child span; per-experiment outcomes
    are counted in ``vprofile_eval_experiments_total{experiment=...}``
    and reported as ``eval.experiment`` events.
    """
    metric = Metric(metric)
    vehicle = inputs.vehicle
    rng = np.random.default_rng(seed)

    with span("eval.suite", vehicle=vehicle.name, metric=metric.value):
        with span("eval.train"):
            model = train_model(
                TrainingData.from_edge_sets(inputs.train),
                metric=metric,
                sa_clusters=vehicle.sa_clusters,
                shrinkage=shrinkage,
            )

        # False positive test: clean replay, everything legitimate.
        clean = [
            LabelledEdgeSet(e, is_attack=False, true_sender=e.metadata.get("sender", "?"))
            for e in inputs.test
        ]
        with span("eval.false_positive"):
            fp_outcome = _evaluate(model, clean, objective="accuracy")
        fp_outcome = TestOutcome(
            name="false-positive",
            confusion=fp_outcome.confusion,
            margin=fp_outcome.margin,
            zero_fp_score=fp_outcome.zero_fp_score,
        )
        _report_outcome(fp_outcome, vehicle.name)

        # Hijack imitation test: SAs rewritten with 20 % probability.
        hijacked = apply_hijack(
            inputs.test, vehicle.sa_clusters, probability=hijack_probability, rng=rng
        )
        with span("eval.hijack"):
            hijack_outcome = _evaluate(model, hijacked, objective="f-score")
        hijack_outcome = TestOutcome(
            name="hijack",
            confusion=hijack_outcome.confusion,
            margin=hijack_outcome.margin,
            zero_fp_score=hijack_outcome.zero_fp_score,
        )
        _report_outcome(hijack_outcome, vehicle.name)

        # Foreign device imitation test: most similar pair, imposter untrained.
        scenario = most_similar_pair(model)
        ranking = _similarity_ranking(model)
        with span("eval.foreign"):
            foreign_outcome = _run_foreign(inputs, metric, scenario, shrinkage)
        _report_outcome(foreign_outcome, vehicle.name)

        return DetectionSuiteResult(
            vehicle_name=vehicle.name,
            metric=metric,
            false_positive=fp_outcome,
            hijack=hijack_outcome,
            foreign=foreign_outcome,
            foreign_scenario=scenario,
            similarity_ranking=ranking,
        )


def _report_outcome(outcome: TestOutcome, vehicle_name: str) -> None:
    """Count and log one experiment outcome."""
    get_registry().counter(
        "vprofile_eval_experiments_total",
        help="Detection-suite experiments executed",
        experiment=outcome.name,
    ).inc()
    get_event_log().info(
        "eval.experiment",
        experiment=outcome.name,
        vehicle=vehicle_name,
        accuracy=outcome.accuracy,
        f_score=outcome.f_score,
        margin=outcome.margin,
    )


def _run_foreign(
    inputs: SuiteInputs,
    metric: Metric,
    scenario: ForeignScenario,
    shrinkage: float,
) -> TestOutcome:
    """Foreign test: retrain without the imposter, replay it as the victim."""
    vehicle = inputs.vehicle
    train_without = [
        e for e in inputs.train if e.metadata.get("sender") != scenario.imposter
    ]
    if not train_without:
        raise DatasetError("foreign test removed the entire training set")
    sa_clusters = {
        sa: name
        for sa, name in vehicle.sa_clusters.items()
        if name != scenario.imposter
    }
    model = train_model(
        TrainingData.from_edge_sets(train_without),
        metric=metric,
        sa_clusters=sa_clusters,
        shrinkage=shrinkage,
    )
    victim_sas = sorted(
        sa for sa, name in vehicle.sa_clusters.items() if name == scenario.victim
    )
    labelled = apply_foreign_imitation(inputs.test, scenario, victim_sas[0])
    outcome = _evaluate(model, labelled, objective="f-score")
    return TestOutcome(
        name="foreign",
        confusion=outcome.confusion,
        margin=outcome.margin,
        zero_fp_score=outcome.zero_fp_score,
    )


def _similarity_ranking(model: VProfileModel) -> tuple[tuple[float, str, str], ...]:
    """All cluster pairs sorted by profile similarity (closest first)."""
    from repro.core.distances import euclidean_distance, mahalanobis_distance

    pairs = []
    for i, a in enumerate(model.clusters):
        for b in model.clusters[i + 1 :]:
            if model.metric is Metric.MAHALANOBIS:
                distance = 0.5 * (
                    mahalanobis_distance(a.mean, b.mean, b.inv_covariance)
                    + mahalanobis_distance(b.mean, a.mean, a.inv_covariance)
                )
            else:
                distance = euclidean_distance(a.mean, b.mean)
            pairs.append((float(distance), a.name, b.name))
    pairs.sort()
    return tuple(pairs)
