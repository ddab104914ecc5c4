"""Environmental-variability experiments (paper Section 4.4).

* **Temperature** (Section 4.4.1, Table 4.8, Figure 4.6): idle the
  vehicle from -5 degC to 25 degC, train on the coldest 5-degree bin and
  replay the warmer bins.  Distances drift upward with temperature —
  drastically for the ECUs with large thermal coefficients (0 and 2) —
  and the few false positives in the hottest bin disappear when some
  warm data is added to the training set.
* **Battery voltage / high-power loads** (Section 4.4.2, Table 4.9,
  Figures 4.7-4.8): in accessory mode, switch the lights and A/C on and
  off.  The bus voltage barely moves (the transceivers regulate their
  rail), so detection is unaffected; the largest drift appears with
  lights + A/C together, and a model trained only on the first trial
  drifts over the following trials (creeping bus temperature).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analog.environment import Environment
from repro.core.detection import Detector
from repro.core.distances import mahalanobis_distances
from repro.core.edge_extraction import ExtractedEdgeSet, ExtractionConfig, extract_many
from repro.core.model import Metric, VProfileModel
from repro.core.training import TrainingData, train_model
from repro.errors import DatasetError
from repro.eval.confusion import ConfusionMatrix
from repro.eval.margin import tune_margin
from repro.vehicles.dataset import capture_session
from repro.vehicles.profiles import VehicleConfig

#: z-value of the paper's 99 % confidence intervals.
Z_99 = 2.5758


@dataclass(frozen=True)
class DriftPoint:
    """Mean Mahalanobis-distance drift of one ECU under one condition.

    ``percent_delta`` is the percent change of the mean distance versus
    the training condition; ``ci_99`` is the half-width of its 99 %
    confidence interval (also in percent), as plotted in Figures 4.6-4.8.
    """

    ecu: str
    condition: str
    percent_delta: float
    ci_99: float
    n_messages: int


@dataclass(frozen=True)
class TemperatureResult:
    """Everything Table 4.8 and Figure 4.6 report."""

    confusion: ConfusionMatrix
    confusion_with_warm_data: ConfusionMatrix
    drift: tuple[DriftPoint, ...]
    margin: float
    train_bin: tuple[float, float]


@dataclass(frozen=True)
class VoltageResult:
    """Everything Table 4.9 and Figures 4.7-4.8 report."""

    confusion: ConfusionMatrix
    event_drift: tuple[DriftPoint, ...]
    trial_drift: tuple[DriftPoint, ...]
    margin: float


def _extract_at(
    vehicle: VehicleConfig,
    env: Environment,
    duration_s: float,
    seed: int,
    extraction: ExtractionConfig | None,
    jobs: int | None = None,
    cache=None,
) -> tuple[list[ExtractedEdgeSet], ExtractionConfig]:
    session = capture_session(
        vehicle, duration_s, env=env, seed=seed, jobs=jobs, cache=cache
    )
    if extraction is None:
        extraction = ExtractionConfig.for_trace(session.traces[0])
    return extract_many(session.traces, extraction), extraction


def _drift_points(
    model: VProfileModel,
    baseline_means: dict[str, float],
    edge_sets: Sequence[ExtractedEdgeSet],
    condition: str,
) -> list[DriftPoint]:
    """Per-ECU percent delta of the mean distance under one condition."""
    points = []
    for index, cluster in enumerate(model.clusters):
        vectors = [
            e.vector for e in edge_sets if e.metadata.get("sender") == cluster.name
        ]
        if not vectors:
            continue
        distances = mahalanobis_distances(
            np.stack(vectors), cluster.mean, cluster.inv_covariance
        )
        base = baseline_means[cluster.name]
        mean = float(distances.mean())
        sem = float(distances.std(ddof=1) / np.sqrt(len(distances))) if len(distances) > 1 else 0.0
        points.append(
            DriftPoint(
                ecu=cluster.name,
                condition=condition,
                percent_delta=100.0 * (mean - base) / base,
                ci_99=100.0 * Z_99 * sem / base,
                n_messages=len(distances),
            )
        )
    return points


def _baseline_means(
    model: VProfileModel, edge_sets: Sequence[ExtractedEdgeSet]
) -> dict[str, float]:
    means: dict[str, float] = {}
    for cluster in model.clusters:
        vectors = [
            e.vector for e in edge_sets if e.metadata.get("sender") == cluster.name
        ]
        if not vectors:
            raise DatasetError(f"no baseline messages for {cluster.name}")
        distances = mahalanobis_distances(
            np.stack(vectors), cluster.mean, cluster.inv_covariance
        )
        means[cluster.name] = float(distances.mean())
    return means


def _fit_and_calibrate(
    vehicle: VehicleConfig,
    train_sets: list[ExtractedEdgeSet],
    seed: int,
    *,
    fit_fraction: float = 0.6,
) -> tuple[VProfileModel, float, dict[str, float]]:
    """Fit a model and calibrate margin/baselines on held-out data.

    The margin and the baseline mean distances must come from data the
    model did *not* see: in-sample Mahalanobis distances are biased low
    (severely so when the per-cluster count is only a few times the
    edge-set dimension), which would both zero the margin and inflate
    every drift percentage.
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(train_sets))
    cut = int(round(fit_fraction * len(train_sets)))
    fit_sets = [train_sets[i] for i in order[:cut]]
    calib_sets = [train_sets[i] for i in order[cut:]]
    model = train_model(
        TrainingData.from_edge_sets(fit_sets),
        metric=Metric.MAHALANOBIS,
        sa_clusters=vehicle.sa_clusters,
    )
    vectors = np.stack([e.vector for e in calib_sets])
    sas = np.array([e.source_address for e in calib_sets])
    batch = Detector(model).classify_batch(vectors, sas)
    margin = tune_margin(
        batch, np.zeros(len(calib_sets), dtype=bool), "accuracy"
    ).margin
    baseline = _baseline_means(model, calib_sets)
    return model, margin, baseline


def _confusion_all_normal(
    model: VProfileModel, edge_sets: Sequence[ExtractedEdgeSet], margin: float
) -> ConfusionMatrix:
    vectors = np.stack([e.vector for e in edge_sets])
    sas = np.array([e.source_address for e in edge_sets])
    batch = Detector(model, margin=margin).classify_batch(vectors, sas)
    anomalies = batch.anomalies(margin)
    return ConfusionMatrix(
        true_positive=0,
        false_negative=0,
        false_positive=int(anomalies.sum()),
        true_negative=int((~anomalies).sum()),
    )


def temperature_experiment(
    vehicle: VehicleConfig,
    *,
    bin_edges: Sequence[float] = (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
    trials: int = 3,
    duration_per_capture_s: float = 3.0,
    seed: int = 0,
    jobs: int | None = None,
    cache=None,
) -> TemperatureResult:
    """Reproduce the temperature experiment (Table 4.8, Figure 4.6).

    For every trial and 5-degree bin, a short idle capture is recorded at
    temperatures spread inside the bin.  The model trains on the coldest
    bin; the remaining bins are replayed unmodified (battery held at the
    engine-running 13.6 V throughout, as in the paper).
    """
    if len(bin_edges) < 3:
        raise DatasetError("need at least two temperature bins")
    battery_v = 13.60
    bins = list(zip(bin_edges[:-1], bin_edges[1:]))
    rng = np.random.default_rng(seed)

    extraction: ExtractionConfig | None = None
    per_bin: list[list[ExtractedEdgeSet]] = []
    for bin_index, (lo, hi) in enumerate(bins):
        collected: list[ExtractedEdgeSet] = []
        for trial in range(trials):
            temp = float(rng.uniform(lo, hi))
            env = Environment(temperature_c=temp, battery_v=battery_v)
            edge_sets, extraction = _extract_at(
                vehicle,
                env,
                duration_per_capture_s,
                seed=seed + 101 * bin_index + trial,
                extraction=extraction,
                jobs=jobs,
                cache=cache,
            )
            collected.extend(edge_sets)
        per_bin.append(collected)

    train_sets = per_bin[0]
    model, margin, baseline = _fit_and_calibrate(vehicle, train_sets, seed)

    warm_sets = [e for bin_sets in per_bin[1:] for e in bin_sets]
    confusion = _confusion_all_normal(model, warm_sets, margin)

    # Figure 4.6: per-ECU drift per warm bin against the cold baseline.
    drift: list[DriftPoint] = []
    for (lo, hi), bin_sets in zip(bins[1:], per_bin[1:]):
        drift.extend(
            _drift_points(model, baseline, bin_sets, f"{lo:g}..{hi:g} degC")
        )

    # Paper: adding a capture at 20 degC to the training data removes
    # the remaining (hot-bin) false positives.
    warm_extra, _ = _extract_at(
        vehicle,
        Environment(temperature_c=20.0, battery_v=battery_v),
        duration_per_capture_s,
        seed=seed + 7919,
        extraction=extraction,
        jobs=jobs,
        cache=cache,
    )
    model_warm, margin_warm, _ = _fit_and_calibrate(
        vehicle, train_sets + warm_extra, seed
    )
    # The paper keeps the experiment's margin when augmenting the
    # training data; Mahalanobis slacks are unitless, so the larger of
    # the two calibrations is a safe, comparable choice.
    confusion_warm = _confusion_all_normal(
        model_warm, warm_sets, max(margin, margin_warm)
    )

    return TemperatureResult(
        confusion=confusion,
        confusion_with_warm_data=confusion_warm,
        drift=tuple(drift),
        margin=margin,
        train_bin=bins[0],
    )


#: The battery-voltage experiment's event sequence (Section 4.4.2).
VOLTAGE_EVENTS: tuple[tuple[str, float, float], ...] = (
    # (event name, battery volts, accessory load amps)
    ("accessory", 12.61, 0.0),
    ("lights", 12.58, 18.0),
    ("ac", 12.56, 25.0),
    ("lights+ac", 12.54, 43.0),
    ("engine", 13.60, 0.0),
)


def voltage_experiment(
    vehicle: VehicleConfig,
    *,
    trials: int = 5,
    duration_per_capture_s: float = 2.5,
    base_temperature_c: float = 28.4,
    hidden_temp_drift_per_trial_c: float = 2.0,
    seed: int = 0,
    jobs: int | None = None,
    cache=None,
) -> VoltageResult:
    """Reproduce the high-power-loads experiment (Table 4.9, Fig 4.7/4.8).

    ``hidden_temp_drift_per_trial_c`` models the paper's conjecture that
    the bus wiring warmed slightly over the five back-to-back trials,
    producing Figure 4.8's upward drift even though the measured cabin
    temperature held at 28.4 degC +/- 0.4.
    """
    extraction: ExtractionConfig | None = None
    by_event: dict[str, list[ExtractedEdgeSet]] = {name: [] for name, _, _ in VOLTAGE_EVENTS}
    accessory_by_trial: list[list[ExtractedEdgeSet]] = []
    for trial in range(trials):
        temperature = base_temperature_c + hidden_temp_drift_per_trial_c * trial
        for event_index, (name, battery_v, load_a) in enumerate(VOLTAGE_EVENTS):
            # Accessory mode doubles as training data for both models
            # (all-trials and trial-1-only), so capture it longer to keep
            # every cluster's covariance full rank.
            duration = duration_per_capture_s * (3.0 if name == "accessory" else 1.0)
            env = Environment(
                temperature_c=temperature + 0.05 * event_index,
                battery_v=battery_v,
                load_current_a=load_a,
            )
            edge_sets, extraction = _extract_at(
                vehicle,
                env,
                duration,
                seed=seed + 977 * trial + event_index,
                extraction=extraction,
                jobs=jobs,
                cache=cache,
            )
            by_event[name].extend(edge_sets)
            if name == "accessory":
                accessory_by_trial.append(edge_sets)

    # Table 4.9: train on accessory mode (all trials), test the rest.
    train_sets = by_event["accessory"]
    model, margin, baseline = _fit_and_calibrate(vehicle, train_sets, seed)
    test_sets = [
        e for name, sets in by_event.items() if name != "accessory" for e in sets
    ]
    confusion = _confusion_all_normal(model, test_sets, margin)

    # Figure 4.7: drift per event against accessory mode.
    event_drift: list[DriftPoint] = []
    for name, _, _ in VOLTAGE_EVENTS[1:]:
        event_drift.extend(_drift_points(model, baseline, by_event[name], name))

    # Figure 4.8: train on trial 1's accessory data only; test the
    # accessory events of the other trials.
    model_t1, _, baseline_t1 = _fit_and_calibrate(
        vehicle, accessory_by_trial[0], seed + 1
    )
    trial_drift: list[DriftPoint] = []
    for trial_index, edge_sets in enumerate(accessory_by_trial[1:], start=2):
        trial_drift.extend(
            _drift_points(model_t1, baseline_t1, edge_sets, f"trial {trial_index}")
        )

    return VoltageResult(
        confusion=confusion,
        event_drift=tuple(event_drift),
        trial_drift=tuple(trial_drift),
        margin=margin,
    )
