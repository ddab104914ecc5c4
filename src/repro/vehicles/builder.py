"""Vehicle inference: build a :class:`VehicleConfig` from captures.

Combines the inverse tools of the library into one workflow — given a
capture from an unknown bus (real or simulated), reconstruct a synthetic
vehicle that statistically reproduces it:

1. extract edge sets and group source addresses into ECUs
   (``ClusterByDist``, the paper's "unfortunate" training branch);
2. fit each ECU's transceiver fingerprint
   (:mod:`repro.analog.calibration`);
3. infer each identifier's transmission schedule from arrival times;
4. estimate the channel noise from plateau statistics.

The result can be captured from again, enabling
``real capture -> synthetic twin -> unlimited experiment data``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.acquisition.trace import VoltageTrace
from repro.analog.calibration import estimate_fingerprint
from repro.analog.channel import ChannelNoise
from repro.can.j1939 import J1939Id
from repro.can.traffic import MessageSchedule
from repro.core.edge_extraction import ExtractionConfig, extract_many
from repro.core.training import cluster_sas_by_distance
from repro.errors import DatasetError
from repro.vehicles.profiles import EcuDefinition, VehicleConfig


def infer_schedules(
    traces: list[VoltageTrace],
) -> dict[int, MessageSchedule]:
    """Infer per-identifier periodic schedules from arrival times.

    Uses the median inter-arrival time as the period and the first
    arrival modulo the period as the phase.  Identifiers seen fewer than
    four times are skipped (no reliable period).
    """
    arrivals: dict[int, list[float]] = defaultdict(list)
    ids: dict[int, int] = {}
    for trace in traces:
        frame = trace.metadata.get("frame")
        if frame is None or not frame.extended:
            continue
        arrivals[frame.can_id].append(trace.start_s)
        ids[frame.can_id] = frame.can_id
    schedules: dict[int, MessageSchedule] = {}
    for can_id, times in arrivals.items():
        if len(times) < 4:
            continue
        times = sorted(times)
        gaps = np.diff(times)
        period = float(np.median(gaps))
        if period <= 0:
            continue
        jitter = float(np.percentile(gaps, 90) - period)
        schedules[can_id] = MessageSchedule(
            j1939_id=J1939Id.from_can_id(can_id),
            period_s=period,
            phase_s=float(times[0] % period),
            jitter_s=max(jitter, 0.0),
        )
    if not schedules:
        raise DatasetError("no periodic identifiers found in the capture")
    return schedules


def estimate_channel_noise(
    traces: list[VoltageTrace], *, threshold_v: float = 1.0
) -> ChannelNoise:
    """Estimate the channel noise model from plateau statistics.

    * white noise — median within-plateau sample standard deviation;
    * baseline wander — standard deviation of per-message plateau means
      (in excess of the white-noise contribution);
    * the AR component cannot be separated from white noise without
      spectra, so it is folded into the white estimate (conservative).
    """
    within: list[float] = []
    means: list[float] = []
    for trace in traces:
        volts = trace.to_volts()
        above = volts >= threshold_v
        crossings = np.nonzero(np.diff(above.astype(np.int8)) != 0)[0]
        mask = np.ones(volts.size, dtype=bool)
        guard = max(4, round(0.6e-6 * trace.sample_rate))
        for crossing in crossings:
            mask[max(0, crossing - guard) : crossing + guard + 2] = False
        plateau = volts[above & mask]
        if plateau.size < 8:
            continue
        within.append(float(plateau.std()))
        means.append(float(plateau.mean()))
    if len(means) < 4:
        raise DatasetError("too few usable plateaus to estimate noise")
    white = float(np.median(within))
    between = float(np.std(means))
    baseline = float(np.sqrt(max(between**2 - white**2 / 8.0, 0.0)))
    return ChannelNoise(
        white_sigma_v=white,
        ar_sigma_v=0.0,
        ar_coeff=0.0,
        baseline_sigma_v=baseline,
        amplitude_jitter=0.0,
    )


def infer_vehicle(
    traces: list[VoltageTrace],
    name: str = "InferredVehicle",
    *,
    cluster_distance_threshold: float | None = None,
) -> VehicleConfig:
    """Reconstruct a synthetic vehicle from a capture.

    The traces need frame metadata (id + payload), which any CAN
    controller provides alongside the analog tap.  Ground-truth sender
    labels are *not* used — ECU grouping comes from voltage clustering.
    """
    if not traces:
        raise DatasetError("cannot infer a vehicle from an empty capture")
    reference = traces[0]
    extraction = ExtractionConfig.for_trace(reference)
    edge_sets = extract_many(traces, extraction, skip_failures=True)
    if not edge_sets:
        raise DatasetError("no edge sets could be extracted from the capture")

    by_sa: dict[int, list[int]] = defaultdict(list)
    for index, edge_set in enumerate(edge_sets):
        by_sa[edge_set.source_address].append(index)
    sa_means = {
        sa: np.stack([edge_sets[i].vector for i in rows]).mean(axis=0)
        for sa, rows in by_sa.items()
    }
    clusters = cluster_sas_by_distance(sa_means, cluster_distance_threshold)

    schedules = infer_schedules(traces)
    noise = estimate_channel_noise(traces)

    ecus = []
    for cluster_index, (cluster_name, sas) in enumerate(sorted(clusters.items())):
        ecu_name = f"ECU{cluster_index}"
        ecu_traces = [
            trace
            for trace in traces
            if (frame := trace.metadata.get("frame")) is not None
            and frame.can_id & 0xFF in sas
        ]
        if len(ecu_traces) < 5:
            raise DatasetError(
                f"cluster {cluster_name} has too few messages to fingerprint"
            )
        transceiver = estimate_fingerprint(ecu_traces[:120], ecu_name)
        ecu_schedules = tuple(
            schedule
            for can_id, schedule in sorted(schedules.items())
            if can_id & 0xFF in sas
        )
        if not ecu_schedules:
            raise DatasetError(f"no schedules inferred for {ecu_name}")
        ecus.append(
            EcuDefinition(
                name=ecu_name, transceiver=transceiver, schedules=ecu_schedules
            )
        )

    return VehicleConfig(
        name=name,
        bitrate=reference.bitrate,
        sample_rate=reference.sample_rate,
        resolution_bits=reference.resolution_bits,
        ecus=tuple(ecus),
        noise=noise,
    )
