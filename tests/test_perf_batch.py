"""Batched synthesis byte-identity and the step-response micro-fix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analog.channel import NOISY_CHANNEL, QUIET_CHANNEL
from repro.analog.transceiver import EdgeDynamics
from repro.analog.waveform import SynthesisConfig, step_response, synthesize_waveform
from repro.errors import PerfError
from repro.perf.batch import synthesize_waveform_matrix
from repro.perf.parallel import message_seed


def _reference_step_response(dt_s, v_start, v_target, dynamics):
    """The pre-refactor inline formulas, kept verbatim as the oracle."""
    wn = dynamics.omega_n
    zeta = dynamics.damping
    dt = np.asarray(dt_s, dtype=float)
    if zeta < 1.0:
        wd = wn * np.sqrt(1.0 - zeta**2)
        envelope = np.exp(-zeta * wn * dt)
        transient = envelope * (
            np.cos(wd * dt) + (zeta / np.sqrt(1.0 - zeta**2)) * np.sin(wd * dt)
        )
    elif zeta == 1.0:
        transient = np.exp(-wn * dt) * (1.0 + wn * dt)
    else:
        root = np.sqrt(zeta**2 - 1.0)
        s1 = wn * (-zeta + root)
        s2 = wn * (-zeta - root)
        transient = (s1 * np.exp(s2 * dt) - s2 * np.exp(s1 * dt)) / (s1 - s2)
    return v_target + (v_start - v_target) * transient


class TestStepConstantsMicroFix:
    @pytest.mark.parametrize("zeta", [0.25, 0.62, 0.999, 1.0, 1.01, 2.7])
    def test_bit_identical_to_inline_formulas(self, zeta):
        dynamics = EdgeDynamics(natural_freq_hz=2.3e6, damping=zeta)
        rng = np.random.default_rng(9)
        dt = rng.uniform(0.0, 2.5e-6, size=512)
        ours = step_response(dt, 0.12, 2.05, dynamics)
        oracle = _reference_step_response(dt, 0.12, 2.05, dynamics)
        assert np.array_equal(ours, oracle)

    def test_constants_are_cached_per_dynamics(self):
        dynamics = EdgeDynamics(natural_freq_hz=1.7e6, damping=0.4)
        assert dynamics.step_constants() is dynamics.step_constants()
        # Equal parameters share the cache entry regardless of instance.
        twin = EdgeDynamics(natural_freq_hz=1.7e6, damping=0.4)
        assert twin.step_constants() is dynamics.step_constants()

    def test_regimes(self):
        assert EdgeDynamics(1e6, 0.5).step_constants().kind == "under"
        assert EdgeDynamics(1e6, 1.0).step_constants().kind == "critical"
        assert EdgeDynamics(1e6, 1.5).step_constants().kind == "over"


class TestNdarrayPassthrough:
    def test_ndarray_input_matches_list_input(self):
        from repro.vehicles.profiles import sterling_acterra

        vehicle = sterling_acterra()
        transceiver = vehicle.ecus[0].transceiver
        config = SynthesisConfig(sample_rate=2_000_000.0, max_frame_bits=60)
        bits_list = [1, 0, 0, 1, 0, 1, 1, 0] * 8
        bits_array = np.asarray(bits_list, dtype=np.int8)
        for noise in (None, QUIET_CHANNEL):
            a = synthesize_waveform(
                bits_list, transceiver, config,
                noise=noise, rng=np.random.default_rng(5),
            )
            b = synthesize_waveform(
                bits_array, transceiver, config,
                noise=noise, rng=np.random.default_rng(5),
            )
            assert np.array_equal(a, b)


def _batch_rngs(seed, n):
    return [np.random.default_rng(message_seed(seed, i)) for i in range(n)]


def _matrix_rows(*args, **kwargs):
    """The matrix render sliced into per-message rows."""
    volts, n_samples = synthesize_waveform_matrix(*args, **kwargs)
    return [volts[i, : int(n_samples[i])] for i in range(volts.shape[0])]


class TestBatchedSynthesis:
    @pytest.mark.parametrize("noise", [None, QUIET_CHANNEL, NOISY_CHANNEL])
    def test_byte_identical_to_serial(self, noise):
        from repro.vehicles.profiles import vehicle_a

        vehicle = vehicle_a()
        transceiver = vehicle.ecus[0].transceiver
        config = SynthesisConfig(
            sample_rate=vehicle.sample_rate, max_frame_bits=60
        )
        bit_rng = np.random.default_rng(7)
        wire = bit_rng.integers(0, 2, size=(12, 60)).astype(np.int8)
        wire[:, 0] = 0  # SOF is dominant

        batched = _matrix_rows(
            wire, transceiver, config, noise=noise, rngs=_batch_rngs(11, 12)
        )
        serial_rngs = _batch_rngs(11, 12)
        for row, volts, rng in zip(wire, batched, serial_rngs):
            expected = synthesize_waveform(
                row, transceiver, config, noise=noise, rng=rng
            )
            assert np.array_equal(volts, expected)

    def test_group_of_one_matches_serial(self):
        from repro.vehicles.profiles import sterling_acterra

        transceiver = sterling_acterra().ecus[1].transceiver
        config = SynthesisConfig(sample_rate=2_000_000.0)
        wire = np.array([[0, 1, 1, 0, 0, 0, 1, 0, 1, 1]], dtype=np.int8)
        [volts] = _matrix_rows(
            wire, transceiver, config,
            noise=QUIET_CHANNEL, rngs=_batch_rngs(3, 1),
        )
        expected = synthesize_waveform(
            wire[0], transceiver, config,
            noise=QUIET_CHANNEL, rng=_batch_rngs(3, 1)[0],
        )
        assert np.array_equal(volts, expected)

    @pytest.mark.parametrize("noise", [None, NOISY_CHANNEL])
    def test_mixed_lengths_pad_batched_matches_serial(self, noise):
        """Pad-batching: rows of different wire lengths render in one
        matrix, each byte-identical to the serial render of its own
        (unpadded) bit sequence."""
        from repro.vehicles.profiles import vehicle_a

        transceiver = vehicle_a().ecus[0].transceiver
        config = SynthesisConfig(sample_rate=2_000_000.0, max_frame_bits=80)
        lengths = [40, 64, 52, 64, 33]
        bit_rng = np.random.default_rng(21)
        wire = bit_rng.integers(0, 2, size=(5, 64)).astype(np.int8)
        wire[:, 0] = 0  # SOF is dominant
        batched = _matrix_rows(
            wire, transceiver, config, noise=noise,
            rngs=_batch_rngs(17, 5), wire_lengths=lengths,
        )
        serial_rngs = _batch_rngs(17, 5)
        for row, n, volts, rng in zip(wire, lengths, batched, serial_rngs):
            expected = synthesize_waveform(
                row[:n], transceiver, config, noise=noise, rng=rng
            )
            assert np.array_equal(volts, expected)

    def test_matrix_rows_are_batch_rows(self):
        """Each row holds its message's samples, then scratch columns."""
        from repro.vehicles.profiles import vehicle_a

        transceiver = vehicle_a().ecus[0].transceiver
        config = SynthesisConfig(sample_rate=2_000_000.0, max_frame_bits=80)
        lengths = [48, 64, 36]
        wire = np.random.default_rng(2).integers(0, 2, size=(3, 64)).astype(np.int8)
        wire[:, 0] = 0
        volts, n_samples = synthesize_waveform_matrix(
            wire, transceiver, config, noise=QUIET_CHANNEL,
            rngs=_batch_rngs(9, 3), wire_lengths=lengths,
        )
        assert volts.shape == (3, int(n_samples.max()))
        for i, (rng, n) in enumerate(zip(_batch_rngs(9, 3), lengths)):
            expected = synthesize_waveform(
                wire[i, :n], transceiver, config, noise=QUIET_CHANNEL, rng=rng
            )
            assert expected.size == int(n_samples[i])
            assert np.array_equal(volts[i, : expected.size], expected)

    def test_rejects_bad_wire_lengths(self):
        from repro.vehicles.profiles import sterling_acterra

        transceiver = sterling_acterra().ecus[0].transceiver
        config = SynthesisConfig(sample_rate=2_000_000.0)
        wire = np.zeros((2, 8), dtype=np.int8)
        with pytest.raises(PerfError):
            _matrix_rows(
                wire, transceiver, config,
                rngs=_batch_rngs(0, 2), wire_lengths=[8],
            )
        with pytest.raises(PerfError):
            _matrix_rows(
                wire, transceiver, config,
                rngs=_batch_rngs(0, 2), wire_lengths=[8, 9],
            )
        with pytest.raises(PerfError):
            _matrix_rows(
                wire, transceiver, config,
                rngs=_batch_rngs(0, 2), wire_lengths=[0, 8],
            )

    def test_rejects_bad_shapes(self):
        from repro.vehicles.profiles import sterling_acterra

        transceiver = sterling_acterra().ecus[0].transceiver
        config = SynthesisConfig(sample_rate=2_000_000.0)
        with pytest.raises(PerfError):
            _matrix_rows(
                np.zeros(8, dtype=np.int8), transceiver, config, rngs=[]
            )
        with pytest.raises(PerfError):
            _matrix_rows(
                np.zeros((2, 8), dtype=np.int8), transceiver, config,
                rngs=_batch_rngs(0, 1),
            )
        with pytest.raises(PerfError):
            _matrix_rows(
                np.zeros((1, 0), dtype=np.int8), transceiver, config,
                rngs=_batch_rngs(0, 1),
            )
