"""Batched waveform synthesis: N messages in one vectorized pass.

:func:`repro.analog.waveform.synthesize_waveform` renders one message at
a time.  Its arithmetic, however, is entirely elementwise (``where`` /
``take`` / ``exp`` / ``cos`` / ``sin`` and friends), so a group of
messages sharing one transceiver and one wire-bit length can be rendered
as a ``(G, S)`` matrix and sliced back into rows — every element goes
through exactly the same scalar operations in the same order, which
keeps the output *byte-identical* to the serial path.

The only per-message work left is the RNG draws: each message owns an
independent generator, and the draw order of the serial path (sampling
phase → message offsets → sample noise) is replayed per generator in a
cheap Python loop around the vectorized render.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analog.channel import ChannelNoise
from repro.analog.environment import NOMINAL_ENVIRONMENT, Environment
from repro.analog.transceiver import TransceiverParams
from repro.analog.waveform import SynthesisConfig, step_response
from repro.errors import PerfError


def synthesize_waveform_matrix(
    wire_matrix: np.ndarray,
    transceiver: TransceiverParams,
    config: SynthesisConfig,
    *,
    env: Environment = NOMINAL_ENVIRONMENT,
    noise: ChannelNoise | None = None,
    rngs: Sequence[np.random.Generator],
    wire_lengths: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Render ``G`` messages into one padded ``(G, S_max)`` matrix.

    Parameters
    ----------
    wire_matrix:
        ``(G, n_wire)`` stuffed wire bits, one message per row (0 =
        dominant, 1 = recessive, starting at SOF).  Without
        ``wire_lengths`` every row uses all ``n_wire`` bits; with it,
        row ``i`` uses its first ``wire_lengths[i]`` bits and the rest
        is padding — mixed-length traffic renders as one pad-batched
        matrix.
    transceiver:
        Fingerprint of the transmitting ECU (shared by the whole group).
    config / env / noise:
        As for :func:`~repro.analog.waveform.synthesize_waveform`.
    rngs:
        One independent generator per message.  Each generator sees
        exactly the draws the serial path would make: the sampling
        phase, then the per-message offsets, then the sample noise.
    wire_lengths:
        Per-row wire-bit counts for pad-batched mixed-length groups.
        Padding is forced recessive, which makes a padded row's bit
        sequence ``[prefix 1s, wire, pad 1s, suffix 1s]`` agree with the
        serial row ``[prefix 1s, wire, suffix 1s]`` on every bit index
        the row actually samples — so outputs stay byte-identical.

    Returns
    -------
    ``(volts, n_samples)``: row ``i`` of the ``(G, S_max)`` matrix holds
    the message's ``n_samples[i]`` samples — byte-identical to calling
    ``synthesize_waveform(row[:length], ...)`` with the matching
    generator — followed by scratch columns.  Callers applying a further
    *elementwise* stage (the engine's ADC quantisation) can run it on
    the whole matrix, scratch included, and slice afterwards, skipping a
    concatenate/split round-trip without changing a byte of any row.
    """
    wire = np.asarray(wire_matrix, dtype=np.int8)
    if wire.ndim != 2:
        raise PerfError(f"wire_matrix must be 2-D, got shape {wire.shape}")
    n_messages = wire.shape[0]
    if wire.shape[1] == 0:
        raise PerfError("cannot synthesise an empty bit sequence")
    if len(rngs) != n_messages:
        raise PerfError(
            f"need one rng per message: {n_messages} messages, {len(rngs)} rngs"
        )
    lengths: np.ndarray | None = None
    if wire_lengths is not None:
        lengths = np.asarray(wire_lengths, dtype=np.int64)
        if lengths.shape != (n_messages,):
            raise PerfError(
                f"need one wire length per message: {n_messages} messages, "
                f"{lengths.size} lengths"
            )
        if lengths.min() < 1 or lengths.max() > wire.shape[1]:
            raise PerfError(
                f"wire lengths must be in [1, {wire.shape[1]}], got "
                f"[{lengths.min()}, {lengths.max()}]"
            )
    if config.max_frame_bits is not None:
        wire = wire[:, : config.max_frame_bits]
        if lengths is not None:
            lengths = np.minimum(lengths, config.max_frame_bits)
    if lengths is not None:
        if int(lengths.min()) == wire.shape[1]:
            lengths = None  # all rows full width: plain equal-length batch
        else:
            # Force padding recessive so the pad region is
            # indistinguishable from the idle suffix.
            wire = np.where(
                np.arange(wire.shape[1])[None, :] < lengths[:, None],
                wire,
                np.int8(1),
            )

    # Per-message draws, replaying the serial path's order per generator:
    # the phase, then (when noise is modelled) the fused offsets + noise
    # block.  Each message owns its generator, so drawing its noise here
    # — before the render instead of after, as the serial path does —
    # consumes exactly the same stream.
    phases = np.empty(n_messages)
    for i, rng in enumerate(rngs):
        # random() consumes and returns the exact double uniform(0, 1)
        # would, without the range-scaling call overhead.
        phases[i] = rng.random()
    spb = config.samples_per_bit
    if lengths is None:
        n_bits = np.full(
            n_messages,
            config.idle_prefix_bits + wire.shape[1] + config.idle_suffix_bits,
            dtype=np.int64,
        )
    else:
        n_bits = config.idle_prefix_bits + lengths + config.idle_suffix_bits
    n_samples = np.floor(n_bits * spb - phases).astype(np.int64)
    baselines = np.zeros(n_messages)
    gains = np.ones(n_messages)
    noise_matrix: np.ndarray | None = None
    if noise is not None:
        baselines, gains, noise_matrix = noise.sample_message_matrix(
            n_samples.tolist(), list(rngs)
        )

    bits = np.concatenate(
        [
            np.ones((n_messages, config.idle_prefix_bits), dtype=np.int8),
            wire,
            np.ones((n_messages, config.idle_suffix_bits), dtype=np.int8),
        ],
        axis=1,
    )
    v_dom, v_rec = transceiver.effective_levels(env)
    rise_dyn, fall_dyn = transceiver.effective_dynamics(env)

    levels = np.where(bits == 0, v_dom * gains[:, None], v_rec)
    prev_bits = np.concatenate(
        [np.ones((n_messages, 1), dtype=np.int8), bits[:, :-1]], axis=1
    )
    prev_levels = np.concatenate(
        [np.full((n_messages, 1), v_rec, dtype=float), levels[:, :-1]], axis=1
    )
    is_transition = bits != prev_bits

    s_max = int(n_samples.max())
    # Rows with fewer samples carry trailing scratch columns; every op is
    # elementwise, so the first n_samples[i] entries of row i match the
    # serial render exactly and the tail is sliced off at the end.
    positions = np.arange(s_max)[None, :] + phases[:, None]
    # positions are non-negative by construction, so only the upper clip
    # (scratch tail columns of short rows) is needed.  floor lands in the
    # division's own buffer — one fewer (G, S) temporary.
    scaled = positions / spb
    np.floor(scaled, out=scaled)
    bit_index = scaled.astype(np.int64)
    np.minimum(bit_index, (n_bits - 1)[:, None], out=bit_index)
    # Reuse `positions` as the dt buffer and `scaled` as the product
    # buffer — same arithmetic, fewer (G, S) temporaries.
    np.multiply(bit_index, spb, out=scaled)
    positions -= scaled
    positions /= config.sample_rate
    dt = positions

    # One flat index serves every gather (ravel is a view on C-ordered
    # matrices, and take is cheaper than re-deriving fancy indices per
    # take_along_axis call).  The levels gather doubles as the volts
    # output: step_response writes below read disjoint mask positions,
    # so aliasing is safe and saves a full (G, S) copy.  bit_index is
    # dead after this point, so the flat index lands in its buffer.
    np.add(
        bit_index,
        np.arange(n_messages, dtype=np.int64)[:, None] * levels.shape[1],
        out=bit_index,
    )
    flat_bit = bit_index
    sampled_levels = levels.ravel().take(flat_bit)
    volts = sampled_levels
    # One int8 gather encodes both edge kinds: 1 = rising, 2 = falling;
    # the has-edge tests run on the small (G, n_bits) matrix before
    # gathering instead of on the (G, S) sample grid after.
    edge_kind = np.where(is_transition, np.where(bits == 0, np.int8(1), np.int8(2)), np.int8(0))
    sampled_kind = edge_kind.ravel().take(flat_bit)
    if edge_kind.any():
        sampled_prev = prev_levels.ravel().take(flat_bit)
        for kind, dyn in ((np.int8(1), rise_dyn), (np.int8(2), fall_dyn)):
            if (edge_kind == kind).any():
                mask = sampled_kind == kind
                volts[mask] = step_response(
                    dt[mask],
                    sampled_prev[mask],
                    sampled_levels[mask],
                    dyn,
                )

    volts += baselines[:, None]
    if noise_matrix is not None:
        volts[:, : noise_matrix.shape[1]] += noise_matrix

    return volts, n_samples
