"""Bitwise oracle tests of the batched phase map, mesh kernel and measure_batch.

The references below are the per-MZI loops the batched code replaced: one
MziSettings and one mzi_unitary product per slot, with numpy scalar
arithmetic, and a per-index noise sampler that draws each index's window
from a Philox of its own and moment-matches its near-dark modes in Python
floats.  The batched results must equal them exactly, not within a
tolerance, because experiment artifacts are compared byte for byte.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mzipuf
from mzipuf import fabrication
from mzipuf.fabrication import (
    LARGE_PAIR,
    SMALL_PAIR,
    _BLOCK_MZI_ROWS,
    _MOMENT_FLOOR,
    _NOISE_WORDS,
    Challenge,
    ChipLayoutSpec,
    NoiseConfig,
    NoiseStream,
    _noisy_block,
    _one_draw_threshold,
    carve_device,
    fabricate_chip,
    measure,
    measure_batch,
    voltages_to_phases,
)
from mzipuf.mesh import (
    TWO_PI,
    CouplerArrays,
    CouplerPair,
    MziSettings,
    build_mesh,
    mzi_unitary,
    propagate,
)


def propagation_block(mzi_count):
    """Challenges measure_batch propagates together on a mesh of mzi_count MZIs."""
    return max(1, _BLOCK_MZI_ROWS // mzi_count)


def batch_sizes(mzi_count):
    """Batch sizes for a mesh; the largest spans two propagation blocks."""
    return (1, 7, propagation_block(mzi_count) + 7)


def reference_propagate(layout, settings_list, couplers):
    field_vec = np.zeros(layout.mode_count, dtype=complex)
    field_vec[layout.input_mode] = 1.0
    for (top, bottom), s, cp in zip(layout.mode_pairs, settings_list, couplers):
        block = mzi_unitary(s, cp)
        a, b = field_vec[top], field_vec[bottom]
        field_vec[top] = block[0, 0] * a + block[0, 1] * b
        field_vec[bottom] = block[1, 0] * a + block[1, 1] * b
    return np.abs(field_vec) ** 2


def reference_phases(device, volts):
    v = np.asarray(volts, dtype=float)
    v_eff = v.copy()
    for sa, sb, c in device.local_ground_loops:
        v_eff[sa] += c * v[sb]
        v_eff[sb] += c * v[sa]
    phases = []
    for slot, v in enumerate(v_eff):
        h = device.heater(slot)
        phases.append(MziSettings(theta=(h.phase_offset + TWO_PI * (v / h.v2pi) ** 2) % TWO_PI))
    return phases


def reference_measure(device, challenge):
    return reference_propagate(
        device.layout, reference_phases(device, challenge.voltages), device.slot_couplers()
    )


def window_normals(noise, index):
    """The normals of an index's window, from a Philox of its own pointed at
    the window, one Box-Muller pair of words at a time."""
    samples = noise.config.samples_per_response
    draws = noise.mode_count * (1 if samples >= _MOMENT_FLOOR else samples)
    window = -(-draws // 4) * 4
    key = np.random.SeedSequence((*noise.seed, 0)).generate_state(2, np.uint64)
    words = np.random.Philox(key=key, counter=index * window // 4).random_raw(window).tolist()
    normals = []
    for w1, w2 in zip(words[0::2], words[1::2]):
        radius = math.sqrt(-2.0 * math.log(((w1 >> 11) + 1) * 2.0**-53))
        angle = (w2 >> 11) * (TWO_PI * 2.0**-53)
        normals += [radius * np.cos(angle), radius * np.sin(angle)]
    return np.array(normals[:draws])


def per_index_noisy_mean(ideal, noise, index):
    """One measurement at a time, mode by mode, from its own window: the
    sampler as a loop oracle that measure_batch must match bit for bit."""
    cfg = noise.config
    samples = cfg.samples_per_response
    z = window_normals(noise, index)
    out = []
    for mode, (drift, value) in enumerate(zip(noise.drift_factors(index), ideal)):
        mu = float(drift * value)
        sigma = float(np.hypot(cfg.coupling_jitter_sigma * mu, cfg.detector_sigma))
        if samples < _MOMENT_FLOOR:
            snapshots = np.maximum(z[mode * samples:(mode + 1) * samples] * sigma + mu, 0.0)
            out.append(np.add.reduce(snapshots) / samples)
        elif mu >= _one_draw_threshold(samples) * sigma:
            out.append(max(z[mode] * (sigma / math.sqrt(samples)) + mu, 0.0))
        else:
            a = max(mu / sigma, -40.0) if sigma else -40.0
            cdf = 0.5 * math.erfc(a / -math.sqrt(2.0))
            pdf = math.exp(a * a * -0.5) / math.sqrt(2.0 * math.pi)
            m1 = mu * cdf + sigma * pdf
            m2 = (mu * mu + sigma * sigma) * cdf + mu * sigma * pdf
            spread = math.sqrt(max(m2 - m1 * m1, 0.0) / samples)
            out.append(max(m1 + spread * z[mode], 0.0))
    return np.array(out)


def noisy_mean(ideal, noise, index):
    """One measurement of an ideal vector: the block sampler on one row."""
    out = np.array([ideal], dtype=float)
    _noisy_block(noise.config, noise._normals([index]), noise._drift_rows([index]), out)
    return out[0]


def chunk_rows(noise):
    """Rows measure_batch samples together for this stream."""
    return max(1, _NOISE_WORDS // noise._window)


@st.composite
def carved_devices(draw):
    """A random chip and carving; the adjacency joins a hub site to up to
    six others, so a slot can have more than the chain's two neighbours."""
    columns = draw(st.integers(1, 5))
    mzis = columns * (columns + 1) // 2
    sites = mzis + draw(st.integers(0, 6))
    pair = st.tuples(st.integers(0, sites - 1), st.integers(0, sites - 1))
    extra = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=2 * sites))
    hub = draw(st.integers(0, sites - 1))
    star = [(hub, other) for other in draw(st.permutations(range(sites)))[:7] if other != hub]
    spec = ChipLayoutSpec(
        mzi_count=sites,
        adjacency=tuple(star + extra),
        ground_loop_scale=draw(st.sampled_from((10.0 ** (-45.0 / 20.0), 0.05))),
    )
    chip = fabricate_chip(draw(st.integers(0, 2**32 - 1)), spec)
    slots = draw(st.permutations(range(sites)))[:mzis]
    return carve_device(chip, columns, slots)


def random_challenges(seed, mzi_count, n):
    rng = np.random.default_rng(seed)
    return [Challenge.random(rng, mzi_count) for _ in range(n)]


@settings(max_examples=30, deadline=None)
@given(columns=st.integers(1, 6), n=st.sampled_from((1, 7, 130)), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_per_mzi_loop(columns, n, seed):
    # the kernel takes any N at once; only measure_batch splits it into blocks
    rng = np.random.default_rng(seed)
    layout = build_mesh(columns)
    m = layout.mzi_count
    couplers = [CouplerPair(*rng.uniform(0.01, 0.99, 2)) for _ in range(m)]
    theta = rng.uniform(0.0, TWO_PI, (n, m))
    expected = [reference_propagate(layout, [MziSettings(t) for t in ts], couplers) for ts in theta]
    assert np.array_equal(propagate(layout, theta, CouplerArrays.from_pairs(couplers)), expected)
    # the object form carries an outer phase phi per MZI
    phi = rng.uniform(0.0, TWO_PI, m)
    objects = [MziSettings(t, p) for t, p in zip(theta[-1], phi)]
    assert np.array_equal(
        propagate(layout, objects, couplers), reference_propagate(layout, objects, couplers)
    )


@settings(max_examples=30, deadline=None)
@given(device=carved_devices(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_measure_batch_matches_reference(device, data, seed):
    n = data.draw(st.sampled_from(batch_sizes(device.layout.mzi_count)), label="n")
    challenges = random_challenges(seed, device.layout.mzi_count, n)
    batch = measure_batch(device, challenges, None, np.arange(n))
    expected = np.array([reference_measure(device, ch) for ch in challenges])
    assert np.array_equal(batch, expected)
    thetas = voltages_to_phases(device, challenges)
    assert np.array_equal(
        thetas,
        [[s.theta for s in reference_phases(device, ch.voltages)] for ch in challenges],
    )
    assert [s.theta for s in voltages_to_phases(device, challenges[0])] == list(thetas[0])


@settings(max_examples=10, deadline=None)
@given(device=carved_devices(), seed=st.integers(0, 2**32 - 1))
def test_noisy_measure_batch_matches_reference(device, seed):
    # the reference is single-index measure on a fresh stream, replayed in
    # reverse order; tests/test_noise_sampler.py checks the noise itself
    # against the snapshot oracle
    config = NoiseConfig(samples_per_response=50)
    challenges = random_challenges(seed, device.layout.mzi_count, 7)
    indices = np.random.default_rng(seed).permutation(40)[:7]
    stream = NoiseStream((seed, 1), device.layout.mode_count, config)
    batch = measure_batch(device, challenges, stream, indices)
    replay = NoiseStream((seed, 1), device.layout.mode_count, config)
    for row, ch, index in reversed(list(zip(batch, challenges, indices))):
        assert np.array_equal(row, measure(device, ch, replay, int(index)).intensities)


# (N, R) index shapes, R None for an (N,) vector: N * R crosses the noise
# chunk (8 rows of 22 modes at S = _MOMENT_FLOOR - 1, 170 from the floor
# on), and N the large-pair propagation block of 31
INDEX_SHAPES = (
    (1, None), (7, None), (9, None), (33, None), (1, 8), (1, 9), (1, 17),
    (3, 3), (2, 5), (4, 8), (33, 1), (34, 2), (2, 90),
)
PRESET_DEVICES = tuple(
    preset.carve_pair(fabricate_chip(7, preset.chip_spec()))[0]
    for preset in (SMALL_PAIR, LARGE_PAIR)
)


# 1-, 4- and 11-column meshes: propagation blocks of 2048, 204 and 31
SPLIT_DEVICES = (
    carve_device(fabricate_chip(7, ChipLayoutSpec(mzi_count=1)), 1, (0,)),
    *PRESET_DEVICES,
)


@settings(max_examples=20, deadline=None)
@given(device=st.sampled_from(SPLIT_DEVICES), noisy=st.booleans(), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_measure_batch_equals_concatenated_split(device, noisy, data, seed):
    # block and noise chunk boundaries fall elsewhere within each piece;
    # repeated cuts give empty pieces.  repeats 0 stands for (N,) indices
    m = device.layout.mzi_count
    n = data.draw(st.integers(0, propagation_block(m) + 8), label="n")
    repeats = data.draw(st.integers(0, 3), label="repeats")
    cuts = data.draw(st.lists(st.integers(0, n), max_size=3), label="cuts")
    bounds = [0, *sorted(cuts), n]
    challenges = random_challenges(seed, m, n)
    shape = (n, repeats) if repeats else (n,)
    # few distinct values: indices repeat and run out of order
    indices = np.random.default_rng(seed).integers(0, max(2, n * repeats // 2), shape)
    config = NoiseConfig(samples_per_response=20)
    stream = NoiseStream(seed, device.layout.mode_count, config) if noisy else None
    whole = measure_batch(device, challenges, stream, indices)
    parts = [measure_batch(device, challenges[a:b], stream, indices[a:b])
             for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(whole, np.concatenate(parts))
    assert whole.shape == shape + (device.layout.mode_count,)


@st.composite
def noisy_blocks(draw):
    """(device, challenges, indices, config): a measured block whose rows are
    all bright (no moment-matched modes), all near-dark, or a mix of both."""
    device = draw(carved_devices() | st.sampled_from(PRESET_DEVICES))
    n, repeats = draw(st.sampled_from(INDEX_SHAPES))
    seed = draw(st.integers(0, 2**32 - 1))
    challenges = random_challenges(seed, device.layout.mzi_count, n)
    shape = (n,) if repeats is None else (n, repeats)
    # few distinct values: indices repeat and run out of order within a block
    size = math.prod(shape)
    indices = np.random.default_rng(seed).integers(0, max(2, size // 2), size).reshape(shape)
    samples = draw(st.sampled_from((1, 2, _MOMENT_FLOOR - 1, _MOMENT_FLOOR, 40, 1000)))
    ideal = measure_batch(device, challenges, None, np.zeros(n, dtype=int))
    rows = draw(st.sampled_from(("bright", "jitter-dark", "dark", "mixed")))
    jitter, detector = {
        # sigma = 0.14 mu stays below mu / z: every mode takes one draw
        "bright": (0.14, 0.0),
        # sigma = 0.5 mu is above mu / z for every S here: all snapshots
        "jitter-dark": (0.5, 0.0),
        "dark": (0.14, 10.0 * float(ideal.max())),
        # about half the modes on either side of the threshold
        "mixed": (0.14, float(np.median(ideal)) / _one_draw_threshold(samples)),
    }[rows]
    config = NoiseConfig(
        detector_sigma=detector,
        coupling_jitter_sigma=jitter,
        coupling_drift_step=draw(st.sampled_from((0.0, 0.005, 0.05))),
        samples_per_response=samples,
    )
    return device, challenges, indices, config


@settings(max_examples=60, deadline=None)
@given(case=noisy_blocks(), seed=st.integers(0, 2**32 - 1))
def test_noisy_measure_batch_matches_per_index_sampler(case, seed):
    device, challenges, indices, config = case
    modes = device.layout.mode_count
    batch = measure_batch(device, challenges, NoiseStream(seed, modes, config), indices)
    ideal = measure_batch(device, challenges, None, np.zeros(len(challenges), dtype=int))
    oracle = NoiseStream(seed, modes, config)
    rows = indices.reshape(len(challenges), -1).tolist()
    expected = [[per_index_noisy_mean(ideal[i], oracle, index) for index in row]
                for i, row in enumerate(rows)]
    assert np.array_equal(batch, np.reshape(expected, indices.shape + (modes,)))
    # a lone row through the block sampler, as measure samples one
    assert np.array_equal(noisy_mean(ideal[0], oracle, rows[0][0]), expected[0][0])


def test_one_noise_chunk_starts_no_thread(monkeypatch):
    # nor does a batch of many chunks: the noise pass runs on the caller
    def no_thread(*args, **kwargs):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    device = PRESET_DEVICES[1]
    stream = NoiseStream(4, device.layout.mode_count)
    n = 3 * chunk_rows(stream) + 1
    challenges = random_challenges(4, device.layout.mzi_count, n)
    threads = threading.active_count()
    single = measure(device, challenges[0], stream, 5)
    batch = measure_batch(device, challenges, stream, np.arange(n) + 5)
    repeats = measure_batch(device, challenges[:1], stream, [np.arange(n) + 5])
    assert threading.active_count() == threads
    assert np.array_equal(batch[0], single.intensities)
    assert np.array_equal(repeats[0, 0], single.intensities)


@pytest.mark.parametrize("failing, raised", [
    ((23,), 23),  # in the last chunk
    ((1, 23), 1),  # the first chunk fails too, and wins
])
def test_noise_pass_error_reaches_the_caller(monkeypatch, failing, raised):
    # drawing a failing index's window raises: chunks are sampled in order
    # on the caller, so the first failing one's error reaches it, and the
    # stream's walk and generators stay fit to measure with
    device = PRESET_DEVICES[1]
    modes = device.layout.mode_count
    stream = NoiseStream(3, modes)
    # four chunks of six rows
    monkeypatch.setattr(fabrication, "_NOISE_WORDS", 6 * stream._window)
    n = 24
    challenges = random_challenges(3, device.layout.mzi_count, n)
    normals = NoiseStream._normals

    def failing_normals(self, indices):
        doomed = [index for index in indices if index in failing]
        if doomed:
            raise RuntimeError(f"no window for {doomed[0]}")
        return normals(self, indices)

    monkeypatch.setattr(NoiseStream, "_normals", failing_normals)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"no window for {raised}$"):
        measure_batch(device, challenges, stream, np.arange(n))
    assert threading.active_count() == threads
    monkeypatch.setattr(NoiseStream, "_normals", normals)
    expected = measure_batch(device, challenges, NoiseStream(3, modes), np.arange(n))
    assert np.array_equal(measure_batch(device, challenges, stream, np.arange(n)), expected)


# indices of one to three 32-bit words: a window's Philox counter carries
# into its second 64-bit word from 2**64 / 6 on, at 22 modes
WORD_EDGES = (2**32 - 1, 2**32, 2**64 + 3)


@settings(max_examples=40, deadline=None)
@given(device=st.sampled_from(PRESET_DEVICES), drift=st.booleans(),
       samples=st.sampled_from((5, 1000)), data=st.data(), seed=st.integers(0, 2**32 - 1))
@example(device=PRESET_DEVICES[1], drift=False, samples=1000, data=None, seed=3)
def test_a_batch_row_equals_a_lone_measure(device, drift, samples, data, seed):
    # indices in any order, repeated, and past 2**64 where the drift is
    # frozen: the walk reaches only indices it can sum up to
    if data is None:
        indices = [*WORD_EDGES, 2**32, 7, 2**32 - 1]
    else:
        small = st.integers(0, 300)
        values = small if drift else st.sampled_from(WORD_EDGES) | small | st.integers(0, 2**62)
        indices = data.draw(st.lists(values, min_size=1, max_size=12), label="indices")
    config = NoiseConfig(samples_per_response=samples,
                         coupling_drift_step=0.005 if drift else 0.0)
    modes = device.layout.mode_count
    challenges = random_challenges(seed, device.layout.mzi_count, len(indices))
    batch = measure_batch(device, challenges, NoiseStream(seed, modes, config), indices)
    lone = NoiseStream(seed, modes, config)
    for row, ch, index in reversed(list(zip(batch, challenges, indices))):
        assert np.array_equal(row, measure(device, ch, lone, index).intensities)


@pytest.mark.parametrize("seed", [7, (2**32 + 5, 1), (2**64 + 1, 3, 2)])
def test_multi_chunk_batch_seeds_each_row_as_measure_does(seed):
    # one- and multi-word seeds key the stream's Philox; every row of a
    # batch of several chunks equals measure at its index
    device = PRESET_DEVICES[0]
    config = NoiseConfig(samples_per_response=5)
    stream = NoiseStream(seed, device.layout.mode_count, config)
    n = 3 * chunk_rows(stream) + 1
    challenges = random_challenges(5, device.layout.mzi_count, n)
    indices = np.arange(n)[::-1] * 3
    batch = measure_batch(device, challenges, stream, indices)
    lone = NoiseStream(seed, device.layout.mode_count, config)
    for row, ch, index in zip(batch, challenges, indices.tolist()):
        assert np.array_equal(row, measure(device, ch, lone, index).intensities)


SIMD_PROBE = """
import hashlib, numpy as np
from mzipuf.fabrication import NoiseConfig, NoiseStream, _noisy_block
# ideal rows from exact float operations, a third of them near-dark and
# an eighth so dark that a snapshot shows its normal's every bit
rows = np.random.default_rng(5).random((1000, 22))
for _ in range(3):
    rows *= rows
indices = list(range(0, 70000, 70))
digest = hashlib.sha256()
for samples in (1000, 1):
    stream = NoiseStream(9, 22, NoiseConfig(samples_per_response=samples))
    out = rows.copy()
    _noisy_block(stream.config, stream._normals(indices), stream._drift_rows(indices), out)
    digest.update(out.tobytes())
print(digest.hexdigest())
"""


def test_noisy_rows_do_not_depend_on_the_simd_dispatch():
    # numpy's float64 log and exp give other bits under AVX-512 than without
    # it; the noise pass takes them from math, so CI's no-SIMD list must
    # give the bytes the host's dispatch gives.  The probe starts from fixed
    # ideal rows: propagation's np.abs of its complex amplitudes rounds
    # differently without AVX2, which the stored bins do not show
    src = str(Path(mzipuf.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    digests = [
        subprocess.run([sys.executable, "-c", SIMD_PROBE], env={**env, **dispatch},
                       capture_output=True, text=True, check=True).stdout
        for dispatch in ({}, {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"})
    ]
    assert len(digests[0]) == 65 and digests[0] == digests[1]


def peak_bytes(*batch):
    """Peak traced memory of measure_batch(*batch)."""
    tracemalloc.start()
    try:
        measure_batch(*batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_noisy_repeat_block_memory_is_bounded():
    # large-pair's 1 x 500 repeat block at S = 1000: the noise pass holds
    # one chunk's windows and temporaries at a time
    device = PRESET_DEVICES[1]
    challenge = random_challenges(0, device.layout.mzi_count, 1)
    stream = NoiseStream((99, 1), device.layout.mode_count)
    measure_batch(device, challenge, stream, [[499]])  # the drift walk is not part of it
    peak = peak_bytes(device, challenge, stream, np.arange(500)[None, :])
    assert peak < 1024 * 1024


def test_batch_position_invariance():
    chip = fabricate_chip(8, LARGE_PAIR.chip_spec())
    device = LARGE_PAIR.carve_pair(chip)[1]
    block = propagation_block(device.layout.mzi_count)
    n = batch_sizes(device.layout.mzi_count)[-1]
    challenges = random_challenges(3, device.layout.mzi_count, n)
    indices = np.arange(n)[::-1] * 3
    for config in (NoiseConfig(samples_per_response=20), NoiseConfig.disabled()):
        stream = NoiseStream((5, 6), device.layout.mode_count, config)
        batch = measure_batch(device, challenges, stream, indices)
        for i in (0, 1, block - 1, block, n - 1):
            single = measure(device, challenges[i], stream, int(indices[i]))
            assert np.array_equal(batch[i], single.intensities)
        # a challenge repeated at R indices is one row of an (N, R) index matrix
        repeat_indices = [[4, 9, 2], [7, 7, 1]]
        repeats = measure_batch(device, challenges[:2], stream, repeat_indices)
        assert repeats.shape == (2, 3, device.layout.mode_count)
        for i, row in enumerate(repeat_indices):
            for r, index in enumerate(row):
                single = measure(device, challenges[i], stream, index)
                assert np.array_equal(repeats[i, r], single.intensities)


def test_measure_batch_memory_is_bounded():
    # blocks keep the temporaries small: only the (N, modes) result grows with N
    chip = fabricate_chip(1234, LARGE_PAIR.chip_spec())
    device = LARGE_PAIR.carve_pair(chip)[0]
    challenges = random_challenges(9, device.layout.mzi_count, 1000)
    # a fresh stream: the run extends the drift walk from index 0
    stream = NoiseStream((99, 1), device.layout.mode_count)
    measure_batch(device, challenges[:1], stream, [0])
    peak = peak_bytes(device, challenges, stream, np.arange(1000))
    assert peak < 2 * 1024 * 1024
