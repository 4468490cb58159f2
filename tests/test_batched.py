"""Bitwise oracle tests of the batched phase map, mesh kernel and measure_batch.

The references below are the per-MZI loops the batched code replaced: one
MziSettings and one mzi_unitary product per slot, with numpy scalar
arithmetic, and the per-index noise sampler the block sampler replaced.
The batched results must equal them exactly, not within a tolerance,
because experiment artifacts are compared byte for byte.
"""

import math
import os
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzipuf import fabrication
from mzipuf.fabrication import (
    LARGE_PAIR,
    SMALL_PAIR,
    _BLOCK_MZI_ROWS,
    _NOISE_CHUNK,
    _NOISE_WORKERS,
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


def per_index_noisy_mean(ideal, noise, index):
    """One measurement at a time, from its own substream: the sampler the
    block sampler replaced, as a loop oracle it must match bit for bit."""
    cfg = noise.config
    samples = cfg.samples_per_response
    rng = noise.measurement_rng(index)
    mean = noise.drift_factors(index) * ideal
    sigma = np.hypot(cfg.coupling_jitter_sigma * mean, cfg.detector_sigma)
    out = rng.standard_normal(noise.mode_count)
    out *= sigma / math.sqrt(samples)
    out += mean
    np.maximum(out, 0.0, out=out)
    dark = mean < _one_draw_threshold(samples) * sigma
    if dark.any():
        snapshots = rng.standard_normal((int(dark.sum()), samples))
        snapshots *= sigma[dark, None]
        snapshots += mean[dark, None]
        np.maximum(snapshots, 0.0, out=snapshots)
        out[dark] = snapshots.mean(axis=1)
    return out


def seed_words(seed, index):
    """The words numpy seeds the PCG64 of measurement_rng(index) from."""
    return np.random.SeedSequence((*seed, 0, index)).generate_state(4, np.uint64)


def substream_state(rng):
    """A generator's PCG64 state and increment, which name its substream
    until it draws."""
    return tuple(rng.bit_generator.state["state"].values())


def noisy_mean(ideal, noise, index):
    """One measurement of an ideal vector: the block sampler on one row."""
    out = np.array([ideal], dtype=float)
    _noisy_block(noise.config, [noise.measurement_rng(index)], noise._drift_rows([index]), out)
    return out[0]


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
# chunk, and N the large-pair propagation block of 31
INDEX_SHAPES = (
    (1, None), (7, None), (9, None), (33, None), (1, 8), (1, 9), (1, 17),
    (1, _NOISE_CHUNK), (1, _NOISE_CHUNK + 1), (3, 3), (2, 5), (4, 8), (33, 1), (34, 2),
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
    all bright (no snapshot draws), all near-dark, or a mix of both."""
    device = draw(carved_devices() | st.sampled_from(PRESET_DEVICES))
    n, repeats = draw(st.sampled_from(INDEX_SHAPES))
    seed = draw(st.integers(0, 2**32 - 1))
    challenges = random_challenges(seed, device.layout.mzi_count, n)
    shape = (n,) if repeats is None else (n, repeats)
    # few distinct values: indices repeat and run out of order within a block
    size = math.prod(shape)
    indices = np.random.default_rng(seed).integers(0, max(2, size // 2), size).reshape(shape)
    samples = draw(st.sampled_from((1, 2, 40, 1000)))
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


def noise_workers(workers):
    """Force the noise pass onto this many workers, whatever the CPU count."""
    return mock.patch.object(fabrication, "_noise_workers", lambda: workers)


@settings(max_examples=20, deadline=None)
@given(device=st.sampled_from(PRESET_DEVICES), shape=st.sampled_from(((1, 17), (3, 9), (33,))),
       samples=st.sampled_from((40, 1000)), seed=st.integers(0, 2**32 - 1))
def test_threaded_noise_pass_equals_one_worker(device, shape, samples, seed):
    # workers' chunks split a challenge's repeats; every run starts on
    # a fresh stream, so the threaded runs extend the drift walk themselves
    challenges = random_challenges(seed, device.layout.mzi_count, shape[0])
    # few distinct values: indices repeat and run out of order
    indices = np.random.default_rng(seed).integers(0, max(2, math.prod(shape) // 2), shape)
    config = NoiseConfig(samples_per_response=samples)
    results = []
    threads = threading.active_count()
    for workers in (1, 2, 3):
        stream = NoiseStream(seed, device.layout.mode_count, config)
        with noise_workers(workers):
            results.append(measure_batch(device, challenges, stream, indices))
        assert threading.active_count() == threads
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


@pytest.mark.parametrize("affinity, workers", [({0}, 1), ({0, 1, 2, 3}, 2)])
def test_noise_workers_follow_the_cpu_affinity(monkeypatch, affinity, workers):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    assert fabrication._noise_workers() == workers


@pytest.mark.parametrize("cpus, workers", [(None, 1), (8, 2)])
def test_noise_workers_fall_back_to_the_cpu_count(monkeypatch, cpus, workers):
    # macOS has no os.sched_getaffinity, and os.cpu_count() may be None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert fabrication._noise_workers() == workers


def test_noise_threads_under_fast_switching():
    # more workers than CPUs, switching threads every microsecond: the rows
    # and the drift walk are those of one worker
    device = PRESET_DEVICES[1]
    n = 12 * _NOISE_CHUNK
    challenges = random_challenges(6, device.layout.mzi_count, n)
    indices = np.arange(n)[::-1] // 2
    modes = device.layout.mode_count
    with noise_workers(1):
        expected = measure_batch(device, challenges, NoiseStream(6, modes), indices)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            stream = NoiseStream(6, modes)
            with noise_workers(5):
                assert np.array_equal(measure_batch(device, challenges, stream, indices), expected)
            assert len(stream._drift) == indices.max() + 1
    finally:
        sys.setswitchinterval(interval)


def test_noise_threads_only_read_the_drift_walk(monkeypatch):
    # extending the walk appends to a cache: only the calling thread may
    drift_rows = NoiseStream._drift_rows
    extended_on = []

    def recording(self, indices):
        if len(self._drift) <= max(indices):
            extended_on.append(threading.current_thread())
        return drift_rows(self, indices)

    monkeypatch.setattr(NoiseStream, "_drift_rows", recording)
    device = PRESET_DEVICES[1]
    n = 4 * _NOISE_CHUNK
    stream = NoiseStream(5, device.layout.mode_count)
    with noise_workers(2):
        measure_batch(device, random_challenges(5, device.layout.mzi_count, n), stream,
                      np.arange(n))
    assert extended_on == [threading.current_thread()]


@pytest.mark.parametrize("failing, raised", [
    ((4 * _NOISE_CHUNK - 1,), 4 * _NOISE_CHUNK - 1),  # in the last chunk
    ((1, 4 * _NOISE_CHUNK - 1), 1),  # the first chunk fails too, and wins
])
def test_noise_pass_error_reaches_the_caller(monkeypatch, failing, raised):
    # seeding a failing index's substream raises, on whichever worker claims it
    device = PRESET_DEVICES[1]
    n = 4 * _NOISE_CHUNK
    doomed = {seed_words((3,), index).tobytes(): index for index in failing}

    class FailingWords(fabrication._SeedWords):
        def generate_state(self, n_words, dtype=np.uint32):
            index = doomed.get(self.words.tobytes())
            if index is not None:
                raise RuntimeError(f"no substream for {index}")
            return super().generate_state(n_words, dtype)

    monkeypatch.setattr(fabrication, "_SeedWords", FailingWords)
    stream = NoiseStream(3, device.layout.mode_count)
    threads = threading.active_count()
    with noise_workers(2), pytest.raises(RuntimeError, match=f"no substream for {raised}$"):
        measure_batch(device, random_challenges(3, device.layout.mzi_count, n), stream,
                      np.arange(n))
    assert threading.active_count() == threads


def test_one_noise_chunk_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    device = PRESET_DEVICES[1]
    challenges = random_challenges(4, device.layout.mzi_count, _NOISE_CHUNK)
    stream = NoiseStream(4, device.layout.mode_count)
    with noise_workers(2):
        single = measure(device, challenges[0], stream, 5)
        batch = measure_batch(device, challenges, stream, np.arange(_NOISE_CHUNK) + 5)
        repeats = measure_batch(device, challenges[:1], stream, [np.arange(_NOISE_CHUNK) + 5])
    assert np.array_equal(batch[0], single.intensities)
    assert np.array_equal(repeats[0, 0], single.intensities)


def test_a_late_noise_thread_leaves_its_chunks_to_the_caller(monkeypatch):
    # a thread that runs only once it is joined: by then the caller has
    # claimed and sampled every chunk, in order, so the batch never waits on it
    joined = []

    class Late(threading.Thread):
        def start(self):
            pass

        def join(self, timeout=None):
            joined.append(self)
            self.run()

    device = PRESET_DEVICES[1]
    n = 4 * _NOISE_CHUNK
    # each chunk is known by its first row's substream, before any draw
    stream = NoiseStream(8, device.layout.mode_count)
    first_rows = {substream_state(stream.measurement_rng(row)): row
                  for row in range(0, n, _NOISE_CHUNK)}
    sampled = []
    noisy_block = fabrication._noisy_block

    def recording(cfg, rngs, drift, out):
        sampled.append((first_rows.get(substream_state(rngs[0])), bool(joined)))
        noisy_block(cfg, rngs, drift, out)

    challenges = random_challenges(8, device.layout.mzi_count, n)
    with noise_workers(1):
        expected = measure_batch(device, challenges, NoiseStream(8, device.layout.mode_count),
                                 np.arange(n))
    monkeypatch.setattr(threading, "Thread", Late)
    monkeypatch.setattr(fabrication, "_noisy_block", recording)
    with noise_workers(2):
        batch = measure_batch(device, challenges, NoiseStream(8, device.layout.mode_count),
                              np.arange(n))
    assert np.array_equal(batch, expected)
    assert len(joined) == 1
    assert sampled == [(row, False) for row in range(0, n, _NOISE_CHUNK)]


# indices of one to three 32-bit words, where numpy's split of an int changes
WORD_EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 2**80), min_size=1, max_size=3),
       indices=st.lists(st.sampled_from(WORD_EDGES) | st.integers(0, 2**70), min_size=1,
                        max_size=20))
@example(seed=[0], indices=list(WORD_EDGES))
@example(seed=[2**32, 1, 2**64 + 3], indices=list(WORD_EDGES))
def test_substream_words_equal_numpys_seed_sequence(seed, indices):
    # the entropy runs from 3 to 13 words: shorter than the pool, padded
    # with zeros, and longer, mixed in after it; one batch may mix lengths
    expected = [seed_words(seed, index) for index in indices]
    assert np.array_equal(fabrication._substream_words(tuple(seed), indices), expected)
    # an integer array is split by numpy's integer arithmetic, a list with
    # ints past 2**63 by Python's
    in_range = [index for index in indices if index < 2**64]
    if in_range:
        assert np.array_equal(
            fabrication._substream_words(tuple(seed), np.array(in_range, dtype=np.uint64)),
            [seed_words(seed, index) for index in in_range])


@pytest.mark.parametrize("seed, index", [((-1,), 0), ((3, -2), 0), ((3,), -1)])
def test_substream_words_refuse_negative_ints(seed, index):
    with pytest.raises(ValueError, match="must be >= 0, got -"):
        fabrication._substream_words(seed, [5, index])


@pytest.mark.parametrize("seed", [7, (2**32 + 5, 1), (2**64 + 1, 3, 2)])
def test_multi_chunk_batch_seeds_each_row_as_measure_does(monkeypatch, seed):
    # one- and multi-word seeds: entropy of 3, 5 and 7 words; every row's
    # substream comes from the one words pass, none from measurement_rng
    device = PRESET_DEVICES[0]
    n = 3 * _NOISE_CHUNK + 1
    challenges = random_challenges(5, device.layout.mzi_count, n)
    indices = np.arange(n)[::-1] * 3
    config = NoiseConfig(samples_per_response=40)
    expected = [measure(device, ch, NoiseStream(seed, device.layout.mode_count, config),
                        int(index)).intensities for ch, index in zip(challenges, indices)]
    words_calls = []
    substream_words = fabrication._substream_words

    def recording(*args):
        words_calls.append(args)
        return substream_words(*args)

    def forbidden(self, index):
        raise AssertionError("a batch row seeded through measurement_rng")

    monkeypatch.setattr(fabrication, "_substream_words", recording)
    monkeypatch.setattr(NoiseStream, "measurement_rng", forbidden)
    for workers in WORKER_COUNTS:
        stream = NoiseStream(seed, device.layout.mode_count, config)
        with noise_workers(workers):
            batch = measure_batch(device, challenges, stream, indices)
        assert np.array_equal(batch, expected)
    assert len(words_calls) == len(WORKER_COUNTS)


def test_a_lone_noise_chunk_seeds_through_measurement_rng(monkeypatch):
    # every measure call, and any batch of up to two chunks: a few default_rng
    # calls cost less than the words pass; the two-chunk batch still splits
    # across two workers
    def forbidden(*args):
        raise AssertionError("a batch of at most two chunks took the words pass")

    device = PRESET_DEVICES[1]
    n = 2 * _NOISE_CHUNK
    challenges = random_challenges(4, device.layout.mzi_count, n)
    stream = NoiseStream(4, device.layout.mode_count)
    with noise_workers(1):
        expected = measure_batch(device, challenges + challenges[:1], stream, np.arange(n + 1))
    monkeypatch.setattr(fabrication, "_substream_words", forbidden)
    batch = measure_batch(device, challenges[:_NOISE_CHUNK], stream, np.arange(_NOISE_CHUNK))
    assert np.array_equal(batch, expected[:_NOISE_CHUNK])
    threads = threading.active_count()
    with noise_workers(2):
        pair = measure_batch(device, challenges, stream, np.arange(n))
    assert threading.active_count() == threads
    assert np.array_equal(pair, expected[:-1])
    assert np.array_equal(measure(device, challenges[0], stream, 0).intensities, expected[0])


# every worker count the noise pass can choose
WORKER_COUNTS = sorted({1, _NOISE_WORKERS})


def peak_bytes(workers, *batch):
    """Peak traced memory of measure_batch(*batch) on this many workers."""
    tracemalloc.start()
    try:
        with noise_workers(workers):
            measure_batch(*batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_noisy_repeat_block_memory_is_bounded():
    # large-pair's 1 x 500 repeat block at S = 1000: each worker holds one
    # noise chunk's snapshot buffer at a time (0.44 MB in all on one
    # worker, 0.79 MB on two; 1.3 MB on one at 32 a chunk)
    device = PRESET_DEVICES[1]
    challenge = random_challenges(0, device.layout.mzi_count, 1)
    stream = NoiseStream((99, 1), device.layout.mode_count)
    measure_batch(device, challenge, stream, [[499]])  # the drift walk is not part of it
    for workers in WORKER_COUNTS:
        peak = peak_bytes(workers, device, challenge, stream, np.arange(500)[None, :])
        assert peak < 1024 * 1024, workers


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
    for workers in WORKER_COUNTS:
        # a fresh stream: each run extends the drift walk from index 0
        stream = NoiseStream((99, 1), device.layout.mode_count)
        measure_batch(device, challenges[:1], stream, [0])
        peak = peak_bytes(workers, device, challenges, stream, np.arange(1000))
        assert peak < 2 * 1024 * 1024, workers
