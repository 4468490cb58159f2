"""Bitwise oracle tests of the batched phase map, mesh kernel and measure_batch.

The references below are the per-MZI loops the batched code replaced: one
MziSettings and one mzi_unitary product per slot, with numpy scalar
arithmetic.  The batched results must equal them exactly, not within a
tolerance, because experiment artifacts are compared byte for byte.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mzipuf.fabrication import (
    LARGE_PAIR,
    MEASURE_BLOCK,
    Challenge,
    ChipLayoutSpec,
    NoiseConfig,
    NoiseStream,
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

# the largest crosses block boundaries of measure_batch
BATCH_SIZES = (1, 7, 130)


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


def reference_measure(device, challenge, noise=None, index=0):
    ideal = reference_propagate(
        device.layout, reference_phases(device, challenge.voltages), device.slot_couplers()
    )
    if noise is None:
        return ideal
    cfg = noise.config
    rng = noise.measurement_rng(index)
    drift = noise.drift_factors(index)
    shape = (cfg.samples_per_response, noise.mode_count)
    jitter = rng.normal(0.0, cfg.coupling_jitter_sigma, shape)
    detector = rng.normal(0.0, cfg.detector_sigma, shape)
    return np.clip(drift * (1.0 + jitter) * ideal + detector, 0.0, None).mean(axis=0)


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
@given(columns=st.integers(1, 6), n=st.sampled_from(BATCH_SIZES), seed=st.integers(0, 2**32 - 1))
def test_kernel_matches_per_mzi_loop(columns, n, seed):
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
@given(device=carved_devices(), n=st.sampled_from(BATCH_SIZES), seed=st.integers(0, 2**32 - 1))
def test_measure_batch_matches_reference(device, n, seed):
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
    config = NoiseConfig(samples_per_response=50)
    challenges = random_challenges(seed, device.layout.mzi_count, 7)
    indices = np.random.default_rng(seed).permutation(40)[:7]
    stream = NoiseStream((seed, 1), device.layout.mode_count, config)
    batch = measure_batch(device, challenges, stream, indices)
    for row, ch, index in zip(batch, challenges, indices):
        assert np.array_equal(row, reference_measure(device, ch, stream, index))


def test_batch_position_invariance():
    chip = fabricate_chip(8, LARGE_PAIR.chip_spec())
    device = LARGE_PAIR.carve_pair(chip)[1]
    n = BATCH_SIZES[-1]
    challenges = random_challenges(3, device.layout.mzi_count, n)
    indices = np.arange(n)[::-1] * 3
    for config in (NoiseConfig(samples_per_response=20), NoiseConfig.disabled()):
        stream = NoiseStream((5, 6), device.layout.mode_count, config)
        batch = measure_batch(device, challenges, stream, indices)
        for i in (0, 1, MEASURE_BLOCK - 1, MEASURE_BLOCK, n - 1):
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
    stream = NoiseStream((99, 1), device.layout.mode_count)
    measure_batch(device, challenges[:1], stream, [0])
    tracemalloc.start()
    try:
        measure_batch(device, challenges, stream, np.arange(1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
