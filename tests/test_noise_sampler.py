"""The noise sampler against the snapshot oracle it replaced.

reference_noisy_mean below draws every snapshot's jitter and detector noise,
2 * S * modes normals per measurement, and is the definition of the noise
model.  The sampler in fabrication draws one normal per mode from S =
_MOMENT_FLOOR snapshots on, moment-matched where a snapshot may clip, and
S snapshots per mode below it, so the two agree in distribution, not bit
for bit: the tests compare them with seeded two-sample Kolmogorov-Smirnov
tests.  Each test is deterministic; the Bonferroni level only bounds how
likely it was to pick seeds that fail on a correct sampler.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzipuf.fabrication import (
    LARGE_PAIR,
    SMALL_PAIR,
    Challenge,
    NoiseConfig,
    NoiseStream,
    _CLIP_BOUND,
    _MOMENT_FLOOR,
    _noisy_block,
    _one_draw_threshold,
    fabricate_chip,
    measure_batch,
)
from mzipuf.metrics import DEFAULT_BIN_FRACTION, _quantize_rows, euclidean_distance, quantize

SAMPLE_COUNTS = (1, _MOMENT_FLOOR, 40, 1000)
DRAWS = 1000
# 5 mode positions at each sample count, plus the quantized-bin test
KS_LEVEL = 1e-3 / (5 * len(SAMPLE_COUNTS) + 1)


def reference_noisy_mean(ideal, noise, index):
    """Mean of S snapshots clip(drift * (1 + jitter) * ideal + detector, 0),
    from a generator of its own for each (seed, index)."""
    cfg = noise.config
    rng = np.random.default_rng((*noise.seed, 0, index))
    drift = noise.drift_factors(index)
    shape = (cfg.samples_per_response, noise.mode_count)
    jitter = rng.normal(0.0, cfg.coupling_jitter_sigma, shape)
    detector = rng.normal(0.0, cfg.detector_sigma, shape)
    return np.clip(drift * (1.0 + jitter) * ideal + detector, 0.0, None).mean(axis=0)


def noisy_mean(ideal, noise, index):
    """One measurement of an ideal vector: the block sampler on one row."""
    out = np.array([ideal], dtype=float)
    _noisy_block(noise.config, noise._normals([index]), noise._drift_rows([index]), out)
    return out[0]


def ks_statistic(a, b):
    """Largest gap between the two empirical CDFs (ties handled exactly)."""
    a, b = np.sort(a), np.sort(b)
    points = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, points, side="right") / len(a)
    cdf_b = np.searchsorted(b, points, side="right") / len(b)
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical(n, m, level=KS_LEVEL):
    """Asymptotic two-sample critical value; conservative on discrete data."""
    return math.sqrt(-math.log(level / 2.0) / 2.0 * (n + m) / (n * m))


def frozen(samples):
    """Default noise with the drift walk frozen, so drift is exactly 1."""
    return NoiseConfig(samples_per_response=samples, coupling_drift_step=0.0)


def ideal_at_ratio(ratio, cfg):
    """The ideal intensity whose snapshot mean is ratio snapshot sigmas above 0."""
    jitter, detector = cfg.coupling_jitter_sigma, cfg.detector_sigma
    return ratio * detector / math.sqrt(1.0 - (ratio * jitter) ** 2)


def test_threshold_meets_the_clip_bound():
    for samples in (1, 2, 40, 1000, 10**6):
        z = _one_draw_threshold(samples)
        assert samples * 0.5 * math.erfc(z / math.sqrt(2.0)) <= _CLIP_BOUND
        assert samples * 0.5 * math.erfc((z - 1e-9) / math.sqrt(2.0)) > _CLIP_BOUND
    assert _one_draw_threshold(1000) == pytest.approx(6.0, abs=0.01)


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
def test_mode_means_match_snapshot_oracle(samples):
    cfg = frozen(samples)
    z = _one_draw_threshold(samples)
    # dark, near-dark (0.3 detector sigma), just below and just above the
    # one-draw threshold, and bright: from the floor on, the first three
    # are moment-matched
    ideal = np.array([
        0.0,
        0.3 * cfg.detector_sigma,
        ideal_at_ratio(0.97 * z, cfg),
        ideal_at_ratio(1.03 * z, cfg),
        0.3,
    ])
    sampler = NoiseStream((21, samples), len(ideal), cfg)
    oracle = NoiseStream((22, samples), len(ideal), cfg)
    new = np.array([noisy_mean(ideal, sampler, i) for i in range(DRAWS)])
    old = np.array([reference_noisy_mean(ideal, oracle, i) for i in range(DRAWS)])
    for mode in range(len(ideal)):
        assert ks_statistic(new[:, mode], old[:, mode]) < ks_critical(DRAWS, DRAWS), mode


def test_quantized_bins_match_snapshot_oracle():
    # a large-pair response with near-dark modes; the statistic is each noisy
    # response's Euclidean distance to the noiseless bins
    device = LARGE_PAIR.carve_pair(fabricate_chip(7, LARGE_PAIR.chip_spec()))[0]
    challenge = Challenge.random(np.random.default_rng(2), device.layout.mzi_count)
    ideal = measure_batch(device, [challenge], None, [0])[0]
    cfg = frozen(1000)
    assert np.sum(ideal < _one_draw_threshold(1000) * cfg.detector_sigma) >= 3
    reference = quantize(ideal)
    sampler = NoiseStream((31, 1), len(ideal), cfg)
    oracle = NoiseStream((31, 2), len(ideal), cfg)
    draws = 400
    new = [euclidean_distance(reference, quantize(noisy_mean(ideal, sampler, i)))
           for i in range(draws)]
    old = [euclidean_distance(reference, quantize(reference_noisy_mean(ideal, oracle, i)))
           for i in range(draws)]
    assert len(set(old)) > 2
    assert ks_statistic(new, old) < ks_critical(draws, draws)


def reference_drift(seed, modes, config, count):
    """The drift walk step by step in numpy, as it was first written: each
    step is one normal per mode, and each position is reflected at +-bound
    by np.mod and np.where.  The folded walk must match it in law."""
    rng = np.random.default_rng((*seed, 1))
    bound = config.coupling_drift_bound
    period = 4.0 * bound
    end = np.zeros(modes)
    rows = [1.0 + end]
    for _ in range(count - 1):
        values = end + rng.normal(0.0, config.coupling_drift_step, modes)
        if bound == 0.0:
            end = np.zeros_like(values)
        else:
            folded = np.mod(values + bound, period)
            end = np.where(folded > 2.0 * bound, period - folded, folded) - bound
        rows.append(1.0 + end)
    return np.array(rows)


@pytest.mark.parametrize("step, bound", [(0.005, 0.05), (0.05, 0.05), (0.02, 0.3)])
def test_folded_walk_matches_the_reflected_walk_in_law(step, bound):
    # the step-by-step reflected walk is the oracle: drift marginals at
    # indices on both sides of block edges, and one-step and 50-step
    # increments, over 2000 independent modes, by two-sample KS statistics
    # (a level of 1e-3 over the 10 comparisons)
    modes, count = 2000, 451
    config = NoiseConfig(coupling_drift_step=step, coupling_drift_bound=bound)
    folded = NoiseStream((8, 1), modes, config)._drift_rows(list(range(count)))
    reflected = reference_drift((8, 2), modes, config, count)
    critical = ks_critical(modes, modes, 1e-4)
    for index in (1, 63, 64, 200, 450):
        assert ks_statistic(folded[index], reflected[index]) < critical, index
    for first, last in ((63, 64), (64, 65), (300, 301), (100, 150), (400, 450)):
        assert ks_statistic(folded[last] - folded[first],
                            reflected[last] - reflected[first]) < critical, (first, last)


# Berry-Esseen's constant for iid sums (Shevtsova 2011)
BERRY_ESSEEN_C = 0.4748


def clipped_third_moment_ratio(a):
    """rho / v**1.5 of max(a + Z, 0) for a standard normal Z: its third
    absolute central moment over its variance to the power 1.5, by the
    trapezoidal rule on the continuous part plus the atom at 0."""
    cdf = 0.5 * math.erfc(-a / math.sqrt(2.0))
    pdf = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    m1 = a * cdf + pdf
    variance = (a * a + 1.0) * cdf + a * pdf - m1 * m1
    z, step = np.linspace(-a, 12.0, 400_001, retstep=True)
    f = np.abs(a + z - m1) ** 3 * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    rho = (1.0 - cdf) * m1**3 + step * (f.sum() - 0.5 * (f[0] + f[-1]))
    return rho / variance**1.5


def test_moment_floor_meets_the_berry_esseen_bound():
    # the ratio peaks at a = mu / sigma = 0 over a >= 0, and the floor is
    # the first S whose Berry-Esseen bound there is at most 0.2
    peak = clipped_third_moment_ratio(0.0)
    assert peak == pytest.approx(1.985, abs=1e-3)
    assert all(clipped_third_moment_ratio(a) < peak for a in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0))
    bound = BERRY_ESSEEN_C * peak
    assert bound / math.sqrt(_MOMENT_FLOOR) <= 0.2 < bound / math.sqrt(_MOMENT_FLOOR - 1)


@pytest.mark.parametrize("preset", [SMALL_PAIR, LARGE_PAIR], ids=lambda preset: preset.name)
def test_coupled_bins_match_snapshot_oracle(preset):
    # coupled runs: the sampler's own rows, and the same rows with every
    # near-dark mode replaced by the mean of S clipped snapshots; they
    # must quantize alike on at least 99.9 % of rows
    device = preset.carve_pair(fabricate_chip(7, preset.chip_spec()))[0]
    modes = device.layout.mode_count
    rng = np.random.default_rng(3)
    challenges = [Challenge.random(rng, device.layout.mzi_count) for _ in range(200)]
    indices = np.arange(2000).reshape(200, 10)
    stream = NoiseStream((41, 1), modes)
    sampled = measure_batch(device, challenges, stream, indices).reshape(-1, modes)
    ideal = np.repeat(measure_batch(device, challenges, None, np.zeros(200, dtype=int)), 10, axis=0)
    cfg = stream.config
    mean = stream._drift_rows(indices.ravel().tolist()) * ideal
    sigma = np.hypot(cfg.coupling_jitter_sigma * mean, cfg.detector_sigma)
    dark = mean < _one_draw_threshold(cfg.samples_per_response) * sigma
    assert dark.sum() > len(sampled) / 2  # near-dark modes on many rows
    coupled = sampled.copy()
    for row in range(len(sampled)):
        mu, sd = mean[row, dark[row]], sigma[row, dark[row]]
        snapshots = rng.standard_normal((len(mu), cfg.samples_per_response))
        coupled[row, dark[row]] = np.maximum(mu[:, None] + sd[:, None] * snapshots, 0.0).mean(axis=1)
    same = (_quantize_rows(sampled, DEFAULT_BIN_FRACTION)
            == _quantize_rows(coupled, DEFAULT_BIN_FRACTION)).all(axis=1)
    assert same.mean() >= 0.999


noise_configs = st.builds(
    NoiseConfig,
    detector_sigma=st.sampled_from((0.0, 1e-5)) | st.floats(0.0, 0.1),
    coupling_jitter_sigma=st.sampled_from((0.0, 0.14)) | st.floats(0.0, 1.0),
    coupling_drift_step=st.floats(0.0, 0.2),
    # a bound of 1 or more lets the drift factor reach zero or go negative
    coupling_drift_bound=st.floats(0.0, 2.0),
    samples_per_response=st.integers(1, 200),
)
ideal_vectors = st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(ideal=ideal_vectors, cfg=noise_configs, index=st.integers(0, 40))
@example(ideal=[0.0, 1e-7, 0.5], cfg=NoiseConfig(detector_sigma=0.0), index=3)
@example(ideal=[0.0, 1e-7, 0.5],
         cfg=NoiseConfig(detector_sigma=0.0, coupling_jitter_sigma=0.0), index=7)
def test_noisy_means_are_finite_and_non_negative(ideal, cfg, index):
    ideal = np.array(ideal)
    stream = NoiseStream(index, len(ideal), cfg)
    out = noisy_mean(ideal, stream, index)
    assert out.shape == ideal.shape
    assert np.isfinite(out).all() and (out >= 0.0).all()
    if cfg.detector_sigma == 0.0:
        assert (out[ideal == 0.0] == 0.0).all()
    if cfg.detector_sigma == 0.0 and cfg.coupling_jitter_sigma == 0.0:
        assert np.array_equal(out, np.maximum(stream.drift_factors(index) * ideal, 0.0))
