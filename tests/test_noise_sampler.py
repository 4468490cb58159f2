"""The noise sampler against the snapshot oracle it replaced.

reference_noisy_mean below draws every snapshot's jitter and detector noise,
2 * S * modes normals per measurement, and is the definition of the noise
model.  The sampler in fabrication draws one normal per mode where clipping
is negligible and S snapshots per mode elsewhere, so the two agree in
distribution, not bit for bit: the tests compare them with seeded two-sample
Kolmogorov-Smirnov tests.  Each test is deterministic; the Bonferroni level
only bounds how likely it was to pick seeds that fail on a correct sampler.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzipuf.fabrication import (
    LARGE_PAIR,
    Challenge,
    NoiseConfig,
    NoiseStream,
    _CLIP_BOUND,
    _noisy_block,
    _one_draw_threshold,
    fabricate_chip,
    measure_batch,
)
from mzipuf.metrics import euclidean_distance, quantize

SAMPLE_COUNTS = (1, 40, 1000)
DRAWS = 1000
# 5 mode positions at each of 3 sample counts, plus the quantized-bin test
KS_LEVEL = 1e-3 / (5 * len(SAMPLE_COUNTS) + 1)


def reference_noisy_mean(ideal, noise, index):
    """Mean of S snapshots clip(drift * (1 + jitter) * ideal + detector, 0)."""
    cfg = noise.config
    rng = noise.measurement_rng(index)
    drift = noise.drift_factors(index)
    shape = (cfg.samples_per_response, noise.mode_count)
    jitter = rng.normal(0.0, cfg.coupling_jitter_sigma, shape)
    detector = rng.normal(0.0, cfg.detector_sigma, shape)
    return np.clip(drift * (1.0 + jitter) * ideal + detector, 0.0, None).mean(axis=0)


def noisy_mean(ideal, noise, index):
    """One measurement of an ideal vector: the block sampler on one row."""
    out = np.array([ideal], dtype=float)
    _noisy_block(noise.config, [noise.measurement_rng(index)], noise._drift_rows([index]), out)
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
    # one-draw threshold, and bright
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
