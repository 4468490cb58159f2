"""Unit tests for fabrication randomness, carving, and noisy measurement."""

import json

import numpy as np
import pytest

from mzipuf import fabrication
from mzipuf.fabrication import (
    COUPLER_SIGMA,
    GROUND_LOOP_SCALE,
    HEATER_SIGMA,
    LARGE_PAIR,
    PAIR_PRESETS,
    SMALL_PAIR,
    V2PI_NOMINAL,
    Challenge,
    ChipLayoutSpec,
    DeviceInstance,
    NoiseConfig,
    NoiseStream,
    carve_device,
    chain_adjacency,
    effective_voltages,
    fabricate_chip,
    load_chip,
    load_device,
    measure,
    preset_by_name,
    save_chip,
    save_device,
    shared_mzi_count,
    voltages_to_phases,
)
from mzipuf.mesh import TWO_PI, propagate


def small_chip(seed=100, **overrides):
    return fabricate_chip(seed, ChipLayoutSpec(mzi_count=20, **overrides))


def test_constants():
    assert V2PI_NOMINAL == 7.0
    assert HEATER_SIGMA == 0.1543
    assert COUPLER_SIGMA == 0.02
    assert GROUND_LOOP_SCALE == pytest.approx(10.0 ** (-45.0 / 20.0))
    # leakage of a full-scale 7 V drive is about 39 mV
    assert 7.0 * GROUND_LOOP_SCALE == pytest.approx(0.03937, abs=5e-4)


def test_chain_adjacency():
    assert chain_adjacency(4) == ((0, 1), (1, 2), (2, 3))
    assert chain_adjacency(1) == ()


def test_layout_spec_validation():
    assert ChipLayoutSpec(mzi_count=3).adjacency == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        ChipLayoutSpec(mzi_count=0)
    with pytest.raises(ValueError):
        ChipLayoutSpec(mzi_count=3, adjacency=((0, 0),))
    with pytest.raises(ValueError):
        ChipLayoutSpec(mzi_count=3, adjacency=((0, 3),))


def test_fabrication_deterministic():
    a = small_chip(seed=42)
    b = small_chip(seed=42)
    assert a == b
    assert a.digest() == b.digest()
    assert a.digest() != small_chip(seed=43).digest()


def test_fabrication_digest_covers_layout():
    a = small_chip(seed=42)
    b = fabricate_chip(42, ChipLayoutSpec(mzi_count=20, phase_offset_span=0.0))
    assert a.digest() != b.digest()


def test_fabrication_distributions():
    chip = fabricate_chip(7, ChipLayoutSpec(mzi_count=5000))
    factors = np.array([h.resistance_factor for h in chip.heaters])
    assert np.all(factors >= 0.05)
    assert abs(factors.mean() - 1.0) < 0.01
    assert abs(factors.std() - HEATER_SIGMA) < 0.01
    for h in chip.heaters:
        assert h.v2pi == pytest.approx(V2PI_NOMINAL * np.sqrt(h.resistance_factor))
        assert 0.0 <= h.phase_offset < TWO_PI
    offsets = np.array([h.phase_offset for h in chip.heaters])
    assert abs(offsets.mean() - np.pi) < 0.15
    etas = np.array([[c.eta1, c.eta2] for c in chip.couplers])
    assert np.all((etas >= 0.01) & (etas <= 0.99))
    assert abs(etas.mean() - 0.5) < 0.005
    assert abs(etas.std() - COUPLER_SIGMA) < 0.005
    loops = np.array([c for _, _, c in chip.ground_loops])
    assert loops.shape == (4999,)
    assert abs(loops.mean() - GROUND_LOOP_SCALE) < 2e-4
    assert np.all(np.abs(loops) <= 10.0 * GROUND_LOOP_SCALE)


def test_calibrated_chip_has_no_static_phase():
    chip = small_chip(phase_offset_span=0.0)
    assert all(h.phase_offset == 0.0 for h in chip.heaters)


def test_chip_save_load_round_trip(tmp_path):
    chip = small_chip(seed=55)
    path = tmp_path / "chip.json"
    save_chip(chip, path)
    loaded = load_chip(path)
    assert loaded == chip
    assert loaded.digest() == chip.digest()


def test_load_chip_rejects_wrong_format(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps({"format": "something-else/9"}))
    with pytest.raises(ValueError):
        load_chip(path)
    path.write_text("[]")
    with pytest.raises(ValueError, match="format=None"):
        load_chip(path)

    save_chip(small_chip(), path)
    payload = json.loads(path.read_text())
    del payload["layout"]["heater_sigma"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="ChipLayoutSpec.heater_sigma is missing"):
        load_chip(path)
    payload["couplers"][3] = [0.5]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="eta1, eta2"):
        load_chip(path)


def test_carve_validation():
    chip = small_chip()
    with pytest.raises(ValueError):
        carve_device(chip, 4, tuple(range(9)))        # wrong slot count
    with pytest.raises(ValueError):
        carve_device(chip, 4, (0,) * 10)              # duplicate sites
    with pytest.raises(ValueError):
        carve_device(chip, 4, tuple(range(11, 21)))   # id 20 off chip


def test_carve_local_ground_loops_follow_slot_map():
    chip = fabricate_chip(3, ChipLayoutSpec(mzi_count=12))
    scattered = carve_device(chip, 3, (0, 2, 4, 6, 8, 10))
    assert scattered.local_ground_loops == ()
    reversed_map = carve_device(chip, 3, (5, 4, 3, 2, 1, 0))
    by_globals = {(a, b): c for a, b, c in chip.ground_loops}
    expected = tuple(
        (5 - a, 5 - b, by_globals[(a, b)]) for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))
    )
    assert reversed_map.local_ground_loops == expected


def test_device_heater_and_coupler_lookup():
    chip = small_chip()
    device = carve_device(chip, 4, tuple(range(10, 20)))
    assert device.heater(0) == chip.heaters[10]
    assert device.slot_couplers() == chip.couplers[10:20]


def test_descriptor_digest_distinguishes_carvings():
    chip = small_chip()
    a = carve_device(chip, 4, tuple(range(10)))
    b = carve_device(chip, 4, tuple(range(10, 20)))
    assert a.descriptor_digest() != b.descriptor_digest()
    assert a.descriptor_digest() == carve_device(chip, 4, tuple(range(10))).descriptor_digest()


def test_device_save_load_round_trip(tmp_path):
    chip = small_chip(seed=91)
    device = carve_device(chip, 4, tuple(range(10)))
    path = tmp_path / "device.json"
    save_device(device, path)
    loaded = load_device(path, chip)
    assert isinstance(loaded, DeviceInstance)
    assert loaded.slot_to_global == device.slot_to_global
    assert loaded.descriptor_digest() == device.descriptor_digest()
    with pytest.raises(ValueError):
        load_device(path, small_chip(seed=92))


BAD_DEVICE_FILES = {
    "null-columns": (lambda p: {**p, "columns": None}, "_DeviceFile.columns"),
    "null-slots": (lambda p: {**p, "slots": None}, "_DeviceFile.slots"),
    "no-chip-digest": (lambda p: {k: v for k, v in p.items() if k != "chip_digest"},
                       "_DeviceFile.chip_digest is missing"),
    "list": (lambda p: [p], "not a device descriptor: format=None"),
}


@pytest.mark.parametrize("edit, message", BAD_DEVICE_FILES.values(), ids=BAD_DEVICE_FILES)
def test_load_device_rejects_bad_descriptors(tmp_path, edit, message):
    chip = small_chip(seed=91)
    path = tmp_path / "device.json"
    save_device(carve_device(chip, 4, tuple(range(10))), path)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=message):
        load_device(path, chip)


def test_chip_digest_is_computed_once(monkeypatch):
    chip = small_chip()
    first = chip.digest()
    assert first == small_chip().digest()

    def no_payload(chip):
        raise AssertionError("digest() encoded the chip again")

    monkeypatch.setattr(fabrication, "_chip_payload", no_payload)
    assert chip.digest() == first


def test_shared_mzi_count():
    chip = small_chip()
    a = carve_device(chip, 4, tuple(range(10)))
    b = carve_device(chip, 4, tuple(range(10, 20)))
    c = carve_device(chip, 4, tuple(range(5, 15)))
    assert shared_mzi_count(a, b) == 0
    assert shared_mzi_count(a, c) == 5
    other = fabricate_chip(999, ChipLayoutSpec(mzi_count=20))
    assert shared_mzi_count(a, carve_device(other, 4, tuple(range(10)))) == 0


def test_challenge_validation_and_voltages():
    ch = Challenge(levels=(0, 512, 1023))
    assert ch.voltages == pytest.approx([0.0, 512 * 7.0 / 1024, 1023 * 7.0 / 1024])
    with pytest.raises(ValueError):
        Challenge(levels=(1024,))
    with pytest.raises(ValueError):
        Challenge(levels=(-1,))
    with pytest.raises(ValueError):
        Challenge(levels=(1,), bits=0)
    assert Challenge(levels=(3,), bits=2).voltages == pytest.approx([3 * 7.0 / 4])


def test_challenge_digest_and_random():
    ch = Challenge(levels=(1, 2, 3))
    assert ch.digest() == Challenge(levels=(1, 2, 3)).digest()
    assert ch.digest() != Challenge(levels=(1, 2, 4)).digest()
    r1 = Challenge.random(np.random.default_rng(5), mzi_count=10)
    r2 = Challenge.random(np.random.default_rng(5), mzi_count=10)
    assert r1 == r2
    assert len(r1.levels) == 10
    assert all(0 <= q < 1024 for q in r1.levels)


def test_challenge_from_voltages_round_trip():
    ch = Challenge(levels=(0, 17, 512, 1023))
    assert Challenge.from_voltages(ch.voltages) == ch
    with pytest.raises(ValueError):
        Challenge.from_voltages([0.003])


def test_effective_voltages_symmetric_leakage():
    chip = fabricate_chip(11, ChipLayoutSpec(mzi_count=12))
    device = carve_device(chip, 3, tuple(range(6)))
    v = np.zeros(6)
    v[3] = 7.0
    v_eff = effective_voltages(device, v)
    loops = {(a, b): c for a, b, c in device.local_ground_loops}
    assert v_eff[2] == pytest.approx(loops[(2, 3)] * 7.0)
    assert v_eff[4] == pytest.approx(loops[(3, 4)] * 7.0)
    assert v_eff[3] == pytest.approx(7.0)
    assert v_eff[0] == v_eff[5] == 0.0


def test_effective_voltages_matrix_oracle():
    chip = small_chip(seed=21)
    device = carve_device(chip, 4, tuple(range(10)))
    coupling = np.eye(10)
    for a, b, c in device.local_ground_loops:
        coupling[a, b] += c
        coupling[b, a] += c
    rng = np.random.default_rng(2)
    for _ in range(20):
        v = rng.uniform(0, 7, 10)
        assert np.allclose(effective_voltages(device, v), coupling @ v, atol=1e-12)
    with pytest.raises(ValueError):
        effective_voltages(device, np.zeros(9))


def test_leakage_stays_within_device():
    # chip chain couples sites 9 and 10, but they belong to different devices
    chip = small_chip(seed=33)
    a = carve_device(chip, 4, tuple(range(10)))
    for sa, sb, _ in a.local_ground_loops:
        assert 0 <= sa < 10 and 0 <= sb < 10
    b = carve_device(chip, 4, tuple(range(10, 20)))
    assert effective_voltages(b, np.zeros(10)) == pytest.approx(np.zeros(10))


def test_phase_law_against_direct_formula():
    chip = small_chip(seed=77)
    device = carve_device(chip, 4, tuple(range(10)))
    ch = Challenge.random(np.random.default_rng(8), mzi_count=10)
    v_eff = effective_voltages(device, ch.voltages)
    settings = voltages_to_phases(device, ch)
    for slot, s in enumerate(settings):
        h = device.heater(slot)
        expected = (h.phase_offset + TWO_PI * (v_eff[slot] / h.v2pi) ** 2) % TWO_PI
        assert s.theta == pytest.approx(expected, abs=1e-12)
        assert s.phi == 0.0


def test_zero_drive_calibrated_device_is_all_cross():
    chip = fabricate_chip(5, ChipLayoutSpec(mzi_count=3, phase_offset_span=0.0))
    device = carve_device(chip, 2, (0, 1, 2))
    settings = voltages_to_phases(device, Challenge(levels=(0, 0, 0)))
    assert all(s.theta == 0.0 for s in settings)
    out = propagate(device.layout, settings, device.slot_couplers())
    # couplers deviate from 50:50, so routing is only approximately complete
    assert out[3] > 0.98


def test_full_scale_drive_wraps_by_its_own_v2pi():
    chip = fabricate_chip(13, ChipLayoutSpec(mzi_count=1, phase_offset_span=0.0))
    device = carve_device(chip, 1, (0,))
    v2pi = device.heater(0).v2pi
    zero = voltages_to_phases(device, np.array([0.0]))[0].theta
    full = voltages_to_phases(device, np.array([v2pi]))[0].theta
    assert zero == pytest.approx(0.0, abs=1e-12)
    assert full == pytest.approx(0.0, abs=1e-12)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(samples_per_response=0)
    with pytest.raises(ValueError):
        NoiseConfig(detector_sigma=-1.0)
    assert NoiseConfig.disabled().enabled is False
    assert NoiseConfig.quiet().coupling_drift_step == 0.0


def test_measure_noise_free_matches_propagation():
    chip = small_chip(seed=61)
    device = carve_device(chip, 4, tuple(range(10)))
    ch = Challenge.random(np.random.default_rng(4), mzi_count=10)
    ideal = propagate(device.layout, voltages_to_phases(device, ch), device.slot_couplers())
    rec = measure(device, ch)
    assert np.array_equal(rec.intensities, ideal)
    assert rec.total_power == pytest.approx(1.0, abs=1e-9)
    disabled = NoiseStream((1, 2), device.layout.mode_count, NoiseConfig.disabled())
    assert np.array_equal(measure(device, ch, disabled).intensities, ideal)


def test_measure_records_index():
    chip = small_chip(seed=61)
    device = carve_device(chip, 4, tuple(range(10)))
    ch = Challenge(levels=(0,) * 10)
    assert measure(device, ch, measurement_index=7).measurement_index == 7


def test_measure_rejects_mismatched_stream():
    chip = small_chip(seed=61)
    device = carve_device(chip, 4, tuple(range(10)))
    stream = NoiseStream(1, mode_count=4)
    with pytest.raises(ValueError):
        measure(device, Challenge(levels=(0,) * 10), stream)


def test_noise_replay_is_deterministic():
    chip = small_chip(seed=61)
    device = carve_device(chip, 4, tuple(range(10)))
    ch = Challenge.random(np.random.default_rng(14), mzi_count=10)
    cfg = NoiseConfig(samples_per_response=50)
    a = measure(device, ch, NoiseStream((9, 1), 8, cfg), measurement_index=3)
    b = measure(device, ch, NoiseStream((9, 1), 8, cfg), measurement_index=3)
    assert np.array_equal(a.intensities, b.intensities)
    c = measure(device, ch, NoiseStream((9, 1), 8, cfg), measurement_index=4)
    assert not np.array_equal(a.intensities, c.intensities)
    d = measure(device, ch, NoiseStream((9, 2), 8, cfg), measurement_index=3)
    assert not np.array_equal(a.intensities, d.intensities)


def test_drift_walk_out_of_order_queries_agree():
    s1 = NoiseStream(77, mode_count=8)
    s2 = NoiseStream(77, mode_count=8)
    late_first = s1.drift_factors(40).copy()
    early_first = s2.drift_factors(3).copy()
    assert np.array_equal(s1.drift_factors(3), early_first)
    assert np.array_equal(s2.drift_factors(40), late_first)
    with pytest.raises(ValueError):
        s1.drift_factors(-1)


def test_drift_walk_stays_bounded():
    cfg = NoiseConfig()
    stream = NoiseStream(123, mode_count=8, config=cfg)
    for idx in range(0, 2000, 97):
        drift = stream.drift_factors(idx)
        assert np.all(np.abs(drift - 1.0) <= cfg.coupling_drift_bound + 1e-12)


def test_zero_drift_step_freezes_coupling():
    stream = NoiseStream(5, mode_count=4, config=NoiseConfig.quiet())
    assert np.array_equal(stream.drift_factors(100), np.ones(4))


def test_per_sample_jitter_scale():
    # frozen drift, one sample per response: relative std of a bright mode
    # across measurement indices approaches the jitter sigma
    chip = fabricate_chip(19, ChipLayoutSpec(mzi_count=1, phase_offset_span=0.0))
    device = carve_device(chip, 1, (0,))
    ch = Challenge(levels=(512,))
    cfg = NoiseConfig(samples_per_response=1, coupling_drift_step=0.0, detector_sigma=0.0)
    stream = NoiseStream(40, mode_count=2, config=cfg)
    ideal = propagate(device.layout, voltages_to_phases(device, ch), device.slot_couplers())
    bright = int(np.argmax(ideal))
    samples = np.array(
        [measure(device, ch, stream, measurement_index=i).intensities[bright]
         for i in range(4000)]
    )
    relative = samples.std() / ideal[bright]
    assert 0.12 < relative < 0.16


def test_sample_averaging_shrinks_noise():
    chip = fabricate_chip(19, ChipLayoutSpec(mzi_count=1, phase_offset_span=0.0))
    device = carve_device(chip, 1, (0,))
    ch = Challenge(levels=(512,))
    cfg = NoiseConfig(samples_per_response=1000, coupling_drift_step=0.0, detector_sigma=0.0)
    stream = NoiseStream(41, mode_count=2, config=cfg)
    ideal = propagate(device.layout, voltages_to_phases(device, ch), device.slot_couplers())
    bright = int(np.argmax(ideal))
    samples = np.array(
        [measure(device, ch, stream, measurement_index=i).intensities[bright]
         for i in range(100)]
    )
    relative = samples.std() / ideal[bright]
    # roughly 0.14 / sqrt(1000), loose upper bound
    assert relative < 0.02


def test_dark_channel_sees_clipped_detector_noise():
    # all-cross calibrated two-column mesh leaves modes 0..2 ideally dark;
    # with multiplicative noise only, darkness would be exact, so any
    # residual is the clipped detector term with mean sigma / sqrt(2 pi)
    chip = fabricate_chip(5, ChipLayoutSpec(mzi_count=3, phase_offset_span=0.0))
    device = carve_device(chip, 2, (0, 1, 2))
    ch = Challenge(levels=(0, 0, 0))
    ideal = propagate(device.layout, voltages_to_phases(device, ch), device.slot_couplers())
    dark = int(np.argmin(ideal))
    assert ideal[dark] < 1e-6
    cfg = NoiseConfig()
    stream = NoiseStream(300, mode_count=4, config=cfg)
    rec = measure(device, ch, stream)
    expected = cfg.detector_sigma / np.sqrt(2.0 * np.pi)
    measured = rec.intensities[dark] - ideal[dark]
    assert measured == pytest.approx(expected, rel=0.3)


def test_distinct_chips_answer_distinctly():
    # same carving, same challenges, different fabrication seeds: outputs
    # should differ visibly on nearly every challenge
    spec = ChipLayoutSpec(mzi_count=10)
    dev_a = carve_device(fabricate_chip(501, spec), 4, tuple(range(10)))
    dev_b = carve_device(fabricate_chip(502, spec), 4, tuple(range(10)))
    rng = np.random.default_rng(6)
    separated = 0
    trials = 300
    for _ in range(trials):
        ch = Challenge.random(rng, mzi_count=10)
        ia = measure(dev_a, ch).intensities
        ib = measure(dev_b, ch).intensities
        if np.max(np.abs(ia - ib)) > 1e-3:
            separated += 1
    assert separated >= 0.99 * trials


def test_pair_presets():
    assert set(PAIR_PRESETS) == {"small-pair", "large-pair"}
    assert preset_by_name("small-pair") is SMALL_PAIR
    with pytest.raises(ValueError):
        preset_by_name("no-such-pair")

    chip = fabricate_chip(1234, SMALL_PAIR.chip_spec())
    a, b = SMALL_PAIR.carve_pair(chip)
    assert shared_mzi_count(a, b) == 0
    assert a.layout.columns == b.layout.columns == 4

    big = fabricate_chip(1234, LARGE_PAIR.chip_spec())
    c, d = LARGE_PAIR.carve_pair(big)
    assert shared_mzi_count(c, d) == 45
    assert c.layout.columns == 11
    # shared sites occupy the last five columns (slots 21..65) of both
    assert c.slot_to_global[21:] == d.slot_to_global[21:] == tuple(range(45))
    assert set(c.slot_to_global[:21]).isdisjoint(d.slot_to_global[:21])
    for slot in range(21, 66):
        assert c.heater(slot) == d.heater(slot)


def test_preset_spec_overrides():
    spec = SMALL_PAIR.chip_spec(phase_offset_span=0.0)
    assert spec.phase_offset_span == 0.0
    assert spec.mzi_count == SMALL_PAIR.chip_mzi_count
