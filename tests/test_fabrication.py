"""Unit tests for fabrication randomness, carving, and noisy measurement."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzipuf import fabrication
from mzipuf._codec import canonical_digest
from mzipuf.fabrication import (
    COUPLER_SIGMA,
    GROUND_LOOP_SCALE,
    HEATER_SIGMA,
    LARGE_PAIR,
    PAIR_PRESETS,
    SMALL_PAIR,
    V2PI_NOMINAL,
    _MAX_BITS,
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
    measure_batch,
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


@pytest.mark.parametrize("field, value", [
    ("v2pi_nominal", 0.0), ("v2pi_nominal", -5.0), ("v2pi_nominal", np.inf),
    ("v2pi_nominal", np.nan), ("heater_sigma", -0.1), ("heater_sigma", np.nan),
    ("coupler_sigma", np.inf), ("ground_loop_scale", -np.inf),
    # numpy's uniform draw would raise OverflowError or "high - low < 0" for these
    ("phase_offset_span", -1.0), ("phase_offset_span", np.inf), ("phase_offset_span", np.nan),
])
def test_layout_spec_rejects_non_physical_values(field, value):
    bound = "> 0" if field == "v2pi_nominal" else ">= 0"
    with pytest.raises(ValueError, match=re.escape(f"{field} must be finite and {bound}, got ")):
        ChipLayoutSpec(mzi_count=3, **{field: value})
    ChipLayoutSpec(mzi_count=3, heater_sigma=0.0, coupler_sigma=0.0, ground_loop_scale=0.0)


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


def test_save_chip_failing_over_an_existing_file_keeps_it(tmp_path, monkeypatch):
    path = tmp_path / "chip.json"
    save_chip(small_chip(seed=55), path)
    before = path.read_bytes()

    def failing_replace(*args):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        save_chip(small_chip(seed=56), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["chip.json"]


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
    path.write_text(json.dumps({**payload, "layout": {**payload["layout"],
                                                      "heater_sigma": 0.05,
                                                      "v2pi_nominal": float("inf")}}))
    assert '"v2pi_nominal": Infinity' in path.read_text()
    with pytest.raises(ValueError, match="v2pi_nominal must be finite and > 0, got inf"):
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
    with pytest.raises(ValueError, match="expected an integer, got 0.9"):
        carve_device(chip, 4, [0.9, *range(1, 9), 9.7])  # not truncated to 0..9


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
    with pytest.raises(ValueError, match=re.escape("expected an integer, got 1.5")):
        Challenge(levels=(1.5, 2))
    assert Challenge(levels=(1.0, 2)).levels == (1, 2)
    assert np.isfinite(Challenge(levels=(2**51 - 1,), bits=51).voltages).all()


@pytest.mark.parametrize("value", [0.0, -1.0, -7.0, np.inf, np.nan])
def test_challenge_rejects_a_non_physical_v2pi(value):
    # an infinite V_2pi would give NaN intensities that only quantize refuses
    message = re.escape(f"v2pi_nominal must be finite and > 0, got {value}")
    with pytest.raises(ValueError, match=message):
        Challenge(levels=(1,) * 10, v2pi_nominal=value)
    with pytest.raises(ValueError, match=message):
        Challenge.random(np.random.default_rng(0), 10, v2pi_nominal=value)


@pytest.mark.parametrize("bits", [1100, 54, 52, 2.5, True])
def test_challenge_refuses_bits_off_the_exact_float_grid(bits):
    # from 52 bits round(v / step) cannot always recover a level, a level of
    # 54 or more bits is not an exact float64, and float(2**1100) overflows
    message = (f"bits must be <= 51, got {bits}" if type(bits) is int
               else f"bits must be an integer, got {bits!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Challenge(levels=(1,), bits=bits)


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(1, _MAX_BITS), v2pi=st.floats(1e-3, 1e6),
       top_bits=st.lists(st.integers(0, 2**_MAX_BITS - 1), min_size=1, max_size=40))
@example(bits=24, v2pi=7.3, top_bits=[10686443 << (_MAX_BITS - 24)])
def test_challenge_voltages_round_trip_on_every_grid(bits, v2pi, top_bits):
    # a level's voltage is rounded, so q * step / step can miss q by more
    # than any fixed tolerance in level units on the wider grids
    levels = [q >> (_MAX_BITS - bits) for q in top_bits]
    challenge = Challenge(levels=levels, bits=bits, v2pi_nominal=v2pi)
    step = v2pi / float(2**bits)
    assert [round(v / step) for v in challenge.voltages] == list(challenge.levels)


def test_challenge_digest_and_random():
    ch = Challenge(levels=(1, 2, 3))
    assert ch.digest() == Challenge(levels=(1, 2, 3)).digest()
    assert ch.digest() != Challenge(levels=(1, 2, 4)).digest()
    r1 = Challenge.random(np.random.default_rng(5), mzi_count=10)
    r2 = Challenge.random(np.random.default_rng(5), mzi_count=10)
    assert r1 == r2
    assert len(r1.levels) == 10
    assert all(0 <= q < 1024 for q in r1.levels)
    # one integer draw per challenge, so a challenge set replays draw by draw
    rng, replay = np.random.default_rng(6), np.random.default_rng(6)
    for mzi_count in (1, 10, 66):
        levels = Challenge.random(rng, mzi_count, bits=6).levels
        assert levels == tuple(int(q) for q in replay.integers(0, 2**6, size=mzi_count))
        assert all(type(q) is int for q in levels)


@settings(max_examples=80, deadline=None)
@given(bits=st.integers(1, 32), mzi_count=st.sampled_from((1, 3, 7, 10, 66)) | st.integers(1, 80),
       count=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_random_levels_equal_one_draw_per_challenge(bits, mzi_count, count, seed):
    # one (count, MZIs) draw gives the levels, and leaves the generator in
    # the state, of count Challenge.random calls in a row
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    levels = fabrication._random_levels(rng, count, mzi_count, bits)
    challenges = [Challenge.random(replay, mzi_count, bits, 5.0) for _ in range(count)]
    assert [tuple(row) for row in levels.tolist()] == [c.levels for c in challenges]
    assert all(c.bits == bits and c.v2pi_nominal == 5.0 for c in challenges)
    assert rng.bit_generator.state == replay.bit_generator.state


def reference_level_check(levels, bits):
    """The per-level loop Challenge ran before its min/max check."""
    top = 2**bits
    for q in levels:
        if not 0 <= q < top:
            return f"level {q} outside [0, {top})"
    return None


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(1, 12), levels=st.lists(st.integers(-5, 5000), max_size=12))
def test_challenge_range_error_names_the_first_offender(bits, levels):
    expected = reference_level_check(levels, bits)
    if expected is None:
        assert Challenge(levels=levels, bits=bits).levels == tuple(levels)
    else:
        with pytest.raises(ValueError) as raised:
            Challenge(levels=levels, bits=bits)
        assert str(raised.value) == expected


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(1, _MAX_BITS), v2pi=st.floats(1e-3, 1e16) | st.integers(1, 10**6),
       columns=st.integers(0, 12), data=st.data())
@example(bits=10, v2pi=V2PI_NOMINAL, columns=10, data=None)
@example(bits=51, v2pi=1e16, columns=3, data=None)
@example(bits=11, v2pi=V2PI_NOMINAL, columns=4, data=None)  # the first grid past _LEVEL_TEXTS
def test_level_digests_are_the_canonical_digest_of_each_row(bits, v2pi, columns, data):
    # v2pi's repr switches to exponent form from 1e16, and an int v2pi is
    # written without a point: both come from json, as in canonical_digest
    if data is None:  # the 0-row and the 1-row matrix
        matrices = [np.zeros((0, columns), dtype=np.int64),
                    np.full((1, columns), 2**bits - 1, dtype=np.int64)]
    else:
        top_bits = st.lists(st.integers(0, 2**_MAX_BITS - 1), min_size=columns, max_size=columns)
        rows = data.draw(st.lists(top_bits, max_size=5))
        matrices = [np.array(rows, dtype=np.int64).reshape(len(rows), columns) >> (_MAX_BITS - bits)]
    for levels in matrices:
        digests = fabrication._level_digests(levels, bits, v2pi)
        rows = levels.tolist()
        assert digests == [canonical_digest({"levels": row, "bits": bits, "v2pi": v2pi})
                           for row in rows]
        for i, row in enumerate(rows):
            assert Challenge(levels=row, bits=bits, v2pi_nominal=v2pi).digest() == digests[i]
            assert fabrication._level_digests(levels[i:i + 1], bits, v2pi) == [digests[i]]


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(1, 12),
       rows=st.lists(st.lists(st.integers(-5, 5000), min_size=3, max_size=3), max_size=5))
@example(bits=51, rows=[[0, 2**51 - 1, 1], [3, 2**51, -1]])
def test_level_digests_refuse_a_matrix_off_the_grid_as_challenge_does(bits, rows):
    levels = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
    errors = [reference_level_check(row, bits) for row in rows]
    expected = next((error for error in errors if error is not None), None)
    if expected is None:
        assert len(fabrication._level_digests(levels, bits)) == len(rows)
        return
    with pytest.raises(ValueError) as raised:
        fabrication._level_digests(levels, bits)
    assert str(raised.value) == expected
    with pytest.raises(ValueError) as raised:  # the first bad row, as a Challenge
        Challenge(levels=rows[errors.index(expected)], bits=bits)
    assert str(raised.value) == expected


@settings(max_examples=80, deadline=None)
@given(bits=st.integers(1, _MAX_BITS), v2pi=st.floats(1e-3, 1e16),
       mzi_count=st.sampled_from((1, 10, 66)) | st.integers(1, 80),
       count=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(bits=10, v2pi=V2PI_NOMINAL, mzi_count=10, count=2000, seed=99)
def test_level_voltages_equal_the_drive_voltages_of_the_challenges(bits, v2pi, mzi_count,
                                                                     count, seed):
    # what enroll and run_pair_experiment drive measure_batch with, against
    # the Challenges Challenge.random draws from the same generator state
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    volts = fabrication._level_voltages(
        fabrication._random_levels(rng, count, mzi_count, bits), bits, v2pi
    )
    challenges = [Challenge.random(replay, mzi_count, bits, v2pi) for _ in range(count)]
    assert np.array_equal(volts, fabrication._drive_voltages(challenges))
    assert rng.bit_generator.state == replay.bit_generator.state


def test_drive_voltages_of_mixed_grid_challenges_stack_their_voltages():
    rng = np.random.default_rng(17)
    challenges = [Challenge.random(rng, 6, bits, v2pi)
                  for bits, v2pi in ((10, V2PI_NOMINAL), (3, 5.5), (51, 1e16), (1, 0.25))]
    volts = fabrication._drive_voltages(challenges)
    assert volts.shape == (4, 6)
    for row, c in zip(volts, challenges):
        assert np.array_equal(row, c.voltages)
        # a level q drives q * v2pi_nominal / 2**bits
        assert row.tolist() == [q * (c.v2pi_nominal / 2.0**c.bits) for q in c.levels]


@pytest.mark.parametrize("order, position, kind, first", [
    ((0, 1, 1), 1, "voltage vector", "Challenge"),
    ((1, 1, 0), 2, "Challenge", "voltage vector"),
], ids=["challenge-first", "vector-first"])
def test_a_batch_mixing_challenges_and_voltage_vectors_is_refused(order, position, kind, first):
    device = carve_device(small_chip(seed=61), 4, tuple(range(10)))
    challenge = Challenge.random(np.random.default_rng(3), 10)
    batch = [(challenge, np.zeros(10))[k] for k in order]
    message = (f"^challenges mix Challenges and voltage vectors: "
               f"element {position} is a {kind}, element 0 a {first}$")
    with pytest.raises(ValueError, match=message):
        voltages_to_phases(device, batch)
    with pytest.raises(ValueError, match=message):
        measure_batch(device, batch, None, np.arange(len(batch)))
    with pytest.raises(ValueError, match=message):
        measure_batch(device, batch, NoiseStream(1, mode_count=8), np.arange(len(batch)))


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
    with pytest.raises(ValueError, match="samples_per_response must be >= 1"):
        NoiseConfig(samples_per_response=0)
    for samples in (2.5, np.nan, 2.0, True):
        with pytest.raises(ValueError, match="samples_per_response must be an integer"):
            NoiseConfig(samples_per_response=samples)
    with pytest.raises(ValueError):
        NoiseConfig(detector_sigma=-1.0)
    assert NoiseConfig.disabled().enabled is False
    assert NoiseConfig(detector_sigma=0.0, coupling_drift_bound=0.0).enabled


@pytest.mark.parametrize("field", ["detector_sigma", "coupling_jitter_sigma",
                                   "coupling_drift_step", "coupling_drift_bound"])
@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_noise_config_rejects_negative_and_non_finite_values(field, value):
    message = f"{field} must be finite and >= 0, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        NoiseConfig(**{field: value})


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


@pytest.mark.parametrize("index", [2.7, 2.0, np.float64(3.0), True])
@pytest.mark.parametrize("noisy", [False, True])
def test_measure_rejects_non_integer_index(index, noisy):
    device = carve_device(small_chip(seed=61), 4, tuple(range(10)))
    stream = NoiseStream(1, mode_count=8) if noisy else None
    message = f"measurement indices must be integers, got dtype {np.asarray([index]).dtype}"
    with pytest.raises(ValueError, match=message):
        measure(device, Challenge(levels=(0,) * 10), stream, index)


@pytest.mark.parametrize("indices", [
    np.array([0.0, 1.0, 2.5]), np.array([[0.0, 1.0]] * 3), np.array([True, False, True]),
])
@pytest.mark.parametrize("noisy", [False, True])
def test_measure_batch_rejects_non_integer_indices(indices, noisy):
    device = carve_device(small_chip(seed=61), 4, tuple(range(10)))
    stream = NoiseStream(1, mode_count=8) if noisy else None
    challenges = [Challenge(levels=(q,) * 10) for q in (0, 5, 9)]
    with pytest.raises(ValueError, match=f"got dtype {indices.dtype}"):
        measure_batch(device, challenges, stream, indices)
    for dtype in (np.int32, np.uint16):  # integer indices of any width measure alike
        assert np.array_equal(
            measure_batch(device, challenges, stream, indices.astype(dtype)),
            measure_batch(device, challenges, stream, indices.astype(np.int64)),
        )


@pytest.mark.parametrize("indices", [np.arange(2), np.array(0), np.zeros((3, 1, 1), dtype=int)],
                         ids=["short", "0-d", "3-d"])
@pytest.mark.parametrize("noisy", [False, True])
def test_measure_batch_rejects_indices_of_the_wrong_shape(indices, noisy):
    device = carve_device(small_chip(seed=61), 4, tuple(range(10)))
    stream = NoiseStream(1, mode_count=8) if noisy else None
    challenges = [Challenge(levels=(q,) * 10) for q in (0, 5, 9)]
    message = ("3 challenges need indices of shape (N,) or (N, R) with N = 3, "
               f"got shape {indices.shape}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        measure_batch(device, challenges, stream, indices)


def test_noise_stream_needs_a_mode():
    with pytest.raises(ValueError, match="^mode_count must be >= 1, got 0$"):
        NoiseStream(1, mode_count=0)


@pytest.mark.parametrize("noisy", [False, True])
def test_negative_indices_are_rejected_before_any_work(noisy, monkeypatch):
    device = carve_device(small_chip(seed=61), 4, tuple(range(10)))
    stream = NoiseStream(1, mode_count=8) if noisy else None
    challenges = [Challenge(levels=(q,) * 10) for q in (0, 5, 9)]

    def forbidden(*args):
        raise AssertionError("work done before the index check")

    monkeypatch.setattr(fabrication, "propagate", forbidden)
    monkeypatch.setattr(NoiseStream, "_normals", forbidden)
    monkeypatch.setattr(NoiseStream, "_drift_rows", forbidden)
    with pytest.raises(ValueError, match="measurement indices must be >= 0, got -5"):
        measure(device, challenges[0], stream, -5)
    with pytest.raises(ValueError, match="got -2"):
        measure_batch(device, challenges, stream, [0, -2, 4])
    with pytest.raises(ValueError, match="got -2"):
        measure_batch(device, challenges, stream, [[0, 1], [3, -2], [4, 5]])


@pytest.mark.parametrize("volt", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("noisy", [False, True])
def test_non_finite_drive_voltages_are_rejected(volt, noisy, monkeypatch):
    device = carve_device(small_chip(seed=61), 4, tuple(range(10)))
    stream = NoiseStream(1, mode_count=8) if noisy else None
    message = "^drive voltages must be finite$"
    with pytest.raises(ValueError, match=message):
        measure(device, [volt] * 10, stream)
    with pytest.raises(ValueError, match=message):
        voltages_to_phases(device, [volt] * 10)
    with pytest.raises(ValueError, match=message):
        voltages_to_phases(device, [[0.0] * 10, [volt] * 10])
    # the bad row falls in the second propagation block, before any noise draw
    block = fabrication._BLOCK_MZI_ROWS // 10
    voltages = np.zeros((block + 3, 10))
    voltages[block + 1, 4] = volt

    def forbidden(*args):
        raise AssertionError("noise drawn before the voltage check")

    monkeypatch.setattr(NoiseStream, "_normals", forbidden)
    monkeypatch.setattr(NoiseStream, "_drift_rows", forbidden)
    with pytest.raises(ValueError, match=message):
        measure_batch(device, voltages, stream, np.arange(len(voltages)))


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


def folded_free_walk(seed, modes, config, count):
    """The drift as the fold of the free walk, summed step by step in one
    cumsum: block k's steps are the normals of a generator on the Philox
    keyed by (seed, 1), at counter k * 2**64."""
    key = np.random.SeedSequence((*seed, 1)).generate_state(2, np.uint64)
    steps = [
        np.random.Generator(np.random.Philox(key=key, counter=k << 64)).standard_normal(
            (fabrication._DRIFT_BLOCK, modes)) * config.coupling_drift_step
        for k in range(-(-count // fabrication._DRIFT_BLOCK))
    ]
    walk = np.cumsum(np.vstack([np.zeros((1, modes)), *steps]), axis=0)[:count]
    bound = config.coupling_drift_bound
    period = 4.0 * bound
    folded = np.mod(walk + bound, period)
    return np.where(folded > 2.0 * bound, period - folded, folded) - bound + 1.0


@settings(max_examples=30, deadline=None)
@given(step=st.sampled_from((0.005,)) | st.floats(1e-6, 0.5),
       bound=st.sampled_from((0.05,)) | st.floats(1e-6, 2.0),
       queries=st.lists(st.integers(0, 300), min_size=1, max_size=5))
@example(step=0.3, bound=1e-3, queries=[300])
def test_drift_walk_equals_the_numpy_fold(step, bound, queries):
    # the fold of the free walk, bit for bit, whichever blocks are walked
    # first: its checkpoints and the running sum within a block add the
    # steps in the order one cumsum over the whole walk does
    config = NoiseConfig(coupling_drift_step=step, coupling_drift_bound=bound)
    stream = NoiseStream((4, 2), 5, config)
    expected = folded_free_walk((4, 2), 5, config, 301)
    for index in queries:
        assert np.array_equal(stream.drift_factors(index), expected[index])
    assert np.array_equal(stream._drift_rows(list(range(301))[::-1]), expected[::-1])


@settings(max_examples=30, deadline=None)
@given(frozen=st.sampled_from(("coupling_drift_step", "coupling_drift_bound")),
       other=st.floats(0.0, 2.0), modes=st.integers(1, 8),
       index=st.sampled_from((0, 1, 2**32 - 1, 2**32, 2**64 + 3)) | st.integers(0, 2**70))
def test_a_frozen_drift_is_exactly_one(frozen, other, modes, index):
    # a zero step or a zero bound draws nothing, at any index
    free = "coupling_drift_bound" if frozen == "coupling_drift_step" else "coupling_drift_step"
    config = NoiseConfig(**{frozen: 0.0, free: other})
    stream = NoiseStream(3, modes, config)
    assert np.array_equal(stream.drift_factors(index), np.ones(modes))
    assert stream._reached == 1


def test_drift_walk_stays_bounded():
    cfg = NoiseConfig()
    stream = NoiseStream(123, mode_count=8, config=cfg)
    for idx in range(0, 2000, 97):
        drift = stream.drift_factors(idx)
        assert np.all(np.abs(drift - 1.0) <= cfg.coupling_drift_bound + 1e-12)


def test_zero_drift_step_freezes_coupling():
    stream = NoiseStream(5, mode_count=4, config=NoiseConfig(coupling_drift_step=0.0))
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


def test_preset_chip_spec():
    for preset in (SMALL_PAIR, LARGE_PAIR):
        assert preset.chip_spec() == ChipLayoutSpec(mzi_count=preset.chip_mzi_count)
