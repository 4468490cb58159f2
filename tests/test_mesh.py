"""Unit tests for MZI unitaries and pyramid mesh propagation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mzipuf
from mzipuf.mesh import (
    TWO_PI,
    CouplerPair,
    MziSettings,
    _programmed_terms,
    build_mesh,
    ideal_mzi_sine_cosine,
    mesh_transfer_matrix,
    mzi_unitary,
    propagate,
)
from mzipuf.fabrication import (
    Challenge,
    ChipLayoutSpec,
    carve_device,
    fabricate_chip,
    voltages_to_phases,
)

IDEAL = CouplerPair(0.5, 0.5)


def four_matrix_product(s, cp):
    """The MZI unitary as diag(e^{j phi}, 1) @ B(eta2) @ diag(e^{j theta}, 1) @ B(eta1)."""
    def coupler(eta):
        return np.array([[np.sqrt(1 - eta), 1j * np.sqrt(eta)],
                         [1j * np.sqrt(eta), np.sqrt(1 - eta)]])

    def phase(angle):
        return np.diag([np.exp(1j * angle), 1.0])

    return phase(s.phi) @ coupler(cp.eta2) @ phase(s.theta) @ coupler(cp.eta1)


def random_settings(rng):
    return MziSettings(theta=rng.uniform(0, 2 * np.pi), phi=rng.uniform(0, 2 * np.pi))


def random_couplers(rng):
    return CouplerPair(eta1=rng.uniform(0.05, 0.95), eta2=rng.uniform(0.05, 0.95))


def test_cross_state_routes_all_power():
    u = mzi_unitary(MziSettings(theta=0.0), IDEAL)
    out = u @ np.array([1.0, 0.0])
    assert np.abs(out[0]) ** 2 == pytest.approx(0.0, abs=1e-12)
    assert np.abs(out[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_bar_state_routes_all_power():
    u = mzi_unitary(MziSettings(theta=np.pi), IDEAL)
    out = u @ np.array([1.0, 0.0])
    assert np.abs(out[0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert np.abs(out[1]) ** 2 == pytest.approx(0.0, abs=1e-12)


def test_half_pi_splits_evenly():
    u = mzi_unitary(MziSettings(theta=np.pi / 2), IDEAL)
    out = u @ np.array([1.0, 0.0])
    assert np.abs(out[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert np.abs(out[1]) ** 2 == pytest.approx(0.5, abs=1e-12)


def test_sine_cosine_form_matches_general_form_at_ideal_couplers():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        s = random_settings(rng)
        assert np.max(np.abs(mzi_unitary(s, IDEAL) - ideal_mzi_sine_cosine(s))) < 1e-12


def test_sine_cosine_closed_values():
    m = ideal_mzi_sine_cosine(MziSettings(theta=0.0, phi=0.0))
    assert np.allclose(m, 1j * np.array([[0, 1], [1, 0]]), atol=1e-12)
    m = ideal_mzi_sine_cosine(MziSettings(theta=np.pi))
    assert abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12
    assert abs(abs(m[0, 0]) - 1) < 1e-12 and abs(abs(m[1, 1]) - 1) < 1e-12


def test_unitarity_over_random_draws():
    rng = np.random.default_rng(11)
    eye = np.eye(2)
    for _ in range(1000):
        u = mzi_unitary(random_settings(rng), random_couplers(rng))
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-9


open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
mzis = st.builds(
    lambda theta, phi, eta1, eta2: (MziSettings(theta, phi), CouplerPair(eta1, eta2)),
    st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI, exclude_min=True), open_unit, open_unit,
)


@settings(max_examples=200, deadline=None)
@given(programming=st.lists(mzis, min_size=1, max_size=6))
def test_closed_form_matches_four_matrix_product(programming):
    # the column-major MZIs of a mesh, each with its own outer phase phi != 0
    columns = next(c for c in range(1, 4) if c * (c + 1) // 2 >= len(programming))
    programming = (programming * 6)[:columns * (columns + 1) // 2]
    settings_list, couplers = zip(*programming)
    terms = _programmed_terms(build_mesh(columns), settings_list, couplers)
    eye = np.eye(2)
    for s, cp, coefficients in zip(settings_list, couplers, terms):
        u = mzi_unitary(s, cp)
        assert np.max(np.abs(u - four_matrix_product(s, cp))) < 2e-15
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-14
        # mzi_unitary is the one-MZI case of the array kernel
        assert np.array_equal(coefficients[:, 0, :, 0], u.real)
        assert np.array_equal(coefficients[:, 1, :, 0], u.imag)


BLAS_PROBE = """
import hashlib, numpy as np
from mzipuf.fabrication import LARGE_PAIR, Challenge, fabricate_chip, measure_batch
device = LARGE_PAIR.carve_pair(fabricate_chip(1234, LARGE_PAIR.chip_spec()))[0]
rng = np.random.default_rng(5)
challenges = [Challenge.random(rng, device.layout.mzi_count) for _ in range(64)]
print(hashlib.sha256(measure_batch(device, challenges, None, np.arange(64)).tobytes()).hexdigest())
"""


def test_ideal_intensities_do_not_depend_on_the_blas_kernel():
    # the unitaries make no BLAS call, so OpenBLAS's generic Prescott kernel
    # must give the bytes the host's kernel gives
    src = str(Path(mzipuf.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    digests = [
        subprocess.run([sys.executable, "-c", BLAS_PROBE], env={**env, **kernel},
                       capture_output=True, text=True, check=True).stdout
        for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"})
    ]
    assert len(digests[0]) == 65 and digests[0] == digests[1]


def test_coupler_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            CouplerPair(eta1=bad)
        with pytest.raises(ValueError):
            CouplerPair(eta2=bad)


def test_settings_reduced_modulo_two_pi():
    assert MziSettings(theta=2 * np.pi + 0.3).theta == pytest.approx(0.3)
    assert MziSettings(theta=-0.1).theta == pytest.approx(2 * np.pi - 0.1)
    assert MziSettings(theta=1.0, phi=4 * np.pi + 0.5).phi == pytest.approx(0.5)


@pytest.mark.parametrize("columns,mzis,modes", [(1, 1, 2), (2, 3, 4), (4, 10, 8), (11, 66, 22)])
def test_mesh_layout_counts(columns, mzis, modes):
    layout = build_mesh(columns)
    assert layout.mzi_count == mzis
    assert layout.mode_count == modes
    assert len(layout.mode_pairs) == mzis
    for top, bottom in layout.mode_pairs:
        assert bottom == top + 1
        assert 0 <= top < modes - 1


def test_mesh_layout_column_indexing():
    layout = build_mesh(4)
    spans = list(layout.column_spans())
    # column-major: index 0 is column 1, indices 1-2 column 2, 3-5 column 3
    columns = [c for c, (slots, _) in enumerate(spans, start=1)
               for _ in range(slots.start, slots.stop)]
    assert columns == [1, 2, 2, 3, 3, 3, 4, 4, 4, 4]
    # column c couples the 2c consecutive modes centred in the mesh
    assert [(modes.start, modes.stop) for _, modes in spans] == [(3, 5), (2, 6), (1, 7), (0, 8)]


def test_build_mesh_rejects_zero_columns():
    with pytest.raises(ValueError):
        build_mesh(0)


def test_single_column_reduces_to_mzi_unitary():
    layout = build_mesh(1)
    rng = np.random.default_rng(3)
    s, cp = random_settings(rng), random_couplers(rng)
    assert np.allclose(mesh_transfer_matrix(layout, [s], [cp]), mzi_unitary(s, cp), atol=1e-12)


def test_single_column_propagation_cross_and_bar():
    layout = build_mesh(1)
    assert np.allclose(propagate(layout, [MziSettings(0.0)], [IDEAL]), (0, 1), atol=1e-12)
    assert np.allclose(propagate(layout, [MziSettings(np.pi)], [IDEAL]), (1, 0), atol=1e-12)


def test_two_column_all_cross_routing():
    # three ideal theta=0 blocks chain the input straight to the bottom mode
    layout = build_mesh(2)
    out = propagate(layout, [MziSettings(0.0)] * 3, [IDEAL] * 3)
    assert np.allclose(out, (0, 0, 0, 1), atol=1e-12)


def test_settings_length_mismatch_rejected():
    layout = build_mesh(3)
    with pytest.raises(ValueError):
        mesh_transfer_matrix(layout, [MziSettings(0.0)] * 5, [IDEAL] * 6)
    with pytest.raises(ValueError):
        propagate(layout, [MziSettings(0.0)] * 6, [IDEAL] * 5)


def test_transfer_matrix_unitarity_and_energy_conservation():
    rng = np.random.default_rng(23)
    for _ in range(200):
        columns = int(rng.integers(1, 6))
        layout = build_mesh(columns)
        settings = [random_settings(rng) for _ in range(layout.mzi_count)]
        couplers = [random_couplers(rng) for _ in range(layout.mzi_count)]
        t = mesh_transfer_matrix(layout, settings, couplers)
        assert np.max(np.abs(t.conj().T @ t - np.eye(layout.mode_count))) < 1e-9
        intensities = propagate(layout, settings, couplers)
        assert np.all(intensities >= 0)
        assert abs(intensities.sum() - 1.0) < 1e-9


def test_propagate_consistent_with_transfer_matrix():
    rng = np.random.default_rng(29)
    for columns in (1, 2, 3, 4, 5):
        layout = build_mesh(columns)
        settings = [random_settings(rng) for _ in range(layout.mzi_count)]
        couplers = [random_couplers(rng) for _ in range(layout.mzi_count)]
        t = mesh_transfer_matrix(layout, settings, couplers)
        amp = np.zeros(layout.mode_count, dtype=complex)
        amp[layout.input_mode] = 1.0
        assert np.max(np.abs(propagate(layout, settings, couplers)
                             - np.abs(t @ amp) ** 2)) < 1e-12


def test_transfer_matrix_against_per_mzi_embedding_oracle():
    # independently embed each 2x2 block into the full mode space and
    # dense-multiply, instead of the row-pair update the implementation uses
    rng = np.random.default_rng(31)
    for columns in (2, 3, 4):
        layout = build_mesh(columns)
        settings = [random_settings(rng) for _ in range(layout.mzi_count)]
        couplers = [random_couplers(rng) for _ in range(layout.mzi_count)]
        n = layout.mode_count
        oracle = np.eye(n, dtype=complex)
        for (a, b), s, cp in zip(layout.mode_pairs, settings, couplers):
            embedded = np.eye(n, dtype=complex)
            block = mzi_unitary(s, cp)
            embedded[a, a], embedded[a, b] = block[0, 0], block[0, 1]
            embedded[b, a], embedded[b, b] = block[1, 0], block[1, 1]
            oracle = embedded @ oracle
        assert np.max(np.abs(mesh_transfer_matrix(layout, settings, couplers) - oracle)) < 1e-12


def test_all_zero_settings_give_permutation_structure():
    for columns in (2, 3, 4, 5, 6):
        layout = build_mesh(columns)
        t = mesh_transfer_matrix(
            layout, [MziSettings(0.0)] * layout.mzi_count, [IDEAL] * layout.mzi_count
        )
        magnitudes = np.abs(t)
        assert np.allclose(np.sort(magnitudes, axis=1)[:, :-1], 0.0, atol=1e-9)
        assert np.allclose(np.sort(magnitudes, axis=1)[:, -1], 1.0, atol=1e-9)
        assert np.allclose(np.sort(magnitudes, axis=0)[:-1, :], 0.0, atol=1e-9)


def test_two_pi_periodicity_of_propagation():
    rng = np.random.default_rng(41)
    layout = build_mesh(3)
    thetas = rng.uniform(0, 2 * np.pi, layout.mzi_count)
    couplers = [random_couplers(rng) for _ in range(layout.mzi_count)]
    base = propagate(layout, [MziSettings(t) for t in thetas], couplers)
    shifted = propagate(layout, [MziSettings(t + 2 * np.pi) for t in thetas], couplers)
    assert np.max(np.abs(base - shifted)) < 1e-12


# Regression fixture: full fabricate -> carve -> phase-law -> propagate chain
# for a seeded 4-column device, frozen from an independent dense-product
# oracle (per-MZI embedded matrices multiplied in full mode space).
FIXTURE_SEED = 4242
FIXTURE_LEVELS = (512, 3, 800, 64, 1023, 200, 777, 5, 333, 950)
FIXTURE_INTENSITIES = (
    0.010940395738619942,
    0.0056607641509239075,
    0.05795225717794446,
    0.8189883179945338,
    0.036666308077396535,
    0.016479446268982116,
    0.02397703868774397,
    0.02933547190385541,
)


def test_seeded_four_column_regression_fixture():
    chip = fabricate_chip(FIXTURE_SEED, ChipLayoutSpec(mzi_count=10))
    device = carve_device(chip, 4, tuple(range(10)))
    settings = voltages_to_phases(device, Challenge(levels=FIXTURE_LEVELS))
    out = propagate(device.layout, settings, device.slot_couplers())
    assert np.max(np.abs(out - np.array(FIXTURE_INTENSITIES))) < 1e-12
