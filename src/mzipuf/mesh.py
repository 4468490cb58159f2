"""Optical core: 2x2 Mach-Zehnder unitaries and pyramid mesh propagation.

A programmable Mach-Zehnder interferometer (MZI) is modelled as an outer
phase shifter, a directional coupler, an inner phase shifter, and a second
directional coupler:

    U = diag(e^{j phi}, 1) @ B(eta2) @ diag(e^{j theta}, 1) @ B(eta1)

with the coupler transfer matrix

    B(eta) = [[sqrt(1 - eta), j sqrt(eta)],
              [j sqrt(eta),   sqrt(1 - eta)]]

At the ideal splitting ratio eta = 0.5 this reduces (up to global phase)
to the familiar sine/cosine form: theta = 0 routes all power to the cross
port, theta = pi to the bar port, theta = pi/2 splits 50/50.

Meshes are right-angled triangles ("pyramids") of MZIs: column c (1-based)
holds c devices, light enters a single input port, and a mesh with C
columns terminates in 2C output modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MziSettings:
    """Programmed phases of one MZI, reduced modulo 2*pi.

    theta is the inner (differential arm) phase and phi the outer phase.
    Only theta affects output power splitting; phi is retained for
    completeness of the unitary model.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)


@dataclass(frozen=True)
class CouplerPair:
    """Power splitting ratios of the two directional couplers in one MZI.

    Both ratios must lie strictly inside (0, 1); 0.5 is the design target.
    """

    eta1: float = 0.5
    eta2: float = 0.5

    def __post_init__(self):
        for name in ("eta1", "eta2"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")


IDEAL_COUPLERS = CouplerPair(0.5, 0.5)


def coupler_matrix(eta: float) -> np.ndarray:
    """Transfer matrix of a lossless directional coupler with power ratio eta."""
    t = np.sqrt(1.0 - eta)
    k = 1j * np.sqrt(eta)
    return np.array([[t, k], [k, t]], dtype=complex)


def mzi_unitary(settings: MziSettings, couplers: CouplerPair = IDEAL_COUPLERS) -> np.ndarray:
    """2x2 transfer matrix of a single MZI.

    Parameters
    ----------
    settings : MziSettings
        Inner phase theta and outer phase phi.
    couplers : CouplerPair
        Splitting ratios of the input and output couplers.

    Returns
    -------
    numpy.ndarray
        Complex 2x2 matrix, unitary for any valid coupler pair.
    """
    phase_inner = np.array([[np.exp(1j * settings.theta), 0.0], [0.0, 1.0]], dtype=complex)
    phase_outer = np.array([[np.exp(1j * settings.phi), 0.0], [0.0, 1.0]], dtype=complex)
    return phase_outer @ coupler_matrix(couplers.eta2) @ phase_inner @ coupler_matrix(couplers.eta1)


def ideal_mzi_sine_cosine(settings: MziSettings) -> np.ndarray:
    """Closed sine/cosine form of the MZI unitary at eta1 = eta2 = 0.5.

    Algebraically identical to mzi_unitary with ideal couplers:

        j e^{j theta/2} [[e^{j phi} sin(theta/2), e^{j phi} cos(theta/2)],
                         [cos(theta/2),          -sin(theta/2)        ]]
    """
    half = settings.theta / 2.0
    ephi = np.exp(1j * settings.phi)
    return (
        1j
        * np.exp(1j * half)
        * np.array(
            [[ephi * np.sin(half), ephi * np.cos(half)], [np.cos(half), -np.sin(half)]],
            dtype=complex,
        )
    )


def _pyramid_mode_pairs(columns: int) -> tuple[tuple[int, int], ...]:
    # Column c (1-based) holds c MZIs; device i of column c acts on final-space
    # modes (2i + columns - c, 2i + columns - c + 1).  The offset accounts for
    # the one-mode shift each later column introduces at the top of the pyramid.
    pairs = []
    for c in range(1, columns + 1):
        for i in range(c):
            top = 2 * i + columns - c
            pairs.append((top, top + 1))
    return tuple(pairs)


@dataclass(frozen=True)
class MeshLayout:
    """Geometry of a triangular MZI mesh with a given number of columns.

    MZIs are indexed in column-major order (all of column 1, then column 2,
    and so on); mode_pairs gives, for each MZI, the pair of final-space
    optical modes it couples.
    """

    columns: int
    mode_pairs: tuple[tuple[int, int], ...] = field(repr=False)

    @property
    def mzi_count(self) -> int:
        return self.columns * (self.columns + 1) // 2

    @property
    def mode_count(self) -> int:
        return 2 * self.columns

    @property
    def input_mode(self) -> int:
        # The single illuminated input of the pyramid.
        return self.columns - 1

    def column_spans(self):
        """Per column, left to right: (slot slice, mode slice).

        Device i of column c (1-based) couples modes (top, top + 1) with
        top = 2i + columns - c, as in mode_pairs, so the column's devices
        cover the consecutive modes of its mode slice pair by pair.
        """
        first_slot = 0
        for c in range(1, self.columns + 1):
            yield slice(first_slot, first_slot + c), slice(self.columns - c, self.columns + c)
            first_slot += c


def build_mesh(columns: int) -> MeshLayout:
    """Construct the layout of a pyramid mesh with the given column count."""
    if columns < 1:
        raise ValueError(f"columns must be >= 1, got {columns}")
    return MeshLayout(columns=columns, mode_pairs=_pyramid_mode_pairs(columns))


def _phase_matrices(angles: np.ndarray) -> np.ndarray:
    """Stacked diag(e^{j angle}, 1), built entry for entry as mzi_unitary does."""
    out = np.zeros(angles.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(1j * angles)
    out[..., 1, 1] = 1.0
    return out


def _coupler_matrices(etas: np.ndarray) -> np.ndarray:
    """coupler_matrix over an array of ratios: shape etas.shape + (2, 2).

    Each entry equals the scalar coupler_matrix bit for bit: sqrt is
    correctly rounded, and the cross term j sqrt(eta) has real part +0.0.
    """
    t = np.sqrt(1.0 - etas)
    out = np.zeros(etas.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = t
    out[..., 1, 1] = t
    out.imag[..., 0, 1] = np.sqrt(etas)
    out.imag[..., 1, 0] = out.imag[..., 0, 1]
    return out


@dataclass(frozen=True, eq=False)
class CouplerArrays:
    """Coupler transfer matrices of every MZI of a mesh, stacked (MZIs, 2, 2).

    outer_second is diag(e^{j0}, 1) @ B(eta2), the left product of every
    unitary whose outer phase phi is 0, which is every unitary the phase
    map programs; it is computed once per mesh.
    """

    first: np.ndarray
    second: np.ndarray
    outer_second: np.ndarray

    @classmethod
    def from_pairs(cls, couplers) -> "CouplerArrays":
        etas = np.array([(cp.eta1, cp.eta2) for cp in couplers], dtype=float)
        second = _coupler_matrices(etas[:, 1])
        outer = np.matmul(_phase_matrices(np.zeros(len(etas))), second)
        return cls(first=_coupler_matrices(etas[:, 0]), second=second, outer_second=outer)


def _stacked_unitaries(theta: np.ndarray, couplers: CouplerArrays, phi) -> np.ndarray:
    """mzi_unitary for theta of shape (..., MZIs): shape (..., MZIs, 2, 2).

    Bit identity with mzi_unitary: every product is a stacked np.matmul on
    C-contiguous (..., 2, 2) operands, which sends each item through the
    same 2x2 zgemm call as a single product, in the same association order
    ((P_outer @ B2) @ P_inner) @ B1.
    """
    if phi is None:
        left = couplers.outer_second
    else:
        left = np.matmul(_phase_matrices(phi), couplers.second)
    return np.matmul(np.matmul(left, _phase_matrices(theta)), couplers.first)


def _sweep(layout: MeshLayout, unitaries: np.ndarray, amps: np.ndarray) -> None:
    """Apply every MZI to a batch of field amplitudes (B, modes), column by column, in place.

    unitaries is (B or 1, MZIs, 2, 2).  The MZIs of one column couple
    disjoint mode pairs, so a column updates all its pairs, for every field
    of the batch, at once.

    The complex arithmetic is spelled out on real and imaginary parts, as
    numpy's scalar complex multiply computes it, because the vectorized
    complex multiply may round differently: entry (row, re|im) of a column's
    output is (p0 + p1) + (q0 + q1), where p is the product of unitary entry
    (row, 0) with the top amplitude, q that of entry (row, 1) with the bottom
    one, and the two terms of a real part are ur*ar and (-ui)*ai, of an
    imaginary part ui*ar and ur*ai.  Negation and swapping the terms of a
    sum are exact.
    """
    ur, ui = unitaries.real, unitaries.imag
    # coefficients[b, k, row, re|im, term, 0|1] multiply (ar, ai) of the term
    coefficients = np.empty(unitaries.shape[:3] + (2, 2, 2))
    coefficients[:, :, :, 0, :, 0] = ur
    np.negative(ui, out=coefficients[:, :, :, 0, :, 1])
    coefficients[:, :, :, 1, :, 0] = ui
    coefficients[:, :, :, 1, :, 1] = ur
    # pairs[b, mode, re|im]
    pairs = amps.view(np.float64).reshape(len(amps), -1, 2)
    for slots, modes in layout.column_spans():
        # [b, k, top|bottom, re|im]: a view into amps
        column = pairs[:, modes].reshape(len(amps), -1, 2, 2)
        products = coefficients[:, slots] * column[:, :, None, None]
        terms = products[..., 0] + products[..., 1]
        column[...] = terms[..., 0] + terms[..., 1]


def _programmed_unitaries(layout: MeshLayout, settings, couplers) -> np.ndarray:
    """Stacked unitaries of the object form or the array form of a programming."""
    if not isinstance(couplers, CouplerArrays):
        couplers = CouplerArrays.from_pairs(couplers)
    phi = None
    if not isinstance(settings, np.ndarray):
        settings = list(settings)
        phi = np.array([s.phi for s in settings], dtype=float)
        settings = np.array([s.theta for s in settings], dtype=float)
    mzis = layout.mzi_count
    if settings.shape[-1:] != (mzis,) or len(couplers.first) != mzis:
        raise ValueError(
            f"mesh with {mzis} MZIs got settings of shape {settings.shape} "
            f"and {len(couplers.first)} coupler pairs"
        )
    return _stacked_unitaries(settings, couplers, phi)


def mesh_transfer_matrix(layout: MeshLayout, settings, couplers) -> np.ndarray:
    """Full transfer matrix of a programmed mesh.

    settings and couplers are sequences in the layout's column-major MZI
    order.  The result is (2C x 2C) and unitary because every constituent
    block is: column j is the propagation of unit field on mode j.
    """
    unitaries = _programmed_unitaries(layout, settings, couplers)
    amps = np.eye(layout.mode_count, dtype=complex)
    _sweep(layout, unitaries[None], amps)
    return amps.T


def propagate(layout: MeshLayout, settings, couplers) -> np.ndarray:
    """Output intensity distribution for unit power on the mesh input mode.

    Object form: settings is a sequence of MziSettings and couplers a
    sequence of CouplerPair, in column-major MZI order; the result is a
    length 2C vector.  Array form: settings is an array of inner phases
    theta of shape (..., MZIs), with outer phases 0 (what the phase map
    programs), and couplers may be a CouplerArrays; the result has shape
    (..., 2C).  Either way the intensities are non-negative, sum to 1
    (lossless model) and equal the per-MZI product bit for bit.
    """
    unitaries = _programmed_unitaries(layout, settings, couplers)
    lead = unitaries.shape[:-3]
    unitaries = unitaries.reshape((-1,) + unitaries.shape[-3:])
    amps = np.zeros((len(unitaries), layout.mode_count), dtype=complex)
    amps[:, layout.input_mode] = 1.0
    _sweep(layout, unitaries, amps)
    return (np.abs(amps) ** 2).reshape(lead + (layout.mode_count,))
