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

With phi fixed, U = X e^{j theta} + Y is affine in e^{j theta}; the mesh kernel
builds every unitary in this closed form, with float64 multiply, add and
negate only, and mzi_unitary is its one-MZI case.

Meshes are right-angled triangles ("pyramids") of MZIs: column c (1-based)
holds c devices, light enters a single input port, and a mesh with C
columns terminates in 2C output modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._codec import integer

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


def coupler_matrix(eta) -> np.ndarray:
    """Transfer matrix of a lossless directional coupler with power ratio eta;
    for an array of ratios, the stacked matrices, shape eta.shape + (2, 2)."""
    out = np.empty(np.shape(eta) + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = np.sqrt(1.0 - eta)
    out[..., 0, 1] = out[..., 1, 0] = 1j * np.sqrt(eta)
    return out


def mzi_unitary(settings: MziSettings, couplers: CouplerPair = IDEAL_COUPLERS) -> np.ndarray:
    """2x2 transfer matrix of a single MZI: the one-MZI case of the mesh kernel.

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
    etas, phi = np.array([[couplers.eta1, couplers.eta2]]), np.array([settings.phi])
    # [row, re|im, term, 0|1]: the entries at 0 are the real and imaginary parts
    terms = _mzi_terms(np.array([settings.theta]), _closed_form(etas, phi))[0]
    unitary = np.empty((2, 2), dtype=complex)
    unitary.real, unitary.imag = terms[:, 0, :, 0], terms[:, 1, :, 0]
    return unitary


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
    columns = integer(columns, "columns", 1)
    return MeshLayout(columns=columns, mode_pairs=_pyramid_mode_pairs(columns))


def _closed_form(etas: np.ndarray, phi) -> np.ndarray:
    """p, q, r of every MZI, stacked (3, MZIs, row, re|im, term, 0|1), for
    etas (MZIs, eta1|eta2) and outer phases phi.

    U = X e^{j theta} + Y with X_ij = L_i0 B1_0j and Y_ij = L_i1 B1_1j,
    where L = diag(e^{j phi}, 1) @ B(eta2) and B1 = B(eta1).  p holds X,
    q holds j X and r holds Y in _sweep's layout, so that the coefficients
    at inner phase theta are (p c + q s) + r, with c + j s = e^{j theta}.
    Every complex product here has a real or an imaginary factor, a coupler
    entry or j, so each of its parts is one rounded float64 product, however
    numpy's vectorized complex multiply computes it.
    """
    first, second = coupler_matrix(etas.T)
    left = second.copy()
    left[:, 0] *= np.exp(1j * phi)[..., None]
    x, y = left[:, :, :1] * first[:, :1], left[:, :, 1:] * first[:, 1:]
    z = np.array([x, 1j * x, y])
    out = np.empty(z.shape[:3] + (2, 2, 2))
    out[..., 0, :, 0] = out[..., 1, :, 1] = z.real
    out[..., 0, :, 1] = -z.imag
    out[..., 1, :, 0] = z.imag
    return out


@dataclass(frozen=True, eq=False)
class CouplerArrays:
    """Splitting ratios of every MZI of a mesh, (MZIs, eta1|eta2), and the
    closed form of its unitaries at outer phase 0, which is every unitary
    the phase map programs; it is computed once per mesh.
    """

    etas: np.ndarray
    closed_form: np.ndarray

    @classmethod
    def from_pairs(cls, couplers) -> "CouplerArrays":
        etas = np.array([(cp.eta1, cp.eta2) for cp in couplers], dtype=float)
        return cls(etas, _closed_form(etas, 0.0))


def _mzi_terms(theta: np.ndarray, closed_form: np.ndarray) -> np.ndarray:
    """Coefficient tensor of the unitaries at inner phases theta (..., MZIs):
    shape (..., MZIs, row, re|im, term, 0|1), (p c + q s) + r."""
    p, q, r = closed_form
    phase = np.exp(1j * theta)[..., None, None, None, None]
    out = p * phase.real
    out += q * phase.imag
    out += r
    return out


def _sweep(layout: MeshLayout, coefficients: np.ndarray, amps: np.ndarray) -> None:
    """Apply every MZI to a batch of field amplitudes (B, modes), column by column, in place.

    coefficients is (B or 1, MZIs, row, re|im, term, 0|1), as _mzi_terms
    builds it.  The MZIs of one column couple disjoint mode pairs, so a
    column updates all its pairs, for every field of the batch, at once.

    The complex arithmetic is spelled out on real and imaginary parts, as
    numpy's scalar complex multiply computes it, because the vectorized
    complex multiply may round differently: entry (row, re|im) of a column's
    output is (p0 + p1) + (q0 + q1), where p is the product of unitary entry
    (row, 0) with the top amplitude, q that of entry (row, 1) with the bottom
    one, and the two terms of a real part are ur*ar and (-ui)*ai, of an
    imaginary part ui*ar and ur*ai.  Negation and swapping the terms of a
    sum are exact.
    """
    # pairs[b, mode, re|im]
    pairs = amps.view(np.float64).reshape(len(amps), -1, 2)
    for slots, modes in layout.column_spans():
        # [b, k, top|bottom, re|im]: a view into amps
        column = pairs[:, modes].reshape(len(amps), -1, 2, 2)
        products = coefficients[:, slots] * column[:, :, None, None]
        terms = products[..., 0] + products[..., 1]
        column[...] = terms[..., 0] + terms[..., 1]


def _programmed_terms(layout: MeshLayout, settings, couplers) -> np.ndarray:
    """Coefficient tensor of the object form or the array form of a programming."""
    if not isinstance(couplers, CouplerArrays):
        couplers = CouplerArrays.from_pairs(couplers)
    phi = None
    if not isinstance(settings, np.ndarray):
        settings = list(settings)
        phi = np.array([s.phi for s in settings], dtype=float)
        settings = np.array([s.theta for s in settings], dtype=float)
    mzis = layout.mzi_count
    if settings.shape[-1:] != (mzis,) or len(couplers.etas) != mzis:
        raise ValueError(
            f"mesh with {mzis} MZIs got settings of shape {settings.shape} "
            f"and {len(couplers.etas)} coupler pairs"
        )
    if phi is None:
        return _mzi_terms(settings, couplers.closed_form)
    return _mzi_terms(settings, _closed_form(couplers.etas, phi))


def mesh_transfer_matrix(layout: MeshLayout, settings, couplers) -> np.ndarray:
    """Full transfer matrix of a programmed mesh.

    settings and couplers are sequences in the layout's column-major MZI
    order.  The result is (2C x 2C) and unitary because every constituent
    block is: column j is the propagation of unit field on mode j.
    """
    coefficients = _programmed_terms(layout, settings, couplers)
    amps = np.eye(layout.mode_count, dtype=complex)
    _sweep(layout, coefficients[None], amps)
    return amps.T


def propagate(layout: MeshLayout, settings, couplers) -> np.ndarray:
    """Output intensity distribution for unit power on the mesh input mode.

    Object form: settings is a sequence of MziSettings and couplers a
    sequence of CouplerPair, in column-major MZI order; the result is a
    length 2C vector.  Array form: settings is an array of inner phases
    theta of shape (..., MZIs), with outer phases 0 (what the phase map
    programs), and couplers may be a CouplerArrays; the result has shape
    (..., 2C).  Either way the intensities are non-negative, sum to 1
    (lossless model) and equal the per-MZI loop over mzi_unitary bit for bit.
    """
    coefficients = _programmed_terms(layout, settings, couplers)
    lead = coefficients.shape[:-5]
    coefficients = coefficients.reshape((-1,) + coefficients.shape[-5:])
    amps = np.zeros((len(coefficients), layout.mode_count), dtype=complex)
    amps[:, layout.input_mode] = 1.0
    _sweep(layout, coefficients, amps)
    return (np.abs(amps) ** 2).reshape(lead + (layout.mode_count,))
