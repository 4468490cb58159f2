"""Fabrication randomness, device carving, and noisy measurement.

A chip is fabricated once: every MZI site receives a heater resistance
factor (about 15.43 % relative spread, which sets its 2-pi voltage), two
directional-coupler ratios near 0.5, and a static phase offset from
uncontrolled arm-length differences (the device is operated uncalibrated).
Electrically adjacent heaters additionally share weak ground-loop couplings
around the -45 dB scale, so the voltage seen by one phase shifter leaks a
little onto its neighbours.

Devices are carved from a chip by mapping mesh slots (column-major) onto
global MZI ids; two devices may intentionally share sites.  Measurement
models detector noise, fast per-mode coupling jitter, and a slow bounded
per-mode drift of the output coupling, averaged over many samples per
response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from ._codec import canonical_digest, decode, encode, int_tuple, read_json, write_json
from .mesh import (
    TWO_PI,
    CouplerArrays,
    CouplerPair,
    MeshLayout,
    MziSettings,
    build_mesh,
    propagate,
)

V2PI_NOMINAL = 7.0
HEATER_SIGMA = 0.1543
COUPLER_SIGMA = 0.02
GROUND_LOOP_DB = -45.0
GROUND_LOOP_SCALE = 10.0 ** (GROUND_LOOP_DB / 20.0)

# challenges propagated together by measure_batch.  The kernel's largest
# temporaries are (block, MZIs, 2, 2) complex unitaries and a (block, MZIs,
# 16) coefficient tensor; at 32 they stay under 1 MB on the 66-MZI mesh,
# while larger blocks no longer run faster.
MEASURE_BLOCK = 32

# the largest chance, per mode and measurement, that one of its snapshots
# clips while the noise sampler draws its mean as a single normal
_CLIP_BOUND = 1e-6

CHIP_FORMAT = "mzipuf-chip/1"
DEVICE_FORMAT = "mzipuf-device/1"


def chain_adjacency(mzi_count: int) -> tuple[tuple[int, int], ...]:
    """Nearest-neighbour electrical adjacency along the global id order."""
    return tuple((i, i + 1) for i in range(mzi_count - 1))


@dataclass(frozen=True)
class ChipLayoutSpec:
    """Global chip description: MZI sites, electrical adjacency, and the
    distributions fabrication draws from.

    adjacency is a tuple of unordered global-id pairs sharing a ground
    lead; None selects the default chain over consecutive ids.  Setting
    phase_offset_span to 0 models a perfectly calibrated chip whose arms
    carry no static phase.
    """

    mzi_count: int
    adjacency: tuple[tuple[int, int], ...] | None = None
    v2pi_nominal: float = V2PI_NOMINAL
    heater_sigma: float = HEATER_SIGMA
    coupler_sigma: float = COUPLER_SIGMA
    phase_offset_span: float = TWO_PI
    ground_loop_scale: float = GROUND_LOOP_SCALE

    def __post_init__(self):
        if self.mzi_count < 1:
            raise ValueError(f"mzi_count must be >= 1, got {self.mzi_count}")
        if self.adjacency is None:
            object.__setattr__(self, "adjacency", chain_adjacency(self.mzi_count))
        else:
            pairs = tuple((int(a), int(b)) for a, b in self.adjacency)
            for a, b in pairs:
                if a == b or not (0 <= a < self.mzi_count and 0 <= b < self.mzi_count):
                    raise ValueError(f"bad adjacency pair ({a}, {b})")
            object.__setattr__(self, "adjacency", pairs)


@dataclass(frozen=True)
class HeaterParams:
    """Per-site heater lottery: resistance factor, resulting V_2pi, and the
    static arm phase present at zero drive."""

    resistance_factor: float
    v2pi: float
    phase_offset: float


@dataclass(frozen=True)
class ChipFingerprint:
    """Complete fabrication outcome of one chip, reproducible from its seed."""

    seed: int
    spec: ChipLayoutSpec
    heaters: tuple[HeaterParams, ...]
    couplers: tuple[CouplerPair, ...]
    ground_loops: tuple[tuple[int, int, float], ...]

    def digest(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        """The digest of the chip file's payload; the chip is frozen, so once."""
        return canonical_digest(_chip_payload(self))


def fabricate_chip(seed: int, spec: ChipLayoutSpec) -> ChipFingerprint:
    """Sample one chip's fabrication lottery.

    Draw order is fixed (resistance factors, coupler ratios, phase offsets,
    ground-loop coefficients) so a seed plus a layout spec reproduces the
    fingerprint bit-exactly.
    """
    rng = np.random.default_rng(seed)
    n = spec.mzi_count
    factors = np.clip(rng.normal(1.0, spec.heater_sigma, n), 0.05, None)
    etas = np.clip(rng.normal(0.5, spec.coupler_sigma, (n, 2)), 0.01, 0.99)
    offsets = rng.uniform(0.0, spec.phase_offset_span, n) % TWO_PI
    loop_values = rng.normal(
        spec.ground_loop_scale, spec.ground_loop_scale / 4.0, len(spec.adjacency)
    )
    heaters = tuple(
        HeaterParams(
            resistance_factor=float(f),
            v2pi=float(spec.v2pi_nominal * np.sqrt(f)),
            phase_offset=float(p),
        )
        for f, p in zip(factors, offsets)
    )
    couplers = tuple(CouplerPair(float(e1), float(e2)) for e1, e2 in etas)
    ground_loops = tuple(
        (a, b, float(c)) for (a, b), c in zip(spec.adjacency, loop_values)
    )
    return ChipFingerprint(
        seed=int(seed), spec=spec, heaters=heaters, couplers=couplers, ground_loops=ground_loops
    )


def _chip_payload(chip: ChipFingerprint) -> dict:
    """The chip file's layout: the spec under "layout", couplers as [eta1, eta2] rows."""
    payload = encode(chip)
    payload["layout"] = payload.pop("spec")
    payload["couplers"] = [(c.eta1, c.eta2) for c in chip.couplers]
    return {"format": CHIP_FORMAT, **payload}


def save_chip(chip: ChipFingerprint, path) -> None:
    """Write the fingerprint as versioned JSON; floats round-trip exactly."""
    write_json(_chip_payload(chip), path)


def load_chip(path) -> ChipFingerprint:
    payload = read_json(path, CHIP_FORMAT, "chip fingerprint file")
    try:
        couplers = [{"eta1": eta1, "eta2": eta2} for eta1, eta2 in payload.get("couplers")]
    except (TypeError, ValueError):
        raise ValueError("chip file couplers must be [eta1, eta2] rows") from None
    return decode(ChipFingerprint, {**payload, "spec": payload.get("layout"), "couplers": couplers})


@dataclass(frozen=True, eq=False)
class SlotArrays:
    """Struct-of-arrays form of a carved device, in slot order.

    leakage holds the ground-loop couplings as rounds of (targets, sources,
    coefficients) index arrays: round r adds each slot's r-th coupling, in
    the order effective_voltages' loop would add it, so a slot's sum is
    accumulated in the same order.  No slot appears twice in one round.
    """

    v2pi: np.ndarray
    phase_offset: np.ndarray
    couplers: CouplerArrays
    leakage: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _leakage_rounds(local_ground_loops) -> tuple:
    terms: dict[int, list[tuple[int, float]]] = {}
    for sa, sb, c in local_ground_loops:
        terms.setdefault(sa, []).append((sb, c))
        terms.setdefault(sb, []).append((sa, c))
    rounds = []
    for r in range(max(map(len, terms.values()), default=0)):
        entries = [(slot, *slot_terms[r]) for slot, slot_terms in terms.items()
                   if len(slot_terms) > r]
        targets, sources, coefficients = zip(*entries)
        rounds.append((np.array(targets), np.array(sources), np.array(coefficients)))
    return tuple(rounds)


@dataclass(frozen=True)
class DeviceInstance:
    """One carved mesh: a layout plus the chip sites its slots map onto.

    local_ground_loops lists (slot_a, slot_b, coefficient) for adjacency
    pairs whose ends both fall inside this device; couplings to sites
    outside the device do not act, modelling electrical separation of
    carved regions.
    """

    chip: ChipFingerprint
    layout: MeshLayout
    slot_to_global: tuple[int, ...]
    local_ground_loops: tuple[tuple[int, int, float], ...] = field(repr=False)

    def heater(self, slot: int) -> HeaterParams:
        return self.chip.heaters[self.slot_to_global[slot]]

    def slot_couplers(self) -> tuple[CouplerPair, ...]:
        return tuple(self.chip.couplers[g] for g in self.slot_to_global)

    @cached_property
    def arrays(self) -> SlotArrays:
        """Heater, coupler and leakage parameters as arrays, built on first use."""
        heaters = [self.heater(slot) for slot in range(self.layout.mzi_count)]
        return SlotArrays(
            v2pi=np.array([h.v2pi for h in heaters]),
            phase_offset=np.array([h.phase_offset for h in heaters]),
            couplers=CouplerArrays.from_pairs(self.slot_couplers()),
            leakage=_leakage_rounds(self.local_ground_loops),
        )

    def descriptor_digest(self) -> str:
        return canonical_digest(
            {"chip": self.chip.digest(), "columns": self.layout.columns,
             "slots": self.slot_to_global}
        )


def carve_device(chip: ChipFingerprint, columns: int, slot_to_global) -> DeviceInstance:
    """Bind a pyramid layout to chip sites.

    slot_to_global lists one global id per mesh slot in column-major order;
    ids must be valid and distinct within the device.
    """
    layout = build_mesh(columns)
    slots = tuple(int(g) for g in slot_to_global)
    if len(slots) != layout.mzi_count:
        raise ValueError(
            f"{columns}-column mesh needs {layout.mzi_count} slots, got {len(slots)}"
        )
    if len(set(slots)) != len(slots):
        raise ValueError("slot map must be injective within a device")
    for g in slots:
        if not 0 <= g < chip.spec.mzi_count:
            raise ValueError(f"global MZI id {g} outside chip with {chip.spec.mzi_count} sites")
    global_to_slot = {g: s for s, g in enumerate(slots)}
    local = tuple(
        (global_to_slot[a], global_to_slot[b], c)
        for a, b, c in chip.ground_loops
        if a in global_to_slot and b in global_to_slot
    )
    return DeviceInstance(
        chip=chip, layout=layout, slot_to_global=slots, local_ground_loops=local
    )


def shared_mzi_count(a: DeviceInstance, b: DeviceInstance) -> int:
    """Number of chip sites two carved devices have in common."""
    if a.chip.digest() != b.chip.digest():
        return 0
    return len(set(a.slot_to_global) & set(b.slot_to_global))


@dataclass(frozen=True)
class _DeviceFile:
    """A saved device descriptor, besides its format string."""

    chip_digest: str
    columns: int
    slots: tuple[int, ...]


def save_device(device: DeviceInstance, path) -> None:
    """Write a device descriptor (references its chip by digest)."""
    stored = _DeviceFile(device.chip.digest(), device.layout.columns, device.slot_to_global)
    write_json({"format": DEVICE_FORMAT, **encode(stored)}, path)


def load_device(path, chip: ChipFingerprint) -> DeviceInstance:
    stored = decode(_DeviceFile, read_json(path, DEVICE_FORMAT, "device descriptor"))
    if stored.chip_digest != chip.digest():
        raise ValueError("device descriptor does not match the supplied chip")
    return carve_device(chip, stored.columns, stored.slots)


@dataclass(frozen=True)
class Challenge:
    """Drive voltages for every device slot, on a 2**bits uniform grid.

    Levels are exact integers in [0, 2**bits); the physical voltage of
    level q is q * v2pi_nominal / 2**bits.
    """

    levels: tuple[int, ...]
    bits: int = 10
    v2pi_nominal: float = V2PI_NOMINAL

    def __post_init__(self):
        levels = int_tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")
        top = 2**self.bits
        for q in levels:
            if not 0 <= q < top:
                raise ValueError(f"level {q} outside [0, {top})")

    @property
    def voltages(self) -> np.ndarray:
        step = self.v2pi_nominal / float(2**self.bits)
        return np.asarray(self.levels, dtype=float) * step

    def digest(self) -> str:
        return canonical_digest(
            {"levels": self.levels, "bits": self.bits, "v2pi": self.v2pi_nominal}
        )

    @classmethod
    def random(cls, rng: np.random.Generator, mzi_count: int, bits: int = 10,
               v2pi_nominal: float = V2PI_NOMINAL) -> "Challenge":
        levels = rng.integers(0, 2**bits, size=mzi_count)
        return cls(levels=tuple(int(q) for q in levels), bits=bits, v2pi_nominal=v2pi_nominal)

    @classmethod
    def from_voltages(cls, volts, bits: int = 10,
                      v2pi_nominal: float = V2PI_NOMINAL) -> "Challenge":
        step = v2pi_nominal / float(2**bits)
        levels = []
        for v in np.asarray(volts, dtype=float):
            q = v / step
            nearest = round(q)
            if abs(q - nearest) > 1e-9:
                raise ValueError(f"voltage {v} is not on the {bits}-bit challenge grid")
            levels.append(int(nearest))
        return cls(levels=tuple(levels), bits=bits, v2pi_nominal=v2pi_nominal)


def _drive_voltages(challenges) -> np.ndarray:
    """Drive voltages of a Challenge or a bare voltage vector (shape (MZIs,)),
    or of a sequence of Challenges or a voltage matrix (shape (N, MZIs))."""
    if isinstance(challenges, Challenge):
        return challenges.voltages
    if not isinstance(challenges, np.ndarray) and isinstance(challenges[0], Challenge):
        levels = np.array([c.levels for c in challenges], dtype=float)
        steps = np.array([c.v2pi_nominal / float(2**c.bits) for c in challenges])
        return levels * steps[:, None]
    return np.asarray(challenges, dtype=float)


def effective_voltages(device: DeviceInstance, voltages) -> np.ndarray:
    """Applied voltages plus ground-loop leakage from in-device neighbours.

    voltages has shape (MZIs,) or (N, MZIs).
    """
    v = np.asarray(voltages, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != device.layout.mzi_count:
        raise ValueError(
            f"expected {device.layout.mzi_count} voltages, got shape {v.shape}"
        )
    v_eff = v.copy()
    # in rounds, so each slot adds its neighbours' leakage in adjacency order
    for targets, sources, coefficients in device.arrays.leakage:
        v_eff[..., targets] += coefficients * v[..., sources]
    return v_eff


def voltages_to_phases(device: DeviceInstance, challenge):
    """Map drive voltages to per-slot MZI settings via the thermo-optic law.

    theta_slot = (phase_offset + 2 pi (V_eff / V_2pi)^2) mod 2 pi, with
    V_eff including ground-loop leakage.  A single Challenge or bare
    voltage vector (handy for probing the law off-grid) gives a list of
    MziSettings.  A batch, a sequence of Challenges or an (N, MZIs) voltage
    matrix, gives the (N, MZIs) matrix of theta, with phi 0.
    """
    v_eff = effective_voltages(device, _drive_voltages(challenge))
    arrays = device.arrays
    # float_power calls libm pow per entry, as ** does on a numpy scalar;
    # an array ** 2 computes x * x instead, which rounds differently
    theta = np.remainder(
        arrays.phase_offset + TWO_PI * np.float_power(v_eff / arrays.v2pi, 2.0), TWO_PI
    )
    if theta.ndim == 1:
        return [MziSettings(theta=t) for t in theta]
    return theta


@dataclass(frozen=True)
class NoiseConfig:
    """Measurement noise model parameters.

    Per response, samples_per_response intensity snapshots are averaged.
    Each snapshot sees per-mode multiplicative coupling jitter (fast, iid),
    a slow per-mode coupling drift shared by all snapshots of a measurement
    index (bounded random walk, reflected at +-drift bound), and additive
    detector noise; negative snapshot values clip to zero.

    The average is sampled, not summed snapshot by snapshot: a snapshot is
    normal before clipping, so a mode whose snapshots clip with total
    probability at most 1e-6 gets its mean as one normal draw, exact in
    distribution up to that probability; the other, near-dark modes average
    samples_per_response clipped snapshots.  _noisy_mean has the details.
    """

    enabled: bool = True
    detector_sigma: float = 1e-5
    coupling_jitter_sigma: float = 0.14
    coupling_drift_step: float = 0.005
    coupling_drift_bound: float = 0.05
    samples_per_response: int = 1000

    def __post_init__(self):
        if self.samples_per_response < 1:
            raise ValueError("samples_per_response must be >= 1")
        for name in ("detector_sigma", "coupling_jitter_sigma",
                     "coupling_drift_step", "coupling_drift_bound"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @classmethod
    def disabled(cls) -> "NoiseConfig":
        return cls(enabled=False)

    @classmethod
    def quiet(cls) -> "NoiseConfig":
        """Noise enabled but with drift frozen; useful in calibration tests."""
        return cls(coupling_drift_step=0.0)


def _seed_key(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def _reflect(values: np.ndarray, bound: float) -> np.ndarray:
    if bound == 0.0:
        return np.zeros_like(values)
    period = 4.0 * bound
    folded = np.mod(values + bound, period)
    folded = np.where(folded > 2.0 * bound, period - folded, folded)
    return folded - bound


class NoiseStream:
    """Seeded noise source for one detector array.

    Every measurement index gets an independent substream derived from
    (seed, index), so replaying any single measurement is deterministic
    regardless of the order measurements are taken in.  The slow drift walk
    is generated once per stream and cached, which keeps it consistent
    across out-of-order queries.
    """

    def __init__(self, seed, mode_count: int, config: NoiseConfig | None = None):
        self.seed = _seed_key(seed)
        self.mode_count = int(mode_count)
        self.config = config if config is not None else NoiseConfig()
        if self.mode_count < 1:
            raise ValueError("mode_count must be >= 1")
        self._drift_rng = np.random.default_rng((*self.seed, 1))
        self._drift_walk = [np.zeros(self.mode_count)]

    def drift_factors(self, measurement_index: int) -> np.ndarray:
        """Per-mode coupling drift multiplier at a measurement index."""
        if measurement_index < 0:
            raise ValueError("measurement_index must be >= 0")
        cfg = self.config
        while len(self._drift_walk) <= measurement_index:
            step = self._drift_rng.normal(0.0, cfg.coupling_drift_step, self.mode_count)
            self._drift_walk.append(
                _reflect(self._drift_walk[-1] + step, cfg.coupling_drift_bound)
            )
        return 1.0 + self._drift_walk[measurement_index]

    def measurement_rng(self, measurement_index: int) -> np.random.Generator:
        return np.random.default_rng((*self.seed, 0, int(measurement_index)))


@dataclass(eq=False)
class RawResponse:
    """Sample-averaged output intensities of one measurement."""

    intensities: np.ndarray
    total_power: float
    measurement_index: int = 0


@cache
def _one_draw_threshold(samples: int) -> float:
    """The smallest z (to 1e-12) with samples * Phi(-z) <= _CLIP_BOUND.

    A mode whose mean is at least z standard deviations above zero clips
    in any of its samples snapshots with probability at most _CLIP_BOUND.
    """
    target = 2.0 * _CLIP_BOUND / samples
    low, high = 0.0, 40.0
    while high - low > 1e-12:
        mid = 0.5 * (low + high)
        if math.erfc(mid / math.sqrt(2.0)) > target:
            low = mid
        else:
            high = mid
    return high


def _noisy_mean(ideal: np.ndarray, noise: NoiseStream, measurement_index: int) -> np.ndarray:
    """Mean of S = samples_per_response noisy snapshots of an ideal vector.

    Before clipping, a snapshot drift * (1 + jitter) * ideal + detector is
    normal with mean mu = drift * ideal and variance sigma**2 =
    (mu * jitter_sigma)**2 + detector_sigma**2.  Where mu >= z * sigma, with
    S * Phi(-z) = _CLIP_BOUND, the chance that any of the S snapshots clips
    is at most _CLIP_BOUND, and short of that event their mean is exactly
    N(mu, sigma**2 / S).  Such a mode takes one draw, max(mu + sigma /
    sqrt(S) * z, 0), exact in distribution up to _CLIP_BOUND.  Every other
    mode averages S clipped snapshots max(mu + sigma * z, 0).  Draw order
    within the index's substream: one normal per mode, for every mode, then
    the (other modes, S) snapshot block.
    """
    cfg = noise.config
    samples = cfg.samples_per_response
    rng = noise.measurement_rng(measurement_index)
    mean = noise.drift_factors(measurement_index) * ideal
    sigma = np.hypot(cfg.coupling_jitter_sigma * mean, cfg.detector_sigma)
    out = rng.standard_normal(noise.mode_count)
    out *= sigma / math.sqrt(samples)
    out += mean
    np.maximum(out, 0.0, out=out)
    dark = mean < _one_draw_threshold(samples) * sigma
    if dark.any():
        # one row of snapshots per mode: a row mean reduces contiguous memory
        snapshots = rng.standard_normal((int(dark.sum()), samples))
        snapshots *= sigma[dark, None]
        snapshots += mean[dark, None]
        np.maximum(snapshots, 0.0, out=snapshots)
        out[dark] = snapshots.mean(axis=1)
    return out


def measure_batch(device: DeviceInstance, challenges, noise: NoiseStream | None, indices):
    """Averaged output power of many measurements.

    challenges is a sequence of N Challenges or voltage vectors, and
    indices has shape (N,) or (N, R): challenge i is measured at every
    measurement index of row i.  Returns intensities of shape
    indices.shape + (modes,), where entry [i] (or [i, r]) equals
    measure(device, challenges[i], noise, index).intensities bit for bit.

    Challenges are propagated MEASURE_BLOCK at a time, and a challenge
    measured at R indices is propagated once.  Noise is applied per index
    from that index's own substream, as measure does.
    """
    indices = np.asarray(indices)
    modes = device.layout.mode_count
    noisy = noise is not None and noise.config.enabled
    if noisy and noise.mode_count != modes:
        raise ValueError(
            f"noise stream built for {noise.mode_count} modes, device has {modes}"
        )
    if indices.ndim not in (1, 2) or len(indices) != len(challenges):
        raise ValueError(
            f"{len(challenges)} challenges need indices of shape (N,) or (N, R) "
            f"with N = {len(challenges)}, got shape {indices.shape}"
        )
    rows = indices.reshape(len(indices), -1)
    out = np.empty(rows.shape + (modes,))
    for start in range(0, len(rows), MEASURE_BLOCK):
        stop = start + MEASURE_BLOCK
        thetas = voltages_to_phases(device, challenges[start:stop])
        ideal = propagate(device.layout, thetas, device.arrays.couplers)
        if not noisy:
            out[start:stop] = ideal[:, None, :]
            continue
        for i, row in enumerate(ideal, start):
            for r, index in enumerate(rows[i]):
                out[i, r] = _noisy_mean(row, noise, int(index))
    return out.reshape(indices.shape + (modes,))


def measure(
    device: DeviceInstance,
    challenge,
    noise: NoiseStream | None = None,
    measurement_index: int = 0,
) -> RawResponse:
    """Drive the device with a challenge and read averaged output power.

    With noise=None (or a stream whose config is disabled) this returns the
    ideal propagation result.  Otherwise it returns the average of the
    configured snapshots under drift, jitter, and detector noise, sampled
    as NoiseConfig describes.  This is the one-challenge case of
    measure_batch.
    """
    intensities = measure_batch(device, [challenge], noise, [measurement_index])[0]
    return RawResponse(
        intensities=intensities,
        total_power=float(intensities.sum()),
        measurement_index=measurement_index,
    )


@dataclass(frozen=True)
class PairPreset:
    """A named way of carving two related devices from one chip."""

    name: str
    columns: int
    chip_mzi_count: int
    slot_maps: tuple[tuple[int, ...], tuple[int, ...]]

    def chip_spec(self, **overrides) -> ChipLayoutSpec:
        spec = ChipLayoutSpec(mzi_count=self.chip_mzi_count)
        return replace(spec, **overrides) if overrides else spec

    def carve_pair(self, chip: ChipFingerprint) -> tuple[DeviceInstance, DeviceInstance]:
        return (
            carve_device(chip, self.columns, self.slot_maps[0]),
            carve_device(chip, self.columns, self.slot_maps[1]),
        )


# Two electrically separated 10-MZI pyramids with no shared sites.
SMALL_PAIR = PairPreset(
    name="small-pair",
    columns=4,
    chip_mzi_count=20,
    slot_maps=(tuple(range(10)), tuple(range(10, 20))),
)

# Two 66-MZI pyramids sharing all 45 sites of columns 7-11 and differing in
# the 21 sites of columns 1-6 (slot order is column-major).
_LARGE_SHARED = tuple(range(0, 45))
LARGE_PAIR = PairPreset(
    name="large-pair",
    columns=11,
    chip_mzi_count=87,
    slot_maps=(
        tuple(range(45, 66)) + _LARGE_SHARED,
        tuple(range(66, 87)) + _LARGE_SHARED,
    ),
)

PAIR_PRESETS = {preset.name: preset for preset in (SMALL_PAIR, LARGE_PAIR)}


def preset_by_name(name: str) -> PairPreset:
    try:
        return PAIR_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {sorted(PAIR_PRESETS)}"
        ) from None
