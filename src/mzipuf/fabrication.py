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

import hashlib
import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from ._codec import (
    canonical_digest,
    canonical_text,
    decode,
    encode,
    int_tuple,
    integer,
    integer_fields,
    json_text,
    read_json,
    write_text,
)
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

# MZI rows propagated together by measure_batch: max(1, 2048 // MZIs)
# challenges, whose (block, MZIs, 16) coefficient tensors take 0.26 MB, the
# size the 66-MZI mesh runs fastest at (31 challenges; 204 on the 10-MZI mesh).
_BLOCK_MZI_ROWS = 2048

# the largest chance, per mode and measurement, that one of its snapshots
# clips while the noise sampler draws its mean as a single normal
_CLIP_BOUND = 1e-6

# the fewest snapshots per response whose clipped mean the noise sampler
# draws as one moment-matched normal: below it, every snapshot is drawn.
# NoiseConfig has the derivation
_MOMENT_FLOOR = 23

# Philox words a measure_batch noise chunk draws: max(1, 4096 // window)
# rows, 170 large-pair measurements at S >= _MOMENT_FLOOR, whose largest
# temporaries take about 32 kB each
_NOISE_WORDS = 4096

# measurement indices per drift block: the drift walk keeps one position per
# block, and a lone measurement draws at most a block of steps
_DRIFT_BLOCK = 64

# the decimal texts of the default 10-bit challenge grid's levels, which
# _level_digests looks up instead of formatting each level with str
_LEVEL_TEXTS = tuple(map(str, range(2**10)))

# the finest challenge grid: up to 51 bits round(v / step) recovers every
# level's voltage; from 52 it can miss by one, and at 53 levels share voltages
_MAX_BITS = 51

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
        integer_fields(self, mzi_count=1)
        if not 0 < self.v2pi_nominal < math.inf:
            raise ValueError(f"v2pi_nominal must be finite and > 0, got {self.v2pi_nominal}")
        for name in ("heater_sigma", "coupler_sigma", "phase_offset_span", "ground_loop_scale"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.adjacency is None:
            object.__setattr__(self, "adjacency", chain_adjacency(self.mzi_count))
        else:
            pairs = tuple(map(int_tuple, self.adjacency))
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
    ground-loop coefficients) so a seed (an int >= 0) plus a layout spec
    reproduces the fingerprint bit-exactly.
    """
    seed = integer(seed, "seed", 0)
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
        seed=seed, spec=spec, heaters=heaters, couplers=couplers, ground_loops=ground_loops
    )


def _chip_payload(chip: ChipFingerprint) -> dict:
    """The chip file's layout: the spec under "layout", couplers as [eta1, eta2] rows."""
    payload = encode(chip)
    payload["layout"] = payload.pop("spec")
    payload["couplers"] = [(c.eta1, c.eta2) for c in chip.couplers]
    return {"format": CHIP_FORMAT, **payload}


def save_chip(chip: ChipFingerprint, path) -> None:
    """Write the fingerprint as versioned JSON; floats round-trip exactly."""
    write_text(path, json_text(_chip_payload(chip)))


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
    slots = int_tuple(slot_to_global)
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
    write_text(path, json_text({"format": DEVICE_FORMAT, **encode(stored)}))


def load_device(path, chip: ChipFingerprint) -> DeviceInstance:
    stored = decode(_DeviceFile, read_json(path, DEVICE_FORMAT, "device descriptor"))
    if stored.chip_digest != chip.digest():
        raise ValueError("device descriptor does not match the supplied chip")
    return carve_device(chip, stored.columns, stored.slots)


@dataclass(frozen=True)
class Challenge:
    """Drive voltages for every device slot, on a 2**bits uniform grid.

    Levels are exact integers in [0, 2**bits), for an int bits from 1 to
    51; the physical voltage of level q is q * v2pi_nominal / 2**bits.
    """

    levels: tuple[int, ...]
    bits: int = 10
    v2pi_nominal: float = V2PI_NOMINAL

    def __post_init__(self):
        levels = int_tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "bits", integer(self.bits, "bits", 1, _MAX_BITS))
        if not 0 < self.v2pi_nominal < math.inf:
            raise ValueError(f"v2pi_nominal must be finite and > 0, got {self.v2pi_nominal}")
        top = 2**self.bits
        if levels and (min(levels) < 0 or max(levels) >= top):
            q = next(q for q in levels if not 0 <= q < top)  # the first offender
            raise ValueError(f"level {q} outside [0, {top})")

    @property
    def voltages(self) -> np.ndarray:
        return _level_voltages(np.array(self.levels, dtype=np.int64), self.bits,
                               self.v2pi_nominal)

    def digest(self) -> str:
        """canonical_digest({"levels": levels, "bits": bits, "v2pi": v2pi_nominal})."""
        return _level_digests(np.array([self.levels], dtype=np.int64),
                              self.bits, self.v2pi_nominal)[0]

    @classmethod
    def random(cls, rng: np.random.Generator, mzi_count: int, bits: int = 10,
               v2pi_nominal: float = V2PI_NOMINAL) -> "Challenge":
        """One row of _random_levels."""
        (levels,) = _random_levels(rng, 1, mzi_count, bits).tolist()
        return cls(levels=levels, bits=bits, v2pi_nominal=v2pi_nominal)


def _random_levels(rng: np.random.Generator, count: int, mzi_count: int,
                   bits: int = 10) -> np.ndarray:
    """The (count, mzi_count) level matrix of count random challenges, in one
    integer draw.

    numpy's Generator.integers draws a matrix element by element, so the
    levels, and the generator state after them, equal those of count
    Challenge.random calls in a row.
    """
    return rng.integers(0, 2**bits, size=(count, mzi_count))


def _level_voltages(levels: np.ndarray, bits: int = 10,
                    v2pi_nominal: float = V2PI_NOMINAL) -> np.ndarray:
    """Drive voltages of each row of an integer level matrix; Challenge.voltages
    is its one-row case."""
    return levels.astype(float) * (v2pi_nominal / float(2**bits))


def _level_digests(levels: np.ndarray, bits: int = 10,
                   v2pi_nominal: float = V2PI_NOMINAL) -> list[str]:
    """The digest of the Challenge of each row of an integer level matrix.

    Rows must lie on the grid, as Challenge checks them.  canonical_text
    puts the levels between the same two strings on every row, so those
    come from one payload with no levels and each row only adds its own.
    """
    top = 2**bits
    if levels.size and (levels.min() < 0 or levels.max() >= top):
        q = levels[(levels < 0) | (levels >= top)][0]  # the first offender, row by row
        raise ValueError(f"level {q} outside [0, {top})")
    # bits and v2pi are numbers, so "[]" is the empty levels list
    head, tail = canonical_text({"levels": [], "bits": bits, "v2pi": v2pi_nominal}).split("[]")
    rows = levels.tolist()
    if top <= len(_LEVEL_TEXTS):
        joined = [",".join([_LEVEL_TEXTS[q] for q in row]) for row in rows]
    else:
        joined = [",".join(map(str, row)) for row in rows]
    return [hashlib.sha256(f"{head}[{text}]{tail}".encode()).hexdigest() for text in joined]


def _drive_voltages(challenges) -> np.ndarray:
    """Drive voltages of a Challenge or a bare voltage vector (shape (MZIs,)),
    or of a sequence of Challenges or a voltage matrix (shape (N, MZIs)).
    A sequence that mixes Challenges and voltage vectors raises ValueError
    naming its first element of the other kind than element 0."""
    if isinstance(challenges, Challenge):
        return challenges.voltages
    if not isinstance(challenges, np.ndarray) and len(challenges):
        kinds = ("voltage vector", "Challenge")
        first = isinstance(challenges[0], Challenge)
        for k, challenge in enumerate(challenges):
            if isinstance(challenge, Challenge) is not first:
                raise ValueError(f"challenges mix Challenges and voltage vectors: element "
                                 f"{k} is a {kinds[not first]}, element 0 a {kinds[first]}")
        if first and len(challenges) == 1:  # as measure passes one
            (lone,) = challenges
            return _level_voltages(np.array(lone.levels, dtype=np.int64)[None], lone.bits,
                                   lone.v2pi_nominal)
        if first:
            return np.array([c.voltages for c in challenges])
    volts = np.asarray(challenges, dtype=float)
    if not np.isfinite(volts).all():
        raise ValueError("drive voltages must be finite")
    return volts


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

    The average is sampled, not summed snapshot by snapshot.  A snapshot is
    normal before clipping, so from S = 23 snapshots on, each mode's mean
    is one normal draw:
    - a mode whose snapshots clip with total probability at most 1e-6 draws
      the unclipped mean, exact in distribution up to that probability;
    - every other, near-dark mode draws a normal with the exact mean and
      variance of the mean of S clipped snapshots (moment-matched).

    The floor of 23 is where the Berry-Esseen theorem bounds the Kolmogorov
    distance between the mean of S clipped snapshots and that normal by
    0.2: the bound is C * rho / v**1.5 / sqrt(S), with C = 0.4748 and v and
    rho a clipped snapshot's variance and third absolute central moment, and
    rho / v**1.5 peaks at 1.985, at a mean of 0, over the non-negative means
    every mode has while its drift factor is positive.  Below 23, every mode
    averages S clipped snapshots.  _noisy_block has the details.
    """

    enabled: bool = True
    detector_sigma: float = 1e-5
    coupling_jitter_sigma: float = 0.14
    coupling_drift_step: float = 0.005
    coupling_drift_bound: float = 0.05
    samples_per_response: int = 1000

    def __post_init__(self):
        integer_fields(self, samples_per_response=1)
        for name in ("detector_sigma", "coupling_jitter_sigma",
                     "coupling_drift_step", "coupling_drift_bound"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")

    @classmethod
    def disabled(cls) -> "NoiseConfig":
        return cls(enabled=False)


def _seed_key(seed) -> tuple[int, ...]:
    """A seed, or a sequence of seeds, as a tuple of ints >= 0."""
    return tuple(integer(s, "seed", 0) for s in (int_tuple(seed) if np.ndim(seed) else (seed,)))


def _seek(bit_generator: np.random.Philox, counter: int) -> None:
    """Point a Philox at a 256-bit counter: its next word is the first of
    block counter + 1."""
    state = bit_generator.state
    state["state"]["counter"] = np.array([counter >> shift & 0xFFFFFFFFFFFFFFFF
                                          for shift in (0, 64, 128, 192)], np.uint64)
    state["buffer_pos"] = 4  # the buffered words are spent
    bit_generator.state = state


# numpy's float64 log and exp give other bits where AVX-512 is dispatched
# than where it is not; the libm calls of math give the same on every host
_log = np.frompyfunc(math.log, 1, 1)
_exp = np.frompyfunc(math.exp, 1, 1)
_erfc = np.frompyfunc(math.erfc, 1, 1)


class NoiseStream:
    """Seeded noise source for one detector array.

    Measurement index i owns words [i * W, (i + 1) * W) of a counter-based
    generator, numpy's Philox keyed once from (seed, 0) (Salmon et al.,
    "Parallel random numbers: as easy as 1, 2, 3", SC 2011): W is the
    index's normals, rounded up to a multiple of 4.  Its drift comes from
    the walk's checkpoint at its block of _DRIFT_BLOCK indices and that
    block's own steps.  So a measurement depends only on (seed, index) and
    replays alike in any order and any batch.  Every measurement points the
    stream's generators at its window, so threads must not share a stream.
    """

    def __init__(self, seed, mode_count: int, config: NoiseConfig | None = None):
        self.seed = _seed_key(seed)
        self.mode_count = integer(mode_count, "mode_count", 1)
        self.config = config if config is not None else NoiseConfig()
        samples = self.config.samples_per_response
        # normals per index: one per mode, or one per snapshot below the floor
        self._draws = self.mode_count * (1 if samples >= _MOMENT_FLOOR else samples)
        self._window = -(-self._draws // 4) * 4
        self._words = np.random.Philox(np.random.SeedSequence((*self.seed, 0)))
        self._steps = np.random.Generator(np.random.Philox(np.random.SeedSequence((*self.seed, 1))))
        # the free walk at the first index of each block, in the first
        # _reached rows, and the last block's whole walk
        self._checkpoints = np.zeros((2, self.mode_count))
        self._reached = 1
        self._last_walk = (None, None)

    def drift_factors(self, measurement_index: int) -> np.ndarray:
        """Per-mode coupling drift multiplier at a measurement index."""
        return self._drift_rows([integer(measurement_index, "measurement_index", 0)])[0]

    def _drift_rows(self, indices: list) -> np.ndarray:
        """drift_factors at each of a list of indices >= 0, as a
        (len(indices), modes) matrix.

        Reflecting the walk at +-bound after every step equals, in law,
        folding the free walk once, since the steps are symmetric: the
        factor is 1 + fold(free walk), with fold of period 4 * bound.  A
        step or bound of 0 gives factors of exactly 1, and draws nothing.
        """
        cfg = self.config
        bound = cfg.coupling_drift_bound
        if not (cfg.coupling_drift_step and bound):
            return np.ones((len(indices), self.mode_count))
        blocks, offsets = np.divmod(np.array(indices), _DRIFT_BLOCK)
        walk = np.empty((len(indices), self.mode_count))
        for block in sorted(set(blocks.tolist())):
            rows = blocks == block
            walk[rows] = self._block_walk(block)[offsets[rows]]
        period = 4.0 * bound
        folded = np.mod(walk + bound, period)
        folded = np.where(folded > 2.0 * bound, period - folded, folded)
        folded -= bound
        folded += 1.0
        return folded

    def _block_walk(self, block: int) -> np.ndarray:
        """The free walk at the _DRIFT_BLOCK + 1 indices from block *
        _DRIFT_BLOCK on: the block's checkpoint, then the running sum of its
        steps, which its own Philox stretch (block * 2**64 on) draws.  The
        last row is the next block's checkpoint; blocks between the last
        checkpoint and this one are walked to get there."""
        last, walk = self._last_walk
        if block == last:
            return walk
        if block + 2 > len(self._checkpoints):
            # doubled in one allocation, which fails at once for an index
            # too far to walk to
            grown = np.empty((max(block + 2, 2 * len(self._checkpoints)), self.mode_count))
            grown[:self._reached] = self._checkpoints[:self._reached]
            self._checkpoints = grown
        for k in range(min(block, self._reached - 1), block + 1):
            walk = np.empty((_DRIFT_BLOCK + 1, self.mode_count))
            walk[0] = self._checkpoints[k]
            _seek(self._steps.bit_generator, k << 64)
            self._steps.standard_normal(out=walk[1:])
            walk[1:] *= self.config.coupling_drift_step
            np.cumsum(walk, axis=0, out=walk)
            if k + 1 == self._reached:
                self._checkpoints[self._reached] = walk[-1]
                self._reached += 1
        self._last_walk = (block, walk)
        return walk

    def _normals(self, indices: list) -> np.ndarray:
        """Each index's window of standard normals, as a (len(indices),
        draws) matrix.

        A run of consecutive indices is one random_raw call.  Box-Muller
        turns each pair of words (w1, w2) into two normals, from u1 in
        (0, 1] and u2 in [0, 1), each the top 53 bits of its word.
        """
        window = self._window
        words = np.empty((len(indices), window), np.uint64)
        breaks = [k for k in range(1, len(indices)) if indices[k] != indices[k - 1] + 1]
        for start, stop in zip([0, *breaks], [*breaks, len(indices)]):
            _seek(self._words, indices[start] * (window // 4))
            words[start:stop] = self._words.random_raw((stop - start) * window).reshape(-1, window)
        pairs = -(-self._draws // 2)
        top = (words[:, :2 * pairs] >> 11).astype(float)
        radius = np.sqrt(-2.0 * _log((top[:, 0::2] + 1.0) * 2.0**-53).astype(float))
        angle = top[:, 1::2] * (TWO_PI * 2.0**-53)
        normals = np.empty((len(indices), 2 * pairs))
        normals[:, 0::2] = radius * np.cos(angle)
        normals[:, 1::2] = radius * np.sin(angle)
        return normals[:, :self._draws]


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


def _noisy_block(cfg: NoiseConfig, normals: np.ndarray, drift: np.ndarray,
                 out: np.ndarray) -> None:
    """Means of S = samples_per_response noisy snapshots of k ideal vectors,
    in place: row j of the (k, modes) out holds an ideal vector on entry and
    its measurement on return, from row j of normals, its index's window,
    and row j of drift, its index's drift factors.

    Before clipping, a snapshot drift * (1 + jitter) * ideal + detector is
    normal with mean mu = drift * ideal and variance sigma**2 =
    (mu * jitter_sigma)**2 + detector_sigma**2.  Below S = _MOMENT_FLOOR,
    the window holds S normals z per mode, and the mode averages its S
    clipped snapshots max(mu + sigma * z, 0).  From it on, the window holds
    one normal z per mode:
    - where mu >= t * sigma, with S * Phi(-t) = _CLIP_BOUND, the chance
      that any snapshot clips is at most _CLIP_BOUND, and short of that
      their mean is exactly N(mu, sigma**2 / S): the mode is max(mu +
      sigma / sqrt(S) * z, 0);
    - every other mode is max(m1 + sqrt((m2 - m1**2) / S) * z, 0), with m1
      and m2 the first two moments of a clipped snapshot: for a = mu /
      sigma, m1 = mu Phi(a) + sigma phi(a) and m2 = (mu**2 + sigma**2)
      Phi(a) + mu sigma phi(a).

    Every step is elementwise, or a row's own sum, so a row's result does
    not depend on the block it is in.
    """
    samples = cfg.samples_per_response
    # out is read only here, before it is overwritten
    mean = drift * out
    sigma = np.hypot(cfg.coupling_jitter_sigma * mean, cfg.detector_sigma)
    if samples < _MOMENT_FLOOR:
        # one C-contiguous row of snapshots per mode, summed as a lone row's
        snapshots = normals.reshape(-1, samples) * sigma.reshape(-1, 1)
        snapshots += mean.reshape(-1, 1)
        np.maximum(snapshots, 0.0, out=snapshots)
        out[:] = (np.add.reduce(snapshots, axis=1) / samples).reshape(out.shape)
        if cfg.detector_sigma == 0.0:
            # a noiseless mode's S equal snapshots average to max(mu, 0)
            # exactly; their rounded sum over S may miss it by an ulp
            still = sigma == 0.0
            out[still] = np.maximum(mean[still], 0.0)
        return
    np.multiply(normals, sigma / math.sqrt(samples), out=out)
    out += mean
    np.maximum(out, 0.0, out=out)
    dark = mean < _one_draw_threshold(samples) * sigma
    if dark.any():
        mu, sd = mean[dark], sigma[dark]
        # a is -inf where mu < 0 = sigma; Phi and phi are exactly 0 from -39
        with np.errstate(divide="ignore", over="ignore"):
            a = np.maximum(mu / sd, -40.0)
        cdf = 0.5 * _erfc(a / -math.sqrt(2.0)).astype(float)
        pdf = _exp(a * a * -0.5).astype(float) / math.sqrt(2.0 * math.pi)
        m1 = mu * cdf + sd * pdf
        m2 = (mu * mu + sd * sd) * cdf + mu * sd * pdf
        spread = np.sqrt(np.maximum(m2 - m1 * m1, 0.0) / samples)
        out[dark] = np.maximum(m1 + spread * normals[dark], 0.0)


def measure_batch(device: DeviceInstance, challenges, noise: NoiseStream | None, indices):
    """Averaged output power of many measurements.

    challenges is a sequence of N Challenges or voltage vectors, and
    indices, of an integer dtype (or Python ints, held as objects where no
    numpy integer dtype holds them all) and all >= 0, has shape (N,) or
    (N, R): challenge i is measured at every measurement index of row i.
    Returns intensities of shape indices.shape + (modes,), where entry [i]
    (or [i, r]) equals measure(device, challenges[i], noise,
    index).intensities bit for bit.

    Two passes: challenges are propagated _BLOCK_MZI_ROWS MZI rows at a
    time, once each, their ideal intensities written to all R of their rows;
    with noise on, the rows are then sampled in place by _noisy_block,
    max(1, _NOISE_WORDS // window) at a time, each from its index's window
    and drift, as measure does.  No thread is started.
    """
    given, indices = indices, np.asarray(indices)
    if indices.dtype.kind in "iuf" and not isinstance(given, np.ndarray):
        # numpy takes a bool among ints as an int, and Python ints on both sides of 2**63 as floats
        objects = np.array(given, dtype=object)
        if bools := [i for i in objects.flat if isinstance(i, (bool, np.bool_))]:
            raise ValueError(f"measurement indices must be integers, got {bools[0]}")
        if indices.dtype == float and all(type(i) is int for i in objects.flat):
            indices = objects
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
    flat_indices = indices.ravel().tolist()
    # numpy holds ints past 2**64 - 1 as objects
    if indices.dtype.kind not in "iu" and not (
            indices.dtype == object and all(type(i) is int for i in flat_indices)):
        raise ValueError(f"measurement indices must be integers, got dtype {indices.dtype}")
    if flat_indices and min(flat_indices) < 0:
        raise ValueError(f"measurement indices must be >= 0, got {min(flat_indices)}")
    out = np.empty((indices[:, None] if indices.ndim == 1 else indices).shape + (modes,))
    block = max(1, _BLOCK_MZI_ROWS // device.layout.mzi_count)
    for start in range(0, len(out), block):
        thetas = voltages_to_phases(device, challenges[start:start + block])
        out[start:start + block] = propagate(device.layout, thetas, device.arrays.couplers)[:, None]
    if noisy:
        flat = out.reshape(-1, modes)
        rows = max(1, _NOISE_WORDS // noise._window)
        for start in range(0, len(flat), rows):
            chunk = flat_indices[start:start + rows]
            _noisy_block(noise.config, noise._normals(chunk), noise._drift_rows(chunk),
                         flat[start:start + rows])
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

    def chip_spec(self) -> ChipLayoutSpec:
        return ChipLayoutSpec(mzi_count=self.chip_mzi_count)

    def carve_pair(self, chip: ChipFingerprint) -> tuple[DeviceInstance, DeviceInstance]:
        return tuple(carve_device(chip, self.columns, slots) for slots in self.slot_maps)


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
