"""Enrollment and verification protocol around a challenge-response database.

Enrollment measures a batch of random challenges several times each, stores
the quantized mean response as the reference, and audits the batch for
complete collisions (distinct challenges mapping to identical references).
Challenges are one-time: issuing consumes them.  Verification compares a
fresh quantized response against the stored reference with a dual
threshold, loose Hamming distance and Euclidean distance, both of which
must pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._codec import check_format, decode, encode
from .fabrication import Challenge, DeviceInstance, NoiseConfig, NoiseStream, measure_batch
from .metrics import (
    DEFAULT_BIN_FRACTION,
    DistanceStats,
    QuantizedResponse,
    _check_looseness,
    _pair_differences,
    _row_l2,
    distance_stats,
    euclidean_distance,
    loose_hamming_distance,
    quantize,
)

DB_FORMAT = "mzipuf-crpdb/1"

# nudge keeping a clamped threshold strictly below the closest impostor
CLAMP_EPSILON = 1e-9


class ExhaustedDatabaseError(RuntimeError):
    """Raised when every enrolled challenge has already been consumed."""


@dataclass
class CrpRecord:
    """One enrolled challenge-response pair.

    repeat_stats summarizes the Euclidean spread of the enrollment repeats
    around the stored reference; consumed marks one-time-use state.
    """

    challenge_id: int
    challenge: Challenge
    reference: QuantizedResponse
    repeat_stats: DistanceStats | None = None
    consumed: bool = False


@dataclass(frozen=True)
class VerifyPolicy:
    """Dual-threshold acceptance rule.

    A candidate is accepted only if its loose Hamming distance at the
    policy's looseness is <= lhd_threshold and its Euclidean distance is
    <= l2_threshold.  clamped records that calibration had to pull the
    Euclidean threshold below the closest observed impostor; low_confidence
    records calibration from thin or overlapping samples.
    """

    looseness: int = 2
    lhd_threshold: int = 0
    l2_threshold: float = 0.0
    clamped: bool = False
    low_confidence: bool = False


@dataclass(frozen=True)
class AuthDecision:
    """Outcome of one verification attempt."""

    challenge_id: int
    accepted: bool
    lhd: int
    l2: float
    policy: VerifyPolicy


@dataclass(frozen=True)
class CollisionReport:
    """Groups of enrolled challenges sharing an identical reference."""

    groups: tuple[tuple[int, ...], ...]
    pair_count: int


class CrpDatabase:
    """Enrolled challenge-response records for one device."""

    def __init__(
        self,
        device_digest: str,
        bin_fraction: float = DEFAULT_BIN_FRACTION,
        records=(),
        policy: VerifyPolicy | None = None,
        collision_pairs: int = 0,
    ):
        self.device_digest = device_digest
        self.bin_fraction = bin_fraction
        self.records: dict[int, CrpRecord] = {}
        for record in records:
            self.add(record)
        self.policy = policy
        self.collision_pairs = collision_pairs

    def add(self, record: CrpRecord) -> None:
        if record.challenge_id in self.records:
            raise ValueError(f"duplicate challenge id {record.challenge_id}")
        self.records[record.challenge_id] = record

    def __len__(self) -> int:
        return len(self.records)

    def record(self, challenge_id: int) -> CrpRecord:
        try:
            return self.records[challenge_id]
        except KeyError:
            raise ValueError(f"unknown challenge id {challenge_id}") from None

    def unconsumed_ids(self) -> list[int]:
        return [cid for cid in sorted(self.records) if not self.records[cid].consumed]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrpDatabase):
            return NotImplemented
        return (
            self.device_digest == other.device_digest
            and self.bin_fraction == other.bin_fraction
            and self.policy == other.policy
            and self.collision_pairs == other.collision_pairs
            and self.records == other.records
        )

    def save(self, path) -> None:
        """Line-delimited JSON: one header line, then one line per record.

        A record row stores its id under "id", its challenge's fields
        flattened into the row, and its reference bins under "reference"
        (their bin fraction is the header's).
        """
        header = _DbHeader(self.device_digest, self.bin_fraction, len(self.records),
                           self.collision_pairs, self.policy)
        to_json = json.JSONEncoder(sort_keys=True).encode  # what json.dumps builds per call
        with open(path, "w") as handle:
            handle.write(to_json({"format": DB_FORMAT, **encode(header)}) + "\n")
            for cid in sorted(self.records):
                row = encode(self.records[cid])
                row.update(row.pop("challenge"), id=row.pop("challenge_id"),
                           reference=row["reference"]["bins"])
                handle.write(to_json(row) + "\n")

    @classmethod
    def load(cls, path) -> "CrpDatabase":
        with open(path) as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty database file")
        # one line parsed at a time: the parsed rows are garbage right after
        header = decode(_DbHeader, check_format(_json_object(lines[0]), DB_FORMAT, "CRP database"))
        db = cls(header.device_digest, header.bin_fraction, policy=header.policy,
                 collision_pairs=header.collision_pairs)
        for row in map(_json_object, lines[1:]):
            reference = {"bins": row.get("reference"), "bin_fraction": db.bin_fraction}
            db.add(decode(CrpRecord, {**row, "challenge_id": row.get("id"), "challenge": row,
                                      "reference": reference}))
        if len(db) != header.record_count:
            raise ValueError(
                f"record count mismatch: header says {header.record_count}, "
                f"file has {len(db)}"
            )
        return db


def _json_object(line: str) -> dict:
    value = json.loads(line)
    if not isinstance(value, dict):
        raise ValueError(f"database line is not a JSON object: {line[:40]!r}")
    return value


@dataclass(frozen=True)
class _DbHeader:
    """The header line of a saved database, besides its format string."""

    device_digest: str
    bin_fraction: float
    record_count: int
    collision_pairs: int
    policy: VerifyPolicy | None


def audit_collisions(db: CrpDatabase) -> CollisionReport:
    """Find complete collisions among enrolled references."""
    by_reference: dict[tuple[int, ...], list[int]] = {}
    for cid in sorted(db.records):
        by_reference.setdefault(db.records[cid].reference.bins, []).append(cid)
    groups = tuple(
        tuple(ids) for ids in by_reference.values() if len(ids) > 1
    )
    pairs = sum(len(g) * (len(g) - 1) // 2 for g in groups)
    return CollisionReport(groups=groups, pair_count=pairs)


def enroll(
    device: DeviceInstance,
    challenge_count: int,
    repeats_per_challenge: int = 5,
    rng_seed: int = 0,
    noise_config: NoiseConfig | None = None,
    bin_fraction: float = DEFAULT_BIN_FRACTION,
) -> CrpDatabase:
    """Measure random challenges repeatedly and store quantized references.

    The reference of each challenge is the quantization of the mean raw
    intensity vector over the repeats; repeat_stats holds the Euclidean
    distances of the individual quantized repeats from that reference.
    Measurement indices advance sequentially across the whole enrollment
    run so drift evolves as it would on a bench.
    """
    if challenge_count < 1 or repeats_per_challenge < 1:
        raise ValueError("challenge_count and repeats_per_challenge must be >= 1")
    noise_config = noise_config if noise_config is not None else NoiseConfig()
    challenge_rng = np.random.default_rng((int(rng_seed), 10))
    stream = None
    if noise_config.enabled:
        stream = NoiseStream((int(rng_seed), 11), device.layout.mode_count, noise_config)
    db = CrpDatabase(device_digest=device.descriptor_digest(), bin_fraction=bin_fraction)
    challenges = [
        Challenge.random(challenge_rng, device.layout.mzi_count) for _ in range(challenge_count)
    ]
    indices = np.arange(challenge_count * repeats_per_challenge).reshape(challenge_count, -1)
    measured = measure_batch(device, challenges, stream, indices)
    for cid, (challenge, raws) in enumerate(zip(challenges, measured)):
        reference = quantize(np.mean(raws, axis=0), bin_fraction)
        repeats = [quantize(raw, bin_fraction) for raw in raws]
        diff, _ = _pair_differences([reference] * len(repeats), repeats)
        db.add(
            CrpRecord(
                challenge_id=cid,
                challenge=challenge,
                reference=reference,
                repeat_stats=distance_stats(_row_l2(diff)),
            )
        )
    db.collision_pairs = audit_collisions(db).pair_count
    return db


def issue_challenge(db: CrpDatabase, rng: np.random.Generator | None = None) -> CrpRecord:
    """Pick an unconsumed challenge uniformly at random and consume it.

    The candidates are read from the records on every draw, so a record
    consumed by any other path is never issued.
    """
    pool = db.unconsumed_ids()
    if not pool:
        raise ExhaustedDatabaseError("all enrolled challenges have been consumed")
    rng = rng if rng is not None else np.random.default_rng()
    record = db.records[pool[int(rng.integers(len(pool)))]]
    record.consumed = True
    return record


def verify(
    db: CrpDatabase,
    challenge_id: int,
    response: QuantizedResponse,
    policy: VerifyPolicy | None = None,
) -> AuthDecision:
    """Compare a candidate response against the stored reference.

    Uses the explicit policy if given, else the database's calibrated
    policy, else the strict default (exact match only).
    """
    record = db.record(challenge_id)
    policy = policy or db.policy or VerifyPolicy()
    lhd = loose_hamming_distance(record.reference, response, policy.looseness)
    l2 = euclidean_distance(record.reference, response)
    accepted = lhd <= policy.lhd_threshold and l2 <= policy.l2_threshold
    return AuthDecision(
        challenge_id=challenge_id, accepted=accepted, lhd=lhd, l2=l2, policy=policy
    )


def calibrate_policy(
    db: CrpDatabase,
    legitimate,
    impostor,
    looseness: int = 2,
) -> VerifyPolicy:
    """Derive acceptance thresholds from labelled measurement samples.

    legitimate and impostor are sequences of (challenge_id, response).
    The Euclidean threshold is mean + 3 sigma of the legitimate distances,
    clamped just below the closest impostor when the two populations are
    disjoint; the loose-Hamming threshold is the worst legitimate distance
    observed.  low_confidence flags thin samples (fewer than 2 on either
    side) or overlapping populations.
    """
    if not legitimate:
        raise ValueError("need at least one legitimate sample")
    _check_looseness(looseness)

    def differences(samples, levels=()):
        references = [db.record(cid).reference for cid, _ in samples]
        return _pair_differences(references, [response for _, response in samples], levels)

    intra_diff, intra_lhd = differences(legitimate, (looseness,))
    intra_l2 = _row_l2(intra_diff)
    l2_threshold = float(np.mean(intra_l2) + 3.0 * np.std(intra_l2))
    clamped = False
    low_confidence = len(legitimate) < 2 or len(impostor) < 2
    if impostor:
        closest_impostor = float(_row_l2(differences(impostor)[0]).min())
        if closest_impostor <= intra_l2.max():
            low_confidence = True
        if l2_threshold >= closest_impostor:
            l2_threshold = closest_impostor - CLAMP_EPSILON
            clamped = True
    return VerifyPolicy(
        looseness=looseness,
        lhd_threshold=int(intra_lhd.max()),
        l2_threshold=l2_threshold,
        clamped=clamped,
        low_confidence=low_confidence,
    )
