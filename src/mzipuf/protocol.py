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
from dataclasses import asdict, dataclass

import numpy as np

from .fabrication import Challenge, DeviceInstance, NoiseConfig, NoiseStream, measure_batch
from .metrics import (
    DEFAULT_BIN_FRACTION,
    DistanceStats,
    QuantizedResponse,
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

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "VerifyPolicy":
        return cls(
            looseness=int(payload["looseness"]),
            lhd_threshold=int(payload["lhd_threshold"]),
            l2_threshold=float(payload["l2_threshold"]),
            clamped=bool(payload["clamped"]),
            low_confidence=bool(payload["low_confidence"]),
        )


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
        self._issue_pool: list[int] | None = None
        for record in records:
            self.add(record)
        self.policy = policy
        self.collision_pairs = collision_pairs

    def add(self, record: CrpRecord) -> None:
        if record.challenge_id in self.records:
            raise ValueError(f"duplicate challenge id {record.challenge_id}")
        self.records[record.challenge_id] = record
        self._issue_pool = None

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
        """Line-delimited JSON: one header line, then one line per record."""
        header = {
            "format": DB_FORMAT,
            "device_digest": self.device_digest,
            "bin_fraction": self.bin_fraction,
            "record_count": len(self.records),
            "collision_pairs": self.collision_pairs,
            "policy": self.policy.as_dict() if self.policy else None,
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for cid in sorted(self.records):
                record = self.records[cid]
                row = {
                    "id": record.challenge_id,
                    "levels": list(record.challenge.levels),
                    "bits": record.challenge.bits,
                    "v2pi_nominal": record.challenge.v2pi_nominal,
                    "reference": list(record.reference.bins),
                    "repeat_stats": (
                        record.repeat_stats.as_dict() if record.repeat_stats else None
                    ),
                    "consumed": record.consumed,
                }
                handle.write(json.dumps(row, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "CrpDatabase":
        with open(path) as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty database file")
        header = json.loads(lines[0])
        if header.get("format") != DB_FORMAT:
            raise ValueError(f"not a CRP database: format={header.get('format')!r}")
        db = cls(
            device_digest=header["device_digest"],
            bin_fraction=float(header["bin_fraction"]),
            policy=VerifyPolicy.from_dict(header["policy"]) if header["policy"] else None,
            collision_pairs=int(header["collision_pairs"]),
        )
        for line in lines[1:]:
            row = json.loads(line)
            db.add(
                CrpRecord(
                    challenge_id=int(row["id"]),
                    challenge=Challenge(
                        levels=tuple(row["levels"]),
                        bits=int(row["bits"]),
                        v2pi_nominal=float(row["v2pi_nominal"]),
                    ),
                    reference=QuantizedResponse(
                        bins=tuple(row["reference"]), bin_fraction=db.bin_fraction
                    ),
                    repeat_stats=(
                        DistanceStats.from_dict(row["repeat_stats"])
                        if row["repeat_stats"]
                        else None
                    ),
                    consumed=bool(row["consumed"]),
                )
            )
        if len(db) != int(header["record_count"]):
            raise ValueError(
                f"record count mismatch: header says {header['record_count']}, "
                f"file has {len(db)}"
            )
        return db


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

    Issuance is the single-writer path for consuming records; the pool of
    candidates is cached so large databases issue in O(1) per draw.
    """
    if db._issue_pool is None:
        db._issue_pool = db.unconsumed_ids()
    pool = db._issue_pool
    if not pool:
        raise ExhaustedDatabaseError("all enrolled challenges have been consumed")
    rng = rng if rng is not None else np.random.default_rng()
    k = int(rng.integers(len(pool)))
    challenge_id = pool[k]
    pool[k] = pool[-1]
    pool.pop()
    record = db.records[challenge_id]
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
    intra_l2, intra_lhd = [], []
    for cid, response in legitimate:
        reference = db.record(cid).reference
        intra_l2.append(euclidean_distance(reference, response))
        intra_lhd.append(loose_hamming_distance(reference, response, looseness))
    inter_l2 = []
    for cid, response in impostor:
        reference = db.record(cid).reference
        inter_l2.append(euclidean_distance(reference, response))

    l2_threshold = float(np.mean(intra_l2) + 3.0 * np.std(intra_l2))
    clamped = False
    low_confidence = len(intra_l2) < 2 or len(inter_l2) < 2
    if inter_l2:
        closest_impostor = min(inter_l2)
        if closest_impostor <= max(intra_l2):
            low_confidence = True
        if l2_threshold >= closest_impostor:
            l2_threshold = closest_impostor - CLAMP_EPSILON
            clamped = True
    return VerifyPolicy(
        looseness=looseness,
        lhd_threshold=int(max(intra_lhd)),
        l2_threshold=l2_threshold,
        clamped=clamped,
        low_confidence=low_confidence,
    )
