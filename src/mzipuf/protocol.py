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
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from ._codec import check_format, decode, encode, integer, integer_fields, write_text
from .fabrication import (
    Challenge,
    DeviceInstance,
    NoiseConfig,
    NoiseStream,
    _level_voltages,
    _random_levels,
    measure_batch,
)
from .metrics import (
    DEFAULT_BIN_FRACTION,
    DistanceStats,
    QuantizedResponse,
    _check_bin_fraction,
    _pair_differences,
    _quantize_rows,
    _responses,
    _row_l2,
    _stacked_bins,
    distance_stats,
    euclidean_distance,
    loose_hamming_distance,
)

DB_FORMAT = "mzipuf-crpdb/1"

# nudge keeping a clamped threshold strictly below the closest impostor
CLAMP_EPSILON = 1e-9


class ExhaustedDatabaseError(RuntimeError):
    """Raised when every enrolled challenge has already been consumed."""


@dataclass(frozen=True)
class CrpRecord:
    """One enrolled challenge-response pair.

    repeat_stats summarizes the Euclidean spread of the enrollment repeats
    around the stored reference; consumed marks one-time-use state.
    Records are values: consuming one replaces it in its database.
    """

    challenge_id: int
    challenge: Challenge
    reference: QuantizedResponse
    repeat_stats: DistanceStats | None = None
    consumed: bool = False

    def __post_init__(self):
        # a bool id would be saved as "id": true, which load refuses
        integer_fields(self, challenge_id=None)

    @cached_property
    def _line(self) -> str:
        """The record's database line; the record is frozen, so encoded once."""
        return _row_line(self)


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

    def __post_init__(self):
        # l2_threshold may be negative: calibration can clamp it to just below 0
        integer_fields(self, looseness=1, lhd_threshold=0)
        if not math.isfinite(self.l2_threshold):
            raise ValueError(f"l2_threshold must be finite, got {self.l2_threshold}")


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


@dataclass(repr=False)
class CrpDatabase:
    """Enrolled challenge-response records for one device.

    records may be given as any iterable of CrpRecords; it is kept as a
    dict by challenge id, and a duplicate id raises ValueError.
    """

    device_digest: str
    bin_fraction: float = DEFAULT_BIN_FRACTION
    records: dict[int, CrpRecord] = field(default_factory=dict)
    policy: VerifyPolicy | None = None
    collision_pairs: int = 0

    def __post_init__(self):
        _check_bin_fraction(self.bin_fraction)  # before enroll measures
        records, self.records = self.records, {}
        for record in records:
            self.add(record)

    def add(self, record: CrpRecord) -> None:
        if record.challenge_id in self.records:
            raise ValueError(f"duplicate challenge id {record.challenge_id}")
        self.records[record.challenge_id] = record

    def __len__(self) -> int:
        return len(self.records)

    def record(self, challenge_id: int) -> CrpRecord:
        try:
            return self.records[integer(challenge_id, "challenge_id")]
        except KeyError:
            raise ValueError(f"unknown challenge id {challenge_id}") from None

    def unconsumed_ids(self) -> list[int]:
        return [cid for cid in sorted(self.records) if not self.records[cid].consumed]

    def save(self, path) -> None:
        """Line-delimited JSON: one header line, then one line per record.

        A record row stores its id under "id", its challenge's fields
        flattened into the row, and its reference bins under "reference"
        (their bin fraction is the header's).  Records are frozen, so each
        encodes its line once, on the first save that writes it; issuing a
        challenge replaces its record with a new one, encoded anew.
        _codec.write_text writes the file, so a crash leaves the old one whole.
        The text written and its records are kept for the next load.
        """
        global _kept
        header = _DbHeader(self.device_digest, self.bin_fraction, len(self.records),
                           self.collision_pairs, self.policy)
        head = _to_json({"format": DB_FORMAT, **encode(header)})
        header = _decode_header(head)  # as load reads it: an int l2_threshold as a float
        records = [self.records[cid] for cid in sorted(self.records)]
        text = "\n".join([head, *(record._line for record in records)]) + "\n"
        write_text(path, text)
        # load would read a subclass record, or another fraction's reference, as another value
        exact = all(type(r) is CrpRecord and r.reference.bin_fraction == self.bin_fraction
                    for r in records)
        _kept = text, header if exact else None, records

    @classmethod
    def load(cls, path) -> "CrpDatabase":
        global _kept
        with open(path) as handle:
            text = handle.read()
        kept_text, header, records = _kept
        if text != kept_text or header is None:
            lines = [line for line in text.splitlines() if line.strip()]
            if not lines:
                raise ValueError("empty database file")
            # one line parsed at a time: the parsed rows are garbage right after
            header = _decode_header(lines[0])
            records = [_decode_row(line, header.bin_fraction) for line in lines[1:]]
            _kept = text, header, records
        db = cls(header.device_digest, header.bin_fraction, records, header.policy,
                 header.collision_pairs)
        if len(db) != header.record_count:
            raise ValueError(
                f"record count mismatch: header says {header.record_count}, "
                f"file has {len(db)}"
            )
        return db


_to_json = json.JSONEncoder(sort_keys=True).encode  # what json.dumps builds per call


def _row_line(record: CrpRecord) -> str:
    """The database line of a record, without its newline."""
    row = encode(record)
    row.update(row.pop("challenge"), id=row.pop("challenge_id"),
               reference=row["reference"]["bins"])
    return _to_json(row)


def _decode_row(line: str, bin_fraction: float) -> CrpRecord:
    row = _json_object(line)
    reference = {"bins": row.get("reference"), "bin_fraction": bin_fraction}
    return decode(CrpRecord, {**row, "challenge_id": row.get("id"), "challenge": row,
                              "reference": reference})


def _decode_header(line: str) -> "_DbHeader":
    return decode(_DbHeader, check_format(_json_object(line), DB_FORMAT, "CRP database"))


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

    def __post_init__(self):
        _check_bin_fraction(self.bin_fraction)  # before load decodes a row


# the text of the database file this process last loaded or saved, its
# header and its records in file order, which load hands out as they are;
# a None header makes the next load of that text decode it
_kept: tuple[str, _DbHeader | None, list[CrpRecord]] = ("", None, [])


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
    challenge_count = integer(challenge_count, "challenge_count", 1)
    repeats_per_challenge = integer(repeats_per_challenge, "repeats_per_challenge", 1)
    rng_seed = integer(rng_seed, "rng_seed", 0)
    noise_config = noise_config if noise_config is not None else NoiseConfig()
    challenge_rng = np.random.default_rng((rng_seed, 10))
    stream = NoiseStream((rng_seed, 11), device.layout.mode_count, noise_config)
    db = CrpDatabase(device_digest=device.descriptor_digest(), bin_fraction=bin_fraction)
    levels = _random_levels(challenge_rng, challenge_count, device.layout.mzi_count)
    indices = np.arange(challenge_count * repeats_per_challenge).reshape(challenge_count, -1)
    measured = measure_batch(device, _level_voltages(levels), stream, indices)
    reference_bins = _quantize_rows(np.mean(measured, axis=1), bin_fraction)
    repeat_bins = _quantize_rows(measured.reshape(-1, device.layout.mode_count), bin_fraction)
    # row cid of repeat_l2 holds the distances of challenge cid's repeats
    diff, _ = _pair_differences(reference_bins.repeat(repeats_per_challenge, axis=0), repeat_bins)
    repeat_l2 = _row_l2(diff).reshape(challenge_count, repeats_per_challenge)
    references = _responses(reference_bins, bin_fraction)
    for cid, (row, reference) in enumerate(zip(levels.tolist(), references)):
        db.add(
            CrpRecord(
                challenge_id=cid,
                challenge=Challenge(levels=row),
                reference=reference,
                repeat_stats=distance_stats(repeat_l2[cid]),
            )
        )
    db.collision_pairs = audit_collisions(db).pair_count
    return db


def issue_challenge(db: CrpDatabase, rng: np.random.Generator | None = None) -> CrpRecord:
    """Pick an unconsumed challenge uniformly at random and consume it.

    The consumed record replaces the picked one in db and is returned.  The
    candidates are read from the records on every draw, so a record
    consumed by any other path is never issued.
    """
    pool = db.unconsumed_ids()
    if not pool:
        raise ExhaustedDatabaseError("all enrolled challenges have been consumed")
    rng = rng if rng is not None else np.random.default_rng()
    cid = pool[int(rng.integers(len(pool)))]
    db.records[cid] = replace(db.records[cid], consumed=True)
    return db.records[cid]


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
        challenge_id=record.challenge_id, accepted=accepted, lhd=lhd, l2=l2, policy=policy
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
    looseness = integer(looseness, "looseness", 1)

    def differences(samples, levels=()):
        pairs = [(db.record(cid).reference, response) for cid, response in samples]
        return _pair_differences(*_stacked_bins(*zip(*pairs)), levels)

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
