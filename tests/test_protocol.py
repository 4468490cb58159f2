"""Unit tests for enrollment, issuance, and verification."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from mzipuf.fabrication import (
    Challenge,
    ChipLayoutSpec,
    NoiseConfig,
    NoiseStream,
    carve_device,
    fabricate_chip,
    measure,
    measure_batch,
)
from mzipuf.metrics import QuantizedResponse, distance_stats, euclidean_distance, quantize
from mzipuf.protocol import (
    AuthDecision,
    CollisionReport,
    CrpDatabase,
    CrpRecord,
    ExhaustedDatabaseError,
    VerifyPolicy,
    audit_collisions,
    calibrate_policy,
    enroll,
    issue_challenge,
    verify,
)


def make_device(seed=1234):
    chip = fabricate_chip(seed, ChipLayoutSpec(mzi_count=10))
    return carve_device(chip, 4, tuple(range(10)))


def make_record(cid, bins, levels=None):
    return CrpRecord(
        challenge_id=cid,
        challenge=Challenge(levels=levels or (cid,) * 10),
        reference=QuantizedResponse(bins=bins),
    )


def make_db(references):
    return CrpDatabase(
        device_digest="d" * 64,
        records=[make_record(cid, bins) for cid, bins in enumerate(references)],
    )


def test_database_basics():
    db = make_db([(1, 2), (3, 4)])
    assert len(db) == 2
    assert db.record(0).reference.bins == (1, 2)
    assert db.unconsumed_ids() == [0, 1]
    with pytest.raises(ValueError):
        db.record(5)
    with pytest.raises(ValueError):
        db.add(make_record(1, (9, 9)))


def test_database_takes_records_from_any_iterable():
    def records():
        return [make_record(cid, (cid, 1)) for cid in range(3)]

    built = [CrpDatabase("d", records=form(records())) for form in (list, tuple, iter)]
    assert built[0] == built[1] == built[2]
    assert sorted(built[2].records) == [0, 1, 2]
    assert built[0] != CrpDatabase("d", records=records()[:2])
    with pytest.raises(ValueError, match="duplicate challenge id 1"):
        CrpDatabase("d", records=(record for record in [*records(), make_record(1, (0, 0))]))


def test_enroll_records_are_complete():
    device = make_device()
    db = enroll(device, challenge_count=12, repeats_per_challenge=3,
                rng_seed=7, noise_config=NoiseConfig.disabled())
    assert len(db) == 12
    assert sorted(db.records) == list(range(12))
    assert db.device_digest == device.descriptor_digest()
    for record in db.records.values():
        assert not record.consumed
        assert len(record.challenge.levels) == 10
        assert record.repeat_stats.count == 3
        assert record.reference.bin_fraction == db.bin_fraction


def test_enroll_is_deterministic():
    device = make_device()
    kwargs = dict(challenge_count=8, repeats_per_challenge=2, rng_seed=3)
    assert enroll(device, **kwargs) == enroll(device, **kwargs)


def test_enroll_noise_free_reference_is_single_measurement():
    device = make_device()
    db = enroll(device, challenge_count=5, repeats_per_challenge=4,
                rng_seed=11, noise_config=NoiseConfig.disabled())
    for record in db.records.values():
        direct = quantize(measure(device, record.challenge), db.bin_fraction)
        assert record.reference == direct
        assert record.repeat_stats.max == 0.0  # identical repeats


@pytest.mark.parametrize("repeats", range(1, 9))
def test_enroll_quantizes_the_mean_of_each_challenges_repeats(repeats):
    device = make_device()
    db = enroll(device, challenge_count=6, repeats_per_challenge=repeats, rng_seed=repeats)
    stream = NoiseStream((repeats, 11), device.layout.mode_count, NoiseConfig())
    challenges = [db.record(cid).challenge for cid in range(6)]
    indices = np.arange(6 * repeats).reshape(6, repeats)
    measured = measure_batch(device, challenges, stream, indices)
    for cid, raws in enumerate(measured):
        record = db.record(cid)
        assert record.reference == quantize(np.mean(raws, axis=0), db.bin_fraction)
        distances = [
            euclidean_distance(record.reference, quantize(raw, db.bin_fraction)) for raw in raws
        ]
        assert record.repeat_stats == distance_stats(distances)


def test_enroll_challenges_are_challenge_random_draws():
    # enroll draws one level matrix; its rows are the challenges count
    # Challenge.random calls give from the same generator
    device = make_device()
    db = enroll(device, challenge_count=7, repeats_per_challenge=2, rng_seed=13,
                noise_config=NoiseConfig.disabled())
    rng = np.random.default_rng((13, 10))
    assert [db.record(cid).challenge for cid in range(7)] == [
        Challenge.random(rng, device.layout.mzi_count) for _ in range(7)
    ]


def test_enroll_argument_validation():
    device = make_device()
    with pytest.raises(ValueError):
        enroll(device, challenge_count=0)
    with pytest.raises(ValueError):
        enroll(device, challenge_count=1, repeats_per_challenge=0)


def test_audit_collisions_groups_identical_references():
    db = make_db([(1, 1), (1, 1), (2, 2), (3, 3), (3, 3), (3, 3)])
    report = audit_collisions(db)
    assert isinstance(report, CollisionReport)
    assert report.groups == ((0, 1), (3, 4, 5))
    assert report.pair_count == 1 + 3
    assert audit_collisions(make_db([(1, 1), (2, 2)])).groups == ()


def test_enroll_counts_collisions():
    device = make_device()
    db = enroll(device, challenge_count=20, repeats_per_challenge=1,
                rng_seed=5, noise_config=NoiseConfig.disabled())
    assert db.collision_pairs == audit_collisions(db).pair_count


def test_database_save_load_round_trip(tmp_path):
    device = make_device()
    db = enroll(device, challenge_count=6, repeats_per_challenge=2, rng_seed=9)
    db.policy = VerifyPolicy(looseness=2, lhd_threshold=1, l2_threshold=5.0)
    db.records[2] = replace(db.records[2], consumed=True)
    path = tmp_path / "db.jsonl"
    db.save(path)
    loaded = CrpDatabase.load(path)
    assert loaded == db
    assert loaded.unconsumed_ids() == [0, 1, 3, 4, 5]


def test_database_load_rejects_bad_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        CrpDatabase.load(empty)

    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text(json.dumps({"format": "other/1"}) + "\n")
    with pytest.raises(ValueError):
        CrpDatabase.load(wrong)

    db = make_db([(1, 2)])
    path = tmp_path / "tampered.jsonl"
    db.save(path)
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n")  # drop the record line
    with pytest.raises(ValueError):
        CrpDatabase.load(path)

    header, row = json.loads(lines[0]), json.loads(lines[1])
    del header["device_digest"]
    no_bits = {key: value for key, value in row.items() if key != "bits"}
    for bad_header, bad_row, field in (
        (header, row, "_DbHeader.device_digest"),
        (json.loads(lines[0]), no_bits, "Challenge.bits"),
        (json.loads(lines[0]), {**row, "levels": None}, "Challenge.levels"),
        (json.loads(lines[0]), {**row, "consumed": "no"}, "CrpRecord.consumed"),
        (json.loads(lines[0]), [1, 2], "not a JSON object"),
    ):
        path.write_text(json.dumps(bad_header) + "\n" + json.dumps(bad_row) + "\n")
        with pytest.raises(ValueError, match=field):
            CrpDatabase.load(path)


def test_issue_consumes_and_exhausts():
    db = make_db([(1, 2)])
    enrolled = db.records[0]
    record = issue_challenge(db, np.random.default_rng(0))
    assert record.challenge_id == 0
    assert record.consumed
    assert db.records[0] is record and not enrolled.consumed
    assert db.unconsumed_ids() == []
    with pytest.raises(ExhaustedDatabaseError):
        issue_challenge(db, np.random.default_rng(0))
    assert issubclass(ExhaustedDatabaseError, RuntimeError)


def test_issue_never_repeats_and_covers_pool():
    db = make_db([(i, i) for i in range(200)])
    rng = np.random.default_rng(17)
    seen = [issue_challenge(db, rng).challenge_id for _ in range(200)]
    assert sorted(seen) == list(range(200))
    with pytest.raises(ExhaustedDatabaseError):
        issue_challenge(db, rng)


def test_issue_skips_preconsumed_records():
    db = make_db([(i, i) for i in range(400)])
    for cid in range(0, 400, 2):
        db.records[cid] = replace(db.records[cid], consumed=True)
    rng = np.random.default_rng(23)
    seen = [issue_challenge(db, rng).challenge_id for _ in range(200)]
    assert all(cid % 2 == 1 for cid in seen)
    assert sorted(seen) == list(range(1, 400, 2))


def test_issue_never_repeats_a_record_consumed_elsewhere():
    db = make_db([(i,) for i in range(3)])
    rng = np.random.default_rng(0)
    first = issue_challenge(db, rng).challenge_id
    elsewhere = min(set(range(3)) - {first})
    db.records[elsewhere] = replace(db.records[elsewhere], consumed=True)
    last = issue_challenge(db, rng).challenge_id
    assert {first, elsewhere, last} == {0, 1, 2}
    with pytest.raises(ExhaustedDatabaseError):
        issue_challenge(db, rng)


def test_issue_order_reproducible_with_seeded_rng():
    # identical databases issued with identically seeded rngs agree
    db_a = make_db([(i,) for i in range(50)])
    db_b = make_db([(i,) for i in range(50)])
    rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
    seq_a = [issue_challenge(db_a, rng_a).challenge_id for _ in range(50)]
    seq_b = [issue_challenge(db_b, rng_b).challenge_id for _ in range(50)]
    assert seq_a == seq_b


def test_issue_first_draw_is_uniform():
    # chi-squared over which record a fresh database issues first;
    # 20000 rounds, 10 cells, df = 9, p = 0.001 cutoff 27.88
    rounds = 20000
    rng = np.random.default_rng(99)
    counts = np.zeros(10, dtype=int)
    for _ in range(rounds):
        db = make_db([(i,) for i in range(10)])
        counts[issue_challenge(db, rng).challenge_id] += 1
    expected = rounds / 10.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 27.88, (chi2, counts.tolist())


def test_verify_accepts_exact_match_with_strict_default():
    device = make_device()
    db = enroll(device, challenge_count=4, repeats_per_challenge=1,
                rng_seed=2, noise_config=NoiseConfig.disabled())
    record = db.record(1)
    response = quantize(measure(device, record.challenge), db.bin_fraction)
    decision = verify(db, 1, response)
    assert isinstance(decision, AuthDecision)
    assert decision.accepted
    assert decision.lhd == 0
    assert decision.l2 == 0.0
    assert decision.policy == VerifyPolicy()


def test_verify_policy_precedence():
    db = make_db([(10, 10)])
    response = QuantizedResponse(bins=(10, 12))
    strict = verify(db, 0, response)
    assert not strict.accepted
    db.policy = VerifyPolicy(looseness=2, lhd_threshold=1, l2_threshold=5.0)
    assert verify(db, 0, response).accepted
    explicit = VerifyPolicy(looseness=2, lhd_threshold=0, l2_threshold=0.5)
    decision = verify(db, 0, response, policy=explicit)
    assert not decision.accepted
    assert decision.policy == explicit


def test_verify_rejects_other_device():
    genuine = make_device(seed=1234)
    impostor = make_device(seed=4321)
    db = enroll(genuine, challenge_count=1000, repeats_per_challenge=1,
                rng_seed=6, noise_config=NoiseConfig.disabled())
    rng = np.random.default_rng(31)
    rejected = 0
    for _ in range(1000):
        record = issue_challenge(db, rng)
        response = quantize(measure(impostor, record.challenge), db.bin_fraction)
        if not verify(db, record.challenge_id, response).accepted:
            rejected += 1
    assert rejected >= 990


def test_strict_policy_rejects_noisy_repeat():
    device = make_device()
    db = enroll(device, challenge_count=3, repeats_per_challenge=1,
                rng_seed=8, noise_config=NoiseConfig.disabled())
    record = db.record(0)
    # single-snapshot measurement leaves the 14 percent jitter undamped
    stream = NoiseStream((8, 50), device.layout.mode_count,
                         NoiseConfig(samples_per_response=1))
    noisy = quantize(measure(device, record.challenge, stream), db.bin_fraction)
    decision = verify(db, 0, noisy)
    assert not decision.accepted
    assert decision.lhd > 0 or decision.l2 > 0.0


def test_calibrate_worked_example():
    db = make_db([(0, 0, 0, 0), (5, 5, 5, 5)])
    legitimate = [
        (0, QuantizedResponse(bins=(2, 0, 0, 0))),    # l2 = 2
        (0, QuantizedResponse(bins=(10, 0, 0, 0))),   # l2 = 10
        (1, QuantizedResponse(bins=(5, 5, 5, 7))),    # l2 = 2
        (1, QuantizedResponse(bins=(5, 5, 5, 15))),   # l2 = 10
    ]
    impostor = [
        (0, QuantizedResponse(bins=(11, 0, 0, 0))),   # l2 = 11
        (1, QuantizedResponse(bins=(5, 5, 5, 16))),   # l2 = 11
    ]
    policy = calibrate_policy(db, legitimate, impostor)
    # intra mean 6, population sigma 4 puts mean + 3 sigma = 18 above the
    # closest impostor at 11, so the threshold clamps just below it
    assert policy.l2_threshold == pytest.approx(11.0 - 1e-9)
    assert policy.clamped
    assert not policy.low_confidence
    assert policy.lhd_threshold == 1
    assert policy.looseness == 2


def test_calibrate_unclamped_when_populations_are_far():
    db = make_db([(0, 0, 0, 0)])
    legitimate = [(0, QuantizedResponse(bins=(1, 0, 0, 0))),
                  (0, QuantizedResponse(bins=(0, 1, 0, 0)))]
    impostor = [(0, QuantizedResponse(bins=(50, 50, 50, 50))),
                (0, QuantizedResponse(bins=(60, 0, 0, 0)))]
    policy = calibrate_policy(db, legitimate, impostor)
    assert policy.l2_threshold == pytest.approx(1.0)  # mean 1, sigma 0
    assert not policy.clamped
    assert not policy.low_confidence


def test_calibrate_flags_overlap_and_thin_samples():
    db = make_db([(0, 0, 0, 0)])
    near = [(0, QuantizedResponse(bins=(4, 0, 0, 0))),
            (0, QuantizedResponse(bins=(6, 0, 0, 0)))]
    overlapping_impostors = [(0, QuantizedResponse(bins=(5, 0, 0, 0))),
                             (0, QuantizedResponse(bins=(30, 0, 0, 0)))]
    assert calibrate_policy(db, near, overlapping_impostors).low_confidence

    single = [(0, QuantizedResponse(bins=(1, 0, 0, 0)))]
    assert calibrate_policy(db, single, overlapping_impostors).low_confidence
    assert calibrate_policy(db, near, []).low_confidence
    with pytest.raises(ValueError, match="looseness"):
        calibrate_policy(db, near, [], looseness=0)
    with pytest.raises(ValueError):
        calibrate_policy(db, [], overlapping_impostors)


@pytest.mark.parametrize("fields, message", [
    ({"looseness": 0}, "looseness must be >= 1, got 0"),
    ({"looseness": 2.0}, "looseness must be an integer, got 2.0"),
    ({"lhd_threshold": -3}, "lhd_threshold must be >= 0, got -3"),
    ({"lhd_threshold": float("nan")}, "lhd_threshold must be an integer, got nan"),
    ({"l2_threshold": float("nan")}, "l2_threshold must be finite, got nan"),
    ({"l2_threshold": float("inf")}, "l2_threshold must be finite, got inf"),
    ({"l2_threshold": -float("inf")}, "l2_threshold must be finite, got -inf"),
])
def test_verify_policy_refuses_fields_off_their_range(fields, message):
    # l2 <= nan is false, so a NaN threshold would reject every response
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        VerifyPolicy(**fields)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(VerifyPolicy(), **fields)


def test_calibrate_can_clamp_the_l2_threshold_below_zero():
    # an impostor equal to the reference clamps the threshold to 0 - 1e-9
    db = make_db([(0, 0, 0, 0)])
    legitimate = [(0, QuantizedResponse(bins=(1, 0, 0, 0))),
                  (0, QuantizedResponse(bins=(0, 1, 0, 0)))]
    impostor = [(0, QuantizedResponse(bins=(0, 0, 0, 0))),
                (0, QuantizedResponse(bins=(9, 0, 0, 0)))]
    policy = calibrate_policy(db, legitimate, impostor)
    assert policy.clamped and policy.l2_threshold == -1e-9
    assert replace(policy) == policy


@pytest.mark.parametrize("field, value", [
    ("l2_threshold", float("nan")), ("lhd_threshold", -1), ("looseness", 0),
])
def test_database_with_a_stored_policy_off_its_range_fails_to_load(tmp_path, field, value):
    db = make_db([(1, 2)])
    db.policy = VerifyPolicy(looseness=2, lhd_threshold=1, l2_threshold=3.5)
    path = tmp_path / "db.jsonl"
    db.save(path)
    header, row = path.read_text().splitlines()
    header = json.loads(header)
    header["policy"][field] = value
    path.write_text(json.dumps(header) + "\n" + row + "\n")
    with pytest.raises(ValueError, match=f"^_DbHeader.policy: {field} must be "):
        CrpDatabase.load(path)


def test_calibrated_policy_separates_noisy_populations():
    genuine = make_device(seed=1234)
    impostor_device = make_device(seed=4321)
    noise = NoiseConfig()
    db = enroll(genuine, challenge_count=60, repeats_per_challenge=3,
                rng_seed=12, noise_config=noise)
    stream = NoiseStream((12, 60), genuine.layout.mode_count, noise)
    idx = 0

    def sample(device, cid):
        nonlocal idx
        rec = measure(device, db.record(cid).challenge, stream, measurement_index=idx)
        idx += 1
        return quantize(rec, db.bin_fraction)

    legitimate = [(cid, sample(genuine, cid)) for cid in range(30)]
    impostors = [(cid, sample(impostor_device, cid)) for cid in range(30)]
    policy = calibrate_policy(db, legitimate, impostors)
    db.policy = policy

    accepted_legit = sum(
        verify(db, cid, sample(genuine, cid)).accepted for cid in range(30, 60)
    )
    accepted_impostor = sum(
        verify(db, cid, sample(impostor_device, cid)).accepted for cid in range(30, 60)
    )
    assert accepted_legit >= 27
    assert accepted_impostor == 0


def test_consumed_state_survives_save_load(tmp_path):
    device = make_device()
    db = enroll(device, challenge_count=5, repeats_per_challenge=1,
                rng_seed=14, noise_config=NoiseConfig.disabled())
    issued = issue_challenge(db, np.random.default_rng(1))
    path = tmp_path / "db.jsonl"
    db.save(path)
    loaded = CrpDatabase.load(path)
    assert issued.challenge_id not in loaded.unconsumed_ids()
    assert len(loaded.unconsumed_ids()) == 4
