"""Byte-identity oracle: sha256 pins of small fixed runs.

Every artifact byte is a pure function of the inputs, so a change that
keeps behaviour keeps these digests.  A change that alters the numbers on
purpose re-pins them and says why.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from mzipuf.experiments import large_pair_config, run_pair_experiment, small_pair_config
from mzipuf.fabrication import (
    LARGE_PAIR,
    NoiseConfig,
    NoiseStream,
    fabricate_chip,
    measure,
    save_chip,
    save_device,
)
from mzipuf.mesh import build_mesh
from mzipuf.metrics import quantize
from mzipuf.protocol import calibrate_policy, enroll, issue_challenge


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("config, digest", [
    (small_pair_config(challenge_count=40, repeat_count=6),
     "84f0f29970bcb9899e8f391a9fdb1d8d4457a49101e97e3020580cfffcafadcf"),
    (large_pair_config(challenge_count=12, repeat_count=5),
     "d33e48ac77e6da7ad44e8618964b757065b601d6602e662982569881fd8de556"),
], ids=["small-pair-noisy", "large-pair"])
def test_experiment_manifest_is_pinned(tmp_path, config, digest):
    run_pair_experiment(replace(config, output_dir=str(tmp_path)))
    assert sha256_of(tmp_path / "manifest.json") == digest


def test_enrolled_database_is_pinned(tmp_path):
    device = LARGE_PAIR.carve_pair(fabricate_chip(7, LARGE_PAIR.chip_spec()))[0]
    db = enroll(device, challenge_count=8, repeats_per_challenge=3, rng_seed=5)
    db.save(tmp_path / "crp.jsonl")
    assert sha256_of(tmp_path / "crp.jsonl") == (
        "44e3baa34345a588a9f0e28f5db426714c895c4befd615921a12e026c28cab6c"
    )


def test_chip_and_device_files_are_pinned(tmp_path):
    chip = fabricate_chip(7, LARGE_PAIR.chip_spec())
    save_chip(chip, tmp_path / "chip.json")
    save_device(LARGE_PAIR.carve_pair(chip)[0], tmp_path / "device.json")
    assert sha256_of(tmp_path / "chip.json") == (
        "f8cc99149d9ebb9f0033bd2e94dd54dc710d202d2e58dc17c356615b361cc75b"
    )
    assert sha256_of(tmp_path / "device.json") == (
        "c99ccf7aade8568da44f0b7b73bbd19225bc6919d067fd72a018676ce5e1ebd0"
    )


def test_calibrated_database_with_an_issued_record_is_pinned(tmp_path):
    devices = LARGE_PAIR.carve_pair(fabricate_chip(7, LARGE_PAIR.chip_spec()))
    db = enroll(devices[0], challenge_count=8, repeats_per_challenge=3, rng_seed=5)
    # device A answers the first four challenges afresh (legitimate), device B
    # answers the same four (impostor)
    samples = []
    for k, device in enumerate(devices):
        stream = NoiseStream((3, k), device.layout.mode_count)
        samples.append([
            (cid, quantize(measure(device, db.record(cid).challenge, stream, cid)))
            for cid in range(4)
        ])
    db.policy = calibrate_policy(db, *samples)
    assert not db.policy.clamped and db.policy.lhd_threshold == 0
    issue_challenge(db, np.random.default_rng(11))
    db.save(tmp_path / "crp.jsonl")
    assert sum(r.consumed for r in db.records.values()) == 1
    assert sha256_of(tmp_path / "crp.jsonl") == (
        "f312ccb975b0a514954868a785ed1f756841a1edf5502a270167e64c781eb707"
    )


def test_headline_uniqueness_is_a_running_sum_in_challenge_order():
    # the headline shares sum to 158.31818181818178 left to right here, and to
    # 158.3181818181818 pairwise (np.sum over the column); builtin sum is
    # compensated from Python 3.12 on, so the loop is written out
    config = large_pair_config(challenge_count=300, repeat_count=2,
                               noise=NoiseConfig.disabled())
    report = run_pair_experiment(config)
    modes = build_mesh(LARGE_PAIR.columns).mode_count
    acc = 0.0
    for _, _, lhd, _ in report.inter_rows:
        acc += lhd / modes
    headline = report.uniqueness_by_looseness[config.headline_looseness]
    assert headline == acc / config.challenge_count * 100.0
