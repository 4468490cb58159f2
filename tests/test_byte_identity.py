"""Byte-identity oracle: sha256 pins of small fixed runs.

Every artifact byte is a pure function of the inputs, so a change that
keeps behaviour keeps these digests.  A change that alters the numbers on
purpose re-pins them and says why.
"""

import hashlib
from dataclasses import replace

import pytest

from mzipuf.experiments import large_pair_config, run_pair_experiment, small_pair_config
from mzipuf.fabrication import LARGE_PAIR, fabricate_chip
from mzipuf.protocol import enroll


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("config, digest", [
    (small_pair_config(challenge_count=40, repeat_count=6),
     "766f85ed0c2cdf881d8448103328be8383649ed446a52f9993069b1700b5b80d"),
    (large_pair_config(challenge_count=12, repeat_count=5),
     "b10a497b74e73fced5c59b4ac2e2ae7044e51f0dcdb5973a7aa464d412001395"),
], ids=["small-pair-noisy", "large-pair"])
def test_experiment_manifest_is_pinned(tmp_path, config, digest):
    run_pair_experiment(replace(config, output_dir=str(tmp_path)))
    assert sha256_of(tmp_path / "manifest.json") == digest


def test_enrolled_database_is_pinned(tmp_path):
    device = LARGE_PAIR.carve_pair(fabricate_chip(7, LARGE_PAIR.chip_spec()))[0]
    db = enroll(device, challenge_count=8, repeats_per_challenge=3, rng_seed=5)
    db.save(tmp_path / "crp.jsonl")
    assert sha256_of(tmp_path / "crp.jsonl") == (
        "d403537a57de84b909a3d92bd8094df6ffa560cab91902b2e8bbb2f0446db7ff"
    )
