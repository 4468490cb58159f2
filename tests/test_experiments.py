"""Unit tests for paired-device experiments and their artifacts."""

import csv
import hashlib
import io
import json
import operator
import os
import re
import string
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzipuf.experiments import (
    CONFIG_FORMAT,
    ExperimentConfig,
    ExperimentReport,
    _config_payload,
    _csv_text,
    config_from_dict,
    emit_artifacts,
    large_pair_config,
    run_pair_experiment,
    small_pair_config,
)
from mzipuf.fabrication import Challenge, NoiseConfig


def quick_config(**overrides):
    base = dict(
        challenge_count=30,
        repeat_count=4,
        noise=NoiseConfig.disabled(),
    )
    base.update(overrides)
    return small_pair_config(**base)


def test_default_configs():
    small = small_pair_config()
    assert small.preset == "small-pair"
    assert small.challenge_count == 2000
    assert small.repeat_count == 500
    assert small.seed == 99
    assert small.chip_seeds == (1234,)
    large = large_pair_config()
    assert large.preset == "large-pair"
    assert large.challenge_count == 1000
    assert large.repeat_count == 500


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(challenge_count=0)
    with pytest.raises(ValueError):
        ExperimentConfig(repeat_count=1)
    with pytest.raises(ValueError):
        ExperimentConfig(chip_seeds=(1, 2, 3))
    with pytest.raises(ValueError):
        ExperimentConfig(looseness_max=1, headline_looseness=2)
    unknown = r"unknown preset 'nope'; available: \['large-pair', 'small-pair'\]"
    with pytest.raises(ValueError, match=unknown):
        ExperimentConfig(preset="nope")
    with pytest.raises(ValueError, match=unknown):
        config_from_dict({"preset": "nope"})
    clone = "clone_devices uses device A as device B, so chip_seeds takes no adversary seed"
    with pytest.raises(ValueError, match=clone):
        quick_config(chip_seeds=(1234, 777), clone_devices=True)
    with pytest.raises(ValueError, match=clone):
        replace(quick_config(clone_devices=True), chip_seeds=(1234, 777))


def test_config_dict_round_trip():
    config = quick_config(seed=7, bin_fraction=0.01, looseness_max=6,
                          headline_looseness=3, clone_devices=True)
    stored = json.loads(json.dumps(_config_payload(config)))
    assert stored["format"] == CONFIG_FORMAT
    assert config_from_dict(stored) == config


@pytest.mark.parametrize("tag", ["mzipuf-crpdb/1", None])
def test_config_from_dict_refuses_another_format(tag):
    with pytest.raises(ValueError, match=re.escape(
            f"not a stored experiment config: format={tag!r}")):
        config_from_dict({"preset": "small-pair", "format": tag})


def test_config_from_preset_alone_takes_dataclass_defaults():
    assert config_from_dict({"preset": "large-pair"}) == ExperimentConfig(preset="large-pair")
    partial = config_from_dict({"preset": "small-pair", "seed": "7",
                                "noise": {"samples_per_response": 40.0}})
    assert partial == ExperimentConfig(seed=7, noise=NoiseConfig(samples_per_response=40))
    assert isinstance(partial.seed, int)
    assert isinstance(partial.noise.samples_per_response, int)
    with pytest.raises(ValueError, match="preset"):
        config_from_dict({"seed": 7})
    with pytest.raises(ValueError, match="ExperimentConfig.seed"):
        config_from_dict({"preset": "small-pair", "seed": None})
    with pytest.raises(ValueError, match="ExperimentConfig.noise"):
        config_from_dict({"preset": "small-pair", "noise": None})
    with pytest.raises(ValueError, match="NoiseConfig.enabled"):
        config_from_dict({"preset": "small-pair", "noise": {"enabled": "no"}})


def test_small_run_shapes():
    report = run_pair_experiment(quick_config())
    assert isinstance(report, ExperimentReport)
    assert report.shared_mzis == 0
    assert report.device_digests[0] != report.device_digests[1]
    assert sorted(report.uniqueness_by_looseness) == list(range(1, 11))
    for value in report.uniqueness_by_looseness.values():
        assert 0.0 <= value <= 100.0
    assert report.inter_l2.count == 30
    assert len(report.inter_rows) == 30
    # two devices, repeats beyond the first each contribute one row
    assert len(report.intra_rows) == 2 * (4 - 1)
    assert report.sweep is None
    assert report.optimal_looseness is None
    assert 0 <= report.collision_count <= 30


def test_noise_free_repeats_are_exact():
    report = run_pair_experiment(quick_config())
    assert report.intra_l2.max == 0.0
    assert report.intra_lhd.max == 0.0
    assert all(row[2] == 0 and row[3] == 0.0 for row in report.intra_rows)


def test_summary_statistics_re_aggregate_from_rows():
    report = run_pair_experiment(quick_config())
    l2_values = [row[3] for row in report.inter_rows]
    assert report.inter_l2.mean == pytest.approx(float(np.mean(l2_values)))
    assert report.inter_l2.min == min(l2_values)
    assert report.inter_l2.max == max(l2_values)
    lhd_values = [row[2] for row in report.inter_rows]
    assert report.inter_lhd.mean == pytest.approx(float(np.mean(lhd_values)))
    modes = 8  # four columns
    headline = report.config.headline_looseness
    assert report.uniqueness_by_looseness[headline] == pytest.approx(
        float(np.mean(lhd_values)) / modes * 100.0
    )


def test_runs_are_deterministic():
    config = quick_config(noise=NoiseConfig(samples_per_response=40))
    a = run_pair_experiment(config)
    b = run_pair_experiment(config)
    assert a.challenge_set_digest == b.challenge_set_digest
    assert a.inter_rows == b.inter_rows
    assert a.intra_rows == b.intra_rows
    assert a.uniqueness_by_looseness == b.uniqueness_by_looseness
    assert a.collision_count == b.collision_count


def test_challenge_sequence_matches_seed():
    report = run_pair_experiment(quick_config(seed=123))
    rng = np.random.default_rng((123, 0))
    rolled = hashlib.sha256()
    for _ in range(30):
        rolled.update(Challenge.random(rng, 10).digest().encode())
    assert report.challenge_set_digest == rolled.hexdigest()


def test_clone_control_case():
    report = run_pair_experiment(quick_config(clone_devices=True))
    assert report.device_digests[0] == report.device_digests[1]
    assert report.collision_count == 30
    assert all(v == 0.0 for v in report.uniqueness_by_looseness.values())
    assert report.inter_l2.max == 0.0
    assert report.separation_sigma is None  # both populations collapse


def test_adversary_chip_seed():
    report = run_pair_experiment(quick_config(chip_seeds=(1234, 777)))
    same_chip = run_pair_experiment(quick_config())
    assert report.shared_mzis == 0
    assert report.device_digests[0] == same_chip.device_digests[0]
    assert report.device_digests[1] != same_chip.device_digests[1]


def test_large_pair_minimal_run():
    config = large_pair_config(
        challenge_count=6, repeat_count=3, noise=NoiseConfig.disabled()
    )
    report = run_pair_experiment(config)
    assert report.shared_mzis == 45
    assert report.sweep is not None
    assert report.sweep.looseness_values == tuple(range(1, 11))
    assert len(report.sweep_separations) == 10
    # noise-free repeats collapse to zero spread, so every separation with a
    # positive gap is unbounded and the optimum resolves to the first level
    assert report.optimal_looseness == 1
    for sep in report.sweep_separations:
        assert sep is None or sep >= 0.0


def test_report_is_frozen_and_its_csv_fields_are_python_values():
    # the CSV artifacts write each field's str, which is a float's repr
    # only for a Python float
    report = run_pair_experiment(large_pair_config(challenge_count=6, repeat_count=3))
    with pytest.raises(FrozenInstanceError):
        report.sweep = None
    stats = (report.inter_lhd, report.inter_l2, report.intra_lhd, report.intra_l2)
    tables = (report.inter_rows, report.intra_rows, *(s.histogram for s in stats))
    fields = [field for rows in tables for row in rows for field in row]
    fields += [value for s in (*report.sweep.repeated, *report.sweep.random)
               for value in (s.mean, s.std_dev)]
    fields += [sep for sep in report.sweep_separations if sep is not None]
    assert {type(field) for field in fields} == {int, float, str}


def test_run_helpers_accept_overrides():
    report = run_pair_experiment(small_pair_config(challenge_count=5, repeat_count=2,
                                                   noise=NoiseConfig.disabled()))
    assert report.config.challenge_count == 5
    report = run_pair_experiment(large_pair_config(challenge_count=2, repeat_count=2,
                                                   noise=NoiseConfig.disabled()))
    assert report.config.preset == "large-pair"


def test_artifacts_written_and_manifested(tmp_path):
    out = tmp_path / "artifacts"
    (tmp_path / "artifacts").mkdir()
    stray = out / "leftover.txt"
    stray.write_text("not part of this run\n")
    config = quick_config()
    emit_artifacts(run_pair_experiment(config), out)

    expected = {
        "experiment_config.json", "inter_distances.csv", "intra_distances.csv",
        "hist_inter_lhd.csv", "hist_inter_l2.csv", "hist_intra_lhd.csv",
        "hist_intra_l2.csv", "summary.json", "manifest.json",
    }
    assert set(os.listdir(out)) == expected | {"leftover.txt"}

    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["files"]) == expected - {"manifest.json"}
    assert "leftover.txt" not in manifest["files"]
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    with open(out / "inter_distances.csv") as handle:
        lines = handle.read().splitlines()
    assert lines[0] == "challenge_index,challenge_digest,lhd,l2"
    assert len(lines) == 1 + 30

    summary = json.loads((out / "summary.json").read_text())
    assert summary["preset"] == "small-pair"
    assert summary["looseness_sweep"] is None

    saved_config = json.loads((out / "experiment_config.json").read_text())
    assert config_from_dict(saved_config) == config


def test_artifacts_identical_across_reruns(tmp_path):
    config = quick_config(noise=NoiseConfig(samples_per_response=40))
    first = emit_artifacts(run_pair_experiment(config), tmp_path / "run1")
    second = emit_artifacts(run_pair_experiment(config), tmp_path / "run2")
    assert first == second
    for name in first:
        assert (tmp_path / "run1" / name).read_bytes() == \
            (tmp_path / "run2" / name).read_bytes()


def test_large_pair_artifacts_include_sweep(tmp_path):
    config = large_pair_config(
        challenge_count=4, repeat_count=2,
        noise=NoiseConfig.disabled(),
    )
    emit_artifacts(run_pair_experiment(config), tmp_path / "big")
    path = tmp_path / "big" / "looseness_sweep.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == ("looseness,repeated_mean,repeated_std,"
                        "random_mean,random_std,separation")
    assert len(lines) == 1 + 10
    manifest = json.loads((tmp_path / "big" / "manifest.json").read_text())
    assert "looseness_sweep.csv" in manifest["files"]


def test_numpy_integer_fields_run_and_emit_as_ints(tmp_path):
    # json cannot write a numpy integer, so the config stores each field as an int
    fields = dict(chip_seeds=(1234, 777), challenge_count=6, repeat_count=3, seed=5,
                  looseness_max=4, headline_looseness=2)
    as_numpy = {name: np.int64(value) for name, value in fields.items() if name != "chip_seeds"}
    config = quick_config(**as_numpy, chip_seeds=np.array(fields["chip_seeds"]))
    assert config == quick_config(**fields)
    stored = [*config.chip_seeds, *(getattr(config, name) for name in as_numpy)]
    assert all(type(value) is int for value in stored)
    emit_artifacts(run_pair_experiment(config), tmp_path / "numpy")
    emit_artifacts(run_pair_experiment(quick_config(**fields)), tmp_path / "int")
    assert (tmp_path / "numpy" / "manifest.json").read_bytes() == \
        (tmp_path / "int" / "manifest.json").read_bytes()


def test_full_disagreement_dominates_at_default_quantization():
    # headline looseness 1 makes the inter rows carry the plain Hamming
    # distance; the distribution should peak at complete disagreement and
    # responses agreeing on three or more of the eight channels stay rare
    config = small_pair_config(
        challenge_count=400, repeat_count=2, headline_looseness=1
    )
    report = run_pair_experiment(config)
    lhd = np.array([row[2] for row in report.inter_rows])
    values, counts = np.unique(lhd, return_counts=True)
    assert values[int(np.argmax(counts))] == 8
    assert float(np.mean(lhd <= 5)) < 0.10


def test_finer_quantization_reaches_full_disagreement_majority():
    # shrinking the bin fraction to 0.1 percent resolves near-dark channels
    # that round together at the default 0.5 percent, pushing well over
    # sixty percent of mirrored challenges to complete disagreement
    config = small_pair_config(
        challenge_count=400, repeat_count=2,
        headline_looseness=1, bin_fraction=0.001,
    )
    report = run_pair_experiment(config)
    lhd = np.array([row[2] for row in report.inter_rows])
    assert float(np.mean(lhd == 8)) >= 0.60
    assert float(np.mean(lhd <= 5)) < 0.10


# the fields of the CSV artifacts: ints, numpy ints, Python floats and their
# reprs (inf and nan too), sha256 hex digests, a device label or an empty
# separation.  A digest is drawn as 32 bytes, one draw rather than 64
CSV_FIELDS = (
    st.integers()
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.integers(0, 255).map(np.uint8)
    | st.floats()
    | st.floats().map(repr)
    | st.binary(min_size=32, max_size=32).map(bytes.hex)
    | st.sampled_from(("A", "B", ""))
)
CSV_ROWS = st.lists(CSV_FIELDS, min_size=2, max_size=6)
# a header name: a lowercase letter, then lowercase letters and underscores
CSV_NAMES = st.builds(operator.add, st.sampled_from(string.ascii_lowercase),
                      st.text(string.ascii_lowercase + "_"))


@settings(max_examples=300, deadline=None)
@given(header=st.lists(CSV_NAMES, min_size=2, max_size=6) | CSV_ROWS,
       rows=st.lists(CSV_ROWS, max_size=6))
def test_csv_text_writes_what_csv_writer_writes(header, rows):
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(header)
    writer.writerows(rows)
    assert _csv_text(header, rows) == expected.getvalue()
