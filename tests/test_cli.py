"""Command line interface tests, driven through main(argv)."""

import json
import subprocess
import sys

import pytest

from mzipuf.cli import main
from mzipuf.combinatorics import chip_crp_total, distinguishable_crp_count
from mzipuf.fabrication import load_chip
from mzipuf.protocol import CrpDatabase, VerifyPolicy


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_count_crps_table(capsys):
    code, out = run_cli(capsys, "count-crps", "--table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "columns,mzi_count,exact,scientific"
    assert len(lines) == 9
    last = lines[-1].split(",")
    assert last[0] == "11" and last[1] == "66"
    assert int(last[2]) == distinguishable_crp_count(11, 66)
    assert last[3] == "6.85e35"


def test_count_crps_default_renders_both(capsys):
    code, out = run_cli(capsys, "count-crps", "--columns", "4", "--mzis", "10")
    assert code == 0
    assert "distinguishable: 1.19e5 (118784)" in out
    assert "naive bound:" in out


def test_count_crps_exact_and_sci_forms(capsys):
    _, out = run_cli(capsys, "count-crps", "--columns", "4", "--mzis", "10", "--exact")
    assert "distinguishable: 118784" in out
    assert "1.19e5" not in out
    _, out = run_cli(capsys, "count-crps", "--columns", "4", "--mzis", "10", "--sci")
    assert "distinguishable: 1.19e5" in out
    assert "118784" not in out
    with pytest.raises(SystemExit):
        main(["count-crps", "--exact", "--sci"])


def test_count_crps_subsets(capsys):
    _, out = run_cli(capsys, "count-crps", "--columns", "11", "--mzis", "66",
                     "--subsets", "3", "--exact")
    assert f"distinguishable: {chip_crp_total(3, 11, 66)}" in out


@pytest.mark.parametrize("subsets", ["0", "-2"])
def test_count_crps_rejects_subsets_below_one(capsys, subsets):
    assert main(["count-crps", "--subsets", subsets]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: subset_count must be >= 1" in captured.err


def test_fabricate_and_carve(tmp_path, capsys):
    chip_path = tmp_path / "chip.json"
    code, out = run_cli(capsys, "fabricate", "--seed", "5", "--mzis", "20",
                        "--out", str(chip_path))
    assert code == 0
    chip = load_chip(chip_path)
    assert chip.spec.mzi_count == 20
    assert chip.digest()[:12] in out

    device_path = tmp_path / "device.json"
    code, out = run_cli(capsys, "carve", "--chip", str(chip_path),
                        "--preset", "small-pair", "--which", "1",
                        "--out", str(device_path))
    assert code == 0
    payload = json.loads(device_path.read_text())
    assert payload["columns"] == 4
    assert payload["slots"] == list(range(10, 20))

    explicit = tmp_path / "explicit.json"
    code, _ = run_cli(capsys, "carve", "--chip", str(chip_path),
                      "--columns", "4",
                      "--slots", ",".join(str(i) for i in range(10)),
                      "--out", str(explicit))
    assert code == 0
    assert json.loads(explicit.read_text())["slots"] == list(range(10))

    with pytest.raises(SystemExit):
        main(["carve", "--chip", str(chip_path), "--out", str(tmp_path / "x.json")])


def test_fabricate_calibrated(tmp_path, capsys):
    chip_path = tmp_path / "chip.json"
    run_cli(capsys, "fabricate", "--seed", "5", "--mzis", "4", "--calibrated",
            "--out", str(chip_path))
    chip = load_chip(chip_path)
    assert all(h.phase_offset == 0.0 for h in chip.heaters)


@pytest.fixture
def enrolled(tmp_path, capsys):
    chip_path = tmp_path / "chip.json"
    device_path = tmp_path / "device.json"
    db_path = tmp_path / "db.jsonl"
    main(["fabricate", "--seed", "5", "--mzis", "20", "--out", str(chip_path)])
    main(["carve", "--chip", str(chip_path), "--preset", "small-pair",
          "--out", str(device_path)])
    code = main(["enroll", "--chip", str(chip_path), "--device", str(device_path),
                 "--count", "12", "--repeats", "2", "--seed", "3", "--no-noise",
                 "--db", str(db_path)])
    assert code == 0
    capsys.readouterr()
    return db_path


@pytest.mark.parametrize("edit", [
    lambda p: {**p, "columns": None},
    lambda p: {**p, "slots": None},
    lambda p: {k: v for k, v in p.items() if k != "chip_digest"},
    lambda p: [p],
], ids=["null-columns", "null-slots", "no-chip-digest", "list"])
def test_enroll_with_a_bad_device_file_is_an_error(tmp_path, capsys, edit):
    chip_path, device_path = tmp_path / "chip.json", tmp_path / "device.json"
    main(["fabricate", "--seed", "5", "--mzis", "20", "--out", str(chip_path)])
    main(["carve", "--chip", str(chip_path), "--preset", "small-pair",
          "--out", str(device_path)])
    device_path.write_text(json.dumps(edit(json.loads(device_path.read_text()))))
    capsys.readouterr()
    assert main(["enroll", "--chip", str(chip_path), "--device", str(device_path),
                 "--db", str(tmp_path / "db.jsonl")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "db.jsonl").exists()


def test_enroll_writes_database(enrolled):
    db = CrpDatabase.load(enrolled)
    assert len(db) == 12
    assert db.unconsumed_ids() == list(range(12))


def test_issue_consumes_and_persists(enrolled, capsys):
    code, out = run_cli(capsys, "issue", "--db", str(enrolled), "--seed", "1")
    assert code == 0
    first = json.loads(out)
    assert 0 <= first["challenge_id"] < 12
    assert len(first["levels"]) == 10

    code, out = run_cli(capsys, "issue", "--db", str(enrolled), "--seed", "1")
    second = json.loads(out)
    db = CrpDatabase.load(enrolled)
    assert len(db.unconsumed_ids()) == 10
    assert first["challenge_id"] not in db.unconsumed_ids()
    assert second["challenge_id"] not in db.unconsumed_ids()


def test_verify_accepts_reference_and_rejects_garbage(enrolled, capsys):
    db = CrpDatabase.load(enrolled)
    reference = db.record(4).reference
    bins = ",".join(str(b) for b in reference.bins)
    code, out = run_cli(capsys, "verify", "--db", str(enrolled),
                        "--challenge-id", "4", "--bins", bins)
    assert code == 0
    decision = json.loads(out)
    assert decision["accepted"] is True
    assert decision["lhd"] == 0 and decision["l2"] == 0.0

    wrong = ",".join("1" for _ in reference.bins)
    code, out = run_cli(capsys, "verify", "--db", str(enrolled),
                        "--challenge-id", "4", "--bins", wrong)
    assert code == 2
    assert json.loads(out)["accepted"] is False


def test_verify_with_explicit_thresholds(enrolled, capsys):
    db = CrpDatabase.load(enrolled)
    bins = list(db.record(0).reference.bins)
    bins[0] += 1
    code, out = run_cli(capsys, "verify", "--db", str(enrolled),
                        "--challenge-id", "0",
                        "--bins", ",".join(str(b) for b in bins),
                        "--looseness", "2", "--lhd-threshold", "0",
                        "--l2-threshold", "2.0")
    assert code == 0
    decision = json.loads(out)
    assert decision["accepted"] is True
    assert decision["l2"] == 1.0


@pytest.mark.parametrize("flag, value, policy", [
    ("--lhd-threshold", "1", VerifyPolicy(lhd_threshold=0, l2_threshold=3.0)),
    ("--l2-threshold", "3.0", VerifyPolicy(lhd_threshold=1, l2_threshold=1.0)),
    ("--looseness", "3", VerifyPolicy(lhd_threshold=0, l2_threshold=3.0)),
])
def test_verify_flag_overrides_only_its_field_of_the_db_policy(enrolled, capsys,
                                                               flag, value, policy):
    db = CrpDatabase.load(enrolled)
    db.policy = policy
    db.save(enrolled)
    bins = list(db.record(0).reference.bins)
    bins[0] += 2  # lhd 1 at looseness 1 and 2, 0 at 3; l2 2.0
    argv = ["verify", "--db", str(enrolled), "--challenge-id", "0",
            "--bins", ",".join(str(b) for b in bins)]
    code, out = run_cli(capsys, *argv)
    assert code == 2  # the database policy alone rejects
    code, out = run_cli(capsys, *argv, flag, value)
    assert code == 0
    decision = json.loads(out)
    assert decision["accepted"] is True
    assert decision["lhd"] == (0 if flag == "--looseness" else 1)
    assert decision["l2"] == 2.0


def test_verify_single_flag_keeps_strict_default_without_db_policy(enrolled, capsys):
    db = CrpDatabase.load(enrolled)
    assert db.policy is None
    bins = list(db.record(0).reference.bins)
    bins[0] += 2
    code, out = run_cli(capsys, "verify", "--db", str(enrolled), "--challenge-id", "0",
                        "--bins", ",".join(str(b) for b in bins), "--lhd-threshold", "5")
    assert code == 2  # the unset l2 threshold stays the strict 0.0
    assert json.loads(out)["l2"] == 2.0


def test_audit_collisions_reports_counts(enrolled, capsys):
    code, out = run_cli(capsys, "audit-collisions", "--db", str(enrolled))
    assert code == 0
    payload = json.loads(out)
    assert payload["record_count"] == 12
    assert payload["collision_pairs"] >= 0
    assert isinstance(payload["groups"], list)


def test_experiment_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out = run_cli(capsys, "experiment", "small-pair",
                        "--challenges", "10", "--repeats", "2", "--no-noise",
                        "--out", str(out_dir))
    assert code == 0
    assert "uniqueness(L=2)" in out
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "manifest.json").exists()


def test_experiment_config_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "from_config"
    main(["experiment", "small-pair", "--challenges", "5", "--repeats", "2",
          "--no-noise", "--out", str(out_dir)])
    capsys.readouterr()
    config_path.write_text((out_dir / "experiment_config.json").read_text())

    code, out = run_cli(capsys, "experiment", "small-pair",
                        "--config", str(config_path))
    assert code == 0
    assert "5 mirrored challenges" in out

    with pytest.raises(SystemExit):
        main(["experiment", "large-pair", "--config", str(config_path)])


def test_experiment_config_file_with_null_seed_is_an_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"preset": "small-pair", "seed": None}))
    assert main(["experiment", "small-pair", "--config", str(config_path)]) == 1
    assert "error: ExperimentConfig.seed" in capsys.readouterr().err


def test_experiment_adversary_seed(capsys):
    code, out = run_cli(capsys, "experiment", "small-pair",
                        "--challenges", "5", "--repeats", "2", "--no-noise",
                        "--adversary-seed", "777")
    assert code == 0
    assert "complete collisions" in out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mzipuf.cli", "count-crps", "--table"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[0] == "columns,mzi_count,exact,scientific"
