"""CrpDatabase.load/save with the kept database against an uncached oracle.

oracle_text and oracle_load are the per-row encode and decode that save
and load ran before any cache, kept here as the reference: every file save
writes must equal oracle_text byte for byte, and every database load
returns must equal oracle_load's, whether it reuses the records this
process last saved or loaded or decodes the file.
"""

import dataclasses
import json
import os
import stat
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from mzipuf import protocol
from mzipuf._codec import check_format, decode, encode
from mzipuf.fabrication import Challenge, ChipLayoutSpec, carve_device, fabricate_chip
from mzipuf.metrics import QuantizedResponse, distance_stats
from mzipuf.protocol import (
    DB_FORMAT,
    CrpDatabase,
    CrpRecord,
    VerifyPolicy,
    _DbHeader,
    enroll,
    issue_challenge,
)


def oracle_text(db) -> str:
    header = _DbHeader(db.device_digest, db.bin_fraction, len(db.records),
                       db.collision_pairs, db.policy)
    to_json = json.JSONEncoder(sort_keys=True).encode
    lines = [to_json({"format": DB_FORMAT, **encode(header)})]
    for cid in sorted(db.records):
        row = encode(db.records[cid])
        row.update(row.pop("challenge"), id=row.pop("challenge_id"),
                   reference=row["reference"]["bins"])
        lines.append(to_json(row))
    return "".join(line + "\n" for line in lines)


def oracle_load(path) -> CrpDatabase:
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    header = decode(_DbHeader, check_format(json.loads(lines[0]), DB_FORMAT, "CRP database"))
    db = CrpDatabase(header.device_digest, header.bin_fraction, policy=header.policy,
                     collision_pairs=header.collision_pairs)
    for row in map(json.loads, lines[1:]):
        reference = {"bins": row.get("reference"), "bin_fraction": db.bin_fraction}
        db.add(decode(CrpRecord, {**row, "challenge_id": row.get("id"), "challenge": row,
                                  "reference": reference}))
    assert len(db) == header.record_count
    return db


def make_db(rng_seed=3, challenge_count=6) -> CrpDatabase:
    chip = fabricate_chip(1234, ChipLayoutSpec(mzi_count=10))
    db = enroll(carve_device(chip, 4, tuple(range(10))), challenge_count,
                repeats_per_challenge=3, rng_seed=rng_seed)
    db.policy = VerifyPolicy(looseness=2, lhd_threshold=1, l2_threshold=3.5)
    db.records[1] = dataclasses.replace(db.records[1], repeat_stats=None)
    return db


BASE = make_db()
IDS = sorted(BASE.records)
OTHER_TEXT = oracle_text(make_db(rng_seed=4, challenge_count=3))


@dataclasses.dataclass(frozen=True)
class TaggedRecord(CrpRecord):
    """A record subclass whose extra field save writes into its row."""

    tag: str = "x"


def equal_copies(record: CrpRecord) -> CrpRecord:
    """A record equal to record whose fields are all new objects."""
    challenge = record.challenge
    stats = record.repeat_stats
    return CrpRecord(
        record.challenge_id,
        Challenge(challenge.levels, challenge.bits, challenge.v2pi_nominal),
        QuantizedResponse(record.reference.bins, record.reference.bin_fraction),
        None if stats is None else dataclasses.replace(stats),
        record.consumed,
    )


REPLACEMENTS = {
    "same fields": dataclasses.replace,
    "equal copies": equal_copies,
    "new reference": lambda record: dataclasses.replace(
        record, reference=QuantizedResponse(tuple(b + 1 for b in record.reference.bins),
                                            record.reference.bin_fraction)),
    "new stats": lambda record: dataclasses.replace(
        record, repeat_stats=distance_stats([record.challenge_id, 2.5])),
    "subclass": lambda record: TaggedRecord(
        **{f.name: getattr(record, f.name) for f in dataclasses.fields(record)}),
}

# hand edits of a row; the first three keep its values in a non-canonical line
EDITS = {
    "reordered keys": lambda row: json.dumps(dict(reversed(list(row.items())))),
    "extra spaces": lambda row: json.dumps(row, sort_keys=True, separators=(" ,  ", " :  ")),
    "float bits": lambda row: json.dumps({**row, "bits": 10.0}, sort_keys=True),
    "flip consumed": lambda row: json.dumps({**row, "consumed": not row["consumed"]},
                                            sort_keys=True),
}


def edit_line(path, cid, edit) -> None:
    lines = Path(path).read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        row = json.loads(line)
        if row["id"] == cid:
            lines[i] = EDITS[edit](row)
    Path(path).write_text("".join(line + "\n" for line in lines))


class MemoAgainstOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.path = Path(self.tmp.name) / "db.jsonl"
        self.other = Path(self.tmp.name) / "other.jsonl"
        self.other.write_text(OTHER_TEXT)

    def teardown(self):
        self.tmp.cleanup()

    @initialize()
    def start(self):
        self.path.write_text(oracle_text(BASE))
        self.load()

    @rule()
    def load(self):
        self.db = CrpDatabase.load(self.path)
        assert self.db == oracle_load(self.path)

    @rule()
    def load_another_database(self):
        assert CrpDatabase.load(self.other) == oracle_load(self.other)

    @rule(seed=st.integers(0, 2**16))
    def issue(self, seed):
        if self.db.unconsumed_ids():
            issue_challenge(self.db, np.random.default_rng(seed))

    @rule(cid=st.sampled_from(IDS))
    def flip_consumed(self, cid):
        record = self.db.records[cid]
        self.db.records[cid] = dataclasses.replace(record, consumed=not record.consumed)

    @rule(cid=st.sampled_from(IDS), how=st.sampled_from(sorted(REPLACEMENTS)))
    def replace_record(self, cid, how):
        self.db.records[cid] = REPLACEMENTS[how](self.db.records[cid])

    @rule(bin_fraction=st.sampled_from((0.05, 0.1)))
    def set_bin_fraction(self, bin_fraction):
        self.db.bin_fraction = bin_fraction

    @rule()
    def save(self):
        self.db.save(self.path)
        assert self.path.read_bytes() == oracle_text(self.db).encode()

    @rule(cid=st.sampled_from(IDS), edit=st.sampled_from(sorted(EDITS)))
    def hand_edit(self, cid, edit):
        edit_line(self.path, cid, edit)

    @invariant()
    def saves_like_the_oracle(self):
        if hasattr(self, "db"):
            check = Path(self.tmp.name) / "check.jsonl"
            self.db.save(check)
            assert check.read_bytes() == oracle_text(self.db).encode()


TestMemoAgainstOracle = MemoAgainstOracle.TestCase
TestMemoAgainstOracle.settings = settings(max_examples=40, stateful_step_count=25,
                                          deadline=None)


def test_save_encodes_every_record_that_no_longer_holds_its_loaded_values(tmp_path):
    path = tmp_path / "db.jsonl"
    BASE.save(path)
    db = CrpDatabase.load(path)
    for cid, how in enumerate(("subclass", "equal copies", "new reference", "new stats")):
        db.records[cid] = REPLACEMENTS[how](db.records[cid])
    db.records[5] = dataclasses.replace(db.records[5], consumed=not db.records[5].consumed)
    db.save(path)
    assert path.read_bytes() == oracle_text(db).encode()
    assert CrpDatabase.load(path) == oracle_load(path)


def test_a_record_refuses_a_bool_id():
    # True == 1, but json would save it as "id": true, which load refuses
    for cid in (0, 1):
        with pytest.raises(ValueError, match=f"^challenge_id must be an integer, got {cid == 1}$"):
            dataclasses.replace(BASE.records[cid], challenge_id=bool(cid))


def test_mutating_one_loaded_db_leaves_a_second_load_alone(tmp_path):
    path = tmp_path / "db.jsonl"
    BASE.save(path)
    first = CrpDatabase.load(path)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.records[0].consumed = True
    first.records[0] = dataclasses.replace(first.records[0], consumed=True)
    first.records[2] = dataclasses.replace(first.records[2], challenge=Challenge(levels=(5,) * 10))
    first.records[3] = equal_copies(first.records[3])
    second = CrpDatabase.load(path)
    assert second == oracle_load(path) == BASE
    assert first != second
    assert not second.records[0].consumed


def test_non_canonical_lines_load_like_the_oracle_and_save_canonically(tmp_path):
    path = tmp_path / "db.jsonl"
    BASE.save(path)
    for cid, edit in zip(IDS, ("reordered keys", "extra spaces", "float bits")):
        edit_line(path, cid, edit)
    edited = path.read_text().splitlines()[1:4]
    assert all(line not in BASE_LINES for line in edited)
    for _ in range(2):  # the second load reuses the records the first decoded
        db = CrpDatabase.load(path)
        assert db == oracle_load(path) == BASE
    for _ in range(2):  # the second save knows they are not canonical
        db.save(path)
        assert path.read_text() == oracle_text(BASE)
        edit_line(path, IDS[0], "reordered keys")
        db = CrpDatabase.load(path)


def test_a_load_decodes_only_what_this_process_did_not_save(tmp_path, monkeypatch):
    path = tmp_path / "db.jsonl"
    decoded, encoded = [], []

    def counted(name, calls):
        real = getattr(protocol, name)
        monkeypatch.setattr(protocol, name, lambda *args: calls.append(1) or real(*args))

    counted("_decode_row", decoded)
    counted("_row_line", encoded)
    # a load after this process's own save decodes no row
    db = make_db(rng_seed=5)
    db.save(path)
    encoded.clear()
    for seed in range(3):
        db = CrpDatabase.load(path)
        issue_challenge(db, np.random.default_rng(seed))
        db.save(path)
        assert CrpDatabase.load(path) == oracle_load(path) == db
    assert (len(decoded), len(encoded)) == (0, 3)
    # a file another writer wrote decodes each row once
    path.write_text(oracle_text(make_db(rng_seed=6)))
    for _ in range(2):
        assert CrpDatabase.load(path) == oracle_load(path)
    assert (len(decoded), len(encoded)) == (len(IDS), 3)
    # a load would not give back a subclass record, or a reference binned at
    # another fraction: after such a save the next load decodes every row
    for how in ("subclass", "fraction"):
        db = CrpDatabase.load(path)
        if how == "subclass":
            db.records[0] = REPLACEMENTS["subclass"](db.records[0])
        else:
            db.bin_fraction = 0.05
        db.save(path)
        decoded.clear()
        assert CrpDatabase.load(path) == oracle_load(path) != db
        assert len(decoded) == len(IDS)


def rewrite_in_the_same_mtime(path, db) -> None:
    """Write oracle_text(db) at path and give it back the mtime it had."""
    mtime = os.stat(path).st_mtime_ns
    path.write_text(oracle_text(db))
    os.utime(path, ns=(mtime, mtime))


def test_a_change_by_another_writer_is_always_seen(tmp_path):
    path = tmp_path / "db.jsonl"
    BASE.save(path)
    db = CrpDatabase.load(path)
    # a concurrent `mzipuf issue` that consumes one more record
    theirs = dataclasses.replace(db, records=db.records.values())
    theirs_id = issue_challenge(theirs, np.random.default_rng(0)).challenge_id
    rewrite_in_the_same_mtime(path, theirs)
    db = CrpDatabase.load(path)
    assert db.records[theirs_id].consumed
    assert db == oracle_load(path) == theirs
    # this process consumes a record and saves; a concurrent issue that read
    # the file before that save consumes another one: the same path, mtime
    # and size as the text this process wrote
    theirs = dataclasses.replace(db, records=db.records.values())
    ours_id = issue_challenge(db, np.random.default_rng(1)).challenge_id
    db.save(path)
    size = os.stat(path).st_size
    theirs_id = next(cid for cid in theirs.unconsumed_ids() if cid != ours_id)
    theirs.records[theirs_id] = dataclasses.replace(theirs.records[theirs_id], consumed=True)
    rewrite_in_the_same_mtime(path, theirs)
    assert os.stat(path).st_size == size
    db = CrpDatabase.load(path)
    assert db.records[theirs_id].consumed and not db.records[ours_id].consumed
    assert db == oracle_load(path) == theirs
    # the same bytes rewritten, and copied to a second path
    path.write_bytes(path.read_bytes())
    assert CrpDatabase.load(path) == oracle_load(path) == theirs
    copy = tmp_path / "copy.jsonl"
    copy.write_bytes(path.read_bytes())
    assert CrpDatabase.load(copy) == oracle_load(copy) == theirs


def test_save_keeps_the_text_it_wrote_and_its_records(tmp_path):
    # splitlines splits at each of these; the JSON encoder escapes them all
    digest = "a\u2028b\x85c\x1cd\re"
    db = dataclasses.replace(BASE, device_digest=digest, records=BASE.records.values())
    path = tmp_path / "db.jsonl"
    db.save(path)
    text, header, records = protocol._kept
    assert text.encode() == path.read_bytes() == oracle_text(db).encode()
    assert len(text.splitlines()) == len(db) + 1
    assert records == [db.records[cid] for cid in IDS]
    loaded = CrpDatabase.load(path)
    assert loaded == oracle_load(path) == db
    assert loaded.device_digest == header.device_digest == digest
    # a subclass record reads back as a CrpRecord, so save keeps no header
    db.records[0] = TaggedRecord(**{f.name: getattr(db.records[0], f.name)
                                    for f in dataclasses.fields(CrpRecord)}, tag=digest)
    db.save(path)
    text, header, records = protocol._kept
    assert text.encode() == path.read_bytes() == oracle_text(db).encode()
    assert header is None and records[0] is db.records[0]
    loaded = CrpDatabase.load(path)
    assert loaded == oracle_load(path) != db
    assert loaded.device_digest == digest


def test_the_kept_header_is_the_one_load_decodes(tmp_path):
    # an int l2_threshold is written as 3 and reads back as 3.0, which a
    # later save writes as 3.0
    db = dataclasses.replace(BASE, policy=VerifyPolicy(l2_threshold=3),
                             records=BASE.records.values())
    path = tmp_path / "db.jsonl"
    db.save(path)
    CrpDatabase.load(path).save(path)
    assert path.read_text() == oracle_text(oracle_load(path))
    assert '"l2_threshold": 3.0' in path.read_text()


def test_save_failing_mid_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "db.jsonl"
    BASE.save(path)
    before = path.read_bytes()
    calls = []

    def failing_row_line(record):
        calls.append(record.challenge_id)
        if len(calls) == 3:
            raise RuntimeError("crash mid-write")
        return oracle_line(record)

    monkeypatch.setattr(protocol, "_row_line", failing_row_line)
    changed = make_db(rng_seed=9)
    with pytest.raises(RuntimeError, match="mid-write"):
        changed.save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["db.jsonl"]


def test_save_keeps_the_permission_bits_of_the_file_it_replaces(tmp_path):
    path = tmp_path / "db.jsonl"
    BASE.save(path)
    os.chmod(path, 0o640)
    make_db(rng_seed=9).save(path)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert os.listdir(tmp_path) == ["db.jsonl"]


def test_save_gives_a_new_file_the_mode_open_gives(tmp_path):
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        BASE.save(tmp_path / "db.jsonl")
    finally:
        os.umask(old_umask)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("plain", "db.jsonl")}
    assert modes == {0o640}


def test_save_through_a_symlink_replaces_its_target(tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "db.jsonl"
    BASE.save(target)
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    changed = make_db(rng_seed=9)
    changed.save(link)
    assert link.is_symlink()
    assert target.read_text() == oracle_text(changed)
    assert sorted(os.listdir(tmp_path / "data")) == ["db.jsonl"]


def oracle_line(record) -> str:
    return oracle_text(CrpDatabase("d", records=[record])).splitlines()[1]


BASE_LINES = set(oracle_text(BASE).splitlines())
