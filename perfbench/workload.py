"""One benchmark workload in one process: set-up, timed iterations, checks.

run.py starts this file with the benchmark's environment (single-threaded
BLAS, ``src`` on the path) and reads the JSON object it prints as its last
line.  ``--setup-only`` stops after set-up, so the launcher can time set-up
in several fresh processes.

Set-up time runs from before ``import mzipuf`` to the first timed
operation: the import, ``fabricate_chip``, ``carve_pair`` and ``crp_table``.
Every iteration repeats the same inputs, derived from ``--seed``; its
outputs must match the first iteration's exactly.
"""

import time

_START = time.perf_counter()

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import mzipuf
import numpy as np
from mzipuf import experiments, fabrication

from tracer import Tracer

WORKLOADS = ("large-pair", "small-pair-noiseless", "enroll-auth")
PAIRS = WORKLOADS[:2]

# Traced names and the workloads meant to exercise each.  Helpers called
# only from inside one traced function (effective_voltages, mzi_unitary,
# coupler_matrix) stay in that function's self time: mzi_unitary runs 66
# times per large-pair measurement, so wrapping it would cost more than it
# measures.
TRACED = (
    ("mesh.build_mesh", WORKLOADS),
    ("mesh.propagate", WORKLOADS),
    ("fabrication.fabricate_chip", WORKLOADS),
    ("fabrication.carve_device", WORKLOADS),
    ("fabrication.shared_mzi_count", PAIRS),
    ("fabrication.voltages_to_phases", WORKLOADS),
    ("fabrication.measure", WORKLOADS),
    ("metrics.quantize", WORKLOADS),
    ("metrics.euclidean_distance", WORKLOADS),
    ("metrics.loose_hamming_distance", WORKLOADS),
    ("metrics.distance_stats", WORKLOADS),
    ("metrics.looseness_sweep", ("large-pair",)),
    ("combinatorics.crp_table", WORKLOADS),
    ("protocol.enroll", ("enroll-auth",)),
    ("protocol.audit_collisions", ("enroll-auth",)),
    ("protocol.calibrate_policy", ("enroll-auth",)),
    ("protocol.issue_challenge", ("enroll-auth",)),
    ("protocol.verify", ("enroll-auth",)),
    ("protocol.CrpDatabase.load", ("enroll-auth",)),
    ("protocol.CrpDatabase.save", ("enroll-auth",)),
    ("experiments.run_pair_experiment", PAIRS),
    ("experiments.emit_artifacts", PAIRS),
)
COUNTERS = ("experiments.artifact_bytes", "protocol.db_bytes_written")

# pair-workload requests: single challenge-response queries on device A per
# iteration, each timed alone; 200 keep 10 samples beyond p95
QUERIES = 200
# enroll-auth sizes: at least 200 sessions keeps 10 samples beyond p95
ENROLL_CHALLENGES = 200
ENROLL_REPEATS = 5
CALIBRATION_SAMPLES = 50


def derive_seeds(seed: int) -> tuple[int, int]:
    """Chip seed and run seed of a workload seed."""
    rng = random.Random(seed)
    return rng.getrandbits(32), rng.getrandbits(32)


def sha256_file(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def tree_bytes(directory) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory))


def crp_budget() -> tuple[list, str]:
    """Check crp_table's first row; return (failures, the 66-MZI mesh's budget)."""
    rows = mzipuf.crp_table()
    failures = []
    if rows[0][:3] != (4, 10, 118784):
        failures.append(f"crp_table first row is {rows[0][:3]}, expected (4, 10, 118784)")
    budget = next(rendered for columns, _, _, rendered in rows if columns == 11)
    return failures, budget


class PairWorkload:
    """run_pair_experiment plus emit_artifacts on one preset, then queries.

    The experiment and its artifacts are one batch job, a few per run, so
    the request latencies come from QUERIES single queries on device A
    after it: ``measure`` at a fresh measurement index plus ``quantize``,
    as a device answers one challenge.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        chip_seed, run_seed = derive_seeds(seed)
        if name == "large-pair":
            self.config = experiments.large_pair_config(chip_seeds=(chip_seed,), seed=run_seed)
        else:
            self.config = experiments.small_pair_config(
                chip_seeds=(chip_seed,), seed=run_seed,
                noise=fabrication.NoiseConfig.disabled(),
            )
        preset = fabrication.preset_by_name(self.config.preset)
        chip = mzipuf.fabricate_chip(chip_seed, preset.chip_spec())
        self.devices = preset.carve_pair(chip)
        self.setup_failures, self.budget = crp_budget()
        self.measurements = 2 * self.config.challenge_count + 2 * self.config.repeat_count
        self.seeds = {"chip": chip_seed, "run": run_seed}

    def query(self) -> tuple[list, str]:
        """Latencies of QUERIES timed queries and a digest of the answers."""
        device, config = self.devices[0], self.config
        rng = np.random.default_rng((config.seed, 31))
        challenges = [
            mzipuf.Challenge.random(rng, device.layout.mzi_count) for _ in range(QUERIES)
        ]
        stream = None
        if config.noise.enabled:
            stream = mzipuf.NoiseStream((config.seed, 32), device.layout.mode_count, config.noise)
        latencies, answers = [], hashlib.sha256()
        for index, challenge in enumerate(challenges):
            t0 = time.perf_counter()
            raw = mzipuf.measure(device, challenge, stream, index)
            response = mzipuf.quantize(raw, config.bin_fraction)
            latencies.append(time.perf_counter() - t0)
            answers.update(np.asarray(response.bins, dtype=np.int64).tobytes())
        return latencies, answers.hexdigest()

    def iterate(self, workdir: Path, tracer):
        out_dir = workdir / "artifacts"
        start = time.perf_counter()
        report = mzipuf.run_pair_experiment(self.config)
        mzipuf.emit_artifacts(report, out_dir)
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.add("experiments.artifact_bytes", tree_bytes(out_dir))
        latencies, answers_sha = self.query()
        fingerprint = {
            "manifest_sha256": sha256_file(out_dir / "manifest.json"),
            "collisions": report.collision_count,
            "query_answers_sha256": answers_sha,
        }
        failures = self.check(report)
        return {
            "measuring_s": elapsed,
            "measurements": self.measurements,
            "requests_s": latencies,
            "attempted": 1,
            "failed": 1 if failures else 0,
            "failures": failures,
            "fingerprint": fingerprint,
        }

    def check(self, report) -> list[str]:
        failures = []
        expected = tuple(device.descriptor_digest() for device in self.devices)
        if report.device_digests != expected:
            failures.append("report devices differ from the devices carved in set-up")
        if self.name == "large-pair":
            if report.shared_mzis != 45:
                failures.append(f"shared_mzis {report.shared_mzis} != 45")
            if not report.inter_l2.min > report.intra_l2.max:
                failures.append(
                    f"inter l2 min {report.inter_l2.min} <= intra l2 max {report.intra_l2.max}"
                )
            rep = [s.mean for s in report.sweep.repeated]
            rand = [s.mean for s in report.sweep.random]
            monotone = all(a >= b for a, b in zip(rep, rep[1:])) and all(
                a >= b for a, b in zip(rand, rand[1:])
            )
            if not monotone or not all(r < q for r, q in zip(rep, rand)):
                failures.append("looseness sweep means are not monotone and separated")
        else:
            nonzero = [row for row in report.intra_rows if row[2] != 0 or row[3] != 0.0]
            if nonzero:
                failures.append(f"{len(nonzero)} noiseless intra distances are not 0")
        return failures


class EnrollAuthWorkload:
    """Enrol device A, calibrate against device B, then one-client sessions.

    An iteration attempts 2 + ENROLL_CHALLENGES units: the enrolment, each
    session, and the issue past the last record.  A session follows the
    CLI's persistence path: load, issue, save (the
    ``mzipuf issue`` step); the device answers at a fresh measurement
    index; load, verify (the ``mzipuf verify`` step).  Sessions alternate
    device A (legitimate) and device B (impostor, 45 shared sites).
    """

    def __init__(self, seed: int):
        chip_seed, self.run_seed = derive_seeds(seed)
        preset = fabrication.LARGE_PAIR
        chip = mzipuf.fabricate_chip(chip_seed, preset.chip_spec())
        self.devices = preset.carve_pair(chip)
        self.setup_failures, self.budget = crp_budget()
        self.measurements = ENROLL_CHALLENGES * ENROLL_REPEATS + 2 * CALIBRATION_SAMPLES
        self.seeds = {"chip": chip_seed, "run": self.run_seed}

    def iterate(self, workdir: Path, tracer):
        db_path = workdir / "crp.jsonl"
        streams = [
            (device, mzipuf.NoiseStream((self.run_seed, 21 + k), device.layout.mode_count),
             itertools.count())
            for k, device in enumerate(self.devices)
        ]

        def answer(which: int, challenge, bin_fraction):
            device, stream, indices = streams[which]
            raw = mzipuf.measure(device, challenge, stream, next(indices))
            return mzipuf.quantize(raw, bin_fraction)

        def save(db):
            db.save(db_path)
            if tracer:
                tracer.add("protocol.db_bytes_written", os.path.getsize(db_path))

        start = time.perf_counter()
        db = mzipuf.enroll(self.devices[0], ENROLL_CHALLENGES, ENROLL_REPEATS,
                           rng_seed=self.run_seed)
        held_out = range(CALIBRATION_SAMPLES)
        samples = [
            [(cid, answer(which, db.record(cid).challenge, db.bin_fraction)) for cid in held_out]
            for which in (0, 1)
        ]
        db.policy = mzipuf.calibrate_policy(db, samples[0], samples[1])
        save(db)
        measuring_s = time.perf_counter() - start
        enrolled_sha = sha256_file(db_path)

        failures, failed_sessions = [], set()
        issue_rng = np.random.default_rng((self.run_seed, 23))
        latencies, issued = [], set()
        outcomes = {"legit_accepted": 0, "legit_rejected": 0,
                    "impostor_accepted": 0, "impostor_rejected": 0}
        for session in range(ENROLL_CHALLENGES):
            which = session % 2
            t0 = time.perf_counter()
            db = mzipuf.CrpDatabase.load(db_path)
            record = mzipuf.issue_challenge(db, issue_rng)
            save(db)
            response = answer(which, record.challenge, db.bin_fraction)
            decision = mzipuf.verify(mzipuf.CrpDatabase.load(db_path), record.challenge_id,
                                     response)
            latencies.append(time.perf_counter() - t0)
            if record.challenge_id in issued:
                failures.append(f"challenge {record.challenge_id} issued twice")
                failed_sessions.add(session)
            issued.add(record.challenge_id)
            side = "impostor" if which else "legit"
            outcomes[f"{side}_{'accepted' if decision.accepted else 'rejected'}"] += 1
            if which and decision.accepted:
                failures.append(f"impostor session {session} accepted")
                failed_sessions.add(session)
        failed = len(failed_sessions)
        try:
            mzipuf.issue_challenge(mzipuf.CrpDatabase.load(db_path), issue_rng)
            failures.append("an issue past the last record did not raise")
            failed += 1
        except mzipuf.ExhaustedDatabaseError:
            pass
        return {
            "measuring_s": measuring_s,
            "measurements": self.measurements,
            "requests_s": latencies,
            "attempted": 2 + ENROLL_CHALLENGES,
            "failed": failed,
            "failures": failures,
            "fingerprint": {"enrolled_db_sha256": enrolled_sha, **outcomes},
        }


def measurement_rate(per_iteration) -> float:
    """Measurements per second over all timed spans together.  The host
    switches between two speeds, so a per-iteration median jumps between
    them while the pooled rate moves with the share of slow time."""
    return (sum(it["measurements"] for it in per_iteration)
            / sum(it["measuring_s"] for it in per_iteration))


def p95(values) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def summarize_trace(snapshot, per_iteration) -> dict:
    """Set-up plus the median iteration, per traced name and counter."""
    setup, iterations = snapshot[0], snapshot[1:1 + len(per_iteration)]
    layers = {}
    for name, _ in TRACED:
        calls = statistics.median_low([it["calls"][name] for it in iterations])
        self_s = statistics.median([it["self_s"][name] for it in iterations])
        layers[f"{name}.calls"] = (setup["calls"][name] + calls, "count")
        layers[f"{name}.self_ms"] = ((setup["self_s"][name] + self_s) * 1e3, "ms")
    for counter in COUNTERS:
        total = statistics.median_low([it["counters"].get(counter, 0) for it in iterations])
        layers[counter] = (total, "bytes")
    layers["trace.measurements_per_s"] = (measurement_rate(per_iteration), "1/s")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(mzipuf.__file__).resolve().parent.parent != src:
        print(f"mzipuf imported from {mzipuf.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer("mzipuf", [name for name, _ in TRACED]).install()
    if args.workload == "enroll-auth":
        workload = EnrollAuthWorkload(args.seed)
    else:
        workload = PairWorkload(args.workload, args.seed)
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s, "seeds": workload.seeds, "crp_budget_66": workload.budget}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # attempted and failed count the same units: iterations on the pair
    # workloads, enrolment, sessions and the exhaustion check on enroll-auth
    failures = list(workload.setup_failures)
    per_iteration, fingerprint = [], None
    attempted = failed = 1 if failures else 0
    begun = time.perf_counter()
    longest = 0.0
    while not failures:
        iteration_dir = Path(tempfile.mkdtemp(dir=args.workdir))
        if tracer:
            tracer.phase(f"iteration {len(per_iteration)}")
        t0 = time.perf_counter()
        try:
            outcome = workload.iterate(iteration_dir, tracer)
        except Exception:
            traceback.print_exc()
            attempted += 1
            failed += 1
            failures.append("iteration raised")
            break
        finally:
            shutil.rmtree(iteration_dir)
        longest = max(longest, time.perf_counter() - t0)
        per_iteration.append(outcome)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        failures.extend(outcome["failures"])
        if fingerprint is None:
            fingerprint = outcome["fingerprint"]
        elif outcome["fingerprint"] != fingerprint:
            failures.append("iteration output differs from the first iteration's")
            failed = min(attempted, failed + 1)
        # stop before an iteration that would overrun the measured window
        if time.perf_counter() - begun + longest > args.seconds:
            break

    requests = [latency for it in per_iteration for latency in it["requests_s"]]
    result.update({
        "numpy": np.__version__,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "fingerprint": fingerprint,
        "samples": {
            "iterations": len(per_iteration),
            "requests": len(requests),
            "measurements_per_iteration": workload.measurements,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if per_iteration:
        result["metrics"] = {
            "measurements_per_s": measurement_rate(per_iteration),
            "request_mean_ms": statistics.fmean(requests) * 1e3,
            "request_p95_ms": p95(requests) * 1e3,
        }
    if tracer:
        tracer.uninstall()
        if per_iteration:
            result["layers"] = summarize_trace(tracer.snapshot(), per_iteration)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
