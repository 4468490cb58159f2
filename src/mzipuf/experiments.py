"""Paired-device experiments: mirrored challenges, repeats, and artifacts.

A pair experiment fabricates a chip, carves two related devices from it,
drives both with the same mirrored challenge sequence (same challenge, same
measurement index on each device), and then repeats a single challenge many
times on each device.  Mirrored pairs give inter-device distances and
uniqueness; repeats give intra-device noise floors; the large preset also
sweeps the looseness parameter.

Artifacts are deterministic: rerunning with the same config reproduces
byte-identical CSV/JSON files, recorded in a digest manifest.
"""

from __future__ import annotations

import csv
import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ._codec import decode, encode, write_json
from .fabrication import (
    Challenge,
    NoiseConfig,
    NoiseStream,
    fabricate_chip,
    measure_batch,
    preset_by_name,
    shared_mzi_count,
)
from .metrics import (
    DEFAULT_BIN_FRACTION,
    DistanceStats,
    LoosenessSweep,
    _pair_differences,
    _row_l2,
    distance_stats,
    euclidean_distance,
    loose_hamming_distance,
    looseness_sweep,
    quantize,
)

CONFIG_FORMAT = "mzipuf-experiment-config/1"
SUMMARY_FORMAT = "mzipuf-experiment-summary/1"
MANIFEST_FORMAT = "mzipuf-manifest/1"


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of a pair experiment; everything downstream derives from these.

    chip_seeds has one entry normally; a second entry fabricates device B
    from a different chip to model a cloning attempt.  seed drives the
    challenge draw and both devices' noise streams through namespaced
    substreams.
    """

    preset: str = "small-pair"
    chip_seeds: tuple[int, ...] = (1234,)
    challenge_count: int = 2000
    repeat_count: int = 500
    seed: int = 99
    noise: NoiseConfig = NoiseConfig()
    bin_fraction: float = DEFAULT_BIN_FRACTION
    looseness_max: int = 10
    headline_looseness: int = 2
    clone_devices: bool = False
    output_dir: str | None = None

    def __post_init__(self):
        if self.challenge_count < 1 or self.repeat_count < 2:
            raise ValueError("need challenge_count >= 1 and repeat_count >= 2")
        if len(self.chip_seeds) not in (1, 2):
            raise ValueError("chip_seeds takes one chip seed or (device A, adversary)")
        if self.looseness_max < self.headline_looseness:
            raise ValueError("looseness_max must cover headline_looseness")


def _config_payload(config: ExperimentConfig) -> dict:
    """The stored config: its fields without output_dir, which is never written."""
    payload = encode(config)
    del payload["output_dir"]
    return {"format": CONFIG_FORMAT, **payload}


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Rebuild a config from its stored form (CLI --config files).

    preset is required; every other missing field, nested noise fields
    included, keeps its default.  output_dir is never read from a file.
    """
    if not isinstance(payload, dict) or "preset" not in payload:
        raise ValueError("experiment config names no preset")
    defaults = encode(ExperimentConfig())
    noise = payload.get("noise", {})
    noise = {**defaults["noise"], **noise} if isinstance(noise, dict) else noise
    return decode(ExperimentConfig, {**defaults, **payload, "noise": noise, "output_dir": None})


def small_pair_config(**overrides) -> ExperimentConfig:
    """Desk-scale defaults for the disjoint 10-MZI pair."""
    return replace(ExperimentConfig(preset="small-pair"), **overrides)


def large_pair_config(**overrides) -> ExperimentConfig:
    """Desk-scale defaults for the 66-MZI pair sharing 45 sites."""
    base = ExperimentConfig(preset="large-pair", challenge_count=1000)
    return replace(base, **overrides)


@dataclass
class ExperimentReport:
    """Everything a pair run produced, including raw per-pair distances."""

    config: ExperimentConfig
    device_digests: tuple[str, str] = ("", "")
    shared_mzis: int = 0
    collision_count: int = 0
    uniqueness_by_looseness: dict = field(default_factory=dict)
    inter_lhd: DistanceStats | None = None
    inter_l2: DistanceStats | None = None
    intra_lhd: DistanceStats | None = None
    intra_l2: DistanceStats | None = None
    separation_sigma: float | None = None
    sweep: LoosenessSweep | None = None
    sweep_separations: tuple = ()
    optimal_looseness: int | None = None
    challenge_set_digest: str = ""
    # raw rows backing the CSV artifacts
    inter_rows: tuple = ()  # (index, challenge_digest, lhd, l2)
    intra_rows: tuple = ()  # (device, repeat_index, lhd, l2)


def _sweep_separations(sweep: LoosenessSweep):
    """Mean gap over repeated-population sigma, per looseness value.

    Reported only: once the repeated distribution collapses to zero spread
    the ratio is unbounded, recorded as None and treated as larger than any
    finite value when locating the optimum.
    """
    separations = []
    for rep, rand in zip(sweep.repeated, sweep.random):
        gap = rand.mean - rep.mean
        if rep.std_dev > 0.0:
            separations.append(gap / rep.std_dev)
        else:
            separations.append(None if gap > 0.0 else 0.0)
    return tuple(separations)


def _optimal_looseness(sweep: LoosenessSweep, separations) -> int:
    def rank(value):
        return np.inf if value is None else value

    best = max(separations, key=rank)
    for level, value in zip(sweep.looseness_values, separations):
        if rank(value) == rank(best):
            return level
    return sweep.looseness_values[0]


def run_pair_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run a mirrored pair experiment and aggregate every headline metric."""
    preset = preset_by_name(config.preset)
    chip_a = fabricate_chip(config.chip_seeds[0], preset.chip_spec())
    device_a, device_b = preset.carve_pair(chip_a)
    if config.clone_devices:
        # degenerate control case: device B is the same carving as device A
        device_b = device_a
    elif len(config.chip_seeds) == 2:
        chip_b = fabricate_chip(config.chip_seeds[1], preset.chip_spec())
        device_b = preset.carve_pair(chip_b)[1]

    modes = device_a.layout.mode_count
    stream_a = stream_b = None
    if config.noise.enabled:
        stream_a = NoiseStream((config.seed, 1), modes, config.noise)
        stream_b = NoiseStream((config.seed, 2), modes, config.noise)

    challenge_rng = np.random.default_rng((config.seed, 0))
    challenges = [
        Challenge.random(challenge_rng, device_a.layout.mzi_count)
        for _ in range(config.challenge_count)
    ]

    def responses(device, stream, batch, indices):
        return [
            quantize(raw, config.bin_fraction)
            for raw in measure_batch(device, batch, stream, indices).reshape(-1, modes)
        ]

    # one |diff| row per mirrored pair: row i compares A and B on challenge i
    count = config.challenge_count
    headline = config.headline_looseness
    levels = range(1, config.looseness_max + 1)
    indices = np.arange(count)
    mirrored_pairs = list(zip(
        responses(device_a, stream_a, challenges, indices),
        responses(device_b, stream_b, challenges, indices),
    ))
    inter, inter_counts = _pair_differences(*zip(*mirrored_pairs), levels)
    inter_rows = tuple(zip(
        indices.tolist(),
        [challenge.digest() for challenge in challenges],
        inter_counts[:, headline - 1].tolist(),
        _row_l2(inter).tolist(),
    ))
    # a running sum in challenge order: numpy's pairwise sum could change the
    # last bits of the artifacts
    shares = np.cumsum(inter_counts / modes, axis=0)[-1].tolist()
    uniqueness_by_l = {level: total / count * 100.0 for level, total in zip(levels, shares)}

    # repeat one challenge on both devices; the first repeat is the typical
    # response the others are compared against
    repeat_indices = [count + np.arange(config.repeat_count)]
    intra_rows = []
    repeated_pairs = []
    for label, device, stream in (("A", device_a, stream_a), ("B", device_b, stream_b)):
        reference, *reps = responses(device, stream, challenges[:1], repeat_indices)
        for k, rep in enumerate(reps, start=1):
            repeated_pairs.append((reference, rep))
            intra_rows.append(
                (
                    label,
                    k,
                    loose_hamming_distance(reference, rep, headline),
                    euclidean_distance(reference, rep),
                )
            )

    inter_l2 = distance_stats([row[3] for row in inter_rows])
    inter_lhd = distance_stats([row[2] for row in inter_rows])
    intra_l2 = distance_stats([row[3] for row in intra_rows])
    intra_lhd = distance_stats([row[2] for row in intra_rows])
    pooled = float(np.sqrt((inter_l2.std_dev**2 + intra_l2.std_dev**2) / 2.0))
    separation = (inter_l2.mean - intra_l2.mean) / pooled if pooled > 0 else None

    report = ExperimentReport(
        config=config,
        device_digests=(device_a.descriptor_digest(), device_b.descriptor_digest()),
        shared_mzis=shared_mzi_count(device_a, device_b),
        collision_count=int(np.count_nonzero(~inter.any(axis=1))),
        uniqueness_by_looseness=uniqueness_by_l,
        inter_lhd=inter_lhd,
        inter_l2=inter_l2,
        intra_lhd=intra_lhd,
        intra_l2=intra_l2,
        separation_sigma=separation,
        challenge_set_digest=_digest_of_digests(row[1] for row in inter_rows),
        inter_rows=inter_rows,
        intra_rows=tuple(intra_rows),
    )

    if config.preset == "large-pair":
        sweep = looseness_sweep(repeated_pairs, mirrored_pairs, config.looseness_max)
        separations = _sweep_separations(sweep)
        report.sweep = sweep
        report.sweep_separations = separations
        report.optimal_looseness = _optimal_looseness(sweep, separations)

    if config.output_dir is not None:
        emit_artifacts(report, config.output_dir)
    return report


def _digest_of_digests(digests) -> str:
    rolled = hashlib.sha256()
    for digest in digests:
        rolled.update(digest.encode())
    return rolled.hexdigest()


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _summary_payload(report: ExperimentReport) -> dict:
    """The report without its raw rows; uniqueness keys are strings, so they
    sort as text, and the sweep is stored with its separations."""
    payload = encode(report)
    del payload["inter_rows"], payload["intra_rows"]
    sweep, separations = payload.pop("sweep"), payload.pop("sweep_separations")
    if sweep is not None:
        sweep = {"looseness": sweep["looseness_values"], "repeated": sweep["repeated"],
                 "random": sweep["random"], "separation": separations}
    return {
        **payload,
        "format": SUMMARY_FORMAT,
        "preset": report.config.preset,
        "config": _config_payload(report.config),
        "uniqueness_by_looseness": {
            str(level): value for level, value in report.uniqueness_by_looseness.items()
        },
        "looseness_sweep": sweep,
    }


def emit_artifacts(report: ExperimentReport, output_dir) -> dict:
    """Write config, raw distances, histograms, summary, and a manifest.

    Returns the manifest mapping of file name to sha256.  All content is a
    pure function of the report, so reruns produce identical bytes.
    """
    os.makedirs(output_dir, exist_ok=True)
    written = []

    def emit_json(name, payload):
        write_json(payload, os.path.join(output_dir, name))
        written.append(name)

    def emit_csv(name, header, rows):
        _write_csv(os.path.join(output_dir, name), header, rows)
        written.append(name)

    emit_json("experiment_config.json", _config_payload(report.config))
    emit_csv(
        "inter_distances.csv",
        ["challenge_index", "challenge_digest", "lhd", "l2"],
        [(i, d, lhd, repr(l2)) for i, d, lhd, l2 in report.inter_rows],
    )
    emit_csv(
        "intra_distances.csv",
        ["device", "repeat_index", "lhd", "l2"],
        [(dev, k, lhd, repr(l2)) for dev, k, lhd, l2 in report.intra_rows],
    )
    for name, stats in (
        ("hist_inter_lhd.csv", report.inter_lhd),
        ("hist_inter_l2.csv", report.inter_l2),
        ("hist_intra_lhd.csv", report.intra_lhd),
        ("hist_intra_l2.csv", report.intra_l2),
    ):
        rows = (
            [(repr(lo), repr(hi), count) for lo, hi, count in stats.histogram]
            if stats is not None
            else []
        )
        emit_csv(name, ["bin_low", "bin_high", "count"], rows)
    if report.sweep is not None:
        emit_csv(
            "looseness_sweep.csv",
            ["looseness", "repeated_mean", "repeated_std", "random_mean",
             "random_std", "separation"],
            [
                (
                    level,
                    repr(rep.mean),
                    repr(rep.std_dev),
                    repr(rand.mean),
                    repr(rand.std_dev),
                    "" if sep is None else repr(sep),
                )
                for level, rep, rand, sep in zip(
                    report.sweep.looseness_values,
                    report.sweep.repeated,
                    report.sweep.random,
                    report.sweep_separations,
                )
            ],
        )
    emit_json("summary.json", _summary_payload(report))

    manifest = {}
    for name in sorted(written):
        with open(os.path.join(output_dir, name), "rb") as handle:
            manifest[name] = hashlib.sha256(handle.read()).hexdigest()
    emit_json("manifest.json", {"format": MANIFEST_FORMAT, "files": manifest})
    return manifest
