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

import hashlib
import os
from dataclasses import dataclass, field, replace

import numpy as np

from ._codec import (
    check_format,
    decode,
    encode,
    int_tuple,
    integer,
    integer_fields,
    json_text,
    write_text,
)
from .fabrication import (
    NoiseConfig,
    NoiseStream,
    _level_digests,
    _level_voltages,
    _random_levels,
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
    _quantize_rows,
    _responses,
    _row_l2,
    distance_stats,
    euclidean_distance,
    loose_hamming_distance,
    looseness_sweep,
)

CONFIG_FORMAT = "mzipuf-experiment-config/1"
SUMMARY_FORMAT = "mzipuf-experiment-summary/1"
MANIFEST_FORMAT = "mzipuf-manifest/1"


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of a pair experiment; everything downstream derives from these.

    chip_seeds has one entry normally; a second entry fabricates device B
    from a different chip to model a cloning attempt.  clone_devices, the
    degenerate control case, makes device B device A and takes one chip
    seed.  preset must name a PAIR_PRESETS entry.  seed drives the
    challenge draw and both devices' noise streams through namespaced
    substreams.  Every seed is an int >= 0.
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

    def __post_init__(self):
        preset_by_name(self.preset)
        integer_fields(self, challenge_count=1, repeat_count=2, seed=0,
                       headline_looseness=1, looseness_max=1)
        object.__setattr__(self, "chip_seeds", tuple(
            integer(seed, "chip_seeds", 0) for seed in int_tuple(self.chip_seeds)))
        if len(self.chip_seeds) not in (1, 2):
            raise ValueError("chip_seeds takes one chip seed or (device A, adversary)")
        if self.clone_devices and len(self.chip_seeds) == 2:
            raise ValueError("clone_devices uses device A as device B, "
                             "so chip_seeds takes no adversary seed")
        if self.looseness_max < self.headline_looseness:
            raise ValueError("looseness_max must cover headline_looseness")
        if not 0.0 < self.bin_fraction <= 1.0:
            raise ValueError(f"bin_fraction must lie in (0, 1], got {self.bin_fraction}")


def _config_payload(config: ExperimentConfig) -> dict:
    """The stored config: a format tag and every field."""
    return {"format": CONFIG_FORMAT, **encode(config)}


def config_from_dict(payload: dict) -> ExperimentConfig:
    """Rebuild a config from its stored form (CLI --config files).

    preset is required; every other missing field, nested noise fields
    included, keeps its default.  A key that is not a field, besides the
    top-level "format", raises ValueError, and so does a "format" other
    than CONFIG_FORMAT.
    """
    if not isinstance(payload, dict) or "preset" not in payload:
        raise ValueError("experiment config names no preset")
    if "format" in payload:
        check_format(payload, CONFIG_FORMAT, "stored experiment config")
    defaults = encode(ExperimentConfig())
    noise = payload.get("noise", {})
    for name, given, fields in (("ExperimentConfig", payload, {*defaults, "format"}),
                                ("ExperimentConfig.noise: NoiseConfig", noise, defaults["noise"])):
        for key in given if isinstance(given, dict) else ():
            if key not in fields:
                raise ValueError(f"{name} has no field {key!r}")
    noise = {**defaults["noise"], **noise} if isinstance(noise, dict) else noise
    return decode(ExperimentConfig, {**defaults, **payload, "noise": noise})


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
    """The first looseness of largest separation; None ranks above any number."""
    level, _ = max(zip(sweep.looseness_values, separations),
                   key=lambda pair: np.inf if pair[1] is None else pair[1])
    return level


def run_pair_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run a mirrored pair experiment and aggregate its metrics; emit_artifacts writes them."""
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
    stream_a = NoiseStream((config.seed, 1), modes, config.noise)
    stream_b = NoiseStream((config.seed, 2), modes, config.noise)

    # the challenges as one level matrix, driven and named row by row
    challenge_rng = np.random.default_rng((config.seed, 0))
    challenge_levels = _random_levels(
        challenge_rng, config.challenge_count, device_a.layout.mzi_count
    )
    digests = _level_digests(challenge_levels)
    volts = _level_voltages(challenge_levels)

    def bins(device, stream, batch, indices):
        measured = measure_batch(device, batch, stream, indices)
        return _quantize_rows(measured.reshape(-1, modes), config.bin_fraction)

    # one |diff| row per mirrored pair: row i compares A and B on challenge i
    count = config.challenge_count
    headline = config.headline_looseness
    levels = range(1, config.looseness_max + 1)
    indices = np.arange(count)
    mirrored = (bins(device_a, stream_a, volts, indices),
                bins(device_b, stream_b, volts, indices))
    inter, inter_counts = _pair_differences(*mirrored, levels)
    inter_rows = tuple(zip(
        indices.tolist(),
        digests,
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
        repeats = bins(device, stream, volts[:1], repeat_indices)
        reference, *reps = _responses(repeats, config.bin_fraction)
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
        challenge_set_digest=_digest_of_digests(digests),
        inter_rows=inter_rows,
        intra_rows=tuple(intra_rows),
    )

    if config.preset == "large-pair":
        mirrored_pairs = zip(*(_responses(side, config.bin_fraction) for side in mirrored))
        sweep = looseness_sweep(repeated_pairs, mirrored_pairs, config.looseness_max)
        separations = _sweep_separations(sweep)
        report.sweep = sweep
        report.sweep_separations = separations
        report.optimal_looseness = _optimal_looseness(sweep, separations)
    return report


def _digest_of_digests(digests) -> str:
    rolled = hashlib.sha256()
    for digest in digests:
        rolled.update(digest.encode())
    return rolled.hexdigest()


def _csv_text(header, rows) -> str:
    """The header and rows as csv.writer's default dialect writes them.

    Each row is its fields' str joined by commas and ended by "\r\n", which
    is csv.writer's output whenever it has nothing to quote: every row has
    at least two fields, and each field is an int (numpy ints too), the
    repr of a float (inf and nan too), a hex digest, "A", "B" or "".
    """
    return "".join([",".join(map(str, row)) + "\r\n" for row in (header, *rows)])


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


def emit_artifacts(report: ExperimentReport, directory) -> dict:
    """Write config, raw distances, histograms, summary, and a manifest.

    The only writer of a pair run's files.  Returns the manifest mapping of
    file name to sha256.  All content is a pure function of the report, so
    reruns produce identical bytes.
    """
    os.makedirs(directory, exist_ok=True)
    manifest = {}
    for name, text in _artifact_texts(report):
        write_text(os.path.join(directory, name), text)
        manifest[name] = hashlib.sha256(text.encode()).hexdigest()
    write_text(os.path.join(directory, "manifest.json"),
               json_text({"format": MANIFEST_FORMAT, "files": manifest}))
    return manifest


def _artifact_texts(report: ExperimentReport):
    """(file name, text) of each artifact but the manifest, rendered one at a time."""
    yield "experiment_config.json", json_text(_config_payload(report.config))
    yield "inter_distances.csv", _csv_text(
        ["challenge_index", "challenge_digest", "lhd", "l2"],
        [(i, d, lhd, repr(l2)) for i, d, lhd, l2 in report.inter_rows],
    )
    yield "intra_distances.csv", _csv_text(
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
        yield name, _csv_text(["bin_low", "bin_high", "count"], rows)
    if report.sweep is not None:
        yield "looseness_sweep.csv", _csv_text(
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
    yield "summary.json", json_text(_summary_payload(report))
