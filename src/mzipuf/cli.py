"""Command line interface for the simulator."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace as dataclasses_replace

import numpy as np

from . import combinatorics, experiments, fabrication, protocol
from ._codec import integer
from .metrics import DEFAULT_BIN_FRACTION, QuantizedResponse


def _cmd_fabricate(args) -> int:
    spec = fabrication.ChipLayoutSpec(
        mzi_count=args.mzis,
        v2pi_nominal=args.v2pi,
        phase_offset_span=0.0 if args.calibrated else 2.0 * np.pi,
    )
    chip = fabrication.fabricate_chip(args.seed, spec)
    fabrication.save_chip(chip, args.out)
    print(f"chip {chip.digest()[:12]} with {spec.mzi_count} MZIs -> {args.out}")
    return 0


def _cmd_carve(args) -> int:
    # a flag the chosen carving would ignore is refused, not dropped
    if args.preset:
        if args.columns is not None or args.slots is not None:
            raise SystemExit("carve takes --preset or --columns and --slots, not both")
    elif args.which is not None:
        raise SystemExit("--which picks a device of a --preset pair")
    elif args.columns is None or args.slots is None:
        raise SystemExit("carve needs either --preset or both --columns and --slots")
    chip = fabrication.load_chip(args.chip)
    if args.preset:
        preset = fabrication.preset_by_name(args.preset)
        device = preset.carve_pair(chip)[args.which or 0]
    else:
        slots = [int(s) for s in args.slots.split(",")]
        device = fabrication.carve_device(chip, args.columns, slots)
    fabrication.save_device(device, args.out)
    print(
        f"device {device.descriptor_digest()[:12]}: {device.layout.columns} columns, "
        f"{device.layout.mzi_count} MZIs -> {args.out}"
    )
    return 0


def _render(value: int, args) -> str:
    if args.exact:
        return str(value)
    if args.sci:
        return combinatorics.to_scientific(value)
    return f"{combinatorics.to_scientific(value)} ({value})"


def _cmd_count_crps(args) -> int:
    if args.table:
        print("columns,mzi_count,exact,scientific")
        for columns, mzis, exact, rendered in combinatorics.crp_table(args.bits):
            print(f"{columns},{mzis},{exact},{rendered}")
        return 0
    count = combinatorics.chip_crp_total(args.subsets, args.columns, args.mzis, args.bits)
    naive = combinatorics.naive_challenge_bound(args.mzis, args.bits) * args.subsets
    print(f"distinguishable: {_render(count, args)}")
    print(f"naive bound:     {_render(naive, args)}")
    return 0


def _cmd_enroll(args) -> int:
    chip = fabrication.load_chip(args.chip)
    device = fabrication.load_device(args.device, chip)
    noise = fabrication.NoiseConfig.disabled() if args.no_noise else fabrication.NoiseConfig()
    db = protocol.enroll(
        device,
        challenge_count=args.count,
        repeats_per_challenge=args.repeats,
        rng_seed=args.seed,
        noise_config=noise,
        bin_fraction=args.bin_fraction,
    )
    db.save(args.db)
    print(
        f"enrolled {len(db)} challenges ({args.repeats} repeats each), "
        f"{db.collision_pairs} collision pairs -> {args.db}"
    )
    return 0


def _cmd_issue(args) -> int:
    db = protocol.CrpDatabase.load(args.db)
    rng = np.random.default_rng(integer(args.seed, "seed", 0)) if args.seed is not None else None
    record = protocol.issue_challenge(db, rng)
    db.save(args.db)
    print(json.dumps({
        "challenge_id": record.challenge_id,
        "levels": list(record.challenge.levels),
        "bits": record.challenge.bits,
    }))
    return 0


def _cmd_verify(args) -> int:
    db = protocol.CrpDatabase.load(args.db)
    bins = tuple(int(b) for b in args.bins.split(","))
    response = QuantizedResponse(bins=bins, bin_fraction=db.bin_fraction)
    # each flag overrides one field of the database policy (or the strict default)
    given = {
        name: getattr(args, name)
        for name in ("looseness", "lhd_threshold", "l2_threshold")
        if getattr(args, name) is not None
    }
    policy = dataclasses_replace(db.policy or protocol.VerifyPolicy(), **given)
    decision = protocol.verify(db, args.challenge_id, response, policy)
    print(json.dumps({
        "challenge_id": decision.challenge_id,
        "accepted": decision.accepted,
        "lhd": decision.lhd,
        "l2": decision.l2,
    }))
    return 0 if decision.accepted else 2


def _cmd_audit(args) -> int:
    db = protocol.CrpDatabase.load(args.db)
    report = protocol.audit_collisions(db)
    print(json.dumps({
        "record_count": len(db),
        "collision_pairs": report.pair_count,
        "groups": [list(g) for g in report.groups],
    }))
    return 0


def _cmd_experiment(args) -> int:
    if args.config:
        with open(args.config) as handle:
            config = experiments.config_from_dict(json.load(handle))
        if config.preset != args.preset:
            raise SystemExit(
                f"config file is for preset {config.preset!r}, not {args.preset!r}"
            )
    else:
        builder = (
            experiments.small_pair_config
            if args.preset == "small-pair"
            else experiments.large_pair_config
        )
        config = builder()
    # each seed flag replaces its own entry: device A's chip, then the adversary's
    chip_seeds = list(config.chip_seeds)
    if args.chip_seed is not None:
        chip_seeds[0] = args.chip_seed
    if args.adversary_seed is not None:
        chip_seeds[1:] = [args.adversary_seed]
    overrides = {"chip_seeds": tuple(chip_seeds)}
    for name, value in (("challenge_count", args.challenges), ("repeat_count", args.repeats),
                        ("seed", args.seed)):
        if value is not None:
            overrides[name] = value
    if args.no_noise:
        overrides["noise"] = fabrication.NoiseConfig.disabled()
    report = experiments.run_pair_experiment(dataclasses_replace(config, **overrides))
    headline = report.config.headline_looseness
    print(f"preset {report.config.preset}: {report.config.challenge_count} mirrored "
          f"challenges, {report.config.repeat_count} repeats")
    print(f"uniqueness(L={headline}) = "
          f"{report.uniqueness_by_looseness[headline]:.2f} %")
    print(f"complete collisions = {report.collision_count}")
    print(f"inter l2 mean/min = {report.inter_l2.mean:.2f}/{report.inter_l2.min:.2f}; "
          f"intra l2 mean/max = {report.intra_l2.mean:.2f}/{report.intra_l2.max:.2f}")
    if report.separation_sigma is not None:
        print(f"l2 separation = {report.separation_sigma:.2f} pooled sigma")
    if report.optimal_looseness is not None:
        print(f"optimal looseness = {report.optimal_looseness}")
    if args.out:
        experiments.emit_artifacts(report, args.out)
        print(f"artifacts -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzipuf",
        description="Simulate reconfigurable MZI-mesh photonic PUFs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fabricate", help="sample a chip fingerprint to JSON")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mzis", type=int, required=True)
    p.add_argument("--v2pi", type=float, default=fabrication.V2PI_NOMINAL)
    p.add_argument("--calibrated", action="store_true",
                   help="zero static phase offsets")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fabricate)

    p = sub.add_parser("carve", help="carve a pyramid device from a chip")
    p.add_argument("--chip", required=True)
    p.add_argument("--preset", choices=sorted(fabrication.PAIR_PRESETS))
    p.add_argument("--which", type=int, choices=(0, 1),
                   help="which device of the preset pair (default 0)")
    p.add_argument("--columns", type=int)
    p.add_argument("--slots", help="comma-separated global MZI ids, column-major")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_carve)

    p = sub.add_parser("count-crps", help="exact distinguishable CRP counts")
    p.add_argument("--columns", type=int, default=11)
    p.add_argument("--mzis", type=int, default=66)
    p.add_argument("--bits", type=int, default=combinatorics.DEFAULT_BITS_PER_MZI)
    p.add_argument("--subsets", type=int, default=1,
                   help="disjoint same-shape meshes on the chip (>= 1)")
    p.add_argument("--table", action="store_true",
                   help="emit the pyramid family table as CSV")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--exact", action="store_true", help="print exact integers only")
    form.add_argument("--sci", action="store_true", help="print scientific form only")
    p.set_defaults(func=_cmd_count_crps)

    p = sub.add_parser("enroll", help="build a CRP database for a device")
    p.add_argument("--chip", required=True)
    p.add_argument("--device", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bin-fraction", type=float, default=DEFAULT_BIN_FRACTION)
    p.add_argument("--no-noise", action="store_true")
    p.add_argument("--db", required=True)
    p.set_defaults(func=_cmd_enroll)

    p = sub.add_parser("issue", help="draw and consume one enrolled challenge")
    p.add_argument("--db", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_issue)

    p = sub.add_parser("verify", help="verify a quantized response")
    p.add_argument("--db", required=True)
    p.add_argument("--challenge-id", type=int, required=True)
    p.add_argument("--bins", required=True, help="comma-separated bin values")
    p.add_argument("--looseness", type=int)
    p.add_argument("--lhd-threshold", type=int)
    p.add_argument("--l2-threshold", type=float)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("audit-collisions", help="report identical enrolled references")
    p.add_argument("--db", required=True)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("experiment", help="run a paired-device experiment")
    p.add_argument("preset", choices=("small-pair", "large-pair"))
    p.add_argument("--config", help="JSON config file (experiment_config.json schema)")
    p.add_argument("--out", help="artifact directory")
    p.add_argument("--challenges", type=int)
    p.add_argument("--repeats", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--chip-seed", type=int)
    p.add_argument("--adversary-seed", type=int,
                   help="fabricate device B from this other chip seed")
    p.add_argument("--no-noise", action="store_true")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
