"""Run the benchmark over two sets of seeds and write one BENCH record.

Usage, from the root of a checkout:

    python3 perfbench/record.py --out perfbench/BENCH_seed.json

It runs ``run.py --trace 0`` on every workload in BENCHMARK.json once per
seed of the first set (seeds 1 to 10), then the same for the second set
(seeds 11 to 20), and ``run.py --trace 1`` on the first three seeds, each
next to the untraced run of its seed.  The record keeps, per set, every
run's values, their median and quartiles, the quartile spread as a share
of the median next to the metric's bound, and each run's output
fingerprint.  It compares the second set's medians with the first set's
against the bounds, and keeps the median traced per-layer metrics with
self time per call, and the tracing overhead as traced over untraced
measurements_per_s of each pair.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_SETS = (list(range(1, 11)), list(range(11, 21)))
TRACED_PAIRS = 3


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command[1:])} exited with {done.returncode}:\n{done.stdout}")
    tagged = {}
    for line in lines:
        tag, _, body = line.partition(" ")
        if tag in ("provenance", "fingerprint"):
            tagged[tag] = json.loads(body)
    return dict(json.loads(lines[-1]), **tagged)


def summarize(values: list, bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "bound": bound,
    }


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_set(spec: dict, workload: str, seeds: list, traced: int) -> tuple:
    """Untraced runs of every seed, and traced runs of the first `traced`."""
    runs, traced_runs = [], []
    for k, seed in enumerate(seeds):
        # a traced run next to the untraced run of the same seed, in
        # alternating order, so host speed drift cancels in the ratio
        order = (0, 1) if k % 2 == 0 else (1, 0)
        for trace in order if k < traced else (0,):
            (traced_runs if trace else runs).append(
                run(workload, seed, spec["run_seconds"], trace)
            )
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name}={entry['value']:.6g}" for name, entry in runs[-1]["metrics"].items()
        ), flush=True)
    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        end_to_end[metric["name"]] = dict(summarize(values, metric["bound"]), unit=metric["unit"])
        print(f"  {metric['name']}: median {end_to_end[metric['name']]['median']:.6g}, "
              f"spread {end_to_end[metric['name']]['spread']:.4f} "
              f"(bound {metric['bound']})", flush=True)
    summary = {
        "seeds": seeds,
        "end_to_end": end_to_end,
        "samples": [r["provenance"]["samples"] for r in runs],
        "fingerprints": {str(s): r["fingerprint"] for s, r in zip(seeds, runs)},
    }
    return summary, runs, traced_runs


def summarize_traced(runs: list, traced_runs: list, workload: str) -> dict:
    for traced, untraced in zip(traced_runs, runs):
        if traced["fingerprint"] != untraced["fingerprint"]:
            raise SystemExit(f"{workload}: traced output differs from untraced output")
    layers = {
        name: statistics.median(r["metrics"][name]["value"] for r in traced_runs)
        for name in traced_runs[0]["metrics"]
    }
    timed = [name[: -len(".self_ms")] for name in layers if name.endswith(".self_ms")]
    return {
        "seeds": [r["provenance"]["seed"] for r in traced_runs],
        "samples": [r["provenance"]["samples"] for r in traced_runs],
        "per_layer_median": layers,
        "self_ms_per_call": {
            name: layers[f"{name}.self_ms"] / layers[f"{name}.calls"]
            for name in timed if layers[f"{name}.calls"]
        },
        "traced_over_untraced_measurements_per_s": [
            t["metrics"]["trace.measurements_per_s"]["value"]
            / u["metrics"]["measurements_per_s"]["value"]
            for t, u in zip(traced_runs, runs)
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"format": "mzipuf-bench/2", "run_seconds": spec["run_seconds"], "workloads": {}}
    for number, seeds in enumerate(SEED_SETS):
        for workload in workloads:
            summary, runs, traced_runs = run_set(
                spec, workload, seeds, TRACED_PAIRS if number == 0 else 0
            )
            entry = record["workloads"].setdefault(workload, {"sets": []})
            entry["sets"].append(summary)
            if traced_runs:
                entry["traced"] = summarize_traced(runs, traced_runs, workload)
            record["provenance"] = {
                key: value for key, value in runs[0]["provenance"].items()
                if key not in ("workload", "seed", "derived_seeds", "trace", "samples")
            }
    for workload, entry in record["workloads"].items():
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["second_set_vs_first"] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            worse = worse_by(first[name]["median"], second[name]["median"], metric["better"])
            entry["second_set_vs_first"][name] = {
                "worse_by": worse, "bound": metric["bound"], "within": worse <= metric["bound"],
            }
            print(f"{workload} {name}: second set worse by {worse:.4f} (bound {metric['bound']})")
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
