"""Benchmark launcher: one workload, its set-up samples, metrics and checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large-pair --seed 1 --seconds 35 --trace 0

Every process it starts runs with single-threaded BLAS/OpenMP and ``src``
on PYTHONPATH.  With ``--trace 0`` it times set-up in fresh processes, runs
the workload untraced in one more process and prints the end-to-end
metrics; with ``--trace 1`` it runs the workload once with every traced
name wrapped and prints the per-layer metrics.  The last line of standard
output is one JSON object; the exit code is non-zero when an output check
fails or the program cannot be run.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("large-pair", "small-pair-noiseless", "enroll-auth")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES_PER_SIDE = 5
CHILD_TIMEOUT_S = 150


def git_commit() -> str:
    """HEAD of the checkout read from .git directly, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_child(args, workdir: Path, *extra) -> dict:
    """Run workload.py once and return the JSON object of its last line."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), *extra,
    ]
    done = subprocess.run(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {done.returncode}")
    return json.loads(lines[-1])


def time_setups(args, workdir: Path) -> list:
    """Set-up seconds of fresh processes.  Host speed drifts over tens of
    seconds, so the launcher samples set-up on both sides of the run."""
    return [
        run_child(args, workdir, "--setup-only")["setup_s"]
        for _ in range(SETUP_SAMPLES_PER_SIDE)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mzipuf" / "__init__.py").is_file():
        print(f"no mzipuf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setup_samples = []
        if not args.trace:
            run_child(args, workdir, "--setup-only")  # warm the bytecode cache
            setup_samples += time_setups(args, workdir)
        child = run_child(args, workdir)
        if not args.trace:
            setup_samples += time_setups(args, workdir)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as error:
        print(f"{args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "derived_seeds": child["seeds"],
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "git_commit": git_commit(),
        "pinned_env": PINNED,
        "samples": dict(child["samples"], setup=len(setup_samples)),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print("fingerprint " + json.dumps(child["fingerprint"], sort_keys=True))
    print(f"crp budget of the 66-MZI mesh: {child['crp_budget_66']}")
    for failure in child["failures"]:
        print(f"CHECK FAILED: {failure}")

    metrics = {}
    if args.trace:
        for name, (value, unit) in child.get("layers", {}).items():
            metrics[name] = {"value": value, "unit": unit}
    elif "metrics" in child:
        found = child["metrics"]
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "measurements_per_s": {"value": found["measurements_per_s"], "unit": "1/s"},
            "request_mean_ms": {"value": found["request_mean_ms"], "unit": "ms"},
            "request_p95_ms": {"value": found["request_p95_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            "success_rate": {
                "value": (child["attempted"] - child["failed"]) / child["attempted"],
                "unit": "ratio",
            },
        }
    for name, entry in metrics.items():
        print(f"{name:48s} {entry['value']:>16.6g} {entry['unit']}")
    correct = not child["failures"] and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
