"""Self-tests of the benchmark: the tracer, the workloads' coverage of the
traced names, and the launcher's exit codes.

Run from the root of a checkout (the workload tests take about a minute):

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

from tracer import Tracer  # noqa: E402
from workload import TRACED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _make_package(monkeypatch, clock):
    """fakepkg.core defines the functions; fakepkg.user imports one of them."""
    package = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    core.clock = clock
    exec(
        "def inner():\n"
        "    clock.now += 5.0\n"
        "def outer():\n"
        "    clock.now += 1.0\n"
        "    inner()\n"
        "    clock.now += 2.0\n"
        "class Store:\n"
        "    @classmethod\n"
        "    def load(cls):\n"
        "        clock.now += 4.0\n"
        "        return cls()\n"
        "    def save(self):\n"
        "        clock.now += 3.0\n",
        core.__dict__,
    )
    user.inner = core.inner
    for module in (package, core, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return core, user


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_wrapped_children(monkeypatch):
    clock = FakeClock()
    core, user = _make_package(monkeypatch, clock)
    names = ["core.inner", "core.outer", "core.Store.load", "core.Store.save"]
    tracer = Tracer("fakepkg", names, clock=clock).install()
    tracer.phase("iteration 0")
    core.outer()
    user.inner()
    core.Store.load().save()
    tracer.add("bytes", 7)
    tracer.uninstall()
    setup, iteration = tracer.snapshot()
    assert setup["calls"] == dict.fromkeys(names, 0)
    assert iteration["calls"] == {
        "core.inner": 2, "core.outer": 1, "core.Store.load": 1, "core.Store.save": 1,
    }
    assert iteration["self_s"] == {
        "core.inner": 10.0, "core.outer": 3.0, "core.Store.load": 4.0, "core.Store.save": 3.0,
    }
    assert iteration["counters"] == {"bytes": 7}


def test_uninstall_restores_every_binding(monkeypatch):
    clock = FakeClock()
    core, user = _make_package(monkeypatch, clock)
    originals = (core.inner, core.outer, core.Store.__dict__["load"], core.Store.save)
    tracer = Tracer("fakepkg", ["core.inner", "core.outer", "core.Store.load",
                                "core.Store.save"], clock=clock).install()
    assert user.inner is core.inner is not originals[0]
    tracer.uninstall()
    assert (core.inner, core.outer, core.Store.__dict__["load"], core.Store.save) == originals
    assert user.inner is originals[0]


def test_unknown_name_is_refused(monkeypatch):
    _make_package(monkeypatch, FakeClock())
    with pytest.raises(LookupError):
        Tracer("fakepkg", ["core.missing"]).install()


def _launch(cwd: Path, workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    fingerprint = next(
        (json.loads(line.partition(" ")[2]) for line in lines if line.startswith("fingerprint ")),
        None,
    )
    return done.returncode, lines, fingerprint


@pytest.fixture(scope="module")
def launched():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = _launch(ROOT, workload, trace)
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(launched, workload):
    returncode, lines, _ = launched(workload, 0)
    assert returncode == 0
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_calls_every_name_meant_for_it(launched, workload):
    returncode, lines, fingerprint = launched(workload, 1)
    assert returncode == 0
    metrics = json.loads(lines[-1])["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: entry["unit"] for name, entry in metrics.items()} == expected
    silent = [
        name for name, workloads in TRACED
        if workload in workloads and metrics[f"{name}.calls"]["value"] < 1
    ]
    assert silent == []
    assert fingerprint == launched(workload, 0)[2]


def _copy_benchmark(destination: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", destination)
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(BENCH_DIR, destination / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", destination / "src", ignore=ignore)


def test_fails_without_the_program(tmp_path):
    _copy_benchmark(tmp_path, with_sources=False)
    returncode, lines, _ = _launch(tmp_path, "small-pair-noiseless", 0)
    assert returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_failed_output_check_exits_non_zero(tmp_path):
    _copy_benchmark(tmp_path, with_sources=True)
    metrics_py = tmp_path / "src" / "mzipuf" / "metrics.py"
    source = metrics_py.read_text()
    exact = "return float(np.sqrt(np.dot(diff, diff)))"
    assert exact in source
    metrics_py.write_text(source.replace(exact, exact + " + 1.0"))
    returncode, lines, _ = _launch(tmp_path, "small-pair-noiseless", 0)
    assert returncode == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]
