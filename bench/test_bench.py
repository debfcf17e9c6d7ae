"""The benchmark's own tests, on its smoke sizes.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speedprobe  # noqa: E402
import worker  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload: str, trace: int, seed: int = 0) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_named_metric(workload, trace):
    code, result = smoke(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_checks_hold_on_a_second_seed():
    for workload in BUILDERS:
        cases = BUILDERS[workload](7, True).cases
        assert worker.run_cases(cases)["failed"] == 0, workload


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_wrong_reference_is_an_error(workload):
    cases = BUILDERS[workload](0, True).cases
    check = cases[0].check
    cases[0].check = lambda answer: not check(answer)
    result = worker.run_cases(cases)
    assert result["failed"] == 1 and result["failures"]


def test_wrong_answer_drives_error_rate(tmp_path, monkeypatch):
    """A wrong reference inside a real run makes the run incorrect, counts
    a failure and gives error_rate above 0."""
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    real = run.run_pass

    def corrupted(*args, **kwargs):
        p = real(*args, **kwargs)
        p["failed"] += 1
        p["failures"].append("corrupted reference")
        return p

    monkeypatch.setattr(run, "run_pass", corrupted)
    code = run.main(["--workload", "kronecker", "--seed", "0", "--seconds", "0", "--trace", "1", "--smoke"])
    assert code == 1
    record = json.loads((tmp_path / "kronecker-seed0-trace1-smoke.json").read_text())
    assert record["metrics"]["error_rate"] > 0


def test_traced_counts_repeat_and_oracles_do_no_lr_work():
    code, first = smoke("oracles", 1, seed=3)
    _, second = smoke("oracles", 1, seed=3)
    assert code == 0
    counts = [k for k, m in first["metrics"].items() if m["unit"] == "count"]
    assert all(first["metrics"][k] == second["metrics"][k] for k in counts)
    for key in ("lr.lr_coefficient.calls", "lr.expand.calls", "counting.labelings"):
        assert first["metrics"][key]["value"] == 0
    assert first["metrics"]["ffield.gf_ops"]["value"] > 0


def test_kronecker_does_no_field_work():
    _, result = smoke("kronecker", 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(metrics[k] == 0 for k in metrics if k.startswith("ffield."))
    assert metrics["counting.labelings"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kronecker", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_clock_leaves_probe_time_out():
    clock = speedprobe.SpeedClock()
    clock.start()
    t0 = time.perf_counter_ns()
    while time.perf_counter_ns() < t0 + 200_000_000:
        sum(range(1000))
    t1 = time.perf_counter_ns()
    clock.stop()
    inside = [(s, e) for s, e in clock.probes if t0 <= s and e <= t1]
    assert len(inside) >= 5
    work, scaled = clock.interval(t0, t1)
    assert abs(work - (t1 - t0 - sum(e - s for s, e in inside))) < 1000
    assert scaled > 0
