"""Layered benchmark of quivercount.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from `src/`.
Workloads and metric names are read from BENCHMARK.json.

Each pass runs in a fresh process (bench/worker.py), so every pass starts
cold with empty LR memo tables, as every CLI invocation does.  Passes run
one at a time until S seconds have gone by; the end-to-end metrics are
medians over the passes, of times scaled to a reference CPU speed
(speedprobe.py).  With --trace 1 untraced and traced passes
alternate: the traced ones give the per-layer metrics, the pair gives the
tracing overhead, and the CLI is probed as a subprocess on the pinned
instances in bench/instances.  --smoke runs tiny instance sets.

The last line printed is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries provenance.
The full record, with every pass, is written to bench/results/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
# a run must end within 180 s; passes stop being started well before that
DEADLINE_S = 165

CLI_PROBES = (
    (("count", "bench/instances/theta12.qc"), "n = 924"),
    (("fiber-class", "bench/instances/flag52.qc"), "terms = 5"),
    (("verify", "bench/instances/theta2.qc", "--oracles"), "failures = 0"),
)
CLI_REPEATS = 3
# set-up-only passes after each untraced pass: set-up is short, so setup_s
# is a median over many
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import quivercount.cli; "
    "print((time.perf_counter() - t) * 1000)"
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_pass(
    workload: str, seed: int, smoke: bool, env, timeout: float, trace_out: Path | None, cpu: int,
    setup_only: bool = False,
) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1),
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass did not finish within {timeout:.0f} s"}
    if proc.returncode != 0:
        return {"crashed": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"crashed": f"worker printed no result: {proc.stdout[-500:]!r}"}


def call(args: list[str], env) -> tuple[float, str | None]:
    """Wall time of one Python subprocess, and its stdout when it exited 0."""
    t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t, None
    return time.perf_counter() - t, proc.stdout if proc.returncode == 0 else None


def cli_probe(env) -> tuple[float, float | None, int, list[str]]:
    """Median wall time of the probe commands together, median import time
    of quivercount.cli, commands attempted, and the failures seen."""
    totals, imports, failures = [], [], []
    attempted = 0
    for _ in range(CLI_REPEATS):
        total = 0.0
        for argv, want in CLI_PROBES:
            attempted += 1
            dt, out = call(["-m", "quivercount.cli", *argv], env)
            total += dt
            if out is None or want not in out.splitlines():
                failures.append(f"cli {' '.join(argv)}: failed or printed no '{want}'")
        totals.append(total * 1000)
        attempted += 1
        _, out = call(["-c", IMPORT_PROBE], env)
        if out is None:
            failures.append("import quivercount.cli failed")
        else:
            imports.append(float(out))
    return statistics.median(totals), statistics.median(imports) if imports else None, attempted, failures


def quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def case_ms(passes: list[dict], key: str = "scaled_ns") -> list[float]:
    """Each case's median time to a verified answer over the passes, in ms;
    scaled to the reference CPU speed (speedprobe.py) unless key is
    "latencies_ns".  Every pass of a run runs the same cases in order."""
    return [statistics.median(times) / 1e6 for times in zip(*(p[key] for p in passes))]


def layer_medians(traced: list[dict]) -> tuple[dict, list[str]]:
    """Median of each per-layer metric over the traced passes; counts must
    be identical between passes of the same seed."""
    out, problems = {}, []
    for key in traced[0]["layers"]:
        values = [p["layers"][key] for p in traced]
        if all(isinstance(v, int) for v in values) and len(set(values)) > 1:
            problems.append(f"count {key} differs between traced passes: {values}")
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out, problems


def provenance(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "seed": args.seed,
        "src_lines": src_lines,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny instance sets, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "quivercount" / "__init__.py").is_file():
        return fail(f"no package source at {SRC / 'quivercount'}; run from the root of a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"

    # Each pass is pinned to one CPU, so its speed probes measure the CPU
    # its cases run on.  The CPUs of a shared machine slow down
    # independently of each other, so passes take turns on the CPUs this
    # process may use.
    cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
    start = time.monotonic()
    plain, traced, setups, errors = [], [], [], []
    while True:
        if args.trace:
            kinds = [(None, False), (RESULTS / f"{stem}-spans.json", False)]
        else:
            kinds = [(None, False)] + [(None, True)] * SETUP_REPEATS
        for trace_out, setup_only in kinds:
            left = DEADLINE_S - (time.monotonic() - start)
            p = run_pass(args.workload, args.seed, args.smoke, env, left, trace_out, next(cpus), setup_only)
            if "crashed" in p:
                errors.append(p["crashed"])
                break
            (setups if setup_only else traced if trace_out else plain).append(p)
        if errors or time.monotonic() - start >= args.seconds:
            break

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)
    for p in passes:
        errors += p["failures"]

    metrics: dict[str, float] = {}
    if plain:
        latencies = case_ms(plain)
        wall_s = sum(latencies) / 1000
        metrics |= {
            "setup_s": statistics.median(p["setup_scaled_ns"] / 1e9 for p in plain + setups),
            "wall_s": wall_s,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": quantile(latencies, 0.9),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "latency.samples": len(latencies),
        }
        if traced:
            layers, problems = layer_medians(traced)
            errors += problems
            metrics |= layers
            # traced passes run without speed probes, so both sides are raw
            metrics["trace.overhead_ratio"] = sum(case_ms(traced, "latencies_ns")) / sum(
                case_ms(plain, "latencies_ns")
            )
    if args.trace and not errors:
        process_ms, import_ms, probes, probe_failures = cli_probe(env)
        attempted += probes
        failed += len(probe_failures)
        errors += probe_failures
        metrics["cli.process_ms"] = process_ms
        if import_ms is not None:
            metrics["cli.import_ms"] = import_ms
    metrics["error_rate"] = failed / attempted if attempted else 1.0

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = not errors and failed == 0 and not missing
    info = provenance(args)
    record = {
        "provenance": info,
        "passes": len(plain),
        "traced_passes": len(traced),
        "setup_passes": len(plain) + len(setups),
        "latency_samples": metrics.get("latency.samples"),
        "errors": errors[:20],
        "missing": missing,
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "metrics": metrics, "plain": plain, "traced": traced}, fh)
    for line in errors[:20]:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps(record))
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
