"""One cold pass of a benchmark workload, run in a fresh process.

    python bench/worker.py --workload NAME --seed N [--smoke] [--trace-out PATH | --setup-only]

`src/` must be on PYTHONPATH.  Set-up (import plus instance generation)
is timed on its own; then every case is run and checked in order, and
each case's time to a verified answer is recorded.  With --trace-out the
layers are wrapped after set-up and the pass's spans are written to PATH.
The pass summary is printed as one JSON line.

Set-up and the cases run under a SpeedClock (speedprobe.py), which gives
each time also scaled to a reference speed of the CPU.  Traced passes stop
it after set-up, so that no probe lands in a layer's span.
"""

from __future__ import annotations

import time

from speedprobe import SpeedClock

CLOCK = SpeedClock()
if __name__ == "__main__":
    CLOCK.start()  # before the imports, which are part of set-up
_T_START = time.perf_counter_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from workloads import BUILDERS  # noqa: E402  (imports quivercount)


def run_cases(cases, tracer=None) -> dict:
    """Run and check each case; a case that raises counts as failed.

    Returns the raw (start, end) of every case; the caller turns them into
    times once the speed clock has stopped.
    """
    spans = []
    failures = []
    clock = time.perf_counter_ns
    for i, case in enumerate(cases):
        c0 = clock()
        try:
            ok = bool(case.check(case.run()))
        except Exception as exc:  # a raised answer is a failed answer
            ok = False
            failures.append(f"{case.label}: {exc!r}")
        else:
            if not ok:
                failures.append(f"{case.label}: wrong answer")
        c1 = clock()
        spans.append((c0, c1))
        if tracer is not None:
            tracer.case_span(i, case.label, c0, c1)
    return {
        "spans": spans,
        "attempted": len(cases),
        "failed": len(failures),
        "failures": failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--setup-only", action="store_true", help="time set-up, run no case")
    args = parser.parse_args()

    workload = BUILDERS[args.workload](args.seed, args.smoke)
    t_setup = time.perf_counter_ns()
    if args.setup_only:
        CLOCK.stop()
        setup_ns, setup_scaled_ns = CLOCK.interval(_T_START, t_setup)
        print(json.dumps({"setup_ns": setup_ns, "setup_scaled_ns": setup_scaled_ns}))
        return 0

    tracer = None
    if args.trace_out:
        CLOCK.stop()
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.engines.extend(workload.engines)

    result = run_cases(workload.cases, tracer)
    spans = result.pop("spans")
    if tracer is None:
        CLOCK.stop()
        # probes that ran inside a case are left out of its time
        timed = [CLOCK.interval(c0, c1) for c0, c1 in spans]
        result["latencies_ns"] = [w for w, _ in timed]
        result["scaled_ns"] = [s for _, s in timed]
    else:
        result["latencies_ns"] = [c1 - c0 for c0, c1 in spans]
    result["wall_ns"] = sum(result["latencies_ns"])
    result["setup_ns"], result["setup_scaled_ns"] = CLOCK.interval(_T_START, t_setup)
    result["probes_ns"] = CLOCK.probe_ns()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(result["wall_ns"])
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "wall_ns": result["wall_ns"],
                    "case_spans": [
                        {"trace_id": i, "label": label, "start_ns": s, "end_ns": e}
                        for i, label, s, e in tracer.case_spans
                    ],
                    "tree": tracer.tree(),
                },
                fh,
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
