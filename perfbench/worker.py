"""One benchmark process: set up a workload, then run timed passes.

Started by run.py in a fresh interpreter. It prints one JSON line on stdout
that run.py reads: when set-up ended (``time.monotonic``, the same clock the
launcher read before starting this process), the timed passes, the pinned
output checks, peak memory and, with ``--trace 1``, per-layer metrics of the
traced passes. A pass runs the workload's calls one at a time, each after
the previous one returned (a closed loop with one client). The reference loop
of reference.py is timed after set-up, and around and during every call, so
that every time can also be given at the nominal host speed.

    PYTHONPATH=src python3 perfbench/worker.py --workload large-elimination \
        --seed 271828 --seconds 20 --trace 0
"""
from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path
from statistics import median

import numpy as np

import fatpoints
from fatpoints.oracle import DEFAULT_PRIME, DEFAULT_SEED
from reference import Sampler, reading_s, scaled
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, mismatches

SHOWN_MISMATCHES = 20


def run_pass(workload, sampler: Sampler) -> tuple[dict, list[str], int]:
    """Time one pass; return its timings, mismatch messages and values checked.

    Each call is timed on its own and scaled by the slices the sampler took
    around it; ``pass_s`` is the sum over the calls.
    """
    outputs = []
    calls = {}
    scaled_calls = {}
    slices = {}
    for case in workload.cases:
        out, seconds, around = sampler.timed(case.call)
        outputs.append(out)
        calls[case.name] = seconds
        scaled_calls[case.name] = scaled(seconds, around)
        slices[case.name] = around
    timing = {
        "pass_s": sum(calls.values()),
        "calls": calls,
        "scaled_pass_s": sum(scaled_calls.values()),
        "scaled_calls": scaled_calls,
        "slices": slices,
    }
    bad: list[str] = []
    checked = 0
    for case, out in zip(workload.cases, outputs):
        checked += len(case.pinned)
        bad += [f"{case.name} {m}" for m in mismatches(case.pinned, case.observe(out))]
    return timing, bad, checked


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True, help="0: set up only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the traced passes' spans to")
    args = ap.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    report = {"setup_end": time.monotonic(), "setup_reading_s": reading_s()}
    if args.seconds > 0:
        report.update(timed_passes(workload, args.seconds, args.trace, args.spans))
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["fatpoints_file"] = fatpoints.__file__
    report["numpy"] = np.__version__
    report["prime"] = DEFAULT_PRIME
    print(json.dumps(report))


def timed_passes(workload, seconds: float, trace: int, spans_path: str | None) -> dict:
    """Run passes until the next one would end after ``seconds``.

    With tracing, untraced and traced passes alternate, so both see the same
    machine state; at least one of each runs.
    """
    untraced: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    all_spans: list[list] = []
    bad: list[str] = []
    checked = 0
    start = time.perf_counter()
    with Sampler() as sampler:
        while True:
            tracer = Tracer() if trace and len(traced) < len(untraced) else None
            pass_start = time.perf_counter()
            if tracer is not None:
                tracer.install()
                try:
                    timing, miss, n = run_pass(workload, sampler)
                finally:
                    tracer.uninstall()
                traced.append(timing)
                layers.append(layer_metrics(tracer.spans))
                all_spans.append(tracer.spans)
            else:
                timing, miss, n = run_pass(workload, sampler)
                untraced.append(timing)
            bad += miss
            checked += n
            now = time.perf_counter()
            done = (now - start) + (now - pass_start) > seconds
            if done and (not trace or traced):
                break
    out = {
        "passes": untraced,
        "checked": checked,
        "mismatches": bad[:SHOWN_MISMATCHES],
        "failed": len(bad),
    }
    if trace:
        out["traced_passes"] = traced
        out["layers"] = {k: median(d[k] for d in layers) for k in layers[0]}
        if spans_path:
            Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
            Path(spans_path).write_text(json.dumps(
                {"fields": ["name", "parent", "start", "end", "info"], "passes": all_spans}
            ))
    return out


if __name__ == "__main__":
    main()
