"""fatpoints benchmark: time one workload end to end, or trace its layers.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-suites --seed 1 --seconds 36 --trace 0

Each run starts fresh single-threaded interpreters on ``src/``, one after
another: one sets up and runs timed passes for ``--seconds``, and others
before and after it only set up, to time set-up. Every time in the result
line is scaled to the nominal host speed by a reference loop timed around and
during it (reference.py); the times as measured are printed above it. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of traced
passes, alternated with untraced ones to measure the tracing overhead.
Every pass checks the workload's pinned outputs; the run exits 1 when any
differs, and 2 without a result when the checkout holds no fatpoints source.
Details and spans go to ``.perfbench/`` in the checkout. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import reference
from reference import reading_s, scaled

HERE = Path(__file__).resolve().parent
# workload -> (case reported as main_call_s, case reported as second_call_s)
MAIN_CALLS = {
    "verify-suites": ("verify_cgg", "verify_ah"),
    "large-elimination": ("oracle_d16", "oracle_d12"),
    "line-schemes": ("lines_d14", "lines_p4_d8"),
}
# set-ups per run: half of them before the process that runs the timed passes
# (its own set-up counts too) and the rest after it, so that the samples
# spread over the run instead of catching one moment of a noisy host
SETUP_RUNS = 9
DEADLINE_S = 170.0  # every run must end within 180 s
OUT_DIR = ".perfbench"

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "main_call_s": "s",
    "second_call_s": "s",
}
# The per-layer metrics in the result line: the ones every workload reaches
# or counts. The full table, including suite-only times that read 0 on the
# oracle workloads, is printed above it and kept in the result file.
PER_LAYER = {
    "oracle.rank_mod_p.calls": "count",
    "oracle.rank_mod_p.self_s": "s",
    "oracle.rank_mod_p.rows": "count",
    "oracle.rank_mod_p.cells": "count",
    "oracle.rank_mod_p.max_cells": "count",
    "oracle.h0_oracle.calls": "count",
    "oracle.h0_oracle.self_s": "s",
    "oracle.trials_per_call": "ratio",
    "oracle.sample_points.calls": "count",
    "oracle.sample_points.self_s": "s",
    "oracle.cross_checked_h0.calls": "count",
    "oracle.cross_checked_h0.disagreements": "count",
    "effect_varieties.classify_alpha_sev.calls": "count",
    "effect_varieties.classify_configuration.calls": "count",
    "effect_varieties.h1_sev_check.calls": "count",
    "trace.overhead_frac": "ratio",
}
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_worker(root: Path, env: dict, args: argparse.Namespace, seconds: float,
               deadline: float) -> tuple[float, float, dict]:
    """Start one worker and wait for it; return its set-up time, the same time
    scaled to the nominal host speed, and its report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    if seconds > 0 and args.trace:
        cmd += ["--spans", str(root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
    before = reading_s()
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - launched, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish before the deadline")
    finally:  # also when this process is told to stop
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    report = json.loads(stdout.strip().splitlines()[-1])
    expected = root / "src" / "fatpoints" / "__init__.py"
    if Path(report["fatpoints_file"]).resolve() != expected.resolve():
        raise BenchError(f"worker imported {report['fatpoints_file']}, not {expected}")
    setup = report["setup_end"] - launched
    return setup, scaled(setup, [before, report["setup_reading_s"]]), report


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, if it has one; git itself is not run."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, args: argparse.Namespace, report: dict, env: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "prime": report["prime"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "blas_threads": {k: env[k] for k in SINGLE_THREAD},
        "reference": {"loops": reference.LOOPS, "nominal_s": reference.NOMINAL_S,
                      "interval_s": reference.INTERVAL_S},
        "git_commit": git_commit(root),
        "src_sha256": source_digest(root),
    }


def end_to_end(workload: str, setups: list[float], report: dict,
               prefix: str = "scaled_") -> dict[str, float]:
    """The end-to-end metrics, at the nominal host speed; with ``prefix=""``
    and the raw set-up times, the same as measured."""
    passes = report["passes"]
    main_case, second_case = MAIN_CALLS[workload]
    return {
        "setup_s": median(setups),
        "pass_s": median(p[prefix + "pass_s"] for p in passes),
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
        "main_call_s": median(p[prefix + "calls"][main_case] for p in passes),
        "second_call_s": median(p[prefix + "calls"][second_case] for p in passes),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_frac", "_per_call")) else "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MAIN_CALLS))
    ap.add_argument("--seed", type=int, required=True, help="oracle seed of the workload")
    ap.add_argument("--seconds", type=int, required=True, help="length of the timed passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    root = Path.cwd()
    if not (root / "src" / "fatpoints" / "__init__.py").is_file():
        print(f"no fatpoints source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               **{k: "1" for k in SINGLE_THREAD})
    # SIGTERM exits through the finally clauses, which stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    try:
        before = SETUP_RUNS // 2
        setups = [run_worker(root, env, args, 0, deadline)[:2] for _ in range(before)]
        setup, scaled_setup, report = run_worker(root, env, args, args.seconds, deadline)
        setups.append((setup, scaled_setup))
        setups += [run_worker(root, env, args, 0, deadline)[:2]
                   for _ in range(SETUP_RUNS - before - 1)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    passes = report["passes"]
    e2e = end_to_end(args.workload, [s for _, s in setups], report)
    measured = end_to_end(args.workload, [s for s, _ in setups], report, prefix="")
    if args.trace:
        untraced = median(p["scaled_pass_s"] for p in passes)
        traced = median(p["scaled_pass_s"] for p in report["traced_passes"])
        layers = dict(report["layers"], **{"trace.overhead_frac": traced / untraced - 1})
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        layers = {}
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    attempted, failed = report["checked"], report["failed"]
    details = {
        "provenance": provenance(root, args, report, env),
        "setup_s_samples": [s for s, _ in setups],
        "scaled_setup_s_samples": [s for _, s in setups],
        "passes": passes,
        "traced_passes": report.get("traced_passes", []),
        "end_to_end": e2e,
        "end_to_end_as_measured": measured,
        "layers": layers,
        "pinned_checked": attempted,
        "pinned_failed": failed,
        "failed_frac": failed / attempted,
        "mismatches": report["mismatches"],
    }
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1)
    )

    print("provenance " + json.dumps(details["provenance"]))
    for msg in report["mismatches"]:
        print(f"MISMATCH {msg}")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted} pinned values)")
    n = len(passes)
    for case in passes[0]["calls"]:
        print(f"{case}_s {median(p['scaled_calls'][case] for p in passes):.4f} s"
              f" (median, n={n}; as measured {median(p['calls'][case] for p in passes):.4f} s)")
    for name, unit in END_TO_END.items():
        if name == "peak_rss_mb":
            print(f"{name} {e2e[name]:.4f} {unit}")
            continue
        count = len(setups) if name == "setup_s" else n
        print(f"{name} {e2e[name]:.4f} {unit} (median, n={count};"
              f" as measured {measured[name]:.4f} {unit})")
    for name, value in layers.items():
        print(f"{name} {value:.6g} {layer_unit(name)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
