"""Tests of the benchmark's own helpers (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import io
import json
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from reference import NOMINAL_S, Sampler, scaled  # noqa: E402
from spans import LAYER_METRICS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import large_elimination, line_schemes, mismatches  # noqa: E402

from fatpoints import cli, effect_varieties, oracle, search, verify  # noqa: E402
from fatpoints.systems import make_system  # noqa: E402


def span(name, parent, start, end, info=None):
    return [name, parent, start, end, info]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", -1, 0.0, 10.0),
        span("b", 0, 1.0, 4.0),
        span("c", 1, 2.0, 3.0),
        span("d", 0, 5.0, 9.0),
        span("e", -1, 11.0, 12.5),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]


def test_layer_metrics_sums_shapes_and_disagreements():
    spans = [
        span("cli.main", -1, 0.0, 10.0),
        span("verify.ah", 0, 0.5, 9.5),
        span("oracle.cross_checked_h0", 1, 1.0, 5.0, False),
        span("oracle.h0_oracle", 2, 1.0, 3.0),
        span("oracle.rank_mod_p", 3, 1.5, 2.0, [4, 5]),
        span("oracle.rank_mod_p", 3, 2.0, 2.5, [6, 5]),
        span("oracle.h0_oracle", 2, 3.0, 5.0),
        span("oracle.rank_mod_p", 6, 3.0, 4.0, [2, 3]),
        span("search.scan_rnc", 1, 6.0, 7.0),
        span("search.scan_hypersurfaces", 1, 7.0, 7.5),
    ]
    m = layer_metrics(spans)
    assert list(m) == list(LAYER_METRICS)
    assert m["oracle.rank_mod_p.calls"] == 3
    assert m["oracle.rank_mod_p.rows"] == 12
    assert m["oracle.rank_mod_p.cells"] == 20 + 30 + 6
    assert m["oracle.rank_mod_p.max_cells"] == 30
    assert m["oracle.trials_per_call"] == 1.5
    assert m["oracle.h0_oracle.self_s"] == 1.0 + 1.0
    assert m["oracle.cross_checked_h0.disagreements"] == 1
    assert m["oracle.cross_checked_h0.calls"] == 1
    assert m["search.scans.self_s"] == 1.5
    assert m["verify.ah.total_s"] == 9.0
    assert m["cli.main.self_s"] == 1.0
    assert m["effect_varieties.h1_sev_check.calls"] == 0


def test_tracer_sees_calls_through_every_import_and_restores():
    originals = (oracle.h0_oracle, effect_varieties.h0_oracle, search.h0_oracle,
                 verify.h0_oracle, cli.h0_oracle, dict(verify.SUITES))
    sextic = make_system([3], [6], [(4, 3)])
    tracer = Tracer()
    tracer.install()
    try:
        effect_varieties.h1_sev_check(sextic, effect_varieties.LinearSubspace(2, 3))
        with redirect_stdout(io.StringIO()):
            cli.main(["verify", "lemmas"])
    finally:
        tracer.uninstall()
    assert (oracle.h0_oracle, effect_varieties.h0_oracle, search.h0_oracle,
            verify.h0_oracle, cli.h0_oracle, dict(verify.SUITES)) == originals

    names = [s[0] for s in tracer.spans]
    assert names[0] == "effect_varieties.h1_sev_check"
    oracle_calls = [s for s in tracer.spans if s[0] == "oracle.h0_oracle"]
    assert len(oracle_calls) == 2 and all(s[1] == 0 for s in oracle_calls)
    ranks = [s for s in tracer.spans if s[0] == "oracle.rank_mod_p"]
    assert ranks and all(tracer.spans[s[1]][0] == "oracle.h0_oracle" for s in ranks)
    suite = names.index("verify.lemmas")
    assert tracer.spans[suite][1] == names.index("cli.main")


def test_tracer_sees_the_workload_calls():
    cases = [c for c in line_schemes(oracle.DEFAULT_SEED).cases
             if c.name in ("sextic_config", "h1_subspace")]
    tracer = Tracer()
    tracer.install()
    try:
        for case in cases:
            case.call()
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer.spans)
    assert m["effect_varieties.classify_configuration.calls"] == 1
    assert m["effect_varieties.h1_sev_check.calls"] == 1
    assert m["oracle.h0_oracle.calls"] == 3


def test_scaled_divides_by_the_trimmed_mean_slice_around_the_interval():
    assert scaled(3.0, [NOMINAL_S, NOMINAL_S]) == 3.0
    assert scaled(3.0, [NOMINAL_S, 2 * NOMINAL_S]) == pytest.approx(2.0)
    # one slice in ten is dropped at each end: the preempted one and the fastest
    slices = [0.5 * NOMINAL_S] + [1.5 * NOMINAL_S] * 8 + [50 * NOMINAL_S]
    assert scaled(3.0, slices) == pytest.approx(2.0)


def test_sampler_takes_its_slices_out_of_the_call_time():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    with Sampler() as sampler:
        _, seconds, around = sampler.timed(busy)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert len(around) >= 2 + 3  # before, after, and ticks during the call
    assert 0.3 - sum(around) < seconds < 0.3


def test_gate_passes_pinned_values_and_fails_a_perturbed_one():
    case = next(c for c in large_elimination(oracle.DEFAULT_SEED).cases if c.name == "oracle_d9")
    observed = case.observe(case.call())
    assert mismatches(case.pinned, observed) == []
    perturbed = dict(case.pinned, rank=case.pinned["rank"] + 1)
    assert mismatches(perturbed, observed) == ["rank: pinned 216, got 215"]
    assert mismatches({"is_sev": True}, {}) == ["is_sev: pinned True, got '<missing>'"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.PER_LAYER) <= set(LAYER_METRICS) | {"trace.overhead_frac"}
    assert {w["name"] for w in spec["workloads"]} == set(run.MAIN_CALLS)


def test_run_refuses_a_directory_without_the_source(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "line-schemes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
