"""The three benchmark workloads: their calls, warm-up and pinned outputs.

Each workload is a fixed list of calls into fatpoints, made through module
attributes so that the tracer's wrappers see them. The only input that
varies is the oracle seed, which the benchmark's ``--seed`` sets. Pinned
outputs are generic values: they were computed with prime 2^31-1 at seed
271828 and confirmed with prime 2147483629 at seed 271829 and at seeds 1, 2
and 7, so they must hold on any seed. Line schemes use multiplicity alpha=2
on every line.
"""
from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from fatpoints import cli, effect_varieties, oracle
from fatpoints.effect_varieties import ConfigStep, Line, LinearSubspace
from fatpoints.oracle import OracleConfig
from fatpoints.systems import make_system

LINE_ALPHA = 2
THREE_LINES = ((0, 1, LINE_ALPHA), (0, 2, LINE_ALPHA), (1, 2, LINE_ALPHA))
TWO_LINES = ((0, 1, LINE_ALPHA), (0, 2, LINE_ALPHA))


@dataclass(frozen=True)
class Case:
    name: str
    call: Callable[[], object]
    observe: Callable[[object], dict]  # output -> the values that are pinned
    pinned: dict


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    warm_up: Callable[[], object]


def mismatches(pinned: dict, observed: dict) -> list[str]:
    """One message per pinned value that the observed output does not reproduce."""
    return [
        f"{key}: pinned {want!r}, got {observed.get(key, '<missing>')!r}"
        for key, want in pinned.items()
        if observed.get(key) != want
    ]


def _oracle_observe(res) -> dict:
    return {"h0": res.h0, "rank": res.rank}


def _verify_case(suite: str, seed: int, checks: tuple[str, ...]) -> Case:
    argv = ["verify", suite, "--format", "json", "--seed", str(seed)]

    def call():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, json.loads(out.getvalue())

    def observe(output) -> dict:
        code, rows = output
        return {"exit_code": code, **{row["name"]: row["ok"] for row in rows}}

    return Case(
        "verify_" + suite.replace("-", "_"),
        call,
        observe,
        {"exit_code": 0, **{name: True for name in checks}},
    )


def _oracle_case(name, system, cfg, h0, rank, lines=()) -> Case:
    return Case(
        name,
        lambda: oracle.h0_oracle(system, cfg, extra_schemes=lines),
        _oracle_observe,
        {"h0": h0, "rank": rank},
    )


def _warm_up(systems, cfg):
    """One oracle call per ambient space and degree, on one simple point, so
    the monomial-basis caches are filled before timing."""
    def run():
        for factors, degree in systems:
            oracle.h0_oracle(make_system(factors, degree, [(1, 1)]), cfg)
    return run


def verify_suites(seed: int) -> Workload:
    cases = (
        _verify_case("ah", seed, (
            "ah-rows-special", "ah-quartic-cubic-h0-is-1", "ah-complement-nonspecial",
            "ah-two-prime-agreement", "h1-values",
        )),
        _verify_case("cgg", seed, ("cgg-special-sets", "cgg-witnesses")),
        _verify_case("paper-tables", seed, (
            "hypersurface-table", "rnc-table", "curves3-table", "product-t2-table",
            "product-t3-table", "product-t4-empty", "scan-records-oracle-special",
        )),
        _verify_case("lemmas", seed, (
            "rising-factorial-identity", "psi-equals-phi-at-2e", "phi-monotone-in-d",
            "A-ratio-increasing", "phi-nonnegative-d-ge-2e-ge-6", "eta-monotone-t2",
            "eta-monotone-t3-t4",
        )),
    )
    warm = _warm_up((([1, 1], [2, 2]), ([3], [4])), OracleConfig(seed=seed))
    return Workload("verify-suites", cases, warm)


def large_elimination(seed: int) -> Workload:
    cfg = OracleConfig(seed=seed)
    cases = (
        _oracle_case("oracle_d9", make_system([3], [9], [(6, 1), (4, 8)]), cfg, 5, 215),
        _oracle_case("oracle_d12", make_system([3], [12], [(5, 20)]), cfg, 0, 455),
        _oracle_case("oracle_d16", make_system([3], [16], [(7, 16)]), cfg, 0, 969),
    )
    warm = _warm_up((([3], [9]), ([3], [12]), ([3], [16])), cfg)
    return Workload("large-elimination", cases, warm)


def line_schemes(seed: int) -> Workload:
    cfg = OracleConfig(seed=seed)
    sextic = make_system([3], [6], [(4, 3)])
    triple_lines = [ConfigStep(Line((i, j)), alpha) for i, j, alpha in THREE_LINES]
    cases = (
        _oracle_case(
            "lines_d14", make_system([3], [14], [(8, 4)]), cfg, 206, 474, THREE_LINES
        ),
        _oracle_case(
            "lines_p4_d8", make_system([4], [8], [(5, 5)]), cfg, 155, 340, THREE_LINES
        ),
        _oracle_case(
            "lines_d9", make_system([3], [9], [(6, 1), (4, 8)]), cfg, 1, 219, TWO_LINES
        ),
        Case(
            "sextic_config",
            lambda: effect_varieties.classify_configuration(sextic, triple_lines, cfg),
            lambda rep: {
                "is_sev": rep.is_sev,
                "oracle_h0": rep.values["oracle_h0"],
                "nu_steps": rep.values["nu_steps"],
            },
            {"is_sev": True, "oracle_h0": 27, "nu_steps": [23, 24, 25, 26]},
        ),
        Case(
            "h1_subspace",
            lambda: effect_varieties.h1_sev_check(sextic, LinearSubspace(2, 3), cfg),
            lambda rep: {
                "cond_a": rep.cond_a,
                "cond_b": rep.cond_b,
                "cond_c": rep.cond_c,
                **{k: rep.values.get(k) for k in ("h0_restriction", "h1_restriction", "h0_residual")},
            },
            {
                "cond_a": False, "cond_b": True, "cond_c": False,
                "h0_restriction": 1, "h1_restriction": 3, "h0_residual": 26,
            },
        ),
    )
    warm = _warm_up((([3], [14]), ([4], [8]), ([3], [9]), ([3], [6])), cfg)
    return Workload("line-schemes", cases, warm)


WORKLOADS = {
    "verify-suites": verify_suites,
    "large-elimination": large_elimination,
    "line-schemes": line_schemes,
}
