"""Spans around the public layer functions of fatpoints, recorded from outside.

The tracer swaps each traced function for a wrapper in every ``fatpoints``
module that binds it, because ``verify``, ``search``, ``effect_varieties`` and
``cli`` hold their own references (``from .oracle import h0_oracle``); patching
only the defining module would miss their calls. Spans are kept in memory as
``[name, parent, start, end, info]`` with ``parent`` the index of the enclosing
span (-1 at top level) and written out by the caller at the end of the run.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _shape(args, result):
    return list(args[0].shape)


def _agreed(args, result):
    return bool(result.agreed)


# (module, function, span name, info recorded from the arguments and result)
LAYERS = (
    ("fatpoints.oracle", "h0_oracle", "oracle.h0_oracle", None),
    ("fatpoints.oracle", "sample_points", "oracle.sample_points", None),
    ("fatpoints.oracle", "rank_mod_p", "oracle.rank_mod_p", _shape),
    ("fatpoints.oracle", "cross_checked_h0", "oracle.cross_checked_h0", _agreed),
    ("fatpoints.effect_varieties", "classify_alpha_sev", "effect_varieties.classify_alpha_sev", None),
    ("fatpoints.effect_varieties", "classify_configuration", "effect_varieties.classify_configuration", None),
    ("fatpoints.effect_varieties", "h1_sev_check", "effect_varieties.h1_sev_check", None),
    ("fatpoints.search", "verify_cgg", "search.verify_cgg", None),
    ("fatpoints.search", "scan_hypersurfaces", "search.scan_hypersurfaces", None),
    ("fatpoints.search", "scan_rnc", "search.scan_rnc", None),
    ("fatpoints.search", "scan_rational_curves_p3", "search.scan_rational_curves_p3", None),
    ("fatpoints.search", "scan_product_divisors", "search.scan_product_divisors", None),
    ("fatpoints.cli", "main", "cli.main", None),
)

# verify suites are looked up in verify.SUITES at call time, so the dict
# entries are wrapped; the key "paper-tables" becomes "verify.paper_tables"
SUITE_SPANS = {
    "ah": "verify.ah",
    "cgg": "verify.cgg",
    "paper-tables": "verify.paper_tables",
    "lemmas": "verify.lemmas",
}

# every per-layer metric the traced run computes, in report order
LAYER_METRICS = (
    "oracle.rank_mod_p.calls",
    "oracle.rank_mod_p.self_s",
    "oracle.rank_mod_p.rows",
    "oracle.rank_mod_p.cells",
    "oracle.rank_mod_p.max_cells",
    "oracle.h0_oracle.calls",
    "oracle.h0_oracle.self_s",
    "oracle.trials_per_call",
    "oracle.sample_points.calls",
    "oracle.sample_points.self_s",
    "oracle.cross_checked_h0.calls",
    "oracle.cross_checked_h0.disagreements",
    "effect_varieties.classify_alpha_sev.calls",
    "effect_varieties.classify_alpha_sev.self_s",
    "effect_varieties.classify_configuration.calls",
    "effect_varieties.classify_configuration.self_s",
    "effect_varieties.h1_sev_check.calls",
    "effect_varieties.h1_sev_check.self_s",
    "search.verify_cgg.self_s",
    "search.scans.self_s",
    "verify.ah.total_s",
    "verify.cgg.total_s",
    "verify.paper_tables.total_s",
    "verify.lemmas.total_s",
    "cli.main.self_s",
)


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores every binding."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "fatpoints" or key.startswith("fatpoints."))
        ]
        for module_name, attr, span_name, info in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(span_name, original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, traced)
        suites = sys.modules["fatpoints.verify"].SUITES
        for key, span_name in SUITE_SPANS.items():
            self._restore.append((suites, key, suites[key]))
            suites[key] = self.wrap(span_name, suites[key])

    def uninstall(self) -> None:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread and nest, so direct children never overlap
    and the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - c for (_, _, start, end, _), c in zip(spans, covered)]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over a list of spans, keyed as in LAYER_METRICS."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    rows = cells = max_cells = disagreements = 0
    for (name, _, start, end, info), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        if name == "oracle.rank_mod_p":
            r, c = info
            rows += r
            cells += r * c
            max_cells = max(max_cells, r * c)
        elif name == "oracle.cross_checked_h0" and info is False:
            disagreements += 1

    out: dict[str, float] = {}
    for metric in LAYER_METRICS:
        span, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[span]
        elif field == "self_s":
            out[metric] = self_s[span]
        elif field == "total_s":
            out[metric] = total_s[span]
    out["oracle.rank_mod_p.rows"] = rows
    out["oracle.rank_mod_p.cells"] = cells
    out["oracle.rank_mod_p.max_cells"] = max_cells
    out["oracle.cross_checked_h0.disagreements"] = disagreements
    out["search.scans.self_s"] = sum(v for k, v in self_s.items() if k.startswith("search.scan_"))
    h0_calls = calls["oracle.h0_oracle"]
    out["oracle.trials_per_call"] = calls["oracle.rank_mod_p"] / h0_calls if h0_calls else 0.0
    return {k: out[k] for k in LAYER_METRICS}
