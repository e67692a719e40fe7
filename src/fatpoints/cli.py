"""Command-line front end.

Subcommands: dim, classify, h1check, oracle, scan, verify. Systems come in
as JSON specs ({"space":[3],"degree":[9],"points":[{"mult":6,"count":1},...]})
or as the shorthand P3:d=9:6,4x8 which desugars to the same thing. Results
go to stdout as JSON (or CSV/Markdown for scans), diagnostics to stderr.

Exit codes: 0 success or affirmative verdict, 1 negative verdict or
verification mismatch, 2 malformed input, 3 unsupported request, 4 oracle
sampling failure, and 141 (128 + SIGPIPE, as a shell reports a process the
signal ended) when the reader of stdout closed it early, as `| head` does.
Every randomized command reports the seed and prime used, so runs are
replayable; SEV_SEED overrides the default seed.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from . import search, verify
from .effect_varieties import (
    ConfigStep,
    Hypersurface,
    Line,
    LinearSubspace,
    RationalCurveP3,
    RationalNormalCurve,
    classify_alpha_sev,
    classify_configuration,
    h1_sev_check,
)
from .oracle import (
    DEFAULT_SEED,
    OracleConfig,
    OracleSamplingError,
    PrimeField,
    h0_oracle,
)
from .systems import LinearSystem, dim_report, make_system, system_from_json

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_ORACLE = 4
EXIT_BROKEN_PIPE = 141


def _parse_shorthand(text: str) -> LinearSystem:
    """P3:d=9:6,4x8 or P1xP1:d=2,2:2x3; the point part may be omitted."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"shorthand needs space:degree[:points], got {text!r}")
    factors = []
    for tok in parts[0].split("x"):
        if not tok.startswith("P"):
            raise ValueError(f"bad space factor {tok!r} (expected like P3)")
        factors.append(int(tok[1:]))
    deg_part = parts[1]
    if not deg_part.startswith("d="):
        raise ValueError(f"bad degree part {deg_part!r} (expected like d=9)")
    degree = [int(x) for x in deg_part[2:].split(",")]
    points = []
    if len(parts) == 3 and parts[2]:
        for tok in parts[2].split(","):
            if "x" in tok:
                m, c = tok.split("x")
                points.append((int(m), int(c)))
            else:
                points.append((int(tok), 1))
    return make_system(factors, degree, points)


def _load_system(args: argparse.Namespace) -> LinearSystem:
    if args.system is not None:
        return _parse_shorthand(args.system)
    if args.spec is not None:
        raw = sys.stdin.read() if args.spec == "-" else Path(args.spec).read_text(encoding="utf-8")
        return system_from_json(raw)
    raise ValueError("provide a system via --spec FILE or --system SHORTHAND")


def _oracle_cfg(args: argparse.Namespace) -> OracleConfig:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SEV_SEED", DEFAULT_SEED))
    return OracleConfig(PrimeField(args.prime), args.trials, seed)


def _echo_cfg(cfg: OracleConfig) -> None:
    print(f"seed={cfg.seed} prime={cfg.prime.p} trials={cfg.trials}", file=sys.stderr)


def _add_system_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--spec", help="JSON system spec file, or - for stdin")
    group.add_argument("--system", help="shorthand spec, e.g. P3:d=9:6,4x8")


def _add_oracle_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="oracle seed (default SEV_SEED or built-in)")
    p.add_argument("--prime", type=int, default=PrimeField().p, help="oracle prime")
    p.add_argument("--trials", type=int, default=OracleConfig().trials, help="independent point samples")


def _add_variety_args(p: argparse.ArgumentParser, extra_kinds: tuple[str, ...] = ()) -> None:
    _add_system_args(p)
    _add_oracle_args(p)
    p.add_argument("--variety", required=True,
                   choices=["quadric", "hypersurface", "linear", "rnc", "curve", "line", *extra_kinds])
    p.add_argument("--e", help="divisor multidegree, comma separated")
    p.add_argument("--c", type=int, default=1, help="divisor multiplicity at each point group")
    p.add_argument("--s", type=int, help="linear subspace dimension")
    p.add_argument("--through", type=int, help="points lying on the subspace (default s+1)")
    p.add_argument("--curve-degree", type=int, help="degree of the rational curve in P^3")
    p.add_argument("--pair", help="point indices of a line, e.g. 0,1")


def _parse_pairs(text: str, default_alpha: int) -> list[tuple[int, int, int]]:
    """0-1:2,0-2:2 -> [(0,1,2), (0,2,2)]; the :alpha part is optional."""
    out = []
    for tok in text.split(","):
        alpha = default_alpha
        if ":" in tok:
            tok, a = tok.split(":")
            alpha = int(a)
        i, j = tok.split("-")
        out.append((int(i), int(j), alpha))
    return out


def _build_variety(args: argparse.Namespace, sys_: LinearSystem):
    kind = args.variety
    if kind == "quadric":
        if sys_.space.nfactors != 1:
            raise ValueError("--variety quadric expects a single P^n (use hypersurface --e ...)")
        return Hypersurface.through_all(sys_, [2], args.c)
    if kind == "hypersurface":
        if args.e is None:
            raise ValueError("--variety hypersurface needs --e (comma-separated multidegree)")
        return Hypersurface.through_all(sys_, [int(x) for x in args.e.split(",")], args.c)
    if kind == "linear":
        if args.s is None:
            raise ValueError("--variety linear needs --s")
        through = args.through if args.through is not None else min(args.s + 1, sys_.total_points)
        return LinearSubspace(args.s, through)
    if kind == "rnc":
        return RationalNormalCurve()
    if kind == "curve":
        if args.curve_degree is None:
            raise ValueError("--variety curve needs --curve-degree")
        return RationalCurveP3(args.curve_degree)
    if kind == "line":
        if args.pair is None:
            raise ValueError("--variety line needs --pair i,j")
        i, j = (int(x) for x in args.pair.split(","))
        return Line((i, j))
    raise ValueError(f"unknown variety {kind!r}")


def cmd_dim(args: argparse.Namespace) -> int:
    report = dim_report(_load_system(args))
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    sys_ = _load_system(args)
    cfg = _oracle_cfg(args)
    _echo_cfg(cfg)
    if args.variety == "lines":
        if args.pairs is None:
            raise ValueError("--variety lines needs --pairs i-j[:alpha],...")
        steps = [
            ConfigStep(Line((i, j)), alpha) for i, j, alpha in _parse_pairs(args.pairs, args.alpha)
        ]
        report = classify_configuration(sys_, steps, cfg)
    else:
        report = classify_alpha_sev(sys_, _build_variety(args, sys_))
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK if report.is_sev else EXIT_NEGATIVE


def cmd_h1check(args: argparse.Namespace) -> int:
    sys_ = _load_system(args)
    cfg = _oracle_cfg(args)
    _echo_cfg(cfg)
    report = h1_sev_check(sys_, _build_variety(args, sys_), cfg)
    print(json.dumps(report.to_json(), indent=2))
    return EXIT_OK if report.is_h1_sev else EXIT_NEGATIVE


def cmd_oracle(args: argparse.Namespace) -> int:
    sys_ = _load_system(args)
    cfg = _oracle_cfg(args)
    schemes = tuple(_parse_pairs(args.lines, 2)) if args.lines else ()
    result = h0_oracle(sys_, cfg, extra_schemes=schemes)
    print(json.dumps(result.to_json(), indent=2))
    return EXIT_OK


def _emit(fmt: str, header: list[str], cells: list, objs: list[dict]) -> None:
    """Write a table to stdout: csv or md from the header and row cells, json
    from one object per row."""
    if fmt == "json":
        print(json.dumps(objs, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *cells])
    else:
        for row in [header, ["---"] * len(header), *cells]:
            print("| " + " | ".join(row) + " |")


_SCAN_OPTIONS = {  # --what -> the options its scan takes
    "hypersurfaces": ("n_max", "e_max", "d_max"),
    "rnc": ("n_max", "d_max"),
    "curves3": ("e_max", "d_max"),
    "products": ("t", "n_max", "e_max", "d_max"),
}


def cmd_scan(args: argparse.Namespace) -> int:
    kw = {k: v for k in ("t", "n_max", "e_max", "d_max") if (v := getattr(args, k)) is not None}
    other = [k for k in kw if k not in _SCAN_OPTIONS[args.what]]
    if other:
        flags = ", ".join("--" + k.replace("_", "-") for k in other)
        raise ValueError(f"scan --what {args.what} does not take {flags}")
    if args.what == "hypersurfaces":
        records = search.scan_hypersurfaces(**kw)
    elif args.what == "rnc":
        records = search.scan_rnc(**kw)
    elif args.what == "curves3":
        records = search.scan_rational_curves_p3(**kw)
    else:
        records = search.scan_product_divisors(kw.pop("t", 2), **kw)
    header = ["space", "degree", "variety", "h", "notes"]
    _emit(args.format, header, [r.cells() for r in records],
          [{k: getattr(r, k) for k in header} for r in records])
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _oracle_cfg(args)
    _echo_cfg(cfg)
    checks = verify.SUITES[args.suite](cfg)
    if args.format == "text":
        for c in checks:
            print(c.line())
    else:
        _emit(args.format, ["check", "ok", "detail"],
              [(c.name, "pass" if c.ok else "fail", c.detail) for c in checks],
              [asdict(c) for c in checks])
    return EXIT_OK if all(c.ok for c in checks) else EXIT_NEGATIVE


@lru_cache(maxsize=None)  # one per process: parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatpoints",
        description="Fat-point linear systems: dimensions, special-effect classification, exact oracle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", help="virtual/expected dimension report")
    _add_system_args(p)
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("classify", help="alpha-special-effect classification")
    _add_variety_args(p, ("lines",))
    p.add_argument("--pairs", help="line configuration steps, e.g. 0-1:2,0-2:2,1-2:2")
    p.add_argument("--alpha", type=int, default=2, help="default step multiplicity for --pairs")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("h1check", help="cohomological special-effect check")
    _add_variety_args(p)
    p.set_defaults(fn=cmd_h1check)

    p = sub.add_parser("oracle", help="actual h0/h1/speciality by finite-field rank")
    _add_system_args(p)
    _add_oracle_args(p)
    p.add_argument("--lines", help="extra line schemes, e.g. 0-1:2,0-2:2")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("scan", help="classification table scans")
    p.add_argument("--what", required=True, choices=["hypersurfaces", "rnc", "curves3", "products"])
    p.add_argument("--t", type=int, help="number of factors, products only (default 2)")
    p.add_argument("--n-max", type=int)
    p.add_argument("--e-max", type=int)
    p.add_argument("--d-max", type=int)
    p.add_argument("--format", default="csv", choices=["csv", "md", "json"])
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("verify", help="acceptance suites")
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--format", default="text", choices=["text", "json", "csv", "md"])
    _add_oracle_args(p)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone, which is no input error: stop quietly, with
        # stdout on devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OracleSamplingError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except NotImplementedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
