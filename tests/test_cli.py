import json
import os
import subprocess
import sys

import pytest

from fatpoints import effect_varieties
from fatpoints.cli import EXIT_BROKEN_PIPE, build_parser, main
from fatpoints.oracle import DEFAULT_PRIME, SECOND_PRIME

LU_SPEC = {"space": [3], "degree": [9], "points": [{"mult": 6, "count": 1}, {"mult": 4, "count": 8}]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dim_shorthand(capsys):
    code, out, _ = run(capsys, "dim", "--system", "P3:d=9:6,4x8")
    assert code == 0
    assert json.loads(out)["virtual_dim"] == 3


def test_dim_empty_points(capsys):
    code, out, _ = run(capsys, "dim", "--system", "P2:d=5")
    assert code == 0
    rep = json.loads(out)
    assert rep["virtual_dim"] == rep["monomials"] - 1 == 20


def test_dim_spec_file(tmp_path, capsys):
    path = tmp_path / "lu.json"
    path.write_text(json.dumps(LU_SPEC))
    code, out, _ = run(capsys, "dim", "--spec", str(path))
    assert code == 0 and json.loads(out)["expected_dim"] == 3


def test_classify_quadric_affirmative(capsys):
    code, out, err = run(capsys, "classify", "--system", "P3:d=9:6,4x8", "--variety", "quadric")
    assert code == 0
    rep = json.loads(out)
    assert rep["is_sev"] and rep["alpha_max"] == 1
    assert "seed=" in err and "prime=" in err
    # the quadric is the hypersurface of degree 2
    code, out_e, _ = run(
        capsys, "classify", "--system", "P3:d=9:6,4x8", "--variety", "hypersurface", "--e", "2"
    )
    assert code == 0 and out_e == out
    code, out, _ = run(capsys, "classify", "--system", "P3:d=6:4x3", "--variety", "line", "--pair", "0,1")
    rep = json.loads(out)
    assert code == 0 and rep["alpha_max"] == 2 and rep["nu_residual"] == 24


def test_classify_linear_on_quartic(capsys):
    code, out, _ = run(
        capsys, "classify", "--system", "P3:d=6:4x3", "--variety", "linear", "--s", "2"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["is_sev"] and rep["alpha_max"] == 1 and rep["nu_residual"] == 25


def test_classify_rnc_negative(capsys):
    code, out, _ = run(capsys, "classify", "--system", "P3:d=3:2x6", "--variety", "rnc")
    assert code == 1
    assert not json.loads(out)["is_sev"]


def test_classify_line_configuration(capsys):
    code, out, _ = run(
        capsys,
        "classify",
        "--system",
        "P3:d=6:4x3",
        "--variety",
        "lines",
        "--pairs",
        "0-1:2,0-2:2,1-2:2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["is_sev"] and rep["values"]["nu_steps"] == [23, 24, 25, 26]


def test_h1check_quadric(capsys):
    code, out, _ = run(capsys, "h1check", "--system", "P3:d=9:6,4x8", "--variety", "quadric")
    assert code == 0
    rep = json.loads(out)
    assert rep["cond_a"] and rep["cond_b"] and rep["cond_c"]


def test_h1check_negative(capsys):
    code, out, _ = run(
        capsys, "h1check", "--system", "P3:d=6:4x3", "--variety", "linear", "--s", "2"
    )
    assert code == 1


def test_oracle_json_shape(capsys):
    code, out, _ = run(capsys, "oracle", "--system", "P2:d=4:2x5", "--trials", "2")
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {
        "h0", "h1", "rank", "rows", "cols", "special", "prime", "seed", "trials", "lower", "certified"
    }
    assert rep["h0"] == 1 and rep["special"]
    assert rep["cols"] == 15 and rep["rows"] == 15  # five double points in P2


def test_oracle_with_lines(capsys):
    code, out, _ = run(
        capsys, "oracle", "--system", "P3:d=6:4x3", "--lines", "0-1:2,0-2:2,1-2:2"
    )
    assert code == 0
    assert json.loads(out)["h0"] == 27
    # speciality is only defined against the pure system's expected dimension
    assert '"special": null' in out
    # the doubled lines lie in the base locus, so the bound 27 certifies trial 1
    assert '"certified": true' in out
    assert (json.loads(out)["trials"], json.loads(out)["lower"]) == (1, 27)


def test_oracle_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("SEV_SEED", "555")
    code, out, _ = run(capsys, "oracle", "--system", "P2:d=2:2x1")
    assert code == 0 and json.loads(out)["seed"] == 555


def test_oracle_seed_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("SEV_SEED", "555")
    code, out, _ = run(capsys, "oracle", "--system", "P2:d=2:2x1", "--seed", "7")
    assert code == 0 and json.loads(out)["seed"] == 7


def test_scan_csv_and_md(capsys):
    code, out, _ = run(capsys, "scan", "--what", "hypersurfaces")
    assert code == 0
    assert out.splitlines()[0] == "space,degree,variety,h,notes"
    assert "P4,4,2,14," in out
    code, out, _ = run(capsys, "scan", "--what", "products", "--t", "3", "--format", "md")
    assert code == 0 and "| P1xP1xP3 | (2,2,2) | (1,1,1) | 15 |" in out


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--what", "rnc", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert {(tuple(r["space"]), tuple(r["degree"])) for r in rows} == {((2,), (4,)), ((4,), (3,))}


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, "verify", "lemmas")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines())


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "--format", "json")
    assert code == 0
    assert all(c["ok"] for c in json.loads(out))
    assert json.loads(out)[0] == {"name": "rising-factorial-identity", "ok": True, "detail": ""}


def test_spec_and_system_are_exclusive(capsys):
    # one system per call: given both, argparse refuses them (exit 2)
    # instead of reading one and ignoring the other
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--system", "P3:d=6:4x3", "--spec", "/nonexistent"])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    code, out, _ = run(capsys, "dim", "--system", "P3:d=6:4x3")
    assert code == 0 and json.loads(out)["virtual_dim"] == 23


def test_exit_code_input_error(capsys):
    code, _, err = run(capsys, "dim", "--spec", "/nonexistent/file.json")
    assert code == 2 and "input error" in err
    code, _, err = run(capsys, "dim", "--system", "Q3:d=2")
    assert code == 2
    code, _, err = run(capsys, "dim")
    assert code == 2


@pytest.mark.parametrize(
    "what, bound",
    [
        ("hypersurfaces", ["--n-max", "-1"]),
        ("rnc", ["--d-max", "-1"]),
        ("curves3", ["--e-max", "-1"]),
        ("products", ["--t", "2", "--d-max", "-1"]),
        ("products", ["--t", "3", "--e-max", "-1"]),
        ("products", ["--t", "2", "--n-max", "0"]),
    ],
)
def test_scan_rejects_bounds_below_range(capsys, what, bound):
    code, out, err = run(capsys, "scan", "--what", what, *bound)
    assert code == 2 and out == "" and "scan bounds out of range" in err


@pytest.mark.parametrize(
    "what, option, flag",
    [
        ("rnc", ["--e-max", "-1"], "--e-max"),
        ("curves3", ["--n-max", "-5"], "--n-max"),
        ("hypersurfaces", ["--t", "2"], "--t"),
    ],
)
def test_scan_rejects_options_its_scan_does_not_take(capsys, what, option, flag):
    # an option the scan would drop is named, not ignored
    code, out, err = run(capsys, "scan", "--what", what, *option)
    assert code == 2 and out == ""
    assert f"scan --what {what} does not take {flag}" in err


def test_exit_code_unsupported(capsys):
    code, _, err = run(
        capsys, "classify", "--system", "P1xP1:d=2,2:2x3", "--variety", "curve",
        "--curve-degree", "2",
    )
    assert code == 3 and "unsupported" in err


def test_oracle_rejects_bad_primes(capsys):
    # 4294967311 is prime but above 2^31; it used to print a wrong h0=0 here
    code, out, err = run(capsys, "oracle", "--system", "P3:d=4:2x9", "--prime", "4294967311")
    assert code == 2 and out == "" and "2^31" in err
    code, out, err = run(capsys, "oracle", "--system", "P3:d=4:2x9", "--prime", "1000000")
    assert code == 2 and out == "" and "not prime" in err
    code, _, err = run(capsys, "oracle", "--system", "P3:d=4:2x9", "--prime", "3")
    assert code == 2 and "largest degree" in err
    for p in (DEFAULT_PRIME, SECOND_PRIME, 2147483587):
        code, out, _ = run(capsys, "oracle", "--system", "P3:d=4:2x9", "--prime", str(p))
        assert code == 0 and json.loads(out)["h0"] == 1


def test_classify_missing_variety_params(capsys):
    code, _, err = run(capsys, "classify", "--system", "P3:d=6:4x3", "--variety", "hypersurface")
    assert code == 2 and "needs --e" in err
    code, _, err = run(capsys, "classify", "--system", "P3:d=6:4x3", "--variety", "linear")
    assert code == 2
    code, _, err = run(capsys, "classify", "--system", "P3:d=6:4x3", "--variety", "lines")
    assert code == 2


def test_malformed_pairs_and_lines(capsys):
    code, _, _ = run(
        capsys, "classify", "--system", "P3:d=6:4x3", "--variety", "lines", "--pairs", "0+1"
    )
    assert code == 2
    code, _, _ = run(capsys, "oracle", "--system", "P3:d=6:4x3", "--lines", "0-0:2")
    assert code == 2


def test_scan_curves3_csv(capsys):
    code, out, _ = run(capsys, "scan", "--what", "curves3")
    assert code == 0
    assert "P3,2,2,3," in out
    assert "P3,2,2,4,not-general-position" in out


def test_verify_md_format(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "--format", "md")
    assert code == 0 and out.startswith("| check | ok | detail |")
    assert out.splitlines()[2] == "| rising-factorial-identity | pass |  |"
    code, out, _ = run(capsys, "verify", "lemmas", "--format", "csv")
    assert code == 0
    assert out.splitlines()[:2] == ["check,ok,detail", "rising-factorial-identity,pass,"]


def test_line_pair_out_of_range(capsys):
    # a pair naming a missing point, or a negative index that would wrap
    # around, is malformed input rather than a negative verdict
    for cmd in ("classify", "h1check"):
        for system, pair in (("P3:d=6:4x3", "0,9"), ("P3:d=4:3x4", "-1,0")):
            code, out, err = run(capsys, cmd, "--system", system, "--variety", "line", f"--pair={pair}")
            assert code == 2 and out == "" and "input error" in err, (cmd, pair)


def test_curves_checked_where_they_live(capsys):
    # h1check rejects a curve class off its space as classify does: no smooth
    # rational plane cubic, no P^3 curve in P^4, no rational normal curve,
    # line or linear subspace on a product
    for system, variety in (
        ("P2:d=4:2x5", ["curve", "--curve-degree", "3"]),
        ("P4:d=2:2x2", ["curve", "--curve-degree", "1"]),
        ("P1xP1:d=2,2:2x3", ["rnc"]),
        ("P1xP1:d=2,2:2x3", ["line", "--pair", "0,1"]),
        ("P1xP1:d=2,2:2x3", ["linear", "--s", "1"]),
    ):
        for cmd in ("classify", "h1check"):
            code, out, err = run(capsys, cmd, "--system", system, "--variety", *variety)
            assert code == 3 and out == "" and "unsupported" in err, (cmd, system)


def test_subspace_needs_s_below_n(capsys, monkeypatch):
    # P^3 itself is no candidate subspace: an input error before any oracle call
    def no_oracle(*args, **kwargs):
        raise AssertionError("oracle called")

    monkeypatch.setattr(effect_varieties, "h0_oracle", no_oracle)
    for cmd in ("classify", "h1check"):
        for s in ("3", "4"):
            code, out, err = run(capsys, cmd, "--system", "P3:d=2:2x2", "--variety", "linear", "--s", s)
            assert code == 2 and out == "" and f"need 1 <= s <= n-1, got s={s} in P^3" in err, (cmd, s)


def test_multiplicity_past_the_degree_is_answered(capsys):
    # a subspace, a line and a line step whose multiplicity runs past the
    # degree: each valid (empty) system gets a negative verdict, not a binom
    # input error. A linear Y fits min(d, m) = 1 times, so the scan reads
    # alpha = 1 only, and the line as a P^1 reads the values of the line
    # through the same two points; the line step of a configuration reads
    # its alpha as given, where the normal orders above d have no
    # conditions, and past the same bound it is not admissible
    for variety, nu_by_alpha in (
        (["P4:d=1:4x2", "--variety", "linear", "--s", "1"], {"1": -60}),
        (["P4:d=1:4x2", "--variety", "line", "--pair", "0,1"], {"1": -60}),
        (["P3:d=1:4x2", "--variety", "line", "--pair", "0,1"], {"1": -31}),
    ):
        code, out, err = run(capsys, "classify", "--system", *variety)
        rep = json.loads(out)
        assert code == 1 and not rep["is_sev"] and rep["values"]["nu_by_alpha"] == nu_by_alpha, err
    code, out, err = run(capsys, "classify", "--system", "P3:d=1:4x2", "--variety", "lines", "--pairs", "0-1:4")
    rep = json.loads(out)
    assert code == 1 and not rep["is_sev"] and rep["values"]["nu_steps"] == [-37, -1], err
    assert not rep["holds_property"] and not rep["checks"]["alpha_admissible"]


def test_empty_residual_is_a_verdict(capsys):
    # planes through 2 points less a quadric, and constants double at 2
    # points less a double line: L - Y is empty, a negative verdict (exit 1)
    code, out, err = run(capsys, "h1check", "--system", "P3:d=1:1x2", "--variety", "quadric")
    rep = json.loads(out)
    assert code == 1 and not rep["cond_b"], err
    assert {k: rep["values"][k] for k in ("h0_system", "h0_residual", "h0_restriction")} == {
        "h0_system": 2, "h0_residual": 0, "h0_restriction": 2
    }
    assert all(rep["values"][k] is None for k in ("chi_restriction", "h1_restriction", "h2_residual"))
    # a line and a conic of P^3 in the constants: no nonzero constant vanishes
    # on a curve, so alpha is bounded by d = 0 and no removal is admissible
    for e, h in ((1, 2), (2, 3)):
        code, out, err = run(
            capsys, "classify", "--system", f"P3:d=0:2x{h}", "--variety", "curve", "--curve-degree", str(e)
        )
        rep = json.loads(out)
        assert code == 1 and not rep["is_sev"] and not rep["holds_property"], err
        assert not rep["checks"]["alpha_admissible"] and rep["values"]["alpha_bound"] == 0
        assert rep["nu_residual"] is None and "nu_by_alpha" not in rep["values"]
    # a divisor of the wrong length is still malformed input, empty or not
    for e in ("3", "1"):
        code, out, err = run(capsys, "h1check", "--system", "P1xP1:d=1,1:1x2", "--variety", "hypersurface", "--e", e)
        assert code == 2 and out == "" and "multidegree length" in err, e


def test_varieties_that_miss_general_points_are_refused(capsys):
    # no line passes through 3 general points of P^2 or of P^3, and no plane
    # through 6 of P^3: each report fails exists_through_points and exits 1,
    # and h1check reads no restriction sequence for a plane that is not there
    for args in (
        ("classify", "--system", "P2:d=1:1x3", "--variety", "hypersurface", "--e", "1"),
        ("classify", "--system", "P3:d=1:1x3", "--variety", "linear", "--s", "1", "--through", "3"),
    ):
        code, out, err = run(capsys, *args)
        rep = json.loads(out)
        assert code == 1 and not rep["is_sev"] and not rep["holds_property"], (args, err)
        assert rep["checks"]["exists_through_points"] is False, args
    code, out, err = run(capsys, "h1check", "--system", "P3:d=12:7x6", "--variety", "hypersurface", "--e", "1")
    rep = json.loads(out)
    assert code == 1 and not rep["is_h1_sev"] and rep["exists_through_points"] is False, err
    assert "h0_restriction" not in rep["values"]
    # through as many points as they can: the check passes
    code, out, _ = run(capsys, "classify", "--system", "P2:d=2:1x2", "--variety", "hypersurface", "--e", "1")
    assert json.loads(out)["checks"]["exists_through_points"] is True
    code, out, _ = run(capsys, "h1check", "--system", "P3:d=6:4x3", "--variety", "hypersurface", "--e", "1")
    assert json.loads(out)["exists_through_points"] is True


def test_line_needs_n_at_least_2(capsys):
    # a line of P^1, like its rational normal curve, is the whole space: an
    # input error at every degree, not a binom failure
    for system, variety, message in (
        ("P1:d=3:2x2", ["line", "--pair", "0,1"], "line candidates need n >= 2"),
        ("P1:d=2:2x3", ["rnc"], "rational normal curves need n >= 2"),
        ("P1:d=4:2x3", ["rnc"], "rational normal curves need n >= 2"),
    ):
        for cmd in ("classify", "h1check"):
            code, out, err = run(capsys, cmd, "--system", system, "--variety", *variety)
            assert code == 2 and out == "" and message in err, (cmd, system)


def test_same_seed_byte_identical(capsys):
    _, out1, _ = run(capsys, "oracle", "--system", "P3:d=4:2x9", "--seed", "11")
    _, out2, _ = run(capsys, "oracle", "--system", "P3:d=4:2x9", "--seed", "11")
    assert out1 == out2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fatpoints", "dim", "--system", "P2:d=4:2x5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["virtual_dim"] == -1


def test_closed_stdout_stops_quietly():
    # a reader that closes the pipe early, as `| head` does, is no input
    # error: the command stops without a message and exits 128 + SIGPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fatpoints", "verify", "lemmas", "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141, proc.stderr
    assert "error" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def test_stdin_spec(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(LU_SPEC)))
    code, out, _ = run(capsys, "dim", "--spec", "-")
    assert code == 0 and json.loads(out)["virtual_dim"] == 3


def test_malformed_json_specs_are_input_errors(capsys, monkeypatch):
    # a string space, a scalar degree, a float or bool multiplicity and a
    # float factor dimension exit 2, never 0 with another system or 1
    import io

    for spec in [
        '{"space": "33", "degree": [2]}',
        '{"space": [3], "degree": 9}',
        '{"space": [3], "degree": [4], "points": [{"mult": 2.7}]}',
        '{"space": [3], "degree": [4], "points": [{"mult": true}]}',
        '{"space": [3.9], "degree": [4]}',
    ]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
        code, out, err = run(capsys, "dim", "--spec", "-")
        assert code == 2 and out == "" and "input error" in err, spec


def test_parser_is_built_once(capsys):
    # main reuses one parser, so a second call parses as the first did
    assert build_parser() is build_parser()
    argv = ["verify", "ah", "--seed", "5", "--format", "json"]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0 and json.loads(first[1])
