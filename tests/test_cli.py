import json
import os
import time

import pytest

from starpolar import cli, existence
from starpolar.cli import main
from starpolar.existence import ResampleBudgetError
from starpolar.field import DEFAULT_PRIME
from helpers import jacobian_route_rank_test, without_route_and_timing

CUSPIDAL_LINES_TEXT = "y0\ny1\ny1 - y2\ny0 + y1 + y2\n"

# the conic-plus-tangent normal form and its four apolar defining lines
CONIC_TANGENT = "x0*(x2^2+x0*x1)"
CONIC_TANGENT_LINES = (
    "y0 + 47/132*y1 - 3*y2\n"
    "4*y0 - 20/3*y1 - 10*y2\n"
    "2*y0 + 862/33*y1 + 7*y2\n"
    "11*y0 - 421/12*y1 + 6*y2\n"
)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_rho_command(capsys):
    code, data = run_json(capsys, ["rho", "--d", "3", "--r", "5", "--n", "3"])
    assert code == 0
    assert data["rho"] == 5
    code, data = run_json(capsys, ["rho", "--d", "3", "--r", "4", "--n", "3"])
    assert code == 0
    assert data["rho"] == -4
    assert "fails" in data["note"]


def test_rho_usage_error(capsys):
    code = main(["rho", "--d", "2", "--r", "1", "--n", "2"])
    err = capsys.readouterr().err
    assert code != 0
    assert "r >= n" in err


def test_rho_human_output(capsys):
    code = main(["rho", "--d", "3", "--r", "5", "--n", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rho(3,5,3) = 5" in out


def test_classify_command(capsys):
    code, data = run_json(capsys, ["classify", "--d", "3", "--r", "7", "--n", "5"])
    assert code == 0
    assert data["verdict"] == "NotExists" and data["rule"] == "certified-defective"
    assert "55 < 56" in data["note"]
    code, data = run_json(capsys, ["classify", "--d", "4", "--r", "6", "--n", "3"])
    assert data["verdict"] == "Exists" and data["rule"] == "boundary-support"
    assert data["note"].startswith("rho = 3 >= 0 on the boundary")
    code, data = run_json(capsys, ["classify", "--d", "6", "--r", "7", "--n", "2"])
    assert data["verdict"] == "Exists" and data["rule"] == "boundary-support"
    assert data["note"].startswith("rho = 7 >= 0 on the boundary")
    code, data = run_json(capsys, ["classify", "--d", "3", "--r", "8", "--n", "5"])
    assert data["verdict"] == "Exists" and data["rule"] == "ideal-degree-bound"


def test_huge_triples_classify_and_refuse_rho_by_name(capsys):
    # rho(10000, 10000, 10000) has more digits than `sys` lets an int print
    assert main(["classify", "--d", "10000", "--r", "10000", "--n", "10000"]) == 0
    assert capsys.readouterr().out.startswith(
        "(10000,10000,10000): NotExists [parameter-count] -- rho = -22456026627")
    for extra in ([], ["--json"]):
        assert main(["rho", "--d", "10000", "--r", "10000", "--n", "10000"] + extra) == 2
        assert capsys.readouterr().err == ("error: rho(10000,10000,10000) has too "
                                           "many digits to print\n")


def test_jactest_command(capsys):
    code, data = run_json(capsys, ["jactest", "--d", "2", "--r", "3", "--n", "2",
                                   "--seed", "11", "--trials", "2"])
    assert code == 0
    assert data["verdict"] == "RankFull" and data["rank"] == 6
    assert data["seed"] == 11 and data["trials"] == 2
    assert data["prime"] == 2**31 - 1
    # the text line says how far a rank falls short of the generic one
    assert main(["jactest", "--d", "3", "--r", "7", "--n", "5",
                 "--trials", "1"]) == 0
    assert "rank 55 of target 56, expected 56, defect 1 " in capsys.readouterr().out


def test_star_command(tmp_path, capsys):
    path = tmp_path / "lines.txt"
    path.write_text(CUSPIDAL_LINES_TEXT)
    code, data = run_json(capsys, ["star", "--forms", str(path)])
    assert code == 0
    assert data["r"] == 4 and data["n"] == 2
    assert len(data["points"]) == 6
    assert data["hilbert_function"] == [1, 3, 6, 6, 6]
    assert len(data["ideal_generators"]) == 4
    coords = {tuple(pt["coords"]) for pt in data["points"]}
    assert ("2", "-1", "-1") in coords


def test_star_command_json_coefficient_file(tmp_path, capsys):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"],
                                ["0", "1", "-1"], ["1", "1", "1"]]))
    code, data = run_json(capsys, ["star", "--forms", str(path)])
    assert code == 0
    assert data["hilbert_function"] == [1, 3, 6, 6, 6]


def test_star_command_json_file_takes_declared_or_widest_width(tmp_path, capsys):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    code, data = run_json(capsys, ["star", "--forms", str(path), "--n", "3"])
    assert code == 0
    assert data["n"] == 3 and data["hilbert_function"] == [1, 1, 1, 1]
    # mixed lengths: short vectors are padded to the widest one, or to --n
    path.write_text(json.dumps([["1", "0", "0", "0"], ["0", "1"], ["0", "0", "1"],
                                ["0", "0", "0", "1"], ["1", "1", "1", "1"]]))
    for declared in ([], ["--n", "3"]):
        code, data = run_json(capsys, ["star", "--forms", str(path)] + declared)
        assert code == 0
        assert data["n"] == 3 and data["hilbert_function"] == [1, 4, 10, 10, 10, 10]
    code = main(["star", "--forms", str(path), "--n", "2"])
    assert code == 2
    assert "exceeds 3 variables" in capsys.readouterr().err


def test_star_command_reports_violation(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("y0\ny1\ny0 + y1\n")
    code = main(["star", "--forms", str(path), "--n", "2"])
    err = capsys.readouterr().err
    assert code != 0
    assert "(0, 1, 2)" in err
    # the same three forms are a legitimate configuration of points in P^1
    code = main(["star", "--forms", str(path), "--n", "1", "--json"])
    assert code == 0
    # with r = n there is no maximal minor; the rows must be independent
    path.write_text("y0\n2*y0\n")
    code = main(["star", "--forms", str(path), "--n", "2"])
    assert code == 2
    assert "(0, 1)" in capsys.readouterr().err
    # without --n the lines y0, 2*y0 live in one variable: n = 0
    code = main(["star", "--forms", str(path)])
    assert code == 2
    assert "need n >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("first", ["y0*y1", "y0^2"])
@pytest.mark.parametrize("declared", [[], ["--n", "2"]])
def test_star_rejects_nonlinear_lines(tmp_path, capsys, first, declared):
    path = tmp_path / "lines.txt"
    path.write_text(CUSPIDAL_LINES_TEXT.replace("y0\n", first + "\n", 1))
    code = main(["star", "--forms", str(path)] + declared)
    assert code == 2
    assert "hyperplanes must be linear forms in the dual ring" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["star"], ["waring", "--form", "x0^2 - x1^2"]])
@pytest.mark.parametrize("content", ["[5]", '[["1", "x"]]', "[[]]", '[["1", "1/0"]]'])
def test_malformed_json_forms_file_is_a_usage_error(tmp_path, capsys, command, content):
    path = tmp_path / "forms.json"
    path.write_text(content)
    code = main(command + ["--forms", str(path)])
    assert code == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", [["star"], ["apolar-check", "--form", CONIC_TANGENT],
                                     ["waring", "--form", "x0^2 - x1^2"]])
def test_forms_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "forms.txt"
    path.write_bytes(b"\xff\xfey0\n")
    code = main(command + ["--forms", str(path)])
    assert code == 2
    assert f"cannot read {path}" in capsys.readouterr().err


def test_perp_command(capsys):
    code, data = run_json(capsys, ["perp", "--form", "x0^3 - x1^2*x2",
                                   "--degree", "2"])
    assert code == 0
    assert data["dimension"] == 3
    assert data["basis"] == ["y0*y1", "y0*y2", "y2^2"]


def test_perp_command_matrix_export(capsys):
    code, data = run_json(capsys, ["perp", "--form", "x0^3 - x1^2*x2",
                                   "--degree", "2", "--matrix"])
    assert code == 0
    cat = data["catalecticant"]
    assert cat["source_degree"] == 2 and cat["target_degree"] == 1
    assert cat["col_basis"][0] == "y0^2"
    assert cat["rows"][0][0] == "6"  # d^2/dx0^2 of x0^3 is 6*x0
    assert all(isinstance(e, str) for row in cat["rows"] for e in row)


def test_perp_of_the_zero_form_is_everything(capsys):
    code, data = run_json(capsys, ["perp", "--form", "0", "--degree", "0"])
    assert code == 0
    assert data["dimension"] == 1 and data["basis"] == ["1"]
    code, data = run_json(capsys, ["perp", "--form", "0*x0*x2", "--degree", "2"])
    assert code == 0 and data["dimension"] == 6


def test_apolar_check_star_mode_golden(tmp_path, capsys):
    path = tmp_path / "lines.txt"
    path.write_text(CONIC_TANGENT_LINES)
    code, data = run_json(capsys, ["apolar-check", "--form", CONIC_TANGENT,
                                   "--forms", str(path)])
    assert code == 0
    assert data["contained"] is True
    assert data["mode"] == "star-configuration"


def test_apolar_check_direct_mode_failure(tmp_path, capsys):
    path = tmp_path / "gens.txt"
    path.write_text("y2^2\ny1^2*y2\n")
    code, data = run_json(capsys, ["apolar-check", "--form", "x0^3 - x1^2*x2",
                                   "--forms", str(path)])
    assert code == 0  # a negative verdict is an answer, not an error
    assert data["contained"] is False
    assert data["mode"] == "direct-generators"
    assert data["failing_generator"] == "y1^2*y2"
    assert data["residual"] == "-2"


def test_waring_command(tmp_path, capsys):
    path = tmp_path / "points.txt"
    path.write_text("x2\nx1 + x2\nx1 - x2\nx0\nx0 - x2\n-2*x0 + x1 + x2\n")
    code, data = run_json(capsys, ["waring", "--form", "x0^3 - x1^2*x2",
                                   "--forms", str(path)])
    assert code == 0
    assert data["feasible"] is True and data["residual_zero"] is True
    assert len(data["coefficients"]) == 6


def test_waring_infeasible(tmp_path, capsys):
    path = tmp_path / "points.txt"
    path.write_text("x0\n")
    code, data = run_json(capsys, ["waring", "--form", "x0*x1",
                                   "--forms", str(path)])
    assert code == 0  # infeasibility is reported, not raised
    assert data["feasible"] is False


def test_sweep_and_idempotency(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    code, data = run_json(capsys, ["sweep", "--n", "2", "--dmin", "3",
                                   "--dmax", "4", "--out", str(out),
                                   "--seed", "5"])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 2
    assert all(rec["report"]["verdict"] == "RankFull" for rec in lines)
    assert [(rec["report"]["expected_rank"], rec["report"]["defect"])
            for rec in lines] == [(10, 0), (15, 0)]
    assert [(cell["expected_rank"], cell["defect"]) for cell in data["cells"]] \
        == [(10, 0), (15, 0)]
    assert [(rec["report"]["trial_ranks"], rec["report"]["resamples"])
            for rec in lines] == [([10], 0), ([15], 0)]
    assert all(rec["source"] == "jactest" for rec in lines)
    # every cell records the base seed; the rank test keys streams by triple
    assert [rec["report"]["seed"] for rec in lines] == [5, 5]
    # idempotent re-run appends nothing
    code, data = run_json(capsys, ["sweep", "--n", "2", "--dmin", "3",
                                   "--dmax", "4", "--out", str(out),
                                   "--seed", "5"])
    assert code == 0
    assert all(cell["skipped"] for cell in data["cells"])
    assert len(out.read_text().splitlines()) == 2
    # --force re-runs the cells
    code, data = run_json(capsys, ["sweep", "--n", "2", "--dmin", "3",
                                   "--dmax", "4", "--out", str(out),
                                   "--seed", "5", "--force"])
    assert len(out.read_text().splitlines()) == 4


def test_sweep_determinism_modulo_timing(tmp_path, capsys):
    def records(path, seed):
        code, _ = run_json(capsys, ["sweep", "--n", "2", "--dmin", "3",
                                    "--dmax", "4", "--out", str(path),
                                    "--seed", str(seed)])
        assert code == 0
        recs = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("timestamp")
            rec["report"].pop("elapsed_ms")
            recs.append(rec)
        return recs

    a = records(tmp_path / "a.jsonl", 7)
    b = records(tmp_path / "b.jsonl", 7)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_sweep_resume_skips_damaged_lines(tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    valid = {"d": 3, "r": 4, "n": 2, "report": {"prime": DEFAULT_PRIME, "seed": 1}}
    damaged = ["{not json", "[3, 4, 2]",
               json.dumps({**valid, "d": [3]}),
               json.dumps({**valid, "report": {"prime": {}, "seed": 1}})]
    out.write_text("\n".join(damaged + [json.dumps(valid)]) + "\n")
    code, data = run_json(capsys, ["sweep", "--dmin", "3", "--dmax", "5",
                                   "--out", str(out)])
    assert code == 0
    assert [cell["skipped"] for cell in data["cells"]] == [True, False, False]
    lines = out.read_text().splitlines()
    assert lines[:5] == damaged + [json.dumps(valid)]
    assert [json.loads(line)["d"] for line in lines[5:]] == [4, 5]


def test_sweep_unwritable_path(tmp_path, capsys):
    code = main(["sweep", "--n", "2", "--dmin", "3", "--dmax", "3",
                 "--out", str(tmp_path / "missing" / "x.jsonl")])
    assert code != 0
    assert "error" in capsys.readouterr().err


def test_sweep_rejects_bad_mode_and_range(capsys):
    assert main(["sweep", "--n", "3", "--dmax", "4", "--out", "x"]) != 0
    capsys.readouterr()
    assert main(["sweep", "--n", "2", "--dmin", "9", "--dmax", "4",
                 "--out", "x"]) != 0


def test_jactest_route_follows_the_triple(capsys):
    # below the degree bound the incidence matrix is ranked, from the same
    # draws as the Jacobian; at r = d + n only the Jacobian is defined
    for (d, r, n), route in (((3, 4, 2), "incidence"), ((3, 7, 5), "incidence"),
                             ((3, 5, 2), "jacobian"), ((2, 2, 2), "incidence")):
        code, data = run_json(capsys, ["jactest", "--d", str(d), "--r", str(r),
                                       "--n", str(n), "--seed", "3"])
        assert code == 0 and data["route"] == route
        oracle = jacobian_route_rank_test(d, r, n, seed=3)
        assert without_route_and_timing(data) == without_route_and_timing(oracle)


def test_rank_test_flags_alone_set_seed_and_prime(capsys, monkeypatch):
    code, data = run_json(capsys, ["jactest", "--d", "2", "--r", "3", "--n", "2",
                                   "--seed", "4"])
    assert code == 0 and data["seed"] == 4
    code = main(["jactest", "--d", "2", "--r", "3", "--n", "2", "--prime", "15"])
    assert code == 2 and "not prime" in capsys.readouterr().err
    # the environment is not an input: the default seed stays 1
    monkeypatch.setenv("STARPOLAR_SEED", "21")
    code, data = run_json(capsys, ["jactest", "--d", "2", "--r", "3", "--n", "2"])
    assert code == 0 and data["seed"] == 1


def test_bad_form_is_a_clean_error(capsys):
    code = main(["perp", "--form", "x0 + x1^2", "--degree", "1"])
    err = capsys.readouterr().err
    assert code != 0 and "degree" in err


@pytest.mark.parametrize("form", ["(" * 5000 + "x0" + ")" * 5000,
                                  "x0^100000000", "x1000000000",
                                  "(x0+x1+x2)^1000"])
def test_unparsable_forms_are_quick_usage_errors(capsys, form):
    start = time.perf_counter()
    code = main(["perp", "--form", form, "--degree", "0"])
    assert code == 2 and "cannot parse form" in capsys.readouterr().err
    assert time.perf_counter() - start < 1


def test_module_entry_point():
    import subprocess, sys
    import starpolar
    # run the package this suite imported, installed or not
    src = os.path.dirname(os.path.dirname(starpolar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "starpolar", "rho", "--d", "3", "--r", "5",
         "--n", "3", "--json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rho"] == 5


@pytest.mark.parametrize("prime", [2**61 - 1, 2147483659])
def test_oversized_prime_is_a_quick_usage_error(capsys, prime):
    start = time.perf_counter()
    code = main(["jactest", "--d", "3", "--r", "4", "--n", "2",
                 "--prime", str(prime)])
    assert code == 2 and time.perf_counter() - start < 1
    assert "too large" in capsys.readouterr().err


def test_rank_test_flags_only_on_rank_test_commands(capsys):
    for argv in (["rho", "--d", "3", "--r", "5", "--n", "3"],
                 ["perp", "--form", "x0^2", "--degree", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "3"])
        assert exc.value.code == 2
        assert main(argv + ["--json"]) == 0


SWEEP = ["sweep", "--dmax", "4", "--out", "{tmp}/sweep.jsonl"]


def _budget_spent(*args, **kwargs):
    raise ResampleBudgetError("32 degenerate draws in a row")


def _unreachable(*args):
    raise AssertionError("a refused command reached Jacobian assembly")


@pytest.mark.parametrize("argv, code, patched", [
    (["rho", "--d", "2", "--r", "1", "--n", "2"], 2, False),
    (["classify", "--d", "0", "--r", "3", "--n", "2"], 2, False),
    (["jactest", "--d", "406", "--r", "407", "--n", "2"], 2, False),
    (SWEEP + ["--prime", "15"], 2, False),
    (SWEEP + ["--trials", "0"], 2, False),
    (["sweep", "--dmin", "406", "--dmax", "406", "--out", "{tmp}/sweep.jsonl"], 2, False),
    (["sweep", "--dmax", "4", "--out", "{tmp}"], 2, False),
    (["star", "--forms", "{tmp}/missing.txt"], 2, False),
    (["perp", "--form", "x0^2", "--degree", "-1"], 2, False),
    (["apolar-check", "--form", "x0*x1", "--forms", "{tmp}/dependent.txt"], 2, False),
    (["waring", "--form", "x0*x1", "--forms", "{tmp}/proportional.txt"], 2, False),
    (["jactest", "--d", "3", "--r", "4", "--n", "2"], 1, True),
    (SWEEP, 1, True),
    # below the degree bound the pairing needs p > d, and a sweep refuses
    # p <= dmax before its output file exists
    (["jactest", "--d", "3", "--r", "4", "--n", "2", "--prime", "3"], 2, False),
    (SWEEP + ["--prime", "3"], 2, False),
    (["jactest", "--d", "19", "--r", "6", "--n", "6"], 2, False),
    # a graded piece too large to enumerate is refused, not built
    (["perp", "--form", "x0*x1*x2", "--degree", "100000"], 2, False),
    (["perp", "--form", "x20^40", "--degree", "20"], 2, False),
])
def test_exit_codes_follow_the_exception_type(tmp_path, capsys, monkeypatch,
                                              argv, code, patched):
    """A ValueError (a bad flag, a bad file, a failed library check) exits
    2; a computation that fails exits 1.  Either way the reason is one
    `error:` line on stderr and stdout stays empty."""
    inputs = {"dependent.txt": "y0\n2*y0\n", "proportional.txt": "x0 + x1\n2*x0 + 2*x1\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    # an oversize triple must be refused, never assembled
    monkeypatch.setattr(existence, "cramer_table", _unreachable)
    if patched:
        monkeypatch.setattr(cli, "jacobian_rank_test", _budget_spent)
    start = time.perf_counter()
    assert main([a.format(tmp=tmp_path) for a in argv]) == code
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    if code == 2:  # a refused command leaves no file behind
        assert sorted(f.name for f in tmp_path.iterdir()) == sorted(inputs)


@pytest.mark.parametrize("d, r, prime", [(2, 4, 2), (3, 5, 3)])
@pytest.mark.parametrize("seed", [1, 2])
def test_jacobian_route_refuses_a_prime_at_most_d(capsys, monkeypatch, d, r, prime, seed):
    """At or above the degree bound (r >= d + n) the rank test refuses
    p <= d as below it: the multinomials of P_S^d vanish mod p there, so a
    deficit or a run of refused draws would come from the prime."""
    monkeypatch.setattr(existence, "cramer_table", _unreachable)
    argv = ["jactest", "--d", str(d), "--r", str(r), "--n", "2",
            "--prime", str(prime), "--seed", str(seed)]
    assert existence._route(d, r, 2) == "jacobian"
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and "needs p > d" in err and err.count("\n") == 1


def test_a_refused_call_leaves_the_shared_parser_as_it_was(tmp_path, capsys):
    """`main` parses with one parser per process; a call that exits 2, by
    a library ``ValueError`` or by an argparse error, must not change what
    the next call prints."""
    path = tmp_path / "lines.txt"
    path.write_text(CUSPIDAL_LINES_TEXT)
    good = [["star", "--forms", str(path), "--json"],
            ["jactest", "--d", "3", "--r", "5", "--n", "2", "--seed", "4", "--json"]]

    def outputs():
        printed = []
        for argv in good:
            assert main(argv) == 0
            data = json.loads(capsys.readouterr().out)
            data.pop("elapsed_ms", None)
            printed.append(data)
        return printed

    cli.build_parser.cache_clear()
    assert main(["jactest", "--d", "3", "--r", "5", "--n", "2", "--prime", "9"]) == 2
    with pytest.raises(SystemExit):
        main(["star", "--no-such-flag"])
    assert capsys.readouterr().out == ""
    after_refusals = outputs()
    assert cli.build_parser() is cli.build_parser()
    cli.build_parser.cache_clear()
    assert outputs() == after_refusals
