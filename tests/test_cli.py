import csv
import io
import json

import pytest

from torlie import cli


def run(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_json_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "A", "--n", "3", "--r", "2",
        "--window", "1", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["algebra"] == {
        "family": "A", "n": 3, "r": 2, "N": 5, "folded_type": "C3",
    }
    assert data["window"] == 1 and data["serre_cap"] == 2
    for fam in data["families"]:
        assert set(fam) == {"id", "applicable_cases", "passed_cases", "failures"}
        assert fam["passed_cases"] == fam["applicable_cases"]


def test_verify_json_deterministic(capsys):
    args = ("verify", "--family", "D", "--n", "4", "--r", "3",
            "--window", "1", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_verify_invalid_config(capsys):
    code, _, err = run(capsys, "verify", "--family", "A", "--n", "3", "--r", "5")
    assert code == 2
    assert "r=5" in err


def test_verify_relation_failure_exit_code(capsys, monkeypatch):
    from torlie import presentation

    true_sides = presentation.relation_sides

    def broken(rel, spec):
        lhs, rhs = true_sides(rel, spec)
        if rel.family == "1":
            return lhs, rhs + presentation._central_c(spec, 1)
        return lhs, rhs

    monkeypatch.setattr(presentation, "relation_sides", broken)
    code, out, _ = run(
        capsys, "verify", "--family", "A", "--n", "3", "--r", "2", "--window", "1",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_internal_error_exit_code(capsys, monkeypatch):
    # cmd_verify calls the name bound in cli
    def broken(*args, **kwargs):
        raise AssertionError("highest-root sl2 normalization failed")

    monkeypatch.setattr(cli, "verify_all", broken)
    code, out, err = run(
        capsys, "verify", "--family", "A", "--n", "3", "--r", "2", "--window", "1",
    )
    assert code == 3
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert "AssertionError: highest-root sl2 normalization failed" in err


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "--family", "A", "--n", "3", "--r", "2")
    assert code == 0
    assert "folded type C3" in out
    assert "(1/2, 1/2, 1)" in out
    assert "g_0 = 21" in out


def test_info_triality(capsys):
    code, out, _ = run(capsys, "info", "--family", "D", "--n", "4", "--r", "3")
    assert code == 0
    assert "folded type G2" in out
    assert "g_0 = 14" in out
    code, out, _ = run(capsys, "info", "--family", "D", "--n", "3", "--r", "2")
    assert code == 0
    assert "folded type B3" in out


def test_bracket_examples(capsys):
    code, out, _ = run(
        capsys, "bracket", "--family", "A", "--n", "3", "--r", "2",
        "a0(2)", "a1(-2)",
    )
    assert code == 0
    assert out.strip() == "-4*C0"

    code, out, _ = run(
        capsys, "bracket", "--family", "A", "--n", "3", "--r", "2",
        "c", "a1(3)",
    )
    assert code == 0
    assert out.strip() == "0"

    code, out, _ = run(
        capsys, "bracket", "--family", "A", "--n", "3", "--r", "2",
        "X+0(0)", "X-0(0)",
    )
    assert code == 0
    # minus the affine current image, expanded
    assert "t^-1 dt" in out and out.startswith("h1")


def test_bracket_parse_error(capsys):
    code, _, err = run(
        capsys, "bracket", "--family", "A", "--n", "3", "--r", "2",
        "a1(", "c",
    )
    assert code == 2
    assert "position" in err


def test_bracket_inadmissible_degree(capsys):
    code, _, err = run(
        capsys, "bracket", "--family", "A", "--n", "3", "--r", "2",
        "a0(1)", "c",
    )
    assert code == 2
    assert "admissible" in err


def test_span_text(capsys):
    code, out, _ = run(
        capsys, "span", "--family", "A", "--n", "3", "--r", "2",
        "--j-window", "1", "--m-window", "0", "--word-length", "4",
    )
    assert code == 0
    assert "21/21 ok" in out and "14/14 ok" in out


@pytest.mark.parametrize("flag, value", [("--j-window", "-1"), ("--m-window", "-1"),
                                         ("--word-length", "-3")])
def test_span_rejects_negative_windows(capsys, flag, value):
    code, out, err = run(
        capsys, "span", "--family", "A", "--n", "3", "--r", "2", flag, value,
    )
    assert code == 2
    assert out == "" and err.startswith("error: ") and "negative" in err


def test_dump_structure(capsys):
    code, out, _ = run(capsys, "dump-structure", "--family", "A", "--n", "2", "--r", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["basis_a", "basis_b", "basis_result", "coeff"]
    body = rows[1:]
    assert body
    # [h1, e_alpha1] = 2 e_alpha1 appears
    assert ["h1", "e[1,0,0]", "e[1,0,0]", "2"] in body
    # every row antisymmetric partner present
    triples = {(a, b, res): c for a, b, res, c in body}
    for (a, b, res), c in triples.items():
        assert triples.get((b, a, res)) == str(-int(c))


def test_parse_generator_roundtrip():
    from torlie.cli import parse_generator

    assert parse_generator("c") == __import__("torlie").GenSym("c")
    g = parse_generator("X-2(-14)")
    assert (g.kind, g.i, g.k) == ("x-", 2, -14)
    with pytest.raises(cli.ExprError):
        parse_generator("Y+1(0)")
    with pytest.raises(cli.ExprError):
        parse_generator("a1(2)x")


def test_verify_rejects_nonpositive_jobs(capsys):
    code, out, err = run(
        capsys, "verify", "--family", "A", "--n", "3", "--r", "2", "--jobs", "0",
    )
    assert code == 2
    assert out == "" and "jobs" in err


def test_verify_internal_value_error_exit_code(capsys, monkeypatch):
    # a ValueError from inside torlie is an internal error, not bad input
    from torlie.toroidal import ToroidalElem

    def broken(self):
        raise ValueError("loop part is not fixed by the twisted automorphism")

    monkeypatch.setattr(ToroidalElem, "validate_twisted", broken)
    code, out, err = run(
        capsys, "verify", "--family", "A", "--n", "3", "--r", "2", "--window", "1",
    )
    assert code == 3
    assert out == ""
    assert "Traceback (most recent call last)" in err
    assert "ValueError: loop part is not fixed" in err


def test_bracket_index_out_of_range(capsys):
    code, _, err = run(
        capsys, "bracket", "--family", "A", "--n", "3", "--r", "2", "a9(0)", "c",
    )
    assert code == 2
    assert err == "error: generator index 9 out of range for A5\n"
