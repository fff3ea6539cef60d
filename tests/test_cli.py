import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

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


# SHA-256 of `info` text followed by `info --format json`: pins the Cartan
# and folding data, also at ranks no acceptance configuration reaches
INFO_DIGESTS = {
    ("A", 2, 1): "9bb00e3b2083491345f9182081f43c884d82a0ba7a7adffc316ffda37047f7fd",
    ("A", 2, 2): "4d0c2d5c7c9b3c276ea78cc406b73cccd27bf0c2a23f865adfbd5677566d8835",
    ("A", 3, 1): "bcaa993c4efb5a584feccf4fd6521c786ffdc803708cbdb0d3729479066b69b6",
    ("A", 3, 2): "c17a5b2f585f3987dd3d7c6ff20515099cdeacd938e515da5745f59a5110ec35",
    ("A", 4, 1): "902a7358ac0ad92b1c3448aa27c43cf9a48df3057c6ca933aa288f9ac3e7e181",
    ("A", 4, 2): "1ce470d07fd115b8d7388b8edf7f9ab97b45ec4917b31202b6ce43e10cc41ccb",
    ("A", 5, 1): "4d11c74f1b60c00c199228ffac8592b2a4f44fd61301330fb538eb64a9c2265b",
    ("A", 5, 2): "b1d9c585c8ed080b4d7543b4e8f0ff0da96aba88f25cf568327a736f27e287b2",
    ("A", 6, 1): "870315177a1121ccd3ef3e6bb4b0d5145d64667ad17a2bb088042bb3baefea6e",
    ("A", 6, 2): "8174cfe98c74356a1dd7df326c0aa2a764c080d5515d0dd62e094e9cfce6ef16",
    ("A", 7, 1): "8aa2e6f8c501fe51bdf2f1120fadb57f6f65a09878bdb2f701cd1b3033d4ed7b",
    ("A", 7, 2): "a76fe43f2eb8ba85d70112a08c4ef6a607598743cc9e21dafc31ab7ca36e9e34",
    ("D", 2, 1): "0f313ea65b101f71722a9e7de853c96dbe5fec2e70484c498f6b1020f0b2f56f",
    ("D", 2, 2): "d81f676f62f3dfa3eef1f8ff9b33b96f120dab2aa21e8d65c631f2d00e23d83e",
    ("D", 3, 1): "21c197f88aae0efd1c27fc77149a4eaf25d50933fd22e0a91492b5f7b0c8b313",
    ("D", 3, 2): "2017d4006464b1af860734a13b58e698a8c2179b88f96ff4afb26605c22d57e2",
    ("D", 4, 1): "79b22411910e9bf1ecdf6d55d04561de35a2ddf8fee918358bff6a2f541019c1",
    ("D", 4, 2): "332ab5b206bdb5336ba8dceed3b88781333b1114b2ad3ac5e361630a79cabc24",
    ("D", 5, 1): "067f342cc2859bbdcf139e641b8b84e9371fa887d621dc6c79b34c1ca5e2a005",
    ("D", 5, 2): "838be4ef4ae4cba3921bc621ea54c28a55f0b13409c98356047ac713a217f3e1",
    ("D", 6, 1): "de900eb0ad76b56c90247a7f1ee54ebb53872e27cc652118a6d1f5f07655f4dd",
    ("D", 6, 2): "679be2a0c63e297a1c04270dd4fc3ba21a44f27dc5b8a0e671bcf9a8ba443e65",
    ("D", 7, 1): "974e4e9868a5937ca810c68ac73ce0ae88e613cd66262606d8c2848b288891f5",
    ("D", 7, 2): "dd00bfb340b4e744945d81f4748fb8cfac01698ada7e1f31ab078aa0837a7827",
    ("D", 4, 3): "0f0dea32212b2e95a90b5c85acb5adf5e79ae08e99aabd9fba311c76d1478fe8",
}


@pytest.mark.parametrize("key", sorted(INFO_DIGESTS))
def test_info_is_pinned(capsys, key):
    family, n, r = key
    out = ""
    for fmt in ("text", "json"):
        code, text, err = run(capsys, "info", "--family", family, "--n", str(n),
                              "--r", str(r), "--format", fmt)
        assert code == 0 and err == ""
        out += text
    assert hashlib.sha256(out.encode()).hexdigest() == INFO_DIGESTS[key]


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


def test_module_entry_point(capsys):
    # `python -m torlie` runs cli.main and exits with its code
    args = ("info", "--family", "A", "--n", "3", "--r", "2")
    code, out, err = run(capsys, *args)
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "torlie", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert done.returncode == code == 0
    assert (done.stdout, done.stderr) == (out, err)


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


def test_verify_has_no_jobs_option(capsys):
    # verify runs in one process and takes no --jobs option
    code, out, err = run(
        capsys, "verify", "--family", "A", "--n", "3", "--r", "2", "--jobs", "2",
    )
    assert code == 2
    assert out == "" and "unrecognized arguments: --jobs 2" in err


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
