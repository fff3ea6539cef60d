"""Command-line front end.

Commands:
    verify          run every relation family over a degree window
    info            print Cartan data, folding data and dimensions
    bracket         bracket the images of two generator expressions
    span            graded span check of the generated subalgebra
    dump-structure  CSV dump of the structure constants

Exit codes: 0 success / all relations pass, 1 at least one relation
failed, 2 invalid configuration or expression, 3 internal error (with a
traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .liealg import get_algebra
from .presentation import (
    GenSym,
    psi_image,
    span_check,
    toroidal_bracket,
    verify_all,
)
from .rootdata import AlgebraSpec, ConfigError, build_cartan, enumerate_roots


class ExprError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def parse_generator(text: str) -> GenSym:
    """Parse `c`, `a<i>(<k>)`, `X+<i>(<k>)` or `X-<i>(<k>)`."""
    s = text.strip()
    if s == "c":
        return GenSym("c")
    pos = 0
    if s.startswith("a"):
        kind = "a"
        pos = 1
    elif s.startswith("X+") or s.startswith("X-"):
        kind = "x" + s[1]
        pos = 2
    else:
        raise ExprError(f"expected 'c', 'a<i>(<k>)' or 'X+/-<i>(<k>)' in {text!r}", 0)

    def read_int(at: int, stop: str) -> tuple:
        end = at
        if end < len(s) and s[end] == "-":
            end += 1
        while end < len(s) and s[end].isdigit():
            end += 1
        if end == at or (s[at] == "-" and end == at + 1):
            raise ExprError(f"expected an integer in {text!r}", at)
        if end >= len(s) or s[end] != stop:
            raise ExprError(f"expected {stop!r} in {text!r}", end)
        return int(s[at:end]), end + 1

    i, pos = read_int(pos, "(")
    k, pos = read_int(pos, ")")
    if pos != len(s):
        raise ExprError(f"trailing characters in {text!r}", pos)
    if i < 0:
        raise ExprError(f"negative generator index in {text!r}", 1)
    return GenSym(kind, i, k)


def _add_algebra_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", required=True, choices=("A", "D"))
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--r", required=True, type=int)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torlie",
        description="exact verification of twisted 2-toroidal current presentations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="check all relation families over a window")
    _add_algebra_flags(v)
    v.add_argument("--window", type=int, default=4)
    v.add_argument("--serre-cap", type=int, default=2)
    v.add_argument("--format", choices=("text", "json"), default="text")

    i = sub.add_parser("info", help="print Cartan and folding data")
    _add_algebra_flags(i)
    i.add_argument("--format", choices=("text", "json"), default="text")

    b = sub.add_parser("bracket", help="bracket two generator images")
    _add_algebra_flags(b)
    b.add_argument("lhs")
    b.add_argument("rhs")

    s = sub.add_parser("span", help="graded span check")
    _add_algebra_flags(s)
    s.add_argument("--j-window", type=int, default=2)
    s.add_argument("--m-window", type=int, default=1)
    s.add_argument("--word-length", type=int, default=4)
    s.add_argument("--format", choices=("text", "json"), default="text")

    d = sub.add_parser("dump-structure", help="CSV of the structure constants")
    _add_algebra_flags(d)
    return ap


def _matrix_rows(mat):
    return [list(row) for row in mat]


def cmd_verify(spec: AlgebraSpec, args, out) -> int:
    summary = verify_all(spec, args.window, args.serre_cap)
    if args.format == "json":
        json.dump(summary.to_json_dict(), out, indent=2)
        out.write("\n")
    else:
        out.write(summary.render_text() + "\n")
    return 0 if summary.passed else 1


def cmd_info(spec: AlgebraSpec, fmt: str, out) -> int:
    alg = get_algebra(spec)
    cd = build_cartan(spec)
    dims = {j: alg.graded_dim(j) for j in range(spec.r)}
    data = {
        "algebra": spec.to_json_dict(),
        "cartan_matrix": _matrix_rows(cd.A_prime),
        "folded_matrix": _matrix_rows(cd.A_folded),
        "extended_matrix": _matrix_rows(cd.A_ext),
        "d": [str(x) for x in cd.d],
        "highest_root": list(cd.theta),
        "dim": alg.dim,
        "root_count": len(enumerate_roots(spec)),
        "graded_dims": dims,
    }
    if fmt == "json":
        json.dump(data, out, indent=2)
        out.write("\n")
        return 0
    out.write(f"algebra {spec.name}, twist order r={spec.r}, "
              f"folded type {spec.folded_name}\n")
    out.write(f"dim = {alg.dim}, roots = {data['root_count']}\n")
    out.write("graded dims: "
              + ", ".join(f"g_{j} = {d}" for j, d in dims.items()) + "\n")
    out.write(f"d-vector: ({', '.join(data['d'])})\n")
    out.write(f"highest root: {data['highest_root']}\n")
    for label, mat in (("Cartan matrix", cd.A_prime),
                       ("folded matrix", cd.A_folded),
                       ("extended matrix", cd.A_ext)):
        out.write(label + ":\n")
        for row in mat:
            out.write("  [" + " ".join(f"{v:3d}" for v in row) + "]\n")
    return 0


def cmd_bracket(spec: AlgebraSpec, lhs_text: str, rhs_text: str, out) -> int:
    lhs = psi_image(parse_generator(lhs_text), spec)
    rhs = psi_image(parse_generator(rhs_text), spec)
    out.write(toroidal_bracket(lhs, rhs).render() + "\n")
    return 0


def cmd_span(spec: AlgebraSpec, j_window: int, m_window: int, word_length: int,
             fmt: str, out) -> int:
    report = span_check(spec, j_window, m_window, word_length)
    if fmt == "json":
        json.dump(report.to_json_dict(), out, indent=2)
        out.write("\n")
    else:
        out.write(report.render_text() + "\n")
    return 0


def cmd_dump_structure(spec: AlgebraSpec, out) -> int:
    alg = get_algebra(spec)
    writer = csv.writer(out)
    writer.writerow(["basis_a", "basis_b", "basis_result", "coeff"])
    for b1, row in enumerate(alg._rows):
        for b2, entry in sorted(row.items()):
            for b3, coeff in entry:
                writer.writerow([alg.basis_name(b1), alg.basis_name(b2),
                                 alg.basis_name(b3), coeff])
    return 0


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    out = sys.stdout
    try:
        spec = AlgebraSpec(args.family, args.n, args.r)
        if args.command == "verify":
            return cmd_verify(spec, args, out)
        if args.command == "info":
            return cmd_info(spec, args.format, out)
        if args.command == "bracket":
            return cmd_bracket(spec, args.lhs, args.rhs, out)
        if args.command == "span":
            return cmd_span(spec, args.j_window, args.m_window,
                            args.word_length, args.format, out)
        if args.command == "dump-structure":
            return cmd_dump_structure(spec, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ExprError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # anything else is a fault in torlie, not a failed relation;
        # traceback is imported here to keep it off the start-up path
        import traceback

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
