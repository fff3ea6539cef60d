"""Current-style generators of the twisted double-loop algebra, their
images inside the centrally extended algebra, the catalog of defining
relation families, and the engine that checks every relation exactly
over bounded degree windows.

Generators (i runs over 0..n, k over admissible degrees):

    c        central element            -> class of s^-1 ds
    a_i(k)   current modes              -> orbit sums of h_i (x) s^k,
             with a_0(k) -> h_0 (x) s^k + class of s^k t^-1 dt
    X(+a_i,k), X(-a_i,k)  raising/lowering modes, the affine index 0
             carrying the extra loop variable t.

Degree admissibility mirrors the generating sets of the presentation:
the affine index and every orbit-fixed index take degrees in rZ, the
twisted-orbit indices take all integers; the untwisted case (r = 1)
admits every integer for every index.

For r > 1 the relation families are numbered "1".."17"; the untwisted
presentation is checked through families "U1".."U6".  `CATALOG` is the
one place where they are written down: one row per family, with its
constants per column (type A, type D, triality, untwisted).  Each family
is evaluated two-sided: the left side by actual brackets of generator
images, the right side from the row's closed form, so a pass means the
tabulated constant is exactly reproduced by the extension cocycle.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, product

from .coeff import CycNum, omega_pow
from .kahler import Bt, C0, KahlerElem
from .liealg import EchelonBasis, LieElem, get_algebra
from .rootdata import AlgebraSpec, ConfigError, build_cartan, orbit
from .toroidal import LoopElem, ToroidalElem, toroidal_bracket


# ---------------------------------------------------------------------------
# generator symbols and their images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GenSym:
    """One abstract generator: kind in {"c", "a", "x+", "x-"}."""

    kind: str
    i: int = 0
    k: int = 0


def degree_modulus(spec: AlgebraSpec, i: int) -> int:
    """Degree step of generator index i: r at 0, r/|orbit(i)| elsewhere."""
    if not 0 <= i <= spec.pres_rank:
        raise ConfigError(f"generator index {i} out of range for {spec.name}")
    return spec.r if i == 0 else spec.r // len(orbit(spec, i))


def admissible(spec: AlgebraSpec, gen: GenSym) -> bool:
    if gen.kind == "c":
        return True
    return gen.k % degree_modulus(spec, gen.i) == 0


@lru_cache(maxsize=None)
def psi_image(gen: GenSym, spec: AlgebraSpec) -> ToroidalElem:
    """Image of a generator in the centrally extended algebra.

    Cached per process: an image is built, and checked fixed by the
    twisted automorphism, once per (gen, spec).  Elements are immutable,
    so every caller can share the cached one.
    """
    alg = get_algebra(spec)
    r = spec.r
    if not admissible(spec, gen):
        raise ConfigError(
            f"degree {gen.k} is not admissible for index {gen.i} of {spec.name} "
            f"(step {degree_modulus(spec, gen.i)})"
        )
    if gen.kind == "c":
        return ToroidalElem(
            LoopElem.zero(alg), KahlerElem({C0: CycNum.one(r)}), twisted=True
        )
    i, k = gen.i, gen.k
    if i == 0:
        e0, f0, h0 = alg.theta_triple()
        if gen.kind == "a":
            return ToroidalElem(
                LoopElem.from_lie(h0, k, 0),
                KahlerElem({Bt(k): CycNum.one(r)}),
                twisted=True,
            )
        if r > 1 and not alg.sigma_fixes_theta:
            raise ValueError(
                "highest-root vectors are not fixed by the diagram automorphism; "
                "the affine generators do not land in the twisted loop algebra"
            )
        if gen.kind == "x+":
            return ToroidalElem(LoopElem.from_lie(e0, k, 1), twisted=True)
        return ToroidalElem(LoopElem.from_lie(-f0, k, -1), twisted=True)
    # orbit sum sum_t w^(-tk) sigma^t(v) of v = h_i, e_i or -f_i: r times the
    # degree-k component, as sigma sends e_i, f_i, h_i to node sigma(i), sign +1
    vector = {"a": alg.h, "x+": alg.e, "x-": lambda u: -alg.f(u)}[gen.kind]
    x = alg.grade_component(vector(i), k) * r
    return ToroidalElem(LoopElem.from_lie(x, k, 0), twisted=True)


def pibar_image(gen: GenSym, spec: AlgebraSpec) -> LoopElem:
    """Loop-algebra image: identical to psi_image minus the central part."""
    return psi_image(gen, spec).loop


# ---------------------------------------------------------------------------
# relation catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationId:
    family: str
    indices: tuple
    sign: str
    degrees: tuple

    def render(self) -> str:
        idx = ",".join(str(i) for i in self.indices)
        deg = ",".join(str(k) for k in self.degrees)
        sg = f" sign {self.sign}" if self.sign else ""
        return f"family {self.family} [{idx}]({deg}){sg}"


@dataclass
class RelationReport:
    rel: RelationId
    passed: bool
    diff_text: str = ""

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        tail = "" if self.passed else f"  diff = {self.diff_text}"
        return f"{self.rel.render()}: {status}{tail}"


@dataclass(frozen=True)
class Family:
    """One row of the relation catalog.

    `index(n)` lists, for pres_rank n, the triples (indices shown in the
    case id, i, j); `signs` are the signs each index pair is taken with;
    `const` maps every catalog column the family belongs to ("A", "D",
    "triality", "untwisted") to the constant its `shape` reads.
    """

    id: str
    index: Callable
    signs: tuple
    shape: str
    const: dict


# The six shapes, with k, l the degrees, d = 1 if k == -l else 0, s = +-1
# the sign, A the extended matrix and S = serre_matrix:
#
#   aa     [a_i(k), a_j(l)] = m A_ij k d c                       const m
#   ax     [a_i(k), X(+-a_j, l)] = s m A_ij X(+-a_j, k+l),
#          or 0 unless step divides k                        const (m, step)
#   xx     [X(+-a_i, k), X(+-a_i, l)] = 0
#   xy     [X(+a_i, k), X(-a_j, l)] = 0 for i != j, else
#          -p a_i(k+l) - q k d c, where (p, q) is const[0] at i = 0,
#          const[2] at i = n and const[1] in between
#   serre  [X(+-a_i, k_1), ..., [X(+-a_i, k_q), X(+-a_j, k_0)]] = 0 over
#          1 - S_ij brackets at degrees up to the serre cap, for the pairs
#          with S_ij == const (every pair i != j when const is None)
#   c      [c, a_i(k)] = [c, X(+-a_i, k)] = 0
#
# Columns A and D have r = 2, triality has r = 3 and the untwisted column
# r = 1, so every constant is a plain integer.

PM = ("+", "-")


def _cols(a, d, triality):
    return {"A": a, "D": d, "triality": triality}


def _nodes(n):
    return [((i,), i, i) for i in range(n + 1)]


def _pairs(n):
    return [((i, j), i, j) for i in range(n + 1) for j in range(n + 1)]


def _off_diagonal(n):
    return [(shown, i, j) for shown, i, j in _pairs(n) if i != j]


def _finite_pairs(n, upper):
    """Pairs of nodes 1..n (i <= j if `upper`) less those of rows 4-5, 9-11."""
    end = ((n - 1, n), (n, n - 1), (n, n))
    return [((i, j), i, j) for i in range(1, n + 1)
            for j in range(i if upper else 1, n + 1) if (i, j) not in end]


CATALOG = {row.id: row for row in (
    # twisted presentation, r > 1
    Family("1", lambda n: [((), 0, 0)], ("",), "aa", _cols(1, 1, 1)),
    Family("2", lambda n: [((j,), 0, j) for j in range(1, n + 1)], ("",), "aa",
           _cols(2, 2, 3)),
    Family("3", lambda n: _finite_pairs(n, True), ("",), "aa", _cols(2, 4, 3)),
    Family("4", lambda n: [((n - 1, n), n - 1, n)], ("",), "aa", _cols(2, 4, 3)),
    Family("5", lambda n: [((n, n), n, n)], ("",), "aa", _cols(4, 2, 9)),
    Family("6", lambda n: [((j,), 0, j) for j in range(n + 1)], PM, "ax",
           _cols((1, 1), (1, 1), (1, 1))),
    Family("7", lambda n: [((i,), i, 0) for i in range(1, n + 1)], PM, "ax",
           _cols((2, 2), (2, 2), (3, 1))),
    Family("8", lambda n: _finite_pairs(n, False), PM, "ax",
           _cols((1, 1), (2, 1), (1, 1))),
    Family("9", lambda n: [((n - 1, n), n - 1, n)], PM, "ax",
           _cols((1, 2), (2, 1), (1, 3))),
    Family("10", lambda n: [((n, n - 1), n, n - 1)], PM, "ax",
           _cols((2, 1), (1, 2), (3, 1))),
    Family("11", lambda n: [((n, n), n, n)], PM, "ax",
           _cols((2, 1), (1, 1), (3, 1))),
    Family("12", _nodes, PM, "xx", _cols(None, None, None)),
    Family("13", _pairs, ("",), "xy",
           _cols(((1, 1), (1, 2), (2, 4)), ((1, 1), (2, 4), (1, 2)),
                 ((1, 1), (1, 3), (3, 9)))),
    Family("14", _off_diagonal, PM, "serre", _cols(0, 0, 0)),
    Family("15", _off_diagonal, PM, "serre", _cols(-1, -1, -1)),
    Family("16", _off_diagonal, PM, "serre", _cols(-2, -2, -2)),
    Family("17", _off_diagonal, PM, "serre", _cols(-3, -3, -3)),
    # untwisted presentation, r = 1
    Family("U1", _nodes, ("", "+", "-"), "c", {"untwisted": None}),
    Family("U2", _pairs, ("",), "aa", {"untwisted": 1}),
    Family("U3", _pairs, PM, "ax", {"untwisted": (1, 1)}),
    Family("U4", _pairs, ("",), "xy", {"untwisted": ((1, 1),) * 3}),
    Family("U5", _nodes, PM, "xx", {"untwisted": None}),
    Family("U6", _off_diagonal, PM, "serre", {"untwisted": None}),
)}


def _column(spec: AlgebraSpec) -> str:
    if spec.r == 1:
        return "untwisted"
    return "triality" if spec.r == 3 else spec.family


def _row(spec: AlgebraSpec, family: str):
    """The catalog row of a family and its constant in the spec's column."""
    row = CATALOG.get(family)
    if row is None or _column(spec) not in row.const:
        kind = "untwisted family" if spec.r == 1 else "family"
        raise ValueError(f"unknown {kind} {family}")
    return row, row.const[_column(spec)]


@lru_cache(maxsize=None)
def _slots(family: str, n: int) -> dict:
    """Indices shown in a case id -> the (i, j) the row evaluates."""
    return {shown: (i, j) for shown, i, j in CATALOG[family].index(n)}


def families_for(spec: AlgebraSpec):
    column = _column(spec)
    return tuple(f for f, row in CATALOG.items() if column in row.const)


def _degs(spec: AlgebraSpec, i: int, window: int):
    step = degree_modulus(spec, i)
    return [k for k in range(-window, window + 1) if k % step == 0]


@lru_cache(maxsize=None)
def serre_matrix(spec: AlgebraSpec) -> tuple:
    """The pairing matrix S, read from `build_cartan(spec).pairing`.

    Entry (p, m) is (weight_m | sum of alpha'_u over the sigma-orbit of
    p), where weight_0 is minus the highest root.  S governs the
    ad-nilpotency depth of X(+-a_p, .) acting on X(+-a_m, .): the
    depth-(1 - S_pm) iterated bracket vanishes at every admissible
    degree tuple, and no shallower depth does so uniformly.  The
    extended matrix mirrors column 0 from row 0, so it departs from S
    only at entries (p, 0); `serre_exceptions` reports those entries.
    """
    return build_cartan(spec).pairing


def serre_exceptions(spec: AlgebraSpec) -> list:
    """Off-diagonal places where the extended matrix misstates the depth."""
    a = build_cartan(spec).A_ext
    s = serre_matrix(spec)
    n = spec.pres_rank
    return [
        {"p": p, "m": m, "extended": a[p][m], "used": s[p][m]}
        for p in range(n + 1)
        for m in range(n + 1)
        if p != m and a[p][m] != s[p][m]
    ]


def enumerate_cases(spec: AlgebraSpec, family: str, window: int,
                    serre_cap: int = 2):
    """All admissible relation instances of one family in the window."""
    row, const = _row(spec, family)
    cases = []
    for shown, i, j in row.index(spec.pres_rank):
        if row.shape == "serre":
            s = serre_matrix(spec)
            if const is not None and s[i][j] != const:
                continue
            cap = min(window, serre_cap)
            pools = [_degs(spec, j, cap)] + [_degs(spec, i, cap)] * (1 - s[i][j])
        elif row.shape == "c":
            pools = [_degs(spec, i, window)]
        else:
            pools = [_degs(spec, i, window), _degs(spec, j, window)]
        cases.extend(RelationId(family, shown, sign, degrees)
                     for sign in row.signs for degrees in product(*pools))
    return cases


# ---------------------------------------------------------------------------
# two-sided evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _zero(spec) -> ToroidalElem:
    return ToroidalElem.zero(get_algebra(spec))


def _central_c(spec, coeff) -> ToroidalElem:
    """coeff times the image of the central generator."""
    zero = _zero(spec)
    return zero._new({C0: zero.alg.scalar(coeff)})


def _x(spec, sign, i, k) -> ToroidalElem:
    return psi_image(GenSym("x" + sign, i, k), spec)


def _a(spec, i, k) -> ToroidalElem:
    return psi_image(GenSym("a", i, k), spec)


def serre_word(spec: AlgebraSpec, sign: str, i: int, j: int,
               degrees: tuple) -> ToroidalElem:
    """[X(+-a_i, k_q), ..., [X(+-a_i, k_1), X(+-a_j, k_0)]] for degrees
    (k_0, ..., k_q), bracketed onto the word of degrees[:-1].

    That shorter word comes from `_serre_prefix`, a small bounded cache.
    `enumerate_cases` lists a Serre family's degree tuples in `product`
    order, so the cases that share a prefix are adjacent and the cache
    brackets each shared prefix once.  Sharing is exact: a cached word
    is the immutable element that the same brackets of the same images
    would build again.
    """
    if len(degrees) == 1:
        return _x(spec, sign, j, degrees[0])
    return toroidal_bracket(_x(spec, sign, i, degrees[-1]),
                            _serre_prefix(spec, sign, i, j, degrees[:-1]))


# Prefixes kept by serre_word.  A word has at most 4 brackets (S_ij >= -3),
# so between two uses of a prefix that is itself a bracket at most 1 + p
# other prefixes are cached, for pools of p degrees: 32 catches every
# shared bracket up to p = 31, far past any window a run takes.
SERRE_PREFIXES_KEPT = 32
_serre_prefix = lru_cache(maxsize=SERRE_PREFIXES_KEPT)(serre_word)


def relation_sides(rel: RelationId, spec: AlgebraSpec):
    """(lhs, rhs): brackets of images vs the cataloged closed form."""
    row, const = _row(spec, rel.family)
    i, j = _slots(rel.family, spec.pres_rank)[rel.indices]
    sign, degrees = rel.sign, rel.degrees
    if row.shape == "c":
        (k,) = degrees
        operand = _a(spec, i, k) if sign == "" else _x(spec, sign, i, k)
        return toroidal_bracket(psi_image(GenSym("c"), spec), operand), _zero(spec)
    if row.shape == "serre":
        return serre_word(spec, sign, i, j, degrees), _zero(spec)
    k, l = degrees
    a = build_cartan(spec).A_ext
    if row.shape == "aa":
        lhs = toroidal_bracket(_a(spec, i, k), _a(spec, j, l))
        return lhs, _central_c(spec, const * a[i][j] * k if k == -l else 0)
    if row.shape == "ax":
        lhs = toroidal_bracket(_a(spec, i, k), _x(spec, sign, j, l))
        m, step = const
        coeff = (-1 if sign == "-" else 1) * m * a[i][j] if k % step == 0 else 0
        # a zero constant leaves X(+-a_j, k+l) unbuilt: k+l may be inadmissible
        return lhs, _x(spec, sign, j, k + l) * coeff if coeff else _zero(spec)
    if row.shape == "xx":
        return toroidal_bracket(_x(spec, sign, i, k), _x(spec, sign, i, l)), _zero(spec)
    lhs = toroidal_bracket(_x(spec, "+", i, k), _x(spec, "-", j, l))
    if i != j:
        return lhs, _zero(spec)
    p, q = const[0 if i == 0 else 2 if i == spec.pres_rank else 1]
    rhs = _a(spec, i, k + l) * (-p)
    if k == -l and q:
        rhs = rhs + _central_c(spec, -q * k)
    return lhs, rhs


def evaluate_case(spec: AlgebraSpec, rel: RelationId) -> RelationReport:
    lhs, rhs = relation_sides(rel, spec)
    # exact: no element stores a zero coefficient (see SparseTerms)
    if lhs == rhs:
        return RelationReport(rel, True)
    return RelationReport(rel, False, (lhs - rhs).render())


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------

@dataclass
class FamilyResult:
    family: str
    reports: list

    @property
    def applicable(self) -> int:
        return len(self.reports)

    @property
    def passed(self) -> int:
        return sum(1 for rep in self.reports if rep.passed)

    @property
    def failures(self):
        return [rep for rep in self.reports if not rep.passed]


@dataclass
class VerifySummary:
    spec: AlgebraSpec
    window: int
    serre_cap: int
    families: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(fr.passed == fr.applicable for fr in self.families)

    @property
    def total_cases(self) -> int:
        return sum(fr.applicable for fr in self.families)

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.spec.to_json_dict(),
            "window": self.window,
            "serre_cap": self.serre_cap,
            "serre_exceptions": serre_exceptions(self.spec),
            "families": [
                {
                    "id": fr.family,
                    "applicable_cases": fr.applicable,
                    "passed_cases": fr.passed,
                    "failures": [
                        {
                            "indices": list(rep.rel.indices),
                            "sign": rep.rel.sign,
                            "degrees": list(rep.rel.degrees),
                            "difference": rep.diff_text,
                        }
                        for rep in fr.failures
                    ],
                }
                for fr in self.families
            ],
            "passed": self.passed,
        }

    def render_text(self) -> str:
        lines = [
            f"algebra {self.spec.name} (r={self.spec.r}, folded {self.spec.folded_name}), "
            f"window {self.window}, serre cap {self.serre_cap}"
        ]
        for exc in serre_exceptions(self.spec):
            lines.append(
                f"  note: nilpotency depth at pair ({exc['p']},{exc['m']}) taken from "
                f"the orbit-summed pairing {exc['used']} (extended matrix entry {exc['extended']})"
            )
        for fr in self.families:
            lines.append(f"  family {fr.family:>3}: {fr.passed}/{fr.applicable} pass")
            for rep in fr.failures:
                lines.append(f"    FAIL {rep.summary()}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def verify_all(spec: AlgebraSpec, window: int, serre_cap: int = 2,
               include_proof: bool = True, jobs: int = 1) -> VerifySummary:
    """Run every relation family plus the named bookkeeping cases.

    The cases of all families are evaluated in one sweep, in case order.
    The sweep runs in a pool of min(jobs, cores, cases) processes when
    that is more than one, and in this process otherwise.
    """
    if window < 1 or serre_cap < 1:
        raise ConfigError("window and serre cap must be positive")
    if jobs < 1:
        raise ConfigError("jobs must be positive")
    families = families_for(spec)
    # enumerate_cases lists each family's cases in case-id order
    per_family = [enumerate_cases(spec, f, window, serre_cap) for f in families]
    cases = [rel for fam_cases in per_family for rel in fam_cases]
    evaluate = partial(evaluate_case, spec)
    workers = min(jobs, os.cpu_count() or 1, len(cases))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = iter(list(pool.map(evaluate, cases, chunksize=64)))
    else:
        reports = map(evaluate, cases)
    summary = VerifySummary(spec, window, serre_cap, [
        FamilyResult(family, [next(reports) for _ in fam_cases])
        for family, fam_cases in zip(families, per_family)
    ])
    if include_proof and spec.r > 1:
        summary.families.append(FamilyResult("P", proof_cases(spec, window)))
    return summary


# ---------------------------------------------------------------------------
# the two displayed bookkeeping computations, as named cases
# ---------------------------------------------------------------------------

def proof_cases(spec: AlgebraSpec, window: int) -> list:
    """[a_0(k), a_j(l)] expanded through the orbit pairings.

    Checks three exact equalities per case: the bracket against the
    pairing expansion sum_t w^(-t(k+l)) (h_0 | sigma^t h_j) [s^l d s^k],
    the expansion against r * a_0j * k * delta_{k,-l} * c, and the
    pairing values (h_0 | sigma^t h_j) against the extended matrix row.
    """
    alg = get_algebra(spec)
    a = build_cartan(spec).A_ext
    r = spec.r
    _, _, h0 = alg.theta_triple()
    reports = []
    fam = "P2" if r == 3 else "P1"
    for j in range(1, spec.pres_rank + 1):
        hj = alg.h(j)
        pairings = []
        cur = hj
        for _ in range(r):
            pairings.append(alg.form(h0, cur))
            cur = alg.sigma(cur)
        row_ok = all(p == alg.scalar(a[0][j]) for p in pairings)
        for k in _degs(spec, 0, window):
            for l in _degs(spec, j, window):
                lhs = toroidal_bracket(_a(spec, 0, k), _a(spec, j, l))
                mid_coeff = CycNum.zero(r)
                for t, p in enumerate(pairings):
                    mid_coeff = mid_coeff + p * omega_pow(r, -t * (k + l))
                mid = _central_c(spec, mid_coeff * k if k == -l else 0)
                rhs = _central_c(spec, r * a[0][j] * k if k == -l else 0)
                passed = row_ok and lhs == mid and mid == rhs
                reports.append(
                    RelationReport(
                        RelationId(fam, (j,), "", (k, l)),
                        passed, "" if passed else (lhs - rhs).render(),
                    )
                )
    return reports


# ---------------------------------------------------------------------------
# span check: does the generated subalgebra fill the graded slices?
# ---------------------------------------------------------------------------

@dataclass
class SpanReport:
    spec: AlgebraSpec
    j_window: int
    m_window: int
    word_length: int
    slices: dict  # (j, m) -> (achieved, full)
    generators: int
    vectors: int

    @property
    def complete(self) -> bool:
        return all(a == f for a, f in self.slices.values())

    def render_text(self) -> str:
        lines = [
            f"span check {self.spec.name} (r={self.spec.r}): "
            f"word length {self.word_length}, {self.generators} generator images, "
            f"{self.vectors} independent vectors"
        ]
        for (j, m), (got, full) in sorted(self.slices.items()):
            mark = "ok" if got == full else "SHORT"
            lines.append(f"  slice (j={j:+d}, m={m:+d}): {got}/{full} {mark}")
        lines.append("result: " + ("FULL" if self.complete else "INCOMPLETE"))
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.spec.to_json_dict(),
            "j_window": self.j_window,
            "m_window": self.m_window,
            "word_length": self.word_length,
            "slices": [
                {"j": j, "m": m, "achieved": got, "full": full}
                for (j, m), (got, full) in sorted(self.slices.items())
            ],
            "complete": self.complete,
        }


def span_check(spec: AlgebraSpec, j_window: int = 2, m_window: int = 1,
               word_length: int = 4) -> SpanReport:
    """Grow the bracket span of generator images and rank its slices.

    `word_length` counts rounds of pairwise bracketing: round l adds
    [u, v] for u, v already present, so after l rounds the span holds
    every bracket word whose binary tree has height at most l.  Each
    produced word is homogeneous in both Laurent degrees, so the span
    meets a slice exactly in the span of the words of that bidegree.

    A round brackets each unordered pair of kept vectors once, in the
    order of the full fresh-by-kept sweep.  The bracket is bilinear and
    antisymmetric, so the skipped [v, v] = 0 and [v2, v1] = -[v1, v2]
    add nothing to a span: the same vectors are kept in the same order.
    """
    if min(j_window, m_window, word_length) < 0:
        raise ConfigError("span windows and word length must not be negative")
    alg = get_algebra(spec)
    full = [alg.graded_dim(res) for res in range(spec.r)]
    shown = list(product(range(-j_window, j_window + 1), range(-m_window, m_window + 1)))
    # the rank each slice of the bracket box still lacks; room.get is 0 in
    # a full slice and None outside the box, and no vector is kept there
    room = {(j, m): full[j % spec.r] for j in range(-2 * j_window, 2 * j_window + 1)
            for m in range(-m_window - 1, m_window + 2)}
    echelons = {key: EchelonBasis() for key in room}
    accepted = []  # (slice, vector) in the order they were kept

    def absorb(key, lie):
        if lie and echelons[key].add(lie.terms):
            room[key] -= 1
            accepted.append((key, lie))

    gens = 0
    for i in range(spec.pres_rank + 1):
        for k in range(-j_window, j_window + 1):
            for kind in ("a", "x+", "x-"):
                gen = GenSym(kind, i, k)
                if not admissible(spec, gen):
                    continue
                gens += 1
                # an image is homogeneous, in slice (k, 0) or (k, +-1)
                terms = pibar_image(gen, spec).terms
                (key,) = {(j, m) for _, j, m in terms}
                absorb(key, LieElem(alg, {b: c for (b, _, _), c in terms.items()}))

    start = 0
    for _ in range(word_length):
        if start == len(accepted) or not any(room[key] for key in shown):
            break
        older = accepted[:start]
        fresh = accepted[start:]
        start = len(accepted)
        for a, ((j1, m1), v1) in enumerate(fresh):
            for (j2, m2), v2 in chain(older, fresh[a + 1:]):
                key = (j1 + j2, m1 + m2)
                if room.get(key):
                    absorb(key, alg.bracket(v1, v2))

    slices = {(j, m): (full[j % spec.r] - room[(j, m)], full[j % spec.r])
              for j, m in shown}
    return SpanReport(spec, j_window, m_window, word_length, slices, gens,
                      len(accepted))
