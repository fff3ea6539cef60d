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
index sources, signs and shape.  Every constant a row reads comes from
`relation_constant`, a function of the Cartan matrix, sigma and the
highest root alone.  Each case is evaluated two-sided: the left side is
the image of `relation_instance`'s word, by brackets of generator images,
the right side that of the row's closed form, so a pass means the constant
fixed by the root data is exactly reproduced by the extension cocycle.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .coeff import CycNum, omega_pow
from .kahler import Bt, C0, KahlerElem
from .liealg import EchelonBasis, get_algebra
from .rootdata import AlgebraSpec, ConfigError, build_cartan, orbit, root_form, sigma_root
from .toroidal import LoopElem, ToroidalElem, orbit_sum, toroidal_bracket


# ---------------------------------------------------------------------------
# generator symbols and their images
# ---------------------------------------------------------------------------

class GenSym(NamedTuple):
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

    Every generator but c maps to the sigma_bar-orbit sum

        sum over u < n_i of sigma_bar^u(v (x) s^k t^m),

    n_0 = 1 and n_i = r elsewhere, of v = h, e or -f at node i, the
    theta-triple at i = 0 with m = +-1 on X(+-a_0) and m = 0 otherwise;
    a_0(k) adds the class of s^k t^-1 dt.  This is `relation_constant`'s
    sum over u < n_i read in the algebra.

    The image is built on integer coordinates: v is read as one basis
    index at i > 0 (h_i, e_i or f_i, with sign -1 for -f) and as the
    coordinates of the cached theta-triple at i = 0; `orbit_sum` rotates
    them in one pass, and the central class enters as the coordinate 1.

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
        return ToroidalElem(LoopElem.zero(alg), KahlerElem._of({C0: (1, 0)}, 1, r),
                            twisted=True)
    kind, i, k = gen
    sign = -1 if kind == "x-" else 1
    if i == 0:
        e, f, h = alg.theta_triple()
        v = {"a": h, "x+": e, "x-": f}[kind]
        coords, den = v.coords, v.den
        m = 0 if kind == "a" else sign
    else:
        den, m = 1, 0
        if kind == "a":
            b = i - 1
        else:
            b = alg.N + alg.root_index[tuple(sign if t == i - 1 else 0 for t in range(alg.N))]
        coords = {b: (1, 0)}
    loop = orbit_sum(LoopElem._of(alg, {(b, k, m): (sign * a, sign * w)
                                        for b, (a, w) in coords.items()}, den),
                     1 if i == 0 else r)
    central = (KahlerElem._of({Bt(k): (1, 0)}, 1, r)
               if i == 0 and kind == "a" else None)
    return ToroidalElem(loop, central, twisted=True)


# ---------------------------------------------------------------------------
# relation catalog
# ---------------------------------------------------------------------------

class RelationId(NamedTuple):
    """One relation case: family id, the indices shown, sign, degrees."""

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
    case id, i, j); `signs` are the signs each index pair is taken with.
    A serre row checks the pairs with S_ij == `depth`, or every pair
    i != j when `depth` is None.  The rows whose id starts with "U" make
    up the untwisted presentation (r = 1), the others the twisted one.
    """

    id: str
    index: Callable
    signs: tuple
    shape: str
    depth: int | None = None


# The six shapes, with k, l the degrees, d = 1 if k == -l else 0, s = +-1
# the sign, S = serre_matrix, m = relation_constant(spec, shape, i, j, k mod r)
# and (p, q) the pair it gives for xy:
#
#   aa     [a_i(k), a_j(l)] = m k d c
#   ax     [a_i(k), X(+-a_j, l)] = s m X(+-a_j, k+l)
#   xx     [X(+-a_i, k), X(+-a_i, l)] = 0
#   xy     [X(+a_i, k), X(-a_j, l)] = 0 for i != j, else
#          -p a_i(k+l) - q k d c
#   serre  [X(+-a_i, k_1), ..., [X(+-a_i, k_q), X(+-a_j, k_0)]] = 0 over
#          1 - S_ij brackets at degrees up to the serre cap, for the pairs
#          with S_ij == depth (every pair i != j when depth is None)
#   c      [c, a_i(k)] = [c, X(+-a_i, k)] = 0

PM = ("+", "-")


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
    Family("1", lambda n: [((), 0, 0)], ("",), "aa"),
    Family("2", lambda n: [((j,), 0, j) for j in range(1, n + 1)], ("",), "aa"),
    Family("3", lambda n: _finite_pairs(n, True), ("",), "aa"),
    Family("4", lambda n: [((n - 1, n), n - 1, n)], ("",), "aa"),
    Family("5", lambda n: [((n, n), n, n)], ("",), "aa"),
    Family("6", lambda n: [((j,), 0, j) for j in range(n + 1)], PM, "ax"),
    Family("7", lambda n: [((i,), i, 0) for i in range(1, n + 1)], PM, "ax"),
    Family("8", lambda n: _finite_pairs(n, False), PM, "ax"),
    Family("9", lambda n: [((n - 1, n), n - 1, n)], PM, "ax"),
    Family("10", lambda n: [((n, n - 1), n, n - 1)], PM, "ax"),
    Family("11", lambda n: [((n, n), n, n)], PM, "ax"),
    Family("12", _nodes, PM, "xx"),
    Family("13", _pairs, ("",), "xy"),
    Family("14", _off_diagonal, PM, "serre", 0),
    Family("15", _off_diagonal, PM, "serre", -1),
    Family("16", _off_diagonal, PM, "serre", -2),
    Family("17", _off_diagonal, PM, "serre", -3),
    # untwisted presentation, r = 1
    Family("U1", _nodes, ("", "+", "-"), "c"),
    Family("U2", _pairs, ("",), "aa"),
    Family("U3", _pairs, PM, "ax"),
    Family("U4", _pairs, ("",), "xy"),
    Family("U5", _nodes, PM, "xx"),
    Family("U6", _off_diagonal, PM, "serre"),
)}


def families_for(spec: AlgebraSpec):
    return tuple(f for f in CATALOG if f.startswith("U") == (spec.r == 1))


def _row(spec: AlgebraSpec, family: str) -> Family:
    """The catalog row of a family of the spec's presentation."""
    row = CATALOG.get(family)
    if row is None or family.startswith("U") != (spec.r == 1):
        kind = "untwisted family" if spec.r == 1 else "family"
        raise ValueError(f"unknown {kind} {family}")
    return row


@lru_cache(maxsize=None)
def _slots(spec: AlgebraSpec, family: str) -> dict:
    """Indices shown in a case id -> the (i, j) the row evaluates."""
    return {shown: (i, j) for shown, i, j in CATALOG[family].index(spec.pres_rank)}


@lru_cache(maxsize=None)
def relation_constant(spec: AlgebraSpec, shape: str, i: int, j: int, e: int):
    """The constant of an aa, ax or xy row at nodes i, j and degree
    residue e = k mod r.  With n_0 = 1, n_i = r elsewhere and

        g_ij(e) = sum over u < n_i of w^(-ue) (sigma^u v_i | v_j),

    v_0 = -theta and v_i = alpha_i, it is n_j g_ij(e) for aa, g_ij(e)
    for ax, and for xy (at i = j) the pair (p, n_i p), where p = 1 at
    i = 0 and the degree step of i elsewhere.  Only the Cartan matrix,
    sigma and theta enter, never a bracket of the algebra, so `verify`
    does not compare the construction with itself.
    """
    n_i, n_j = (1 if p == 0 else spec.r for p in (i, j))
    if shape == "xy":
        p = 1 if i == 0 else degree_modulus(spec, i)
        return p, n_i * p
    if shape == "aa":
        # n_j times the ax constant: both rows share one cached g
        return relation_constant(spec, "ax", i, j, e) * n_j
    theta = build_cartan(spec).theta
    vi, vj = (tuple(-c for c in theta) if p == 0 else
              tuple(int(t == p) for t in range(1, spec.N + 1)) for p in (i, j))
    g = CycNum.zero(spec.r)
    for u in range(n_i):
        g = g + omega_pow(spec.r, -u * e) * root_form(vi, vj, spec)
        vi = sigma_root(vi, spec)
    return g


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
    row = _row(spec, family)
    cases = []
    for shown, i, j in row.index(spec.pres_rank):
        if row.shape == "serre":
            s = serre_matrix(spec)
            if row.depth is not None and s[i][j] != row.depth:
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

def _central_c(spec, coeff) -> ToroidalElem:
    """coeff times the image of the central generator."""
    return psi_image(GenSym("c"), spec).scale(coeff)


def relation_instance(rel: RelationId, spec: AlgebraSpec) -> tuple:
    """(word, rhs): the case as formal data, meaning word = rhs.

    A word is a GenSym or a pair (u, v) of words, meaning [u, v]; rhs,
    the row's closed form, is a tuple of (scalar, GenSym) terms, () for
    zero.  No term has a zero coefficient, so an ax row with a zero
    constant never names X(+-a_j, k+l), whose degree may be inadmissible.
    """
    row = _row(spec, rel.family)
    i, j = _slots(spec, rel.family)[rel.indices]
    sign, degrees = rel.sign, rel.degrees
    x = "x" + sign
    if row.shape == "c":
        return (GenSym("c"), GenSym(x if sign else "a", i, degrees[0])), ()
    if row.shape == "serre":
        word = GenSym(x, j, degrees[0])
        for k in degrees[1:]:
            word = (GenSym(x, i, k), word)
        return word, ()
    k, l = degrees
    if row.shape == "xx":
        return (GenSym(x, i, k), GenSym(x, i, l)), ()
    if row.shape == "xy" and i != j:
        return (GenSym("x+", i, k), GenSym("x-", j, l)), ()
    const = relation_constant(spec, row.shape, i, j, k % spec.r)
    if row.shape == "aa":
        coeff = const * k if k == -l else 0
        rhs = ((coeff, GenSym("c")),) if coeff else ()
        return (GenSym("a", i, k), GenSym("a", j, l)), rhs
    if row.shape == "ax":
        coeff = -const if sign == "-" else const
        rhs = ((coeff, GenSym(x, j, k + l)),) if coeff else ()
        return (GenSym("a", i, k), GenSym(x, j, l)), rhs
    p, q = const  # both positive
    rhs = ((-q * k, GenSym("c")),) if k and k == -l else ()
    return (GenSym("x+", i, k), GenSym("x-", i, l)), ((-p, GenSym("a", i, k + l)),) + rhs


def word_image(word, spec: AlgebraSpec) -> ToroidalElem:
    """psi of a word: the image of a generator, or the bracket of the
    images of the pair's words, an inner bracket taken from `_inner_bracket`."""
    if type(word) is GenSym:
        return psi_image(word, spec)
    u, v = word
    return toroidal_bracket(
        psi_image(u, spec) if type(u) is GenSym else _inner_bracket(u, spec),
        psi_image(v, spec) if type(v) is GenSym else _inner_bracket(v, spec))


# Inner brackets kept by word_image; only Serre words have them.  A word has
# at most 4 brackets (S_ij >= -3) and cases come in `product` order, so between
# two uses of an inner bracket at most 1 + p others are cached, for pools of p
# degrees: 32 catches every shared bracket up to p = 31, far past any window a
# run takes.  Sharing is exact: a kept bracket is what the same brackets give.
_inner_bracket = lru_cache(maxsize=32)(word_image)


def relation_sides(rel: RelationId, spec: AlgebraSpec):
    """(lhs, rhs): psi applied to `relation_instance`, the image of the
    word against the sum of the scaled images of the right side."""
    word, terms = relation_instance(rel, spec)
    lhs, rhs = word_image(word, spec), None
    for coeff, gen in terms:
        image = psi_image(gen, spec) * coeff
        rhs = image if rhs is None else rhs + image
    return lhs, ToroidalElem.zero(lhs.alg) if rhs is None else rhs


def evaluate_case(spec: AlgebraSpec, rel: RelationId) -> RelationReport:
    try:
        lhs, rhs = relation_sides(rel, spec)
    except ConfigError as exc:
        # a word's degrees are enumerated admissible, so this is a right
        # side naming a generator outside the algebra, as a wrong
        # constant makes it: the relation fails, the run is valid
        return RelationReport(rel, False, f"right side has no image: {exc}")
    # exact: elements are kept in a canonical form (see SparseTerms)
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


def verify_all(spec: AlgebraSpec, window: int, serre_cap: int = 2) -> VerifySummary:
    """Run every relation family plus the named bookkeeping cases.

    The run stays in this process: each family's cases are evaluated in
    case order, and for r > 1 the bookkeeping family "P" follows them.
    """
    if window < 1 or serre_cap < 1:
        raise ConfigError("window and serre cap must be positive")
    summary = VerifySummary(spec, window, serre_cap, [
        FamilyResult(family, [evaluate_case(spec, rel)
                              for rel in enumerate_cases(spec, family, window, serre_cap)])
        for family in families_for(spec)
    ])
    if spec.r > 1:
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
                lhs = word_image((GenSym("a", 0, k), GenSym("a", j, l)), spec)
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

    With W_0 the span of the images, W_l = W_(l-1) + [W_(l-1), W_(l-1)]
    cut to the bracket box.  The bracket is bilinear, so W_l is spanned
    by the brackets of the vectors kept for W_(l-1), whatever their
    order and whichever basis was kept; each report line is the rank of
    one slice of W_L, and `vectors` is the sum of those ranks over the
    box.  So the pair order below is free, and these pairs are skipped:
      - [v, v] = 0 and [v2, v1] = -[v1, v2]: a round brackets each
        unordered pair once, a fresh vector with the older vectors and
        with the later fresh ones (two older vectors met in a round
        before);
      - pairs whose supports give no structure constant: v2 avoids the
        partners of v1 (`LieAlgebra.partners`), so [v1, v2] = 0 exactly;
      - pairs that land in a full slice, or outside the box.
    Vectors are coordinate maps b -> (a, b) from start to finish, ranked
    per slice by a fraction-free `EchelonBasis`.
    """
    if min(j_window, m_window, word_length) < 0:
        raise ConfigError("span windows and word length must not be negative")
    alg = get_algebra(spec)
    r = spec.r
    full = [alg.graded_dim(res) for res in range(r)]
    shown = list(product(range(-j_window, j_window + 1), range(-m_window, m_window + 1)))
    # the rank each slice of the bracket box still lacks; room.get is 0 in
    # a full slice and None outside the box, and no vector is kept there
    room = {(j, m): full[j % r] for j in range(-2 * j_window, 2 * j_window + 1)
            for m in range(-m_window - 1, m_window + 2)}
    echelons = {key: EchelonBasis() for key in room}
    accepted = []  # (slice, vector, partners) in the order they were kept
    by_slice = {key: [] for key in room}  # slice -> [(index in accepted, vector)]

    def absorb(key, vec):
        if vec and echelons[key].add(vec, r):
            room[key] -= 1
            by_slice[key].append((len(accepted), vec))
            accepted.append((key, vec, alg.partners(vec)))

    gens = 0
    for i in range(spec.pres_rank + 1):
        for k in range(-j_window, j_window + 1):
            for kind in ("a", "x+", "x-"):
                gen = GenSym(kind, i, k)
                if not admissible(spec, gen):
                    continue
                gens += 1
                # an image is homogeneous, in slice (k, 0) or (k, +-1); its
                # integer coordinates span what its value spans
                coords = psi_image(gen, spec).loop.coords
                (key,) = {(j, m) for _, j, m in coords}
                absorb(key, {b: ab for (b, _, _), ab in coords.items()})

    start = 0
    for _ in range(word_length):
        stop = len(accepted)
        if start == stop or not any(room[key] for key in shown):
            break
        for i1 in range(start, stop):
            (j1, m1), v1, partners = accepted[i1]
            for (j2, m2), vectors in by_slice.items():
                key = (j1 + j2, m1 + m2)
                if not room.get(key):
                    continue
                for i2, v2 in vectors:
                    if i2 >= stop:
                        break
                    if (i2 < start or i2 > i1) and not partners.isdisjoint(v2):
                        absorb(key, alg.bracket_terms(v1, v2))
                        if not room[key]:
                            break
        start = stop

    slices = {(j, m): (full[j % r] - room[(j, m)], full[j % r]) for j, m in shown}
    return SpanReport(spec, j_window, m_window, word_length, slices, gens, len(accepted))
