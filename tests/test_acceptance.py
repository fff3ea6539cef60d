"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every test prints one `ACCEPTANCE <n> ... PASS` line on success so the
suite doubles as a human-readable report:

    pytest -s tests/test_acceptance.py
"""

import random
from fractions import Fraction

import pytest

from torlie import AlgebraSpec, CycNum, get_algebra
from torlie.kahler import Bt, C0, KahlerElem, reduce_b_da
from torlie.liealg import EchelonBasis, LieElem
from torlie.presentation import proof_cases, span_check, verify_all
from torlie.rootdata import build_cartan, enumerate_roots, folded_simple_roots, root_form
from torlie.toroidal import LoopElem, ToroidalElem, fix_project, toroidal_bracket

ACCEPTANCE_SPECS = [
    (AlgebraSpec("A", 3, 2), 4),
    (AlgebraSpec("A", 4, 2), 4),
    (AlgebraSpec("D", 3, 2), 4),
    (AlgebraSpec("D", 2, 2), 4),
    (AlgebraSpec("D", 4, 3), 3),
]


def report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{(' ' + detail) if detail else ''}")
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. presentation relations at window scale, all five twisted algebras
# ---------------------------------------------------------------------------

def test_criterion_1_relation_families():
    for spec, window in ACCEPTANCE_SPECS:
        summary = verify_all(spec, window, serre_cap=2)
        failures = [
            rep.summary()
            for fr in summary.families
            for rep in fr.failures
        ]
        report(
            f"1 [{spec.name} r={spec.r} window {window}]",
            summary.passed and summary.total_cases > 0,
            f"{summary.total_cases} cases" if summary.passed else "; ".join(failures[:5]),
        )


# ---------------------------------------------------------------------------
# 2. untwisted degeneration reproduces the loop-current presentation
# ---------------------------------------------------------------------------

def test_criterion_2_untwisted_degeneration():
    for spec in (AlgebraSpec("A", 2, 1), AlgebraSpec("D", 3, 1)):
        summary = verify_all(spec, 4, serre_cap=2)
        fams = {fr.family for fr in summary.families}
        ok = summary.passed and fams == {"U1", "U2", "U3", "U4", "U5", "U6"}
        report(f"2 [{spec.name} r=1 window 4]", ok, f"{summary.total_cases} cases")


# ---------------------------------------------------------------------------
# 3. differential-class reduction identities, exhaustive windows
# ---------------------------------------------------------------------------

def test_criterion_3_kahler_identities():
    one = CycNum.one(1)
    ok = True
    for k in range(-8, 9):
        for l in range(-8, 9):
            got = reduce_b_da((l, 0), (k, 0))
            want = KahlerElem({C0: one * k}) if (k == -l and k) else KahlerElem()
            ok = ok and got == want
            got2 = reduce_b_da((l, -1), (k, 1))
            want2 = KahlerElem({Bt(k + l): one})
            if k == -l and k:
                want2 = want2 + KahlerElem({C0: one * k})
            ok = ok and got2 == want2
    report("3a [reduction identities |k|,|l| <= 8]", ok)

    ok = True
    rng = range(-6, 7)
    for p in rng:
        for q in rng:
            for u in rng:
                for v in rng:
                    if not (reduce_b_da((u, v), (p, q))
                            + reduce_b_da((p, q), (u, v))).is_zero():
                        ok = False
    report("3b [exactness of d(ab), degrees in [-6,6]]", ok)


# ---------------------------------------------------------------------------
# 4. folding data
# ---------------------------------------------------------------------------

def test_criterion_4_folding_data():
    expected_folded = {
        ("A", 3, 2): ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
        ("A", 4, 2): ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2)),
        ("D", 3, 2): ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
        ("D", 2, 2): ((2, -1), (-2, 2)),
        ("D", 4, 3): ((2, -3), (-1, 2)),
    }
    ok = True
    for key, want in expected_folded.items():
        spec = AlgebraSpec(*key)
        cd = build_cartan(spec)
        ok = ok and cd.A_folded == want
        alphas = folded_simple_roots(spec)
        for i in range(spec.pres_rank):
            for j in range(spec.pres_rank):
                ok = ok and root_form(alphas[i], alphas[j], spec) == \
                    cd.d[i] * cd.A_folded[i][j]
    report("4a [folded matrices and pairing identity]", ok)

    fixed_dims = {
        ("A", 3, 2): 21,   # C3
        ("D", 3, 2): 21,   # B3
        ("D", 4, 3): 14,   # G2
    }
    ok = True
    for key, want in fixed_dims.items():
        spec = AlgebraSpec(*key)
        alg = get_algebra(spec)
        ok = ok and alg.graded_dim(0) == want
        # oracle: the rank of the basis projected to each eigenspace
        for j in range(spec.r):
            rank = EchelonBasis()
            for b in range(alg.dim):
                p = fix_project(LoopElem.from_lie(LieElem.basis(alg, b), j, 0))
                rank.add({k: (c.a, c.b) for k, c in p.terms.items()}, spec.r)
            ok = ok and alg.graded_dim(j) == rank.rank
        # oracle: dimension from the root count
        ok = ok and alg.dim == len(enumerate_roots(spec)) + spec.N
    report("4b [fixed-subalgebra dimensions by projection rank]", ok)


# ---------------------------------------------------------------------------
# 5. the two displayed pairing computations as named cases
# ---------------------------------------------------------------------------

def test_criterion_5_proof_reproduction():
    for spec, _ in ACCEPTANCE_SPECS:
        reports = proof_cases(spec, 6)
        fams = {rep.rel.family for rep in reports}
        ok = bool(reports) and all(rep.passed for rep in reports)
        ok = ok and fams == ({"P2"} if spec.r == 3 else {"P1"})
        report(f"5 [{spec.name} r={spec.r} named cases |k|,|l| <= 6]", ok,
               f"{len(reports)} cases")


# ---------------------------------------------------------------------------
# 6. algebraic law suites
# ---------------------------------------------------------------------------

def _exhaustive_laws(spec):
    alg = get_algebra(spec)
    dim = alg.dim
    basis = [LieElem.basis(alg, b) for b in range(dim)]
    tab = {}
    for i in range(dim):
        for j in range(dim):
            tab[(i, j)] = alg.bracket(basis[i], basis[j])
            if i >= j and tab[(i, j)] != -tab[(j, i)]:
                return False
    for i in range(dim):
        for j in range(i + 1, dim):
            bij = tab[(i, j)]
            for k in range(j + 1, dim):
                s = alg.bracket(bij, basis[k]) \
                    + alg.bracket(tab[(j, k)], basis[i]) \
                    + alg.bracket(tab[(k, i)], basis[j])
                if not s.is_zero():
                    return False
    # alternating + bilinear: distinct ordered triples plus antisymmetry
    # on every pair make the identity exhaustive over all basis triples
    return True


def test_criterion_6a_finite_algebra_laws():
    for spec in (AlgebraSpec("A", 3, 2), AlgebraSpec("D", 3, 2)):
        report(f"6a [{spec.name}: exhaustive antisymmetry + Jacobi]",
               _exhaustive_laws(spec))


def _random_fixed(alg, rng):
    terms = {}
    for _ in range(4):
        key = (rng.randrange(alg.dim), rng.randint(-3, 3), rng.randint(-2, 2))
        c = alg.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        terms[key] = terms.get(key, alg.zero_scalar) + c
    x = fix_project(LoopElem(alg, terms))
    central = KahlerElem({C0: alg.scalar(rng.randint(-2, 2))})
    return ToroidalElem(x, central, twisted=True)


def test_criterion_6b_extended_bracket_laws():
    for spec, _ in ACCEPTANCE_SPECS:
        alg = get_algebra(spec)
        rng = random.Random(1000 + 10 * spec.N + spec.r)
        ok = True
        for _ in range(500):
            x, y, z = (_random_fixed(alg, rng) for _ in range(3))
            if toroidal_bracket(x, y) != -toroidal_bracket(y, x):
                ok = False
                break
            s = toroidal_bracket(toroidal_bracket(x, y), z) \
                + toroidal_bracket(toroidal_bracket(y, z), x) \
                + toroidal_bracket(toroidal_bracket(z, x), y)
            if not s.is_zero():
                ok = False
                break
        report(f"6b [{spec.name} r={spec.r}: 500 random fixed triples]", ok)


def test_criterion_6c_automorphism_laws():
    for spec, _ in ACCEPTANCE_SPECS:
        alg = get_algebra(spec)
        basis = [LieElem.basis(alg, b) for b in range(alg.dim)]
        images = [alg.sigma(x) for x in basis]
        ok = True
        for i in range(alg.dim):
            for j in range(alg.dim):
                if alg.sigma(alg.bracket(basis[i], basis[j])) != \
                        alg.bracket(images[i], images[j]):
                    ok = False
                if alg.form(images[i], images[j]) != alg.form(basis[i], basis[j]):
                    ok = False
        report(f"6c [{spec.name} r={spec.r}: automorphism + form, all pairs]", ok)


# ---------------------------------------------------------------------------
# 7. span check
# ---------------------------------------------------------------------------

def test_criterion_7_span():
    spec = AlgebraSpec("A", 3, 2)
    rep = span_check(spec, j_window=2, m_window=1, word_length=4)
    detail = ", ".join(
        f"({j},{m})={got}/{full}"
        for (j, m), (got, full) in sorted(rep.slices.items())
        if got != full
    )
    report("7 [A5 span, word length 4, |j|<=2, |m|<=1]", rep.complete,
           detail or f"{len(rep.slices)} slices full")
