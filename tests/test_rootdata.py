from fractions import Fraction

import pytest

from conftest import TWISTED_SPECS, UNTWISTED_SPECS
from torlie import (
    AlgebraSpec,
    ConfigError,
    build_cartan,
    enumerate_roots,
    folded_simple_roots,
    highest_root,
    root_form,
    sigma_root,
)

A5 = AlgebraSpec("A", 3, 2)
D4_B = AlgebraSpec("D", 3, 2)
D4_G = AlgebraSpec("D", 4, 3)
D3 = AlgebraSpec("D", 2, 2)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_invalid_specs_rejected():
    for bad in [("A", 3, 3), ("A", 1, 2), ("D", 1, 2), ("E", 3, 2),
                ("A", 3, 5), ("D", 2, 3), ("D", 5, 3)]:
        with pytest.raises(ConfigError):
            AlgebraSpec(*bad)


def test_triality_input_normalizes():
    assert AlgebraSpec("D", 4, 3) == AlgebraSpec("D", 3, 3)
    assert AlgebraSpec("D", 4, 3).N == 4
    assert AlgebraSpec("D", 4, 3).pres_rank == 2


def test_names():
    assert A5.name == "A5" and A5.folded_name == "C3"
    assert D4_B.name == "D4" and D4_B.folded_name == "B3"
    assert D4_G.folded_name == "G2"
    assert D3.folded_name == "B2"
    assert AlgebraSpec("A", 2, 1).folded_name == "A3"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def test_folded_matrices_exact():
    assert build_cartan(A5).A_folded == ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
    assert build_cartan(D4_B).A_folded == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
    assert build_cartan(D4_G).A_folded == ((2, -3), (-1, 2))
    assert build_cartan(D3).A_folded == ((2, -1), (-2, 2))
    assert build_cartan(AlgebraSpec("A", 4, 2)).A_folded == (
        (2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2))


def test_d_vectors():
    assert build_cartan(A5).d == (Fraction(1, 2), Fraction(1, 2), Fraction(1))
    assert build_cartan(D4_B).d == (Fraction(1), Fraction(1), Fraction(1, 2))
    assert build_cartan(D4_G).d == (Fraction(1, 3), Fraction(1))
    assert build_cartan(AlgebraSpec("A", 2, 1)).d == (Fraction(1),) * 3
    assert build_cartan(D3).d == (Fraction(1), Fraction(1, 2))
    assert build_cartan(AlgebraSpec("A", 4, 2)).d == (Fraction(1, 2),) * 3 + (Fraction(1),)
    assert build_cartan(AlgebraSpec("D", 3, 1)).d == (Fraction(1),) * 4


def test_extended_matrix_rows():
    assert build_cartan(A5).A_ext == (
        (2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2))
    assert build_cartan(AlgebraSpec("A", 4, 2)).A_ext == (
        (2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, 0),
        (0, 0, -1, 2, -2), (0, 0, 0, -1, 2))
    assert build_cartan(D4_B).A_ext == (
        (2, 0, -1, 0), (0, 2, -1, 0), (-1, -1, 2, -1), (0, 0, -2, 2))
    # untwisted D4: the affine node joins the branch node 2
    assert build_cartan(AlgebraSpec("D", 3, 1)).A_ext == (
        (2, 0, -1, 0, 0), (0, 2, -1, 0, 0), (-1, -1, 2, -1, -1),
        (0, 0, -1, 2, 0), (0, 0, -1, 0, 2))
    assert build_cartan(D4_G).A_ext == ((2, 0, -1), (0, 2, -3), (-1, -1, 2))
    assert build_cartan(D3).A_ext == ((2, 0, -1), (0, 2, -1), (-1, -2, 2))
    # affine matrix of the untwisted A3 run: a 4-cycle
    assert build_cartan(AlgebraSpec("A", 2, 1)).A_ext == (
        (2, -1, 0, -1), (-1, 2, -1, 0), (0, -1, 2, -1), (-1, 0, -1, 2))


def test_extended_restricts_to_folded():
    for spec in TWISTED_SPECS + UNTWISTED_SPECS:
        cd = build_cartan(spec)
        nn = spec.pres_rank
        for i in range(nn):
            for j in range(nn):
                assert cd.A_ext[i + 1][j + 1] == cd.A_folded[i][j]
        assert cd.A_ext[0][0] == 2


def test_sigma_perm():
    assert build_cartan(A5).sigma[1:] == (5, 4, 3, 2, 1)
    assert build_cartan(A5).sigma[2] == 4
    assert build_cartan(D4_B).sigma[1:] == (1, 2, 4, 3)
    assert build_cartan(D4_G).sigma[1:] == (3, 2, 4, 1)


# ---------------------------------------------------------------------------
# roots
# ---------------------------------------------------------------------------

def reflection_closure(spec):
    """Independent oracle: close the simple roots under all reflections."""
    N = spec.N
    simple = [tuple(1 if t == i else 0 for t in range(N)) for i in range(N)]
    roots = set(simple) | {tuple(-c for c in s) for s in simple}
    changed = True
    while changed:
        changed = False
        for root in list(roots):
            for i, alpha in enumerate(simple):
                pairing = root_form(root, alpha, spec)
                image = tuple(
                    c - int(pairing) * alpha[t] for t, c in enumerate(root)
                )
                if image not in roots:
                    roots.add(image)
                    changed = True
    return roots


@pytest.mark.parametrize("spec,count", [
    (A5, 30), (D4_B, 24), (D4_G, 24), (D3, 12),
    (AlgebraSpec("A", 4, 2), 56), (AlgebraSpec("A", 2, 1), 12),
])
def test_root_enumeration_against_reflection_oracle(spec, count):
    roots = set(enumerate_roots(spec))
    assert roots == reflection_closure(spec)
    assert len(roots) == count
    for root in roots:
        assert root_form(root, root, spec) == 2
        assert tuple(-c for c in root) in roots
    # dim g = |roots| + N cross-check
    N = spec.N
    dim = len(roots) + N
    if spec.family == "A":
        assert dim == N * (N + 2)
    else:
        assert dim == N * (2 * N - 1)


def test_highest_root_values():
    assert highest_root(A5) == (1, 1, 1, 1, 1)
    assert highest_root(D4_G) == (1, 2, 1, 1)
    assert highest_root(D4_B) == (1, 2, 1, 1)
    assert highest_root(D3) == (1, 1, 1)
    # theta is read off the positive roots; these are the closed forms
    # it replaced, for every rank parameter and twist order
    for n in range(2, 8):
        for r in (1, 2):
            assert highest_root(AlgebraSpec("A", n, r)) == (1,) * (2 * n - 1)
            assert highest_root(AlgebraSpec("D", n, r)) == (1,) + (2,) * (n - 2) + (1, 1)


def test_presentation_rank_counts_sigma_orbits():
    # one generator index per sigma-orbit: the rank itself untwisted, n
    # for the order-2 twists, 2 for the triality
    for n in range(2, 8):
        assert AlgebraSpec("A", n, 1).pres_rank == 2 * n - 1
        assert AlgebraSpec("D", n, 1).pres_rank == n + 1
        assert AlgebraSpec("A", n, 2).pres_rank == n
        assert AlgebraSpec("D", n, 2).pres_rank == n
    assert D4_G.pres_rank == 2
    assert build_cartan(D4_G).orbits == ((1, 3, 4), (2,))
    assert build_cartan(A5).orbits == ((1, 5), (2, 4), (3,))


def test_highest_root_is_maximal():
    for spec in TWISTED_SPECS + UNTWISTED_SPECS:
        theta = highest_root(spec)
        roots = set(enumerate_roots(spec))
        assert theta in roots
        for i in range(spec.N):
            up = tuple(c + (1 if t == i else 0) for t, c in enumerate(theta))
            assert up not in roots
        assert root_form(theta, theta, spec) == 2


def test_form_examples():
    assert root_form((1, 0, 0, 0, 0), (1, 0, 0, 0, 0), A5) == 2
    assert root_form((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), A5) == -1
    assert root_form(highest_root(D4_G), highest_root(D4_G), D4_G) == 2


def test_sigma_root():
    a1 = (1, 0, 0, 0, 0)
    assert sigma_root(a1, A5) == (0, 0, 0, 0, 1)
    for spec in TWISTED_SPECS:
        theta = highest_root(spec)
        assert sigma_root(theta, spec) == theta
        for root in enumerate_roots(spec):
            image = root
            for _ in range(spec.r):
                image = sigma_root(image, spec)
            assert image == root
            assert sigma_root(root, spec) in enumerate_roots(spec)


def test_sigma_preserves_form():
    for spec in TWISTED_SPECS:
        roots = enumerate_roots(spec)
        for a in roots[:8]:
            for b in roots[:8]:
                assert root_form(
                    sigma_root(a, spec), sigma_root(b, spec), spec
                ) == root_form(a, b, spec)


# ---------------------------------------------------------------------------
# folding
# ---------------------------------------------------------------------------

def test_folded_simple_root_examples():
    alphas = folded_simple_roots(A5)
    assert alphas[0] == (Fraction(1, 2), 0, 0, 0, Fraction(1, 2))
    g2 = folded_simple_roots(D4_G)
    assert g2[1] == (0, 1, 0, 0)


def test_folded_pairing_identity():
    # (alpha_i | alpha_j) = d_i * a_ij entrywise, every spec
    for spec in TWISTED_SPECS + UNTWISTED_SPECS:
        cd = build_cartan(spec)
        alphas = folded_simple_roots(spec)
        for i in range(spec.pres_rank):
            for j in range(spec.pres_rank):
                assert root_form(alphas[i], alphas[j], spec) == \
                    cd.d[i] * cd.A_folded[i][j]
