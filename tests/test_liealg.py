import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import TWISTED_SPECS, term_coords
from torlie import AlgebraSpec, CycNum, LoopElem, fix_project, get_algebra
from torlie.liealg import EchelonBasis, LieElem
from torlie.rootdata import orbit

A5 = AlgebraSpec("A", 3, 2)
D4_B = AlgebraSpec("D", 3, 2)
D4_G = AlgebraSpec("D", 4, 3)


def random_elem(alg, rng, size=4):
    terms = {}
    for _ in range(size):
        b = rng.randrange(alg.dim)
        c = CycNum(alg.spec.r, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        if alg.spec.r == 3 and rng.random() < 0.5:
            c = c + CycNum(3, 0, rng.randint(-3, 3))
        if c:
            terms[b] = terms.get(b, alg.zero_scalar) + c
    return LieElem(alg, {b: c for b, c in terms.items() if c})


def folded_generators(alg):
    """Chevalley triples (e_i, f_i, h_i) of the fixed-point subalgebra:
    the sums of e, f and h over the sigma-orbit of each node i."""
    return [tuple(sum((gen(u) for u in orbit(alg.spec, i)), alg.zero())
                  for gen in (alg.e, alg.f, alg.h))
            for i in range(1, alg.spec.pres_rank + 1)]


def grade_component(x, j):
    """x's w^j-component: fix_project of x placed at s-degree j."""
    p = fix_project(LoopElem.from_lie(x, j, 0))
    return LieElem(x.alg, {b: c for (b, _, _), c in p.terms.items()})


# ---------------------------------------------------------------------------
# Chevalley relations and structure constants
# ---------------------------------------------------------------------------

def test_chevalley_relations():
    alg = get_algebra(A5)
    assert alg.bracket(alg.h(1), alg.e(1)) == alg.e(1) * 2
    assert alg.bracket(alg.e(1), alg.f(1)) == alg.h(1)
    assert alg.bracket(alg.e(1), alg.f(2)).is_zero()
    assert alg.bracket(alg.h(1), alg.h(4)).is_zero()


def test_root_vector_bracket_is_unit_and_jacobi_consistent():
    alg = get_algebra(A5)
    e12 = alg.bracket(alg.e(1), alg.e(2))
    target = alg.root_vector((1, 1, 0, 0, 0))
    assert e12 == target or e12 == -target
    # oracle: Jacobi on the witnessing triple
    x, y, z = alg.e(1), alg.e(2), alg.f(1)
    s = alg.bracket(alg.bracket(x, y), z) \
        + alg.bracket(alg.bracket(y, z), x) \
        + alg.bracket(alg.bracket(z, x), y)
    assert s.is_zero()


def test_bracket_rejects_mixed_algebras():
    a = get_algebra(A5)
    b = get_algebra(D4_G)
    with pytest.raises(ValueError):
        a.bracket(a.h(1), b.h(1))


def test_zero_element_degenerates_quietly():
    alg = get_algebra(A5)
    z = alg.zero()
    assert alg.bracket(z, alg.e(1)).is_zero()
    assert not alg.form(z, z)


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_antisymmetry_and_jacobi_random(spec):
    alg = get_algebra(spec)
    rng = random.Random(20240 + spec.N + spec.r)
    for _ in range(60):
        x, y, z = (random_elem(alg, rng) for _ in range(3))
        assert alg.bracket(x, y) == -alg.bracket(y, x)
        s = alg.bracket(alg.bracket(x, y), z) \
            + alg.bracket(alg.bracket(y, z), x) \
            + alg.bracket(alg.bracket(z, x), y)
        assert s.is_zero()


# ---------------------------------------------------------------------------
# invariant form
# ---------------------------------------------------------------------------

def test_form_values():
    alg = get_algebra(A5)
    A = alg.cartan.A_prime
    for i in range(1, 6):
        assert alg.form(alg.h(i), alg.h(i)) == alg.scalar(2)
        assert alg.form(alg.e(i), alg.f(i)) == alg.scalar(1)
        for j in range(1, 6):
            assert alg.form(alg.h(i), alg.h(j)) == alg.scalar(A[i - 1][j - 1])
    # distinct root spaces pair to zero, and (h | e) = 0
    assert not alg.form(alg.e(1), alg.e(2))
    assert not alg.form(alg.e(1), alg.e(1))
    assert not alg.form(alg.h(1), alg.e(1))


def test_form_invariance_random():
    for spec in (A5, D4_G):
        alg = get_algebra(spec)
        rng = random.Random(77 + spec.r)
        for _ in range(80):
            x, y, z = (random_elem(alg, rng, 3) for _ in range(3))
            assert alg.form(alg.bracket(x, y), z) == alg.form(x, alg.bracket(y, z))


# ---------------------------------------------------------------------------
# diagram automorphism
# ---------------------------------------------------------------------------

def test_sigma_on_generators():
    alg = get_algebra(D4_B)
    assert alg.sigma(alg.h(3)) == alg.h(4)
    assert alg.sigma(alg.h(1)) == alg.h(1)
    a5 = get_algebra(A5)
    assert a5.sigma(a5.e(2)) == a5.e(4)
    assert a5.sigma(a5.f(1)) == a5.f(5)


# A_{2n-1} and D_{n+1} at r = 2 for n = 2..5, beyond the acceptance set
CLOSED_FORM_SPECS = TWISTED_SPECS + [
    spec for spec in (AlgebraSpec(f, n, 2) for f in "AD" for n in range(2, 6))
    if spec not in TWISTED_SPECS
]


@pytest.mark.parametrize("spec", CLOSED_FORM_SPECS)
def test_sigma_is_automorphism_on_basis_pairs(spec):
    alg = get_algebra(spec)
    basis = [LieElem.basis(alg, b) for b in range(alg.dim)]
    images = [alg.sigma(x) for x in basis]
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.sigma(alg.bracket(basis[i], basis[j])) == \
                alg.bracket(images[i], images[j])
            assert alg.form(images[i], images[j]) == alg.form(basis[i], basis[j])


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_sigma_order(spec):
    alg = get_algebra(spec)
    for b in range(alg.dim):
        x = LieElem.basis(alg, b)
        y = x
        for _ in range(spec.r):
            y = alg.sigma(y)
        assert y == x


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_sigma_fixes_highest_root_vectors(spec):
    alg = get_algebra(spec)
    e0, f0, h0 = alg.theta_triple()
    assert alg.sigma(e0) == e0
    assert alg.sigma(f0) == f0
    assert alg.sigma(h0) == h0


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------

def test_grade_component_examples():
    alg = get_algebra(A5)
    x = alg.h(1) + alg.h(5)
    assert grade_component(x, 0) == x
    assert grade_component(alg.h(1), 0) == (alg.h(1) + alg.h(5)) * Fraction(1, 2)


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_grade_components_sum_and_eigen(spec):
    from torlie.coeff import omega_pow

    alg = get_algebra(spec)
    rng = random.Random(5 + spec.N * spec.r)
    for _ in range(15):
        x = random_elem(alg, rng)
        comps = [grade_component(x, j) for j in range(spec.r)]
        total = alg.zero()
        for j, comp in enumerate(comps):
            total = total + comp
            assert alg.sigma(comp) == comp * omega_pow(spec.r, j)
        assert total == x


@pytest.mark.parametrize("spec,dims", [
    (A5, [21, 14]),
    (D4_B, [21, 7]),
    (D4_G, [14, 7, 7]),
    (AlgebraSpec("D", 2, 2), [10, 5]),
    (AlgebraSpec("A", 4, 2), [36, 27]),
])
def test_graded_dims(spec, dims):
    alg = get_algebra(spec)
    got = [alg.graded_dim(j) for j in range(spec.r)]
    assert got == dims
    assert sum(got) == alg.dim
    # oracle: the rank of the basis projected to the eigenspace
    for j in range(spec.r):
        rank = EchelonBasis()
        for b in range(alg.dim):
            rank.add(term_coords(grade_component(LieElem.basis(alg, b), j).terms), spec.r)
        assert got[j] == rank.rank


# ---------------------------------------------------------------------------
# echelon basis
# ---------------------------------------------------------------------------

def add(basis, vec, order=3):
    """`EchelonBasis.add` of a map key -> CycNum of the given order."""
    return basis.add(term_coords(vec), order)


def test_echelon_refuses_empty_and_zero_vectors():
    basis = EchelonBasis()
    assert add(basis, {}) is False and basis.rank == 0
    assert add(basis, {0: CycNum(3), 5: CycNum(3, 0, 0)}) is False and basis.rank == 0
    assert add(basis, {1: CycNum(3, 2)}) is True and basis.rank == 1
    assert add(basis, {}) is False and add(basis, {2: CycNum(3)}) is False
    assert basis.rank == 1
    with pytest.raises(ValueError, match="order mismatch"):
        add(basis, {0: CycNum(2, 1)}, 2)


def test_echelon_rejects_an_omega_combination_and_accepts_a_perturbed_one():
    zero, w, half = CycNum(3), CycNum.omega(3), CycNum(3, Fraction(1, 2))
    v1 = {0: CycNum(3, 1, 2), 3: CycNum(3, Fraction(-1, 3)), 7: w}
    v2 = {3: CycNum(3, 2, -1), 5: CycNum(3, 4), 7: CycNum(3, 0, Fraction(3, 2))}
    combo = {k: w * v1.get(k, zero) + half * v2.get(k, zero) for k in v1.keys() | v2.keys()}

    def spanned():
        basis = EchelonBasis()
        assert add(basis, v1) and add(basis, v2) and basis.rank == 2
        return basis

    basis = spanned()
    assert add(basis, combo) is False and basis.rank == 2
    # no combination of v1 and v2 is a single basis vector in their
    # support, so bumping one coordinate leaves their span
    for key, bump in ((0, CycNum(3, 1)), (5, w), (11, CycNum(3, Fraction(1, 5)))):
        perturbed = dict(combo)
        perturbed[key] = perturbed.get(key, zero) + bump
        basis = spanned()
        assert add(basis, perturbed) is True and basis.rank == 3
        assert add(basis, combo) is False and basis.rank == 3


def fraction_elimination(vectors, r):
    """Accept/reject sequence and rank of plain Gaussian elimination over
    Q on Fraction coordinates, an oracle that shares no code with
    EchelonBasis.

    Key (k, 0) holds the a coordinate of k and (k, 1) its b coordinate.
    For r = 3 a line over Q(w) is the Q-plane spanned by v and w v, where
    w (a + b w) = -b + (a - b) w; so v is independent over Q(w) exactly
    when both v and w v raise the rank over Q.
    """
    rows = []  # (pivot, row with pivot coefficient 1), in insertion order

    def insert(vec):
        vec = {k: Fraction(a) for k, a in vec.items() if a}
        for pivot, row in rows:
            c = vec.get(pivot, 0)
            if c:
                for k, a in row.items():
                    vec[k] = vec.get(k, 0) - c * a
        vec = {k: a for k, a in vec.items() if a}
        if not vec:
            return False
        pivot = min(vec)
        rows.append((pivot, {k: a / vec[pivot] for k, a in vec.items()}))
        return True

    accepted = []
    for vec in vectors:
        flat = {(k, 0): a for k, (a, b) in vec.items()}
        flat.update({(k, 1): b for k, (a, b) in vec.items()})
        independent = insert(flat)
        if r == 3:
            turned = {(k, 0): -b for k, (a, b) in vec.items()}
            turned.update({(k, 1): a - b for k, (a, b) in vec.items()})
            assert insert(turned) == independent
        accepted.append(independent)
    return accepted, len(rows) // (2 if r == 3 else 1)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_echelon_matches_a_fraction_elimination(r, seed):
    rng = random.Random(100 * r + seed)

    def scalar():
        # mostly non-unit values, so pivots are rarely +-1
        a = Fraction(rng.choice([-6, -4, -3, -2, -1, 2, 3, 4, 6]), rng.choice([1, 1, 2, 3, 5]))
        b = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3])) if r == 3 else 0
        return CycNum(r, a, b)

    vectors = []
    for _ in range(30):
        if vectors and rng.random() < 0.4:
            # a combination of earlier vectors, which must be rejected
            vec = {}
            for old in rng.sample(vectors, min(3, len(vectors))):
                c = scalar()
                for k, x in old.items():
                    vec[k] = vec.get(k, CycNum(r)) + c * x
        else:
            vec = {k: scalar() for k in rng.sample(range(9), rng.randint(1, 4))}
        vectors.append({k: x for k, x in vec.items() if x})
    coords = [term_coords(vec) for vec in vectors]
    basis = EchelonBasis()
    got = [basis.add(vec, r) for vec in coords]
    want, rank = fraction_elimination(coords, r)
    assert got == want and basis.rank == rank
    assert True in got and False in got
    # the rows are integral, primitive and reduced
    for pivot, (ra, rb) in basis.rows.items():
        values = [*ra.values(), *rb.values()]
        assert all(type(v) is int for v in values) and gcd(*values) == 1
        assert ra[pivot] or rb.get(pivot)
        assert not any(ra.get(p) or rb.get(p) for p in basis.rows if p != pivot)


@pytest.mark.parametrize("spec", [A5, D4_G])
def test_bracket_respects_grading(spec):
    alg = get_algebra(spec)
    r = spec.r
    comps = [
        [grade_component(LieElem.basis(alg, b), j) for b in range(alg.dim)]
        for j in range(r)
    ]
    for i in range(r):
        for j in range(r):
            target = (i + j) % r
            for x in comps[i][:10]:
                for y in comps[j][:10]:
                    w = alg.bracket(x, y)
                    assert grade_component(w, target) == w


# ---------------------------------------------------------------------------
# folded generators and the highest-root triple
# ---------------------------------------------------------------------------

def test_folded_generator_examples():
    alg = get_algebra(A5)
    e, f, h = folded_generators(alg)[0]
    assert h == alg.h(1) + alg.h(5)
    g2 = get_algebra(D4_G)
    e2, f2, h2 = folded_generators(g2)[1]
    assert e2 == g2.e(2)


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_folded_generators_realize_folded_matrix(spec):
    # alpha_j(h_i) recovered through brackets: [h_i, e_j] = a_ij e_j
    alg = get_algebra(spec)
    gens = folded_generators(alg)
    A = alg.cartan.A_folded
    for i, (_, _, h) in enumerate(gens):
        for j, (e, f, hj) in enumerate(gens):
            assert alg.bracket(h, e) == e * A[i][j]
            assert alg.bracket(h, f) == f * (-A[i][j])
        assert alg.bracket(gens[i][0], gens[i][1]) == gens[i][2]


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_folded_serre_relations(spec):
    alg = get_algebra(spec)
    gens = folded_generators(alg)
    A = alg.cartan.A_folded
    for i, (ei, _, _) in enumerate(gens):
        for j, (ej, _, _) in enumerate(gens):
            if i == j:
                continue
            w = ej
            for _ in range(1 - A[i][j]):
                w = alg.bracket(ei, w)
            assert w.is_zero()
            # sharpness: one fewer application does not vanish
            w = ej
            for _ in range(-A[i][j]):
                w = alg.bracket(ei, w)
            assert not w.is_zero()


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_theta_triple(spec):
    alg = get_algebra(spec)
    e0, f0, h0 = alg.theta_triple()
    assert alg.bracket(h0, e0) == e0 * 2
    assert alg.bracket(h0, f0) == f0 * (-2)
    assert alg.bracket(e0, f0) == h0
    assert alg.form(e0, f0) == alg.scalar(1)


def test_theta_pairing_rows():
    # (h_0 | h_j) matches the affine row of the extended matrix
    for spec, attach in [(A5, 1), (D4_B, 2), (D4_G, 2),
                         (AlgebraSpec("D", 2, 2), 2)]:
        alg = get_algebra(spec)
        _, _, h0 = alg.theta_triple()
        for j in range(1, spec.pres_rank + 1):
            expected = -1 if j == attach else 0
            assert alg.form(h0, alg.h(j)) == alg.scalar(expected)
            assert alg.form(h0, alg.sigma(alg.h(j))) == alg.scalar(expected)


def test_lie_elements_are_immutable():
    alg = get_algebra(A5)
    x = alg.e(1) + alg.h(2)
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(AttributeError):
        x.alg = get_algebra(D4_B)
    with pytest.raises(TypeError):
        x.terms[0] = alg.scalar(1)
    assert x == alg.e(1) + alg.h(2)
    assert hash(x) == hash(alg.e(1) + alg.h(2))
