"""The coordinate kernels against a slow reference on CycNum arithmetic.

`LieAlgebra.bracket_terms` brackets two coordinate maps over the basis
of g.  `loop_bracket` and `toroidal_bracket` make one pass over pairs of
terms grouped by basis index (`LieAlgebra.graded_terms`): the structure
constants at the summed degree and, for the cocycle, the form summed
per pair of degrees times one Kahler class.  Here every output is
recomputed pair of terms by pair of terms on CycNum objects, with a
product expanded by hand (`ref_mul`), CycNum addition and tables rebuilt
from the root data, and must agree exactly; every output coefficient
must also be canonical.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_table
from torlie import AlgebraSpec, get_algebra, toroidal
from torlie.coeff import CycNum
from torlie.kahler import Bt, C0, KahlerElem, reduce_b_da
from torlie.liealg import LieElem
from torlie.rootdata import build_cartan, enumerate_roots
from torlie.toroidal import LoopElem, ToroidalElem, _by_basis, loop_bracket, toroidal_bracket

SPECS = [
    AlgebraSpec("A", 3, 2),   # A5, r = 2
    AlgebraSpec("D", 4, 3),   # D4, r = 3: two-coordinate scalars
    AlgebraSpec("A", 2, 1),   # A3, r = 1
]

coordinates = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    # integral values written as Fractions, such as 4/2
    st.integers(min_value=-6, max_value=6).map(lambda n: Fraction(2 * n, 2)),
)


def scalars(r):
    if r < 3:
        return st.builds(lambda a: CycNum(r, a), coordinates)
    # b is often 0, so both branches of the kernels and their mix are hit
    return st.builds(lambda a, b: CycNum(3, a, b), coordinates,
                     st.one_of(st.just(0), coordinates))


def basis_indices(alg):
    # Cartan indices half the time: [h, e] has a term for most roots, so
    # most draws bracket to something, and often to a sum that cancels
    return st.one_of(st.integers(0, alg.N - 1), st.integers(0, alg.dim - 1))


def lie_terms(alg):
    return st.dictionaries(basis_indices(alg), scalars(alg.spec.r), min_size=1, max_size=7)


def loop_terms(alg):
    keys = st.tuples(basis_indices(alg), st.integers(-1, 1), st.integers(-1, 1))
    return st.dictionaries(keys, scalars(alg.spec.r), min_size=1, max_size=7)


def central_terms(alg):
    symbols = st.sampled_from([C0, Bt(0), Bt(alg.spec.r)])
    return st.dictionaries(symbols, scalars(alg.spec.r), max_size=2)


def assert_canonical(terms, r):
    for c in terms.values():
        assert c, "a zero coefficient is stored"
        assert c.order == r
        for v in (c.a, c.b):
            assert type(v) in (int, Fraction)
            assert (type(v) is int) == (Fraction(v).denominator == 1)
        if r <= 2:
            assert c.b == 0


def ref_mul(x, y):
    """x*y expanded by hand, so that it shares no code with the kernels:
    (a1 + b1 w)(a2 + b2 w) = a1 a2 + (a1 b2 + b1 a2) w + b1 b2 w^2, and
    w^2 = -1 - w in Q(zeta_3).  The terms are summed by CycNum addition."""
    if x.order < 3:
        return CycNum(x.order, x.a * y.a)
    bb = x.b * y.b
    return (CycNum(3, x.a * y.a) + CycNum(3, 0, x.a * y.b + x.b * y.a)
            + CycNum(3, -bb, -bb))


def _accumulate(terms, key, value):
    s = terms.get(key)
    terms[key] = value if s is None else s + value


def _nonzero(terms):
    return {k: v for k, v in terms.items() if v}


def ref_lie_bracket(alg, x, y):
    table = reference_table(alg)
    terms = {}
    for b1, c1 in x.items():
        for b2, c2 in y.items():
            for b3, k in table.get((b1, b2), ()):
                _accumulate(terms, b3, ref_mul(ref_mul(c1, c2), CycNum(alg.spec.r, k)))
    return _nonzero(terms)


def ref_loop_bracket(alg, x, y):
    table = reference_table(alg)
    terms = {}
    for (b1, j1, m1), c1 in x.items():
        for (b2, j2, m2), c2 in y.items():
            for b3, k in table.get((b1, b2), ()):
                _accumulate(terms, (b3, j1 + j2, m1 + m2),
                            ref_mul(ref_mul(c1, c2), CycNum(alg.spec.r, k)))
    return _nonzero(terms)


def ref_form(spec):
    """(b1, b2) -> (b1|b2), rebuilt from the Cartan matrix and the root
    list, so that it shares no table with the form kernels:
    (h_i|h_j) = A'_ij, (e_a|e_-a) = 1 and every other pair 0 (absent)."""
    A = build_cartan(spec).A_prime
    roots = enumerate_roots(spec)
    N = len(A)
    table = {(i, j): A[i][j] for i in range(N) for j in range(N) if A[i][j]}
    for ri, root in enumerate(roots):
        table[(N + ri, N + roots.index(tuple(-c for c in root)))] = 1
    return table


def ref_cocycle(alg, x, y):
    """(x|y) times the class of y's monomial times d(x's), summed over pairs."""
    r = alg.spec.r
    form = ref_form(alg.spec)
    terms = {}
    for (b1, j1, m1), c1 in x.items():
        for (b2, j2, m2), c2 in y.items():
            pairing = form.get((b1, b2))
            if pairing is None:
                continue
            c = ref_mul(ref_mul(c1, c2), CycNum(r, pairing))
            for sym, v in reduce_b_da((j2, m2), (j1, m1), r).terms.items():
                _accumulate(terms, sym, ref_mul(v, c))
    return _nonzero(terms)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lie_bracket_matches_cycnum_reference(spec, data):
    alg = get_algebra(spec)
    x = data.draw(lie_terms(alg))
    y = data.draw(lie_terms(alg))
    got = alg.bracket(LieElem(alg, dict(x)), LieElem(alg, dict(y))).terms
    assert got == ref_lie_bracket(alg, x, y)
    assert_canonical(got, spec.r)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loop_bracket_matches_cycnum_reference(spec, data):
    alg = get_algebra(spec)
    x = data.draw(loop_terms(alg))
    y = data.draw(loop_terms(alg))
    got = loop_bracket(LoopElem(alg, dict(x)), LoopElem(alg, dict(y))).terms
    assert got == ref_loop_bracket(alg, x, y)
    assert_canonical(got, spec.r)


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_toroidal_bracket_matches_cycnum_reference(spec, data):
    alg = get_algebra(spec)
    x, y = (data.draw(loop_terms(alg)) for _ in range(2))
    cx, cy = (data.draw(central_terms(alg)) for _ in range(2))
    out = toroidal_bracket(ToroidalElem(LoopElem(alg, dict(x)), KahlerElem(dict(cx))),
                           ToroidalElem(LoopElem(alg, dict(y)), KahlerElem(dict(cy))))
    # central inputs die; loop keys and central symbols never collide
    assert out.terms == {**ref_loop_bracket(alg, x, y), **ref_cocycle(alg, x, y)}
    assert_canonical(out.terms, spec.r)


@pytest.mark.parametrize("spec", SPECS[:2], ids=lambda spec: spec.name)
def test_repeated_basis_indices_and_a_cancelling_form_sum(spec, monkeypatch):
    # each operand holds one basis index at several degrees, and at the
    # degree pair (0, 1, 1, 0) the pairings cancel: (e_1|f_1) c c +
    # (e_2|f_2) c (-c) = 0, so that pair makes no Kahler class
    alg = get_algebra(spec)
    r = spec.r
    c = CycNum(r, Fraction(2, 3), 1 if r == 3 else 0)
    e1, e2, f1, f2 = (next(iter(v.coords)) for v in (alg.e(1), alg.e(2), alg.f(1), alg.f(2)))
    x = {(e1, 0, 1): c, (e2, 0, 1): c, (e1, 1, 0): CycNum(r, 3), (e1, -1, 2): c,
         (0, 1, 1): CycNum(r, 1), (0, 2, -1): c}
    y = {(f1, 1, 0): c, (f2, 1, 0): -c, (f1, 0, -1): CycNum(r, 2), (e2, 1, 0): c,
         (0, 0, 1): c, (0, -1, 1): CycNum(r, Fraction(-1, 2))}
    X, Y = (ToroidalElem(LoopElem(alg, dict(z))) for z in (x, y))
    for z in (X, Y):
        assert max(len(terms) for terms in _by_basis(z).values()) >= 2

    form = ref_form(spec)
    sums = {}
    for (b1, j1, m1), c1 in x.items():
        for (b2, j2, m2), c2 in y.items():
            if (b1, b2) in form:
                _accumulate(sums, ((j2, m2), (j1, m1)),
                            ref_mul(ref_mul(c1, c2), CycNum(r, form[(b1, b2)])))
    assert not sums[((1, 0), (0, 1))] and len(_nonzero(sums)) >= 3

    classes = []
    reduce = toroidal.reduce_b_da

    def recording(b, a, order=1):
        classes.append((b, a))
        return reduce(b, a, order)

    monkeypatch.setattr(toroidal, "reduce_b_da", recording)
    out = toroidal_bracket(X, Y)
    assert out.terms == {**ref_loop_bracket(alg, x, y), **ref_cocycle(alg, x, y)}
    assert_canonical(out.terms, r)
    # one class per degree pair with a nonzero form sum, and none for the
    # cancelling pair, whose class is not zero
    assert sorted(classes) == sorted(_nonzero(sums))
    assert reduce_b_da((1, 0), (0, 1), r)
    got = loop_bracket(X, Y).terms
    assert got == ref_loop_bracket(alg, x, y)
    assert_canonical(got, r)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_cocycle_coefficients_are_rational(order):
    # the Kahler class of each cocycle term is rational, in the given order
    for p in range(-3, 4):
        for q in range(-3, 4):
            for k in range(-3, 4):
                for l in range(-3, 4):
                    for c in reduce_b_da((p, q), (k, l), order).terms.values():
                        assert c.order == order and c.b == 0
