import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torlie import AlgebraSpec, get_algebra
from torlie.coeff import CycNum
from torlie.kahler import Bs, Bt, C0, KahlerElem, reduce_b_da
from torlie.toroidal import LoopElem, ToroidalElem

one = CycNum.one(1)

degrees = st.integers(min_value=-8, max_value=8)
monomials = st.tuples(degrees, degrees)


def ke(*pairs):
    return KahlerElem({sym: one * c for sym, c in pairs if c})


def test_reduce_examples():
    # s^-2 d(s^2) -> 2 C0
    assert reduce_b_da((-2, 0), (2, 0)) == ke((C0, 2))
    # s^-k t^-1 d(s^k t) -> k C0 + Bt(0)
    for k in range(-5, 6):
        got = reduce_b_da((-k, -1), (k, 1))
        assert got == ke((C0, k), (Bt(0), 1))
    # d(s t) is exact
    assert reduce_b_da((0, 0), (1, 1)).is_zero()


def test_basis_symbol_sanity():
    assert Bs(1, 1) != Bt(1)
    assert C0.s_degree() == 0
    assert Bs(3, -2).s_degree() == 3
    assert Bt(-4).s_degree() == -4
    try:
        Bs(1, 0)
    except ValueError:
        pass
    else:
        raise AssertionError("Bs with zero t-degree must be rejected")
    # t d(s) is the ds symbol Bs(1, 1)
    assert reduce_b_da((0, 1), (1, 0)).render() == "[s^0 t^1 ds]"
    # the extended algebra renders loop terms first, then C0 < Bs < Bt
    alg = get_algebra(AlgebraSpec("A", 2, 1))
    central = {Bt(2): alg.scalar(1), Bs(1, -1): alg.scalar(-2), C0: alg.scalar(3)}
    x = ToroidalElem(LoopElem.from_lie(alg.h(1), 1, 0), KahlerElem(central))
    assert x.render() == "h1*s^1 + 3*C0 - 2*[s^0 t^-1 ds] + [s^2 t^-1 dt]"


def test_linear_ops():
    x = ke((C0, 1))
    assert (x + x.scale(-1)).is_zero()
    assert ke((Bs(1, 1), 1)).scale(2) == ke((Bs(1, 1), 2))
    two = ke((Bt(2), 1)) + ke((Bs(2, -1), 1))
    assert len(two.terms) == 2


def test_kahler_elements_are_immutable():
    x = ke((C0, 1), (Bt(2), 3))
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(TypeError):
        x.terms[Bt(0)] = one
    assert x == ke((C0, 1), (Bt(2), 3))


def test_reduction_identities_exhaustive():
    # s^l d(s^k) = delta_{k,-l} k C0, and
    # s^l t^-1 d(s^k t) = delta_{k,-l} k C0 + Bt(k+l), for |k|,|l| <= 8
    for k in range(-8, 9):
        for l in range(-8, 9):
            first = reduce_b_da((l, 0), (k, 0))
            expect = ke((C0, k)) if k == -l and k else KahlerElem()
            assert first == expect
            second = reduce_b_da((l, -1), (k, 1))
            expect2 = ke((Bt(k + l), 1))
            if k == -l and k:
                expect2 = expect2 + ke((C0, k))
            assert second == expect2


def test_exactness_exhaustive_small():
    # the class of d(ab) vanishes: b da = -a db for all monomials
    for p in range(-6, 7):
        for q in range(-6, 7):
            a = (p, q)
            for u in (-6, -1, 0, 2, 5):
                for v in (-6, -1, 0, 3, 6):
                    b = (u, v)
                    assert (reduce_b_da(b, a) + reduce_b_da(a, b)).is_zero()


@settings(max_examples=300)
@given(a=monomials, b=monomials)
def test_exactness_random(a, b):
    assert (reduce_b_da(b, a) + reduce_b_da(a, b)).is_zero()


@settings(max_examples=200)
@given(a1=monomials, a2=monomials, b=monomials)
def test_leibniz_rule(a1, a2, b):
    # b d(a1 a2) = (b a1) d(a2) + (b a2) d(a1)
    prod = (a1[0] + a2[0], a1[1] + a2[1])
    lhs = reduce_b_da(b, prod)
    rhs = (reduce_b_da((b[0] + a1[0], b[1] + a1[1]), a2)
           + reduce_b_da((b[0] + a2[0], b[1] + a2[1]), a1))
    assert lhs == rhs


def test_orders_carry_through():
    x = reduce_b_da((-1, 0), (1, 0), order=3)
    (coeff,) = x.terms.values()
    assert coeff.order == 3


def _as_form(elem: KahlerElem, J: int, M: int):
    """(alpha, beta) with elem = alpha s^(J-1) t^M ds + beta s^J t^(M-1) dt,
    reading each basis symbol as the differential it names; a symbol of
    any other degree fails the test."""
    alpha = beta = Fraction(0)
    for sym, c in elem.terms.items():
        assert c.b == 0
        if sym == C0:
            assert (J, M) == (0, 0), sym
            alpha += c.a
        elif sym.kind == "dt":
            assert (sym.j, M) == (J, 0), sym
            beta += c.a
        else:
            assert (sym.j, sym.m) == (J, M), sym
            alpha += c.a
    return alpha, beta


@pytest.mark.parametrize("order", [1, 2, 3])
def test_reduction_differs_from_b_da_by_an_exact_form(order):
    # an oracle that compares reduce_b_da with b*d(a) itself, not with
    # another reduce_b_da call: b*d(a) minus its reduction,
    # alpha s^(J-1) t^M ds + beta s^J t^(M-1) dt, must be exact, that is
    # c*d(s^J t^M) = c J s^(J-1) t^M ds + c M s^J t^(M-1) dt for one c,
    # which means alpha M = beta J, and alpha = beta = 0 at (J, M) = (0, 0)
    # where d(s^0 t^0) = 0
    R = range(-6, 7)
    for p, q, k, l in itertools.product(R, R, R, R):
        J, M = p + k, q + l
        rho, tau = _as_form(reduce_b_da((p, q), (k, l), order), J, M)
        alpha, beta = k - rho, l - tau
        if (J, M) == (0, 0):
            assert alpha == beta == 0, (p, q, k, l)
        else:
            assert alpha * M == beta * J, (p, q, k, l)
