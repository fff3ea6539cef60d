from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torlie.coeff import CycNum, omega_pow

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


def cyc(order):
    if order == 3:
        return st.builds(lambda a, b: CycNum(3, a, b), rationals, rationals)
    return st.builds(lambda a: CycNum(order, a), rationals)


def test_additive_inverse_example():
    w = CycNum.omega(3)
    one = CycNum.one(3)
    assert (one + w) + (-one - w) == CycNum.zero(3)


def test_omega_plus_omega_squared():
    w = CycNum.omega(3)
    assert w + w * w == CycNum(3, -1)


def test_half_plus_half():
    h = CycNum(1, Fraction(1, 2))
    assert h + h == CycNum.one(1)


def test_mul_minimal_polynomial():
    w = CycNum.omega(3)
    assert w * w == CycNum(3, -1, -1)
    assert w * (w * w) == CycNum.one(3)


def test_mul_order_two():
    w = CycNum.omega(2)
    assert w * w == CycNum.one(2)


def test_pow_examples():
    w3 = CycNum.omega(3)
    assert w3 ** -2 == w3
    assert w3 ** 6 == CycNum.one(3)
    assert CycNum.omega(2) ** 5 == CycNum(2, -1)


def test_zero_negative_power_rejected():
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(3) ** -1


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        CycNum.one(2) + CycNum.one(3)
    with pytest.raises(ValueError):
        CycNum.one(1) * CycNum.omega(3)


@pytest.mark.parametrize("method", ["__add__", "__sub__", "__rsub__", "__mul__",
                                    "__truediv__", "__eq__"])
@pytest.mark.parametrize("orders", [(1, 2), (2, 3), (3, 1)])
def test_each_operation_refuses_a_foreign_order(method, orders):
    x, y = (CycNum(order, 2, 1) for order in orders)
    with pytest.raises(ValueError, match="cyclotomic order mismatch"):
        getattr(x, method)(y)


@pytest.mark.parametrize("name", ["a", "b", "order"])
def test_slots_refuse_assignment(name):
    x = CycNum(3, 1, 2)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(x, name, 5)
    with pytest.raises(AttributeError, match="CycNum is immutable"):
        delattr(x, name)
    assert (x.order, x.a, x.b) == (3, 1, 2)


@pytest.mark.parametrize("kind,names", [
    ("LieElem", ("terms", "alg")),
    ("LoopElem", ("terms", "alg")),
    ("KahlerElem", ("terms",)),
    ("ToroidalElem", ("terms", "alg", "twisted")),
])
def test_element_slots_refuse_deletion(kind, names):
    keys, make = _sparse_kinds()[kind][:2]
    x = make({keys[0]: CycNum.one(3)})
    before = dict(x.terms)
    for name in names:
        with pytest.raises(AttributeError, match=f"{kind} is immutable"):
            delattr(x, name)
        assert getattr(x, name) is not None
    assert x.terms == before


def test_unsupported_order_rejected():
    with pytest.raises(ValueError):
        CycNum(4, 1)


@pytest.mark.parametrize("order", [0, 4, 5, -3])
def test_unsupported_order_has_no_root(order):
    with pytest.raises(ValueError, match="unsupported cyclotomic order"):
        CycNum.omega(order)
    with pytest.raises(ValueError, match="unsupported cyclotomic order"):
        omega_pow(order, 1)


def test_omega_is_primitive():
    assert CycNum.omega(1) == CycNum(1, 1)
    assert CycNum.omega(2) == CycNum(2, -1)
    assert CycNum.omega(3) == CycNum(3, 0, 1)


def test_normalization_is_canonical():
    # Fraction reduction plus basis collapse leaves a unique form
    assert CycNum(3, Fraction(2, 4), Fraction(-6, 4)) == CycNum(3, Fraction(1, 2), Fraction(-3, 2))
    assert CycNum(2, 0, 5) == CycNum(2, -5)
    assert CycNum(1, 0, 5) == CycNum(1, 5)


@pytest.mark.parametrize("order", [1, 2, 3])
@settings(max_examples=350)
@given(data=st.data())
def test_field_axioms(order, data):
    a = data.draw(cyc(order))
    b = data.draw(cyc(order))
    c = data.draw(cyc(order))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if b:
        assert b * b.inverse() == CycNum.one(order)
        assert (a / b) * b == a


@pytest.mark.parametrize("order", [1, 2, 3])
@given(k=st.integers(min_value=-30, max_value=30))
def test_omega_power_periodic(order, k):
    w = CycNum.omega(order)
    assert w ** k == w ** (k % order)
    assert omega_pow(order, k) == w ** k


def test_equality_refuses_order_mismatch():
    with pytest.raises(ValueError):
        CycNum(2, 1) == CycNum(3, 1)
    assert CycNum(2, 1) == 1 and CycNum(3, 0, 1) != 1
    assert CycNum(2, 1) != "1"


# -- integer coordinates: int while integral, Fraction only when not --------

def test_integral_coordinates_are_ints():
    x = CycNum(3, Fraction(4, 2), Fraction(1, 1))
    assert type(x.a) is int and type(x.b) is int and (x.a, x.b) == (2, 1)
    assert repr(x) == "CycNum(3, 2, 1)"
    h = CycNum(1, Fraction(1, 2))
    assert type(h.a) is Fraction and type((h + h).a) is int
    # the basis collapse of r = 1, 2 sums two halves into an integer
    assert type(CycNum(2, Fraction(1, 2), Fraction(-1, 2)).a) is int
    assert type(CycNum(3, True, False).a) is int
    assert CycNum(2, 3).inverse() == CycNum(2, Fraction(1, 3))
    assert type((CycNum(3, 2) / 2).a) is int


@pytest.mark.parametrize("bad", [0.1, 0.5, 1.0, "1/3", "1", None, complex(1)])
def test_inexact_coordinates_rejected(bad):
    with pytest.raises(TypeError, match="int or Fraction"):
        CycNum(1, bad)
    with pytest.raises(TypeError, match="int or Fraction"):
        CycNum(3, 1, bad)
    for op in (lambda x: x + bad, lambda x: bad * x, lambda x: x / bad):
        with pytest.raises(TypeError):
            op(CycNum(3, 1, 1))


def _ref_canonical(order, a, b):
    # the all-Fraction reference: w = 1 for r = 1, w = -1 for r = 2
    a, b = Fraction(a), Fraction(b)
    if order == 1:
        return (a + b, Fraction(0))
    if order == 2:
        return (a - b, Fraction(0))
    return (a, b)


def _ref_mul(order, x, y):
    # (a1 + b1 w)(a2 + b2 w) = a1 a2 + (a1 b2 + b1 a2) w + b1 b2 w^2,
    # with w^2 = -1 - w; for r = 1, 2 the b parts are zero
    (a1, b1), (a2, b2) = x, y
    return _ref_canonical(order, a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)


def _ref_inverse(order, x):
    # solve x * (p + q w) = 1 by Cramer's rule on the matrix of
    # multiplication by x, whose columns are x * 1 and x * w
    c1 = _ref_mul(order, x, _ref_canonical(order, 1, 0))
    if order < 3:
        return (1 / c1[0], Fraction(0))
    c2 = _ref_mul(order, x, (Fraction(0), Fraction(1)))
    det = c1[0] * c2[1] - c2[0] * c1[1]
    return (c2[1] / det, -c1[1] / det)


def _ref_pow(order, x, k):
    base = _ref_inverse(order, x) if k < 0 else x
    out = _ref_canonical(order, 1, 0)
    for _ in range(abs(k)):
        out = _ref_mul(order, out, base)
    return out


def _assert_canonical(x):
    for v in (x.a, x.b):
        assert type(v) in (int, Fraction)  # never a float, nor a bool
        assert (type(v) is int) == (Fraction(v).denominator == 1)


exact_values = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.fractions(min_value=-40, max_value=40, max_denominator=8),
    # integral values written as Fractions, such as 4/2
    st.integers(min_value=-20, max_value=20).map(lambda n: Fraction(2 * n, 2)),
)


@pytest.mark.parametrize("order", [1, 2, 3])
@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_scalar_layer_matches_fraction_reference(order, data):
    a1, b1, a2, b2 = (data.draw(exact_values) for _ in range(4))
    x, y = CycNum(order, a1, b1), CycNum(order, a2, b2)
    rx, ry = _ref_canonical(order, a1, b1), _ref_canonical(order, a2, b2)
    # the second operand may also be a plain int or Fraction
    plain = data.draw(st.booleans())
    other, rother = (a2, _ref_canonical(order, a2, 0)) if plain else (y, ry)
    k = data.draw(st.integers(min_value=-4, max_value=4))

    results = [
        (x, rx),
        (x + other, tuple(u + v for u, v in zip(rx, rother))),
        (other + x, tuple(u + v for u, v in zip(rx, rother))),
        (x - other, tuple(u - v for u, v in zip(rx, rother))),
        (other - x, tuple(v - u for u, v in zip(rx, rother))),
        (-x, tuple(-u for u in rx)),
        (x * other, _ref_mul(order, rx, rother)),
        (other * x, _ref_mul(order, rx, rother)),
    ]
    if any(rother):
        results.append((x / other, _ref_mul(order, rx, _ref_inverse(order, rother))))
    if any(rx):
        results += [
            (x.inverse(), _ref_inverse(order, rx)),
            (other / x, _ref_mul(order, rother, _ref_inverse(order, rx))),
        ]
    if any(rx) or k >= 0:
        results.append((x ** k, _ref_pow(order, rx, k)))
    for got, want in results:
        _assert_canonical(got)
        assert (got.a, got.b) == want
        # the same number built from Fraction coordinates is equal and
        # hashes equal; so is the one built from int coordinates
        as_fraction = CycNum(order, Fraction(got.a), Fraction(got.b))
        assert as_fraction == got and hash(as_fraction) == hash(got)
        assert (type(as_fraction.a), type(as_fraction.b)) == (type(got.a), type(got.b))


@pytest.mark.parametrize("order", [1, 2, 3])
@given(i=st.integers(min_value=-99, max_value=99), j=st.integers(min_value=-99, max_value=99))
def test_int_and_fraction_built_values_agree(order, i, j):
    built = [CycNum(order, i, j), CycNum(order, Fraction(i), Fraction(j)),
             CycNum(order, Fraction(3 * i, 3), Fraction(-2 * j, -2))]
    for x in built:
        assert type(x.a) is int and type(x.b) is int
        assert x == built[0] and hash(x) == hash(built[0])
        assert str(x) == str(built[0]) and bool(x) == bool(built[0])


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("value", [2, -7, 0, Fraction(3, 4), Fraction(-5, 2)],
                         ids=str)
def test_rational_value_hashes_as_the_number_it_equals(order, value):
    x = CycNum(order, value)
    assert x == value and hash(x) == hash(value)
    assert len({x, value}) == 1
    assert {value: "v"}.get(x) == "v" and {x: "v"}.get(value) == "v"


# -- the sparse-term base of LieElem, LoopElem and KahlerElem ---------------

def _sparse_kinds():
    from torlie import AlgebraSpec, get_algebra
    from torlie.kahler import Bs, Bt, C0, KahlerElem
    from torlie.liealg import LieElem
    from torlie.toroidal import (
        LoopElem,
        ToroidalElem,
        loop_bracket,
        sigma_bar,
        toroidal_bracket,
    )

    g2 = get_algebra(AlgebraSpec("D", 4, 3))
    other = get_algebra(AlgebraSpec("D", 3, 2))

    def toroidal(alg):
        # one map over the extended algebra: loop keys next to central ones
        return lambda t: ToroidalElem(
            LoopElem(alg, {k: c for k, c in t.items() if type(k) is tuple}),
            KahlerElem({k: c for k, c in t.items() if type(k) is not tuple}))

    # kind -> (keys, element builder, builder over a second algebra or None,
    #          bracket and automorphism of the kind or None)
    # h1 + 2*h2 pairs to zero with alpha_1, so its bracket with e_alpha1 cancels
    lie_keys = (0, 1, g2.N, g2.N + g2.root_index[(1, 0, 0, 0)])
    loop_keys = ((0, 0, 0), (1, 0, 0), (g2.N, 1, 0), (lie_keys[3], -1, 2))
    return {
        "LieElem": (lie_keys, lambda t: LieElem(g2, t), lambda t: LieElem(other, t),
                    (g2.bracket, g2.sigma)),
        "LoopElem": (loop_keys, lambda t: LoopElem(g2, t), lambda t: LoopElem(other, t),
                     (loop_bracket, sigma_bar)),
        "ToroidalElem": (loop_keys + (C0, Bt(1)), toroidal(g2), toroidal(other),
                         (toroidal_bracket, None)),
        "KahlerElem": ((C0, Bt(1), Bs(0, 1)), KahlerElem, None, None),
    }


@pytest.mark.parametrize("kind", ["LieElem", "LoopElem", "KahlerElem", "ToroidalElem"])
def test_sparse_terms_never_store_zero(kind):
    import random

    keys, make, make_other, ops = _sparse_kinds()[kind]
    rng = random.Random(7)
    zero, one = CycNum(3), CycNum.one(3)

    # the constructor itself drops an explicit zero coefficient
    assert make({keys[0]: zero}) == make({})
    assert make({keys[0]: zero}).render() == "0"
    assert make({keys[0]: zero, keys[1]: one}) == make({keys[1]: one})
    assert make({key: zero for key in keys}) == make({})
    assert make({keys[-1]: zero, keys[1]: one}).terms == {keys[1]: one}

    drawn_zero = 0

    def random_elem():
        # few keys and small coefficients, so that sums often cancel; the
        # draws include zero coefficients, which the constructor drops
        nonlocal drawn_zero
        terms = {key: CycNum(3, rng.choice((-2, -1, 0, 1, 2)), rng.choice((-1, 0, 1)))
                 for key in rng.sample(keys, rng.randint(0, len(keys)))}
        drawn_zero += not all(terms.values())
        return make(terms)

    cancelled = 0
    for _ in range(200):
        x, y = random_elem(), random_elem()
        assert (x + (-x)).terms == {}
        assert (x - x).terms == {}
        assert x.scale(0).terms == {}
        outputs = [x, x + y, x - y, -x, x.scale(CycNum(3, 1, 1)), x.scale(-2)]
        if ops is not None:
            bracket, sigma = ops
            outputs += [bracket(x, y)] + ([sigma(x)] if sigma else [])
            # [x, x] cancels term by term through antisymmetry
            assert bracket(x, x).terms == {}
        for z in outputs:
            assert all(z.terms.values())
        total = x + y
        cancelled += len(x.terms) + len(y.terms) - len(total.terms) > 0
        assert total - y == x
        assert (total == x) == (not y)
    assert cancelled > 0 and drawn_zero > 0
    if ops is not None:
        bracket, sigma = ops
        h = make({keys[0]: one, keys[1]: CycNum(3, 2)})
        e = make({keys[3]: one})
        assert bracket(h, e).terms == {} and bracket(e, h).terms == {}
    if make_other is not None:
        x = make({keys[0]: CycNum.one(3)})
        foreign = make_other({keys[0]: CycNum.one(2)})
        for op in (lambda: x + foreign, lambda: x - foreign, lambda: foreign + x):
            with pytest.raises(ValueError):
                op()
    # an element of another kind is refused, even over the same algebra
    stranger_keys, make_stranger = _sparse_kinds()[
        "LoopElem" if kind != "LoopElem" else "ToroidalElem"][:2]
    stranger = make_stranger({stranger_keys[0]: one})
    x = make({keys[0]: one})
    for op in (lambda: x + stranger, lambda: x - stranger, lambda: stranger + x):
        with pytest.raises(TypeError):
            op()


def test_foreign_order_coefficient_rejected_at_construction():
    from torlie import AlgebraSpec, get_algebra
    from torlie.kahler import Bt, C0, KahlerElem
    from torlie.liealg import LieElem
    from torlie.toroidal import LoopElem, ToroidalElem

    alg = get_algebra(AlgebraSpec("D", 4, 3))
    match = "cyclotomic order 2, not the algebra's twist order 3"
    with pytest.raises(ValueError, match=match):
        LoopElem(alg, {(0, 0, 0): CycNum(2, 1)})
    with pytest.raises(ValueError, match=match):
        ToroidalElem(LoopElem.zero(alg), KahlerElem({C0: CycNum(2, 1)}), twisted=True)
    with pytest.raises(ValueError, match=match):
        ToroidalElem(LoopElem.zero(alg), KahlerElem({C0: CycNum(2, 1)}))
    with pytest.raises(ValueError, match=match):
        LieElem(alg, {0: CycNum.one(3), 1: CycNum(2, 1)})
    # a foreign zero is refused too, not silently dropped
    with pytest.raises(ValueError, match=match):
        LoopElem(alg, {(0, 0, 0): CycNum.one(3), (1, 0, 0): CycNum(2)})
    # the same elements with the algebra's own scalars are built
    x = LoopElem(alg, {(0, 0, 0): CycNum(3, 1)})
    assert ToroidalElem(x, KahlerElem({C0: CycNum(3, 1), Bt(3): CycNum(3)})).terms == {
        (0, 0, 0): CycNum.one(3), C0: CycNum.one(3)}
