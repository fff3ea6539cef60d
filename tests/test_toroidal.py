import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from conftest import TWISTED_SPECS
from torlie import AlgebraSpec, get_algebra
from torlie.coeff import CycNum, omega_pow
from torlie.kahler import Bs, Bt, C0, KahlerElem, reduce_b_da
from torlie.liealg import LieElem
from torlie.presentation import GenSym, _central_c, psi_image
from torlie.rootdata import build_cartan, enumerate_roots
from torlie.toroidal import (
    LoopElem,
    ToroidalElem,
    _by_basis,
    _sigma_coords,
    fix_project,
    loop_bracket,
    sigma_bar,
    toroidal_bracket,
)

A5 = AlgebraSpec("A", 3, 2)
D4_TRIALITY = AlgebraSpec("D", 4, 3)


def loop(alg, *terms):
    return LoopElem(alg, {key: alg.scalar(c) for key, c in terms})


def rand_loop(alg, rng, size=4):
    terms = {}
    for _ in range(size):
        key = (rng.randrange(alg.dim), rng.randint(-3, 3), rng.randint(-2, 2))
        c = alg.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        terms[key] = terms.get(key, alg.zero_scalar) + c
    return LoopElem(alg, terms)


def rand_fixed(alg, rng):
    x = fix_project(rand_loop(alg, rng))
    central = KahlerElem()
    r = alg.spec.r
    if rng.random() < 0.6:
        central = KahlerElem({
            C0: alg.scalar(rng.randint(-3, 3)),
            Bt(r * rng.randint(-2, 2)): alg.scalar(rng.randint(-3, 3)),
        })
    return ToroidalElem(x, central, twisted=True)


# ---------------------------------------------------------------------------
# loop bracket
# ---------------------------------------------------------------------------

def test_loop_bracket_examples():
    alg = get_algebra(A5)
    h1s = LoopElem.from_lie(alg.h(1), 1, 0)
    e1t = LoopElem.from_lie(alg.e(1), 0, 1)
    assert loop_bracket(h1s, e1t) == LoopElem.from_lie(alg.e(1) * 2, 1, 1)
    e1s = LoopElem.from_lie(alg.e(1), 1, 0)
    assert loop_bracket(e1s, e1t).is_zero()
    up = LoopElem.from_lie(alg.e(1), 2, 0)
    down = LoopElem.from_lie(alg.f(1), -2, 0)
    assert loop_bracket(up, down) == LoopElem.from_lie(alg.h(1), 0, 0)


# ---------------------------------------------------------------------------
# twisted automorphism and projection
# ---------------------------------------------------------------------------

def test_sigma_bar_examples():
    alg = get_algebra(A5)
    assert sigma_bar(LoopElem.from_lie(alg.h(1), 1, 0)) == \
        LoopElem.from_lie(-alg.h(5), 1, 0)
    e0, f0, h0 = alg.theta_triple()
    fixed = LoopElem.from_lie(h0, 2, 0)
    assert sigma_bar(fixed) == fixed


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_sigma_bar_order(spec):
    alg = get_algebra(spec)
    rng = random.Random(31 + spec.N + spec.r)
    for _ in range(20):
        x = rand_loop(alg, rng)
        y = x
        for _ in range(spec.r):
            y = sigma_bar(y)
        assert y == x


def test_fix_project_example():
    alg = get_algebra(A5)
    x = LoopElem.from_lie(alg.h(1), 1, 0)
    expected = LoopElem.from_lie((alg.h(1) - alg.h(5)) * Fraction(1, 2), 1, 0)
    assert fix_project(x) == expected


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_fix_project_properties(spec):
    alg = get_algebra(spec)
    rng = random.Random(17 * spec.N + spec.r)
    for _ in range(20):
        x = rand_loop(alg, rng)
        p = fix_project(x)
        assert fix_project(p) == p
        assert sigma_bar(p) == p
        # eigen decomposition recovers x
        total = p
        from torlie.coeff import omega_pow

        for j in range(1, spec.r):
            acc = x
            cur = x
            for k in range(1, spec.r):
                cur = sigma_bar(cur)
                acc = acc + cur * omega_pow(spec.r, -j * k)
            total = total + acc * Fraction(1, spec.r)
        assert total == x


# ---------------------------------------------------------------------------
# the extended bracket
# ---------------------------------------------------------------------------

def test_toroidal_bracket_examples():
    alg = get_algebra(A5)
    up = ToroidalElem(LoopElem.from_lie(alg.e(1), 2, 0))
    down = ToroidalElem(LoopElem.from_lie(alg.f(1), -2, 0))
    got = toroidal_bracket(up, down)
    expected = ToroidalElem(
        LoopElem.from_lie(alg.h(1), 0, 0),
        KahlerElem({C0: alg.scalar(2)}),
    )
    assert got == expected

    # central inputs are annihilated
    central = ToroidalElem(LoopElem.zero(alg), KahlerElem({C0: alg.scalar(1)}))
    assert toroidal_bracket(up, central).is_zero()
    assert toroidal_bracket(central, down).is_zero()

    # Cartan-Cartan pairing produces a pure differential class
    h1s = ToroidalElem(LoopElem.from_lie(alg.h(1), 1, 0))
    h2t = ToroidalElem(LoopElem.from_lie(alg.h(2), 0, 1))
    got = toroidal_bracket(h1s, h2t)
    assert got == ToroidalElem(
        LoopElem.zero(alg), KahlerElem({Bs(1, 1): alg.scalar(-1)})
    )


@pytest.mark.parametrize("spec", [A5, AlgebraSpec("D", 4, 3)], ids=lambda s: s.name)
def test_form_and_cocycle_match_the_cartan_matrix(spec):
    # oracle read straight from the root data: (h_i|h_j) = A'_ij,
    # (e_a|e_-a) = 1 and every other pair of basis vectors 0
    alg = get_algebra(spec)
    A = build_cartan(spec).A_prime
    N = alg.N
    roots = enumerate_roots(spec)
    negative = {b: N + roots.index(tuple(-c for c in roots[b - N]))
                for b in range(N, alg.dim)}
    degrees = (((1, -1), (-1, 1)), ((2, 1), (0, -1)), ((0, 2), (1, -2)))
    for b1 in range(alg.dim):
        x = LieElem.basis(alg, b1)
        for b2 in range(alg.dim):
            y = LieElem.basis(alg, b2)
            if b1 < N and b2 < N:
                want = A[b1][b2]
            else:
                want = int(b1 >= N and negative[b1] == b2)
            assert alg.form(x, y) == alg.scalar(want)
            # the central part of the bracket of one-term elements
            (j1, m1), (j2, m2) = degrees[(b1 + b2) % len(degrees)]
            got = toroidal_bracket(ToroidalElem(LoopElem.from_lie(x, j1, m1)),
                                   ToroidalElem(LoopElem.from_lie(y, j2, m2)))
            assert got.central == reduce_b_da((j2, m2), (j1, m1), spec.r).scale(
                alg.form(x, y))


@pytest.mark.parametrize("spec", [A5, D4_TRIALITY], ids=lambda s: s.name)
def test_brackets_call_no_kernel_per_pair_of_degree_components(spec, monkeypatch):
    # the loop and extended brackets make one pass over pairs of terms
    # (`LieAlgebra.graded_terms`): on operands of several degree
    # components they call neither g's bracket kernel nor its form kernel
    alg = get_algebra(spec)
    rng = random.Random(5 + spec.N + spec.r)
    pairs = [(rand_fixed(alg, rng), rand_fixed(alg, rng)) for _ in range(12)]
    pairs = [(x, y) for x, y in pairs
             if all(len({(j, m) for _, j, m in z.loop.coords}) > 1 for z in (x, y))]
    assert len(pairs) >= 6
    wants = [(toroidal_bracket(x, y), loop_bracket(x, y)) for x, y in pairs]

    def refuse(*args):
        raise AssertionError("a bracket called a kernel of g")

    for method in ("bracket_terms", "form_terms"):
        monkeypatch.setattr(type(alg), method, refuse)
    for (x, y), (want, want_loop) in zip(pairs, wants):
        assert toroidal_bracket(x, y) == want and loop_bracket(x, y) == want_loop
    assert any(want.central for want, _ in wants)


def _coordinates(x):
    return [v for c in x.terms.values() for v in (c.a, c.b)]


# -- a reference on CycNum arithmetic ---------------------------------------
# Each function below recomputes an operation term by term on maps
# key -> CycNum with CycNum sums and products, and shares no code with the
# integer coordinates the elements compute on.

def _accumulate(terms, key, value):
    s = terms.get(key)
    terms[key] = value if s is None else s + value


def _nonzero(terms):
    return {k: v for k, v in terms.items() if v}


def _reference_combination(x, y, sign):
    terms = dict(x.terms)
    for key, c in y.terms.items():
        _accumulate(terms, key, c * sign)
    return _nonzero(terms)


def _reference_sigma_bar(x):
    """s * w^(-j) * c at (v', j, m) for each term c at (v, j, m), where
    sigma sends v to s * v'."""
    r = x.alg.spec.r
    out = {}
    for (v, j, m), c in x.terms.items():
        v2, s = x.alg._sigma[v]
        out[(v2, j, m)] = c * omega_pow(r, -j) * s
    return out


def _reference_fix_project(x):
    r = x.alg.spec.r
    terms, cur = {}, x
    for _ in range(r):
        for key, c in cur.terms.items():
            _accumulate(terms, key, c / r)
        cur = LoopElem(x.alg, _reference_sigma_bar(cur))
    return _nonzero(terms)


def _reference_bracket(x, y):
    """The terms of [x, y] summed term by term on CycNum arithmetic: the
    bracket and form of each pair of basis vectors times c1 * c2, moved
    to the summed degree, and the pairing times one Kahler class; and
    whether a cocycle class with a nonzero pairing had a fractional
    coordinate."""
    alg = x.alg
    terms = {}
    fractional_class = False
    for (b1, j1, m1), c1 in x.loop.terms.items():
        for (b2, j2, m2), c2 in y.loop.terms.items():
            e1, e2 = LieElem.basis(alg, b1), LieElem.basis(alg, b2)
            for b3, k in alg.bracket(e1, e2).terms.items():
                _accumulate(terms, (b3, j1 + j2, m1 + m2), c1 * c2 * k)
            pairing = alg.form(e1, e2)
            if not pairing:
                continue
            cls = reduce_b_da((j2, m2), (j1, m1), alg.spec.r)
            fractional_class |= any(type(v) is Fraction for v in _coordinates(cls))
            for sym, v in cls.terms.items():
                _accumulate(terms, sym, c1 * c2 * pairing * v)
    return _nonzero(terms), fractional_class


@pytest.mark.parametrize("spec", [A5, D4_TRIALITY], ids=lambda s: s.name)
def test_fractional_bracket_matches_unscaled_reference(spec):
    alg = get_algebra(spec)
    rng = random.Random(61 + spec.N + spec.r)
    cleared = fractional_classes = fractional_results = 0
    omega_fractions = False
    for _ in range(40):
        x, y = rand_fixed(alg, rng), rand_fixed(alg, rng)
        cleared += lcm(x.den, y.den) != 1
        omega_fractions |= any(type(c.b) is Fraction
                               for z in (x, y) for c in z.terms.values())
        got = toroidal_bracket(x, y)
        want, fractional_class = _reference_bracket(x, y)
        assert got.terms == want and got.twisted
        fractional_classes += fractional_class
        # canonical coordinates: an int exactly when integral
        for v in _coordinates(got):
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
        fractional_results += any(type(v) is Fraction for v in _coordinates(got))
    assert cleared >= 30 and fractional_classes > 0 and fractional_results > 0
    assert omega_fractions == (spec.r == 3)


@pytest.mark.parametrize("spec", [A5, D4_TRIALITY], ids=lambda s: s.name)
def test_linear_operations_match_cycnum_reference(spec):
    alg = get_algebra(spec)
    r = spec.r
    rng = random.Random(43 + spec.N + spec.r)
    scalars = [alg.scalar(Fraction(-3, 4)), alg.scalar(5), CycNum(r, Fraction(1, 3), 2)]
    fractional = 0
    for _ in range(30):
        raw = _omega_loop(alg, rng)
        x, y = rand_fixed(alg, rng), rand_fixed(alg, rng)
        fractional += x.den != 1
        assert (x + y).terms == _reference_combination(x, y, 1)
        assert (x - y).terms == _reference_combination(x, y, -1)
        assert (x - x).terms == {} and (-x).terms == {k: -v for k, v in x.terms.items()}
        for c in scalars:
            assert x.scale(c).terms == _nonzero({k: v * c for k, v in x.terms.items()})
        for d in (2, -3, 6):
            assert x.divided(d).terms == {k: v / d for k, v in x.terms.items()}
        assert sigma_bar(raw).terms == _reference_sigma_bar(raw)
        assert fix_project(raw).terms == _reference_fix_project(raw)
    assert fractional > 20


def _assert_canonical(x):
    """den > 0, no (0, 0) pair, gcd(den, every coordinate) == 1, and
    den == 1 for zero."""
    assert type(x.den) is int and x.den > 0
    assert all(type(v) is int for ab in x.coords.values() for v in ab)
    assert all(a or b for a, b in x.coords.values())
    assert gcd(x.den, *(v for ab in x.coords.values() for v in ab)) == 1
    assert x.coords or x.den == 1


@pytest.mark.parametrize("spec", [A5, D4_TRIALITY], ids=lambda s: s.name)
def test_elements_stay_canonical_and_immutable(spec):
    alg = get_algebra(spec)
    rng = random.Random(71 + spec.N + spec.r)
    outputs = []
    for _ in range(15):
        x, y = rand_fixed(alg, rng), rand_fixed(alg, rng)
        outputs += [x + y, x - y, x - x, x.scale(Fraction(2, 3)), x.scale(0),
                    x.divided(6), x.divided(-4), toroidal_bracket(x, y),
                    toroidal_bracket(x, x), fix_project(rand_loop(alg, rng)),
                    fix_project(x.loop).divided(5)]
    zeros = 0
    for z in outputs:
        _assert_canonical(z)
        zeros += not z
    assert zeros >= 30 and any(z.den != 1 for z in outputs)
    # the form is unique: equal values have equal coordinates and den
    for z in outputs[:40]:
        for w in outputs[:40]:
            if type(z) is type(w):
                assert (z == w) == (z.terms == w.terms)
    x = outputs[0]
    assert x == x.scale(3).divided(3) and x.divided(4) == x.scale(Fraction(1, 4))
    # the coordinate view is read-only, and no slot can be rebound
    key = next(iter(x.coords))
    with pytest.raises(TypeError):
        x.coords[key] = (1, 0)
    for name in ("coords", "den", "order", "terms"):
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))

    # a cached image keeps its render after its terms and its basis-index
    # grouping are read and after it served as an operand
    image = psi_image(GenSym("x+", 1, 1), spec)
    before = image.render()
    coords, den = dict(image.coords), image.den
    grouping = _by_basis(image)
    assert image.terms and grouping
    other = psi_image(GenSym("x-", 1, 0), spec)
    for _ in range(2):
        toroidal_bracket(image, other), toroidal_bracket(other, image)
        image + other, image - other, -image, image.scale(3), image.divided(2)
    # the grouping by basis index is computed once and shared
    assert _by_basis(image) is _by_basis(image) is grouping
    assert image.render() == before and psi_image(GenSym("x+", 1, 1), spec) is image
    assert dict(image.coords) == coords and image.den == den

    # the elements built straight from ints: Kahler classes at M < 0 and
    # at M = 0 with J = 0, in the algebra's order, against the classes
    # written out on CycNum scalars; and the central image at 0 and at
    # fractional coefficients, against the public constructors
    r = spec.r
    dens = set()
    for (p, q), (k, l) in (((2, -3), (1, 1)), ((0, -5), (2, 1)), ((-1, 2), (3, -4)),
                           ((-2, 0), (2, 0)), ((-3, -1), (3, 1)), ((1, 1), (-1, -1))):
        J, M = p + k, q + l
        if M:
            want = {Bs(J, M): CycNum(r, Fraction(k * M - l * J, M))}
        else:
            assert J == 0
            want = {C0: CycNum(r, k), Bt(J): CycNum(r, l)}
        want = {sym: c for sym, c in want.items() if c}
        got = reduce_b_da((p, q), (k, l), r)
        _assert_canonical(got)
        assert got.order == r and got.terms == want and got == KahlerElem(want)
        dens.add(got.den)
    assert dens == {1, 2}
    for c in (0, Fraction(-3, 4), CycNum(r, Fraction(1, 3), 2)):
        got = _central_c(spec, c)
        central = KahlerElem({C0: alg.scalar(c)} if c else {})
        _assert_canonical(got)
        assert got.twisted and got.order == r
        assert got == ToroidalElem(LoopElem.zero(alg), central, twisted=True)


def test_scaled_by_den_and_divided_keep_value_and_flag():
    alg = get_algebra(D4_TRIALITY)
    rng = random.Random(12)
    x = rand_fixed(alg, rng)
    d = x.den
    assert d > 1
    big = x.scale(d)
    assert big.twisted and big.den == 1
    assert big.terms == {k: v * d for k, v in x.terms.items()}
    assert all(type(v) is int for v in _coordinates(big))
    back = big.divided(d)
    assert back.twisted and back.terms == x.terms
    assert all(type(v) is int or v.denominator != 1 for v in _coordinates(back))


@pytest.mark.parametrize("spec", [A5, D4_TRIALITY], ids=lambda s: s.name)
def test_fractional_bracket_is_checked_for_fixedness(spec, monkeypatch):
    alg = get_algebra(spec)
    rng = random.Random(23 + spec.N + spec.r)
    pairs = [(rand_fixed(alg, rng), rand_fixed(alg, rng)) for _ in range(10)]
    pairs = [(x, y) for x, y in pairs if lcm(x.den, y.den) != 1]
    assert len(pairs) >= 5
    wants = [toroidal_bracket(x, y) for x, y in pairs]

    # one check per twisted output, made on the canonical result itself:
    # the twisted automorphism is linear, so its den plays no part
    checked = []
    validate = ToroidalElem.validate_twisted

    def counted(self):
        checked.append(self)
        return validate(self)

    monkeypatch.setattr(ToroidalElem, "validate_twisted", counted)
    fractional = 0
    for (x, y), want in zip(pairs, wants):
        got = toroidal_bracket(x, y)
        assert got.twisted and got == want
        assert len(checked) == 1 and checked.pop() is got
        _assert_canonical(got)
        fractional += got.den != 1
    assert fractional >= 5

    # a twisted automorphism with one wrong sign makes the check fail
    (x, y), want = next((p, w) for p, w in zip(pairs, wants) if w.loop)
    b0 = next(iter(want.loop.terms))[0]
    image, sign = alg._sigma[b0]
    monkeypatch.setitem(alg._sigma, b0, (image, -sign))
    with pytest.raises(ValueError, match="not fixed by the twisted automorphism"):
        toroidal_bracket(x, y)


def test_twisted_validation():
    alg = get_algebra(A5)
    not_fixed = LoopElem.from_lie(alg.h(1), 1, 0)
    with pytest.raises(ValueError):
        ToroidalElem(not_fixed, twisted=True)
    with pytest.raises(ValueError):
        ToroidalElem(
            LoopElem.zero(alg),
            KahlerElem({Bt(1): alg.scalar(1)}),
            twisted=True,
        )
    # the projection is accepted
    ToroidalElem(fix_project(not_fixed), twisted=True)

    # the term-by-term check accepts exactly the loops sigma_bar fixes
    for spec in TWISTED_SPECS:
        alg = get_algebra(spec)
        rng = random.Random(5 * spec.N + spec.r)
        for _ in range(20):
            raw = rand_loop(alg, rng)
            fixed = fix_project(raw)
            dropped = LoopElem(alg, dict(list(fixed.terms.items())[1:]))
            for x in (raw, fixed, dropped, fixed + raw):
                assert _accepted(x) == (sigma_bar(x) == x)
            assert sigma_bar(fixed) == fixed

    # a sum or difference with an untwisted element is untwisted
    fixed = ToroidalElem(fix_project(not_fixed), twisted=True)
    plain = ToroidalElem(not_fixed)
    for a, b in ((fixed, plain), (plain, fixed)):
        assert not (a + b).twisted and not (a - b).twisted
    assert (fixed + fixed).twisted and (fixed - fixed * 3).twisted and (-fixed).twisted


@pytest.mark.parametrize("spec", [AlgebraSpec("A", 2, 1), A5, D4_TRIALITY],
                         ids=lambda s: f"{s.name} r={s.r}")
def test_sigma_coords_match_the_omega_product(spec):
    # the coordinate rotation against s * c * w^(-j) computed on CycNum
    alg = get_algebra(spec)
    r = spec.r
    coords = [(a, b) for a in (0, 1, -2, Fraction(3, 2)) for b in (0, 1, Fraction(-1, 3))
              if r == 3 or b == 0]
    for v in range(alg.dim):
        v2, s = alg._sigma[v]
        for j in range(-3, 4):
            for a, b in coords:
                want = CycNum(r, a, b) * omega_pow(r, -j) * s
                assert _sigma_coords(alg._sigma, r, (v, j, 5), a, b) == (
                    (v2, j, 5), want.a, want.b)


def _accepted(x) -> bool:
    try:
        ToroidalElem(x, twisted=True)
    except ValueError:
        return False
    return True


def _omega_loop(alg, rng, size=5):
    """A random loop element whose coefficients have both coordinates."""
    r = alg.spec.r
    terms = {}
    for _ in range(size):
        key = (rng.randrange(alg.dim), rng.randint(-4, 4), rng.randint(-1, 1))
        a, b = (Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in "ab")
        terms[key] = terms.get(key, alg.zero_scalar) + CycNum(r, a, b)
    return LoopElem(alg, terms)


@pytest.mark.parametrize("spec", [AlgebraSpec("A", 2, 1), A5, D4_TRIALITY],
                         ids=lambda s: f"{s.name} r={s.r}")
def test_coordinate_check_agrees_with_sigma_bar(spec):
    alg = get_algebra(spec)
    rng = random.Random(7 * spec.N + spec.r)
    rotated = set()  # residues -j mod 3 of the omega-coordinates checked
    changed = rejected = 0
    for _ in range(30):
        fixed = fix_project(_omega_loop(alg, rng))
        assert _accepted(fixed) and sigma_bar(fixed) == fixed
        rotated |= {-j % 3 for (_, j, _), c in fixed.terms.items() if c.b}
        # one coordinate of one term changed
        for key, c in fixed.terms.items():
            for da, db in ((1, 0), (0, 1), (-c.a, 0)):
                terms = dict(fixed.terms)
                terms[key] = CycNum(spec.r, c.a + da, c.b + db)
                x = LoopElem(alg, terms)
                accepted = _accepted(x)
                assert accepted == (sigma_bar(x) == x)
                changed += x != fixed
                rejected += not accepted
    assert changed > 100 and (rejected > 50 if spec.r > 1 else rejected == 0)
    assert rotated == ({0, 1, 2} if spec.r == 3 else set())


def test_loop_elements_are_immutable():
    alg = get_algebra(A5)
    x = loop(alg, ((alg.N, 1, 0), 2), ((0, 0, -1), 1))
    with pytest.raises(AttributeError):
        x.terms = {}
    with pytest.raises(AttributeError):
        x.alg = alg
    with pytest.raises(TypeError):
        x.terms[(1, 0, 0)] = alg.scalar(1)
    assert x == loop(alg, ((alg.N, 1, 0), 2), ((0, 0, -1), 1))


def test_brackets_refuse_a_non_element_operand():
    alg = get_algebra(A5)
    half = Fraction(1, 2)
    x = ToroidalElem(loop(alg, ((0, 0, 1), half)), KahlerElem({C0: alg.scalar(1)}))
    for operand in (3, half, alg.scalar(2), x.loop):
        for bracket in (toroidal_bracket, loop_bracket):
            with pytest.raises(TypeError):
                bracket(x, operand)


def test_toroidal_elements_are_immutable():
    alg = get_algebra(A5)
    x = ToroidalElem(loop(alg, ((0, 0, 1), 1)), KahlerElem({C0: alg.scalar(1)}))
    for attr in ("loop", "central", "twisted"):
        with pytest.raises(AttributeError):
            setattr(x, attr, getattr(x, attr))
    with pytest.raises(TypeError):
        x.loop.terms[(1, 0, 0)] = alg.scalar(1)
    with pytest.raises(TypeError):
        x.central.terms[Bt(0)] = alg.scalar(1)
    assert x == ToroidalElem(loop(alg, ((0, 0, 1), 1)),
                             KahlerElem({C0: alg.scalar(1)}))


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_bracket_closure_and_grading(spec):
    alg = get_algebra(spec)
    rng = random.Random(8 + spec.N * 3 + spec.r)
    for _ in range(25):
        x = rand_fixed(alg, rng)
        y = rand_fixed(alg, rng)
        w = toroidal_bracket(x, y)
        assert sigma_bar(w.loop) == w.loop
        for sym in w.central.terms:
            assert sym.s_degree() % spec.r == 0


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_cocycle_antisymmetry_and_jacobi(spec):
    alg = get_algebra(spec)
    rng = random.Random(99 + spec.N + 7 * spec.r)
    for _ in range(60):
        x, y, z = (rand_fixed(alg, rng) for _ in range(3))
        assert toroidal_bracket(x, y) == -toroidal_bracket(y, x)
        s = toroidal_bracket(toroidal_bracket(x, y), z) \
            + toroidal_bracket(toroidal_bracket(y, z), x) \
            + toroidal_bracket(toroidal_bracket(z, x), y)
        assert s.is_zero()


def test_untwisted_degeneration_matches_plain_bracket():
    spec = AlgebraSpec("A", 2, 1)
    alg = get_algebra(spec)
    rng = random.Random(4)
    for _ in range(20):
        x = rand_loop(alg, rng)
        assert sigma_bar(x) == x
        assert fix_project(x) == x
    up = ToroidalElem(LoopElem.from_lie(alg.e(1), 3, 1), twisted=True)
    down = ToroidalElem(LoopElem.from_lie(alg.f(1), -3, -1), twisted=True)
    got = toroidal_bracket(up, down)
    assert got.loop == LoopElem.from_lie(alg.h(1), 0, 0)
    assert got.central.terms.get(C0) == alg.scalar(3)
