"""The double-loop algebra, its twisted automorphism, and the centrally
extended bracket.

A LoopElem is a sparse combination of basis_vector (x) s^j t^m terms.
A ToroidalElem is one sparse map over the extended algebra: loop keys
(basis index, j, m) next to the central KSym keys of the Kahler
differentials.  The bracket

    [x (x) s^j t^m, y (x) s^k t^l]
        = [x,y] (x) s^(j+k) t^(m+l)  +  (x|y) * class of (s^k t^l) d(s^j t^m)

annihilates central terms.  For each pair of degree components of the
operands it is g's bracket (`LieAlgebra.bracket_terms`) moved to the
summed degree, plus g's form (`LieAlgebra.form_terms`) times one
Kahler class (`reduce_b_da`); this module has no loop over structure
constants or form entries of its own.

Elements tagged as twisted are validated eagerly: the loop terms must
be fixed by the twisted automorphism and every central symbol must have
s-degree divisible by the twist order.

Fractional operands are bracketed on integer coordinates: with d the
least common denominator of both operands, `toroidal_bracket` brackets
d*x and d*y, checks that result, and divides it by d^2 once at the
end.  This is exact, because the bracket and the cocycle are bilinear,
so [d*x, d*y] = d^2*[x, y], and the twisted automorphism is linear, so
d^2*[x, y] is fixed exactly when [x, y] is.
"""

from __future__ import annotations

from .coeff import AlgebraTerms, coord_terms, denominator, from_coords
# not called here (`_sigma_coords` rotates coordinates itself), but
# bench/selftest.py checks that the span recorder rebinds toroidal.omega_pow
from .coeff import omega_pow  # noqa: F401
from .kahler import KahlerElem, reduce_b_da
from .liealg import LieAlgebra, LieElem


class LoopElem(AlgebraTerms):
    """Sparse map (basis index, s-degree, t-degree) -> coefficient."""

    __slots__ = ()

    @classmethod
    def zero(cls, alg: LieAlgebra) -> "LoopElem":
        return cls(alg, {})

    @classmethod
    def from_lie(cls, x: LieElem, j: int = 0, m: int = 0) -> "LoopElem":
        return cls(x.alg, {(b, j, m): c for b, c in x.terms.items()})

    def _symbol(self, key) -> str:
        b, j, m = key
        parts = [self.alg.basis_name(b)]
        if j:
            parts.append(f"s^{j}")
        if m:
            parts.append(f"t^{m}")
        return "*".join(parts)

    def _sort_key(self, key):
        b, j, m = key
        return (j, m, b)


def _by_degree(x) -> dict:
    """The loop terms of x as coordinates grouped by degree,
    (j, m) -> {b: (a, b)}; central KSym keys are left out."""
    out: dict = {}
    for key, c in x.terms.items():
        if type(key) is tuple:
            b, j, m = key
            out.setdefault((j, m), {})[b] = (c.a, c.b)
    return out


def _bracket_terms(x, y, cocycle: bool) -> dict:
    """Terms of the bracket of the loop terms of x and y, one pair of
    degree components at a time: g's bracket moved to the summed degree
    and, when `cocycle` is set, g's form times one Kahler class.  The
    sums are taken on coordinates, and each CycNum is built once."""
    alg = x.alg
    r = alg.spec.r
    acc: dict = {}
    ys = _by_degree(y).items()
    for (j1, m1), comp1 in _by_degree(x).items():
        for (j2, m2), comp2 in ys:
            j, m = j1 + j2, m1 + m2
            out = [((b, j, m), a, w) for b, (a, w) in alg.bracket_terms(comp1, comp2).items()]
            if cocycle:
                pa, pb = alg.form_terms(comp1, comp2)
                if pa or pb:
                    # a Kahler class has rational coefficients (v.b == 0)
                    cls = reduce_b_da((j2, m2), (j1, m1), r)
                    out += [(sym, pa * v.a, pb * v.a) for sym, v in cls.terms.items()]
            for key, a, w in out:
                s = acc.get(key)
                acc[key] = (a, w) if s is None else (s[0] + a, s[1] + w)
    return coord_terms(r, acc)


def loop_bracket(x, y) -> LoopElem:
    """Bracket of the loop terms of two LoopElems or ToroidalElems."""
    x._check(y)
    return LoopElem(x.alg, _bracket_terms(x, y, False))


def _sigma_coords(sigma: dict, r: int, key: tuple, a, b) -> tuple:
    """(image key, a', b'): sigma_bar of the loop term a + b w at key.

    Where sigma sends basis vector v to s * v' (`LieAlgebra._sigma`), the
    term c at (v, j, m) goes to s * w^(-j) * c at (v', j, m), and
    w^(-j) * (a + b w) is read off the coordinates without a scalar
    product:
      r = 2:  (-1)^j (a + b w), a sign flip for odd j;
      r = 3:  w (a + b w) = -b + (a - b) w for -j = 1 mod 3, and
              w^2 (a + b w) = (b - a) - a w for -j = 2 mod 3.
    """
    v, j, m = key
    v2, s = sigma[v]
    if r == 3:
        e = -j % 3
        if e == 1:
            a, b = -b, a - b
        elif e == 2:
            a, b = b - a, -a
    elif r == 2 and j % 2:
        s = -s
    return (v2, j, m), s * a, s * b


def sigma_bar(x: LoopElem) -> LoopElem:
    """Twisted automorphism: basis automorphism times omega^(-j)."""
    alg = x.alg
    r = alg.spec.r
    sigma = alg._sigma
    # a signed permutation of the basis keeps (j, m): keys never collide
    out = {}
    for key, c in x.terms.items():
        image, a, b = _sigma_coords(sigma, r, key, c.a, c.b)
        out[image] = from_coords(r, a, b)
    return LoopElem(alg, out)


def orbit_sum(x: LoopElem, count: int) -> LoopElem:
    """sum over u < count of sigma_bar^u(x)."""
    acc = cur = x
    for _ in range(count - 1):
        cur = sigma_bar(cur)
        acc = acc + cur
    return acc


def fix_project(x: LoopElem) -> LoopElem:
    """Average over the twisted automorphism; idempotent projection."""
    r = x.alg.spec.r
    return orbit_sum(x, r).divided(r)


class ToroidalElem(AlgebraTerms):
    """Sparse map over the extended algebra: loop keys (b, j, m) and
    central KSym keys.  A twisted element is validated when constructed;
    sums and multiples of twisted elements are twisted without a check.
    """

    __slots__ = ("twisted",)

    def __init__(self, loop: LoopElem, central: KahlerElem | None = None,
                 twisted: bool = False):
        terms = dict(loop.terms)
        if central is not None:
            terms.update(central.terms)
        AlgebraTerms.__init__(self, loop.alg, terms)
        object.__setattr__(self, "twisted", twisted)
        if twisted:
            self.validate_twisted()

    def _new(self, terms: dict, other=None):
        out = object.__new__(ToroidalElem)
        AlgebraTerms.__init__(out, self.alg, terms)
        twisted = self.twisted and (other is None or other.twisted)
        object.__setattr__(out, "twisted", twisted)
        return out

    @classmethod
    def zero(cls, alg: LieAlgebra) -> "ToroidalElem":
        return cls(LoopElem.zero(alg), twisted=True)

    @property
    def loop(self) -> LoopElem:
        terms = self.terms.items()
        return LoopElem(self.alg, {k: c for k, c in terms if type(k) is tuple})

    @property
    def central(self) -> KahlerElem:
        return KahlerElem({k: c for k, c in self.terms.items() if type(k) is not tuple})

    def validate_twisted(self):
        """Raise ValueError unless sigma_bar fixes the loop terms and every
        central symbol has s-degree divisible by r.

        sigma_bar permutes the loop keys and keeps values nonzero, so it
        fixes the loop terms exactly when it maps each one into the map.
        Each image is compared on coordinates, as `_sigma_coords` gives
        it: the signed basis permutation and the rotation by w^(-j).
        """
        r = self.alg.spec.r
        sigma = self.alg._sigma
        terms = self.terms
        for key, c in terms.items():
            if type(key) is tuple:
                image, a, b = _sigma_coords(sigma, r, key, c.a, c.b)
                v = terms.get(image)
                if v is None or v.a != a or v.b != b:
                    raise ValueError(
                        "loop part is not fixed by the twisted automorphism")
            elif key.s_degree() % r:
                raise ValueError(
                    f"central symbol {key.render()} has s-degree not divisible by {r}"
                )

    def _symbol(self, key) -> str:
        return LoopElem._symbol(self, key) if type(key) is tuple else key.render()

    def _sort_key(self, key):
        # loop terms first, in LoopElem order; then the central symbols
        if type(key) is tuple:
            return (0,) + LoopElem._sort_key(self, key)
        return (1, key)


def toroidal_bracket(x: ToroidalElem, y: ToroidalElem) -> ToroidalElem:
    """Bracket with the differential 2-cocycle; central inputs die.

    Fractional operands are first scaled by their least common
    denominator d, so every structure-constant and form product is a
    product of ints; the result is checked on those coordinates and
    divided by d^2 once.  Both the bracket and the cocycle are bilinear,
    so this gives [x, y] exactly, and the check is unchanged because
    the twisted automorphism is linear.  Integral operands (d = 1) are
    neither copied nor divided.
    """
    x._check(y)
    d = denominator(x, y)
    if d != 1:
        x, y = x.cleared(d), y.cleared(d)
    terms = _bracket_terms(x, y, True)
    out = x._new(terms, y)
    if out.twisted:
        out.validate_twisted()
    return out if d == 1 else out.divided(d * d)
