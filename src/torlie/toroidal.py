"""The double-loop algebra, its twisted automorphism, and the centrally
extended bracket.

A LoopElem is a sparse combination of basis_vector (x) s^j t^m terms.
A ToroidalElem is one sparse map over the extended algebra: loop keys
(basis index, j, m) next to the central KSym keys of the Kahler
differentials.  The bracket

    [x (x) s^j t^m, y (x) s^k t^l]
        = [x,y] (x) s^(j+k) t^(m+l)  +  (x|y) * class of (s^k t^l) d(s^j t^m)

annihilates central terms.  It takes one pass over pairs of terms
(`LieAlgebra.graded_terms`): g's structure constants at the summed
degree, and g's form summed per pair of degrees, each nonzero sum then
times one Kahler class (`reduce_b_da`); this module has no loop over
structure constants or form entries of its own.

Elements tagged as twisted are validated eagerly: the loop terms must
be fixed by the twisted automorphism and every central symbol must have
s-degree divisible by the twist order.

Every element is integer coordinates over one denominator (see
`coeff.SparseTerms`), and so is every operation here.  The bracket of
x = X/dx and y = Y/dy brackets the integer numerators X and Y and puts
the result over dx*dy*e, where e clears the Kahler classes; both the
bracket and the cocycle are bilinear, so that is [x, y] exactly.  It is
made canonical by one gcd, and the fixedness check runs on that result:
the twisted automorphism is linear, so the common denominator plays no
part in it.  Each operand groups its loop coordinates by basis index
once (`_by_basis`) and keeps the grouping.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from .coeff import AlgebraTerms, canonical, times
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
        return cls._of(x.alg, {(b, j, m): ab for b, ab in x.coords.items()}, x.den)

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


def _by_basis(x) -> dict:
    """The loop coordinates of x grouped by basis index,
    b -> [(j, m, a, w), ...], central KSym keys left out; computed once
    per element and kept."""
    try:
        return x._graded
    except AttributeError:
        pass
    out: dict = {}
    for key, (a, w) in x.coords.items():
        if type(key) is tuple:
            b, j, m = key
            out.setdefault(b, []).append((j, m, a, w))
    object.__setattr__(x, "_graded", out)
    return out


def _bracket_coords(x, y, cocycle: bool) -> tuple:
    """Canonical (coords, den) of the bracket of the loop terms of x and
    y, in one pass over pairs of terms (`LieAlgebra.graded_terms`): g's
    bracket of the two numerators at the summed degree and, when
    `cocycle` is set, each nonzero form sum of a pair of degrees times
    one Kahler class.

    The numerators are brackets of ints, so the result is over
    dx*dy*e, where e is the lcm of the denominators of the Kahler
    classes that meet a nonzero pairing; it is made canonical by one gcd.
    """
    alg = x.alg
    acc, pairings = alg.graded_terms(_by_basis(x), _by_basis(y))
    if not (acc or pairings):  # no structure constant or pairing met
        return acc, 1
    den = x.den * y.den
    r = alg.spec.r
    # (pa, pb, class): central terms, before e is known
    classes = [(pa, pb, reduce_b_da((j2, m2), (j1, m1), r))
               for (j1, m1, j2, m2), (pa, pb) in (pairings.items() if cocycle else ())
               if pa or pb]
    if classes:
        e = lcm(*(cls.den for _, _, cls in classes))
        if e != 1:
            acc = {key: (a * e, w * e) for key, (a, w) in acc.items()}
            den *= e
        for pa, pb, cls in classes:
            f = e // cls.den
            # a Kahler class has rational coefficients (its b is 0)
            for sym, (v, _) in cls.coords.items():
                v *= f
                s = acc.get(sym)
                acc[sym] = (pa * v, pb * v) if s is None else (s[0] + pa * v, s[1] + pb * v)
    return canonical(acc, den)


def loop_bracket(x, y) -> LoopElem:
    """Bracket of the loop terms of two LoopElems or ToroidalElems."""
    x._check(y)
    return LoopElem._of(x.alg, *_bracket_coords(x, y, False))


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
    """Twisted automorphism: basis automorphism times omega^(-j).

    A signed permutation of the basis keeps (j, m), so keys never
    collide, and a unit of Z[w] keeps the content of each pair, so the
    coordinates stay canonical over the same den."""
    alg = x.alg
    r = alg.spec.r
    sigma = alg._sigma
    out = {}
    for key, (a, b) in x.coords.items():
        image, a, b = _sigma_coords(sigma, r, key, a, b)
        out[image] = (a, b)
    return LoopElem._of(alg, out, x.den)


def _orbit_coords(x: LoopElem, count: int) -> dict:
    """The numerators of sum over u < count of sigma_bar^u(x), over x's
    den, zeros kept: one pass over the terms of x, each rotated count - 1
    times through `_sigma_coords`."""
    alg = x.alg
    r = alg.spec.r
    sigma = alg._sigma
    acc = dict(x.coords)
    for key, (a, b) in x.coords.items():
        for _ in range(count - 1):
            key, a, b = _sigma_coords(sigma, r, key, a, b)
            s = acc.get(key)
            acc[key] = (a, b) if s is None else (s[0] + a, s[1] + b)
    return acc


def orbit_sum(x: LoopElem, count: int) -> LoopElem:
    """sum over u < count of sigma_bar^u(x)."""
    return LoopElem._of(x.alg, *canonical(_orbit_coords(x, count), x.den))


def fix_project(x: LoopElem) -> LoopElem:
    """Average over the twisted automorphism; idempotent projection."""
    r = x.alg.spec.r
    return LoopElem._of(x.alg, *canonical(_orbit_coords(x, r), x.den * r))


class ToroidalElem(AlgebraTerms):
    """Sparse map over the extended algebra: loop keys (b, j, m) and
    central KSym keys.  A twisted element is validated when constructed;
    sums and multiples of twisted elements are twisted without a check.
    """

    __slots__ = ("twisted",)

    def __new__(cls, loop: LoopElem, central: KahlerElem | None = None,
                twisted: bool = False):
        alg = loop.alg
        coords, den = loop.coords, loop.den
        if central is not None and central.coords:
            r = alg.spec.r
            if central.order != r:
                c = next(iter(central.terms.values()))
                raise ValueError(f"coefficient {c} has cyclotomic order {c.order}, "
                                 f"not the algebra's twist order {r}")
            # both parts are canonical, so over the lcm of their dens
            # the merged coordinates are too
            d = lcm(den, central.den)
            coords = times(coords, d // den)
            coords.update(times(central.coords, d // central.den))
            den = d
        out = cls._of(alg, dict(coords), den, twisted)
        if twisted:
            out.validate_twisted()
        return out

    @classmethod
    def _of(cls, alg, coords: dict, den: int, twisted: bool = False):
        """The element coords/den of `alg`, for canonical coordinates."""
        out = super()._of(alg, coords, den)
        _set_twisted(out, twisted)
        return out

    def _sibling(self, coords: dict, den: int, other=None):
        twisted = self.twisted and (other is None or other.twisted)
        return self._of(self.alg, coords, den, twisted)

    @classmethod
    def zero(cls, alg: LieAlgebra) -> "ToroidalElem":
        """The shared twisted zero of `alg` (`_zero`)."""
        return _zero(alg, True)

    def _part(self, loop: bool) -> tuple:
        """Canonical (coords, den) of the loop or the central terms."""
        part = {k: ab for k, ab in self.coords.items() if (type(k) is tuple) == loop}
        if len(part) == len(self.coords):
            return part, self.den
        return canonical(part, self.den)

    @property
    def loop(self) -> LoopElem:
        return LoopElem._of(self.alg, *self._part(True))

    @property
    def central(self) -> KahlerElem:
        return KahlerElem._of(*self._part(False), self.order)

    def validate_twisted(self):
        """Raise ValueError unless sigma_bar fixes the loop terms and every
        central symbol has s-degree divisible by r.

        sigma_bar permutes the loop keys and keeps values nonzero, so it
        fixes the loop terms exactly when it maps each one into the map.
        Each image is compared on coordinates, as `_sigma_coords` gives
        it: the signed basis permutation and the rotation by w^(-j).
        sigma_bar is linear, so the common den plays no part.
        """
        r = self.alg.spec.r
        sigma = self.alg._sigma
        coords = self.coords
        for key, (a, b) in coords.items():
            if type(key) is tuple:
                image, a, b = _sigma_coords(sigma, r, key, a, b)
                if coords.get(image) != (a, b):
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


# the slot setter, which SparseTerms.__setattr__ refuses to reach
_set_twisted = ToroidalElem.twisted.__set__


@lru_cache(maxsize=None)
def _zero(alg: LieAlgebra, twisted: bool) -> ToroidalElem:
    """The zero of `alg` with the given flag, built once through the
    validating constructor and then shared: elements are immutable."""
    return ToroidalElem(LoopElem.zero(alg), twisted=twisted)


def toroidal_bracket(x: ToroidalElem, y: ToroidalElem) -> ToroidalElem:
    """Bracket with the differential 2-cocycle; central inputs die.

    The two numerators are bracketed on ints (`_bracket_coords`), and
    the canonical result is checked once when both operands are
    twisted.  That check is exact on the result itself, since the
    twisted automorphism is linear and so ignores the common den.  A
    bracket without terms, most of them in a relation check, is the
    shared zero (`_zero`): an empty map has nothing to check.
    """
    x._check(y)
    coords, den = _bracket_coords(x, y, True)
    twisted = x.twisted and y.twisted
    if not coords:
        return _zero(x.alg, twisted)
    out = ToroidalElem._of(x.alg, coords, den, twisted)
    if twisted:
        out.validate_twisted()
    return out
