"""Exact arithmetic in the cyclotomic fields Q(zeta_r) for r in {1, 2, 3}.

A scalar is a ``CycNum``: a pair of rationals (a, b)
representing a + b*w with w = exp(2*pi*i/r).  For r = 1 and r = 2 the
basis is {1} (w collapses to 1 and -1 respectively); for r = 3 the basis
is {1, w} and products reduce through the minimal polynomial
w**2 = -1 - w (`omega_product`).  A coordinate is an `int` while it is
integral and a `fractions.Fraction` only when it is not, and a float or
any other inexact value is refused.
So arithmetic is exact at arbitrary precision, and the integral values
that make up almost every coefficient cost int arithmetic only.

Scalars carry their order r and refuse to mix with scalars of a
different order; plain ints and Fractions coerce into any order.

Elements of the algebras (`SparseTerms`) store no CycNum: an element
is integer coordinates key -> (a, b) over one positive int
denominator, in a canonical form that makes equality a comparison of
ints.  Sums, multiples, the Lie bracket and form (which take such
coordinate maps, `LieAlgebra.bracket_terms` and `graded_terms`),
echelon reduction and the twisted automorphism all run on ints; a
CycNum per term is built only when an element's `terms` are read, as
a render does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

_ORDERS = (1, 2, 3)


def exact(x):
    """x as an exact coordinate: an int while it is integral, else a Fraction.

    Only ints (bool included) and Fractions are exact; anything else, a
    float or a str among them, is refused with TypeError.
    """
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    if not isinstance(x, Fraction):
        raise TypeError(
            f"cyclotomic coordinates are int or Fraction, not {type(x).__name__}")
    return x.numerator if x.denominator == 1 else x


class CycNum:
    """Element a + b*w of Q(zeta_r), stored in canonical coordinates.

    Each coordinate is an `int` while it is integral and a `Fraction`
    only when it is not, so integral work never pays for `Fraction`.
    """

    __slots__ = ("order", "a", "b")

    def __init__(self, order: int, a=0, b=0):
        if order not in _ORDERS:
            raise ValueError(f"unsupported cyclotomic order {order!r}")
        if type(a) is not int:
            a = exact(a)
        if type(b) is not int:
            b = exact(b)
        if b:
            if order == 1:  # w = 1
                a, b = exact(a + b), 0
            elif order == 2:  # w = -1
                a, b = exact(a - b), 0
        _set_order(self, order)
        _set_a(self, a)
        _set_b(self, b)

    def __setattr__(self, name, value):
        raise AttributeError("CycNum is immutable")

    def __delattr__(self, name):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "CycNum":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "CycNum":
        return cls(order, 1)

    @classmethod
    def omega(cls, order: int) -> "CycNum":
        """The primitive r-th root of unity of the field.

        The constructor collapses w to 1 for r = 1 and to -1 for r = 2,
        and refuses an unsupported order.
        """
        return cls(order, 0, 1)

    # -- helpers -----------------------------------------------------

    def _coerce(self, other):
        if type(other) is CycNum:
            if other.order != self.order:
                raise ValueError(
                    f"cyclotomic order mismatch: {self.order} vs {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum(self.order, other)
        return None

    def is_zero(self) -> bool:
        return not (self.a or self.b)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.order, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.order, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum(self.order, o.a - self.a, o.b - self.b)

    def __neg__(self):
        return CycNum(self.order, -self.a, -self.b)

    def __mul__(self, other):
        if type(other) is int:  # structure constants: no CycNum for k
            return CycNum(self.order, self.a * other, self.b * other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.order < 3:
            return CycNum(self.order, self.a * o.a)
        return CycNum(3, *omega_product(self.a, self.b, o.a, o.b))

    __rmul__ = __mul__

    # -- comparison / display ----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        return hash((self.order, self.a, self.b)) if self.b else hash(self.a)

    def __repr__(self):
        return f"CycNum({self.order}, {self.a!r}, {self.b!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            if self.b == 1:
                w = "w"
            elif self.b == -1:
                w = "-w"
            else:
                w = f"{self.b}*w"
            if parts and self.b > 0:
                parts.append(f"+{w}")
            else:
                parts.append(w)
        return "".join(parts)


# the slot setters, which CycNum.__setattr__ refuses to reach
_set_order = CycNum.order.__set__
_set_a = CycNum.a.__set__
_set_b = CycNum.b.__set__


def omega_product(a1, b1, a2, b2) -> tuple:
    """Coordinates of (a1 + b1 w)(a2 + b2 w) in Q(zeta_3), w^2 = -1 - w."""
    bb = b1 * b2
    return a1 * a2 - bb, a1 * b2 + b1 * a2 - bb


# w**e for e = 0..r-1, per order, as coordinates: w = -1 at r = 2 and
# w**2 = -1 - w at r = 3; CycNum is immutable, so they are shared
_OMEGA_POWERS = {
    1: (CycNum(1, 1),),
    2: (CycNum(2, 1), CycNum(2, -1)),
    3: (CycNum(3, 1), CycNum(3, 0, 1), CycNum(3, -1, -1)),
}


def omega_pow(order: int, exponent: int) -> CycNum:
    """w**exponent, using that it only depends on exponent mod order."""
    powers = _OMEGA_POWERS.get(order)
    if powers is None:
        raise ValueError(f"unsupported cyclotomic order {order!r}")
    return powers[exponent % order]


def coeff_prefix(c: CycNum, symbol: str) -> str:
    """Render coeff*symbol, folding unit coefficients into the symbol."""
    s = str(c)
    if s == "1":
        return symbol
    if s == "-1":
        return f"-{symbol}"
    if "+" in s or "-" in s[1:]:
        s = f"({s})"
    return f"{s}*{symbol}"



def cleared_int(x, d: int) -> int:
    """d*x as an int, for a coordinate x whose denominator divides d."""
    return x * d if type(x) is int else x.numerator * (d // x.denominator)


def integral_coords(vec: dict) -> tuple:
    """(coords, den) for a coordinate map key -> (a, b) of int or
    Fraction: den is the least common denominator and coords, den times
    `vec`, has int pairs.  Without (0, 0) pairs, that is canonical (see
    `SparseTerms`): a prime power that divides den exactly divides the
    denominator of some coordinate, whose cleared numerator it misses."""
    den = 1
    for a, b in vec.values():
        if type(a) is not int or type(b) is not int:
            den = lcm(den, a.denominator, b.denominator)
    if den == 1:
        return vec, 1
    return {k: (cleared_int(a, den), cleared_int(b, den)) for k, (a, b) in vec.items()}, den


def canonical(coords: dict, den: int) -> tuple:
    """Canonical (coords, den) of the value coords/den, for den > 0: the
    (0, 0) pairs dropped, and both divided by their gcd."""
    coords = {k: ab for k, ab in coords.items() if ab[0] or ab[1]}
    if not coords:
        return coords, 1
    g = den
    for a, b in coords.values():
        g = gcd(g, a, b)
        if g == 1:
            return coords, den
    return {k: (a // g, b // g) for k, (a, b) in coords.items()}, den // g


def from_terms(terms: dict) -> tuple:
    """Canonical (coords, den) of a map key -> CycNum, its zeros dropped."""
    return integral_coords({k: (c.a, c.b) for k, c in terms.items() if c})


class SparseTerms:
    """Immutable sparse combination over Q(zeta_r), held as integer
    coordinates over one denominator.

    `coords` maps a key to the ints (a, b) and `den` is a positive int:
    the coefficient of the key is (a + b w)/den.  The form is canonical:
    no pair is (0, 0), the gcd of den and every coordinate is 1, and
    zero has den == 1.  It is unique, because den' * coords ==
    den * coords' makes den divide den' times the content of coords',
    which is coprime to den', so den | den' and likewise den' | den.
    So `==` compares den and `coords` and is an exact zero test of the
    difference; it, sums, multiples, brackets and the twisted
    automorphism all run on ints and build no scalar.

    `_of` builds every element from canonical coordinates; the
    constructor takes a map key -> CycNum instead and converts it
    (`from_terms`).  `terms`, key -> nonzero CycNum, is built from the
    coordinates on each read; it is what `render` reads.  `coords` and
    `terms` are read-only views and attributes cannot be reassigned, so
    elements can be shared.  `order` is the cyclotomic order of the
    scalars; a KahlerElem reads it off its coefficients, and one built
    without any has order None and combines with any.

    Subclasses name (`_symbol`) and order (`_sort_key`) their keys for
    `render`; `AlgebraTerms` binds elements to one algebra.
    """

    __slots__ = ("coords", "den", "order")

    def __new__(cls, terms: dict | None = None):
        terms = terms or {}
        orders = {c.order for c in terms.values()}
        if len(orders) > 1:
            raise ValueError(f"cyclotomic order mismatch: {sorted(orders)}")
        return cls._of(*from_terms(terms), orders.pop() if orders else None)

    @classmethod
    def _of(cls, coords: dict, den: int, order):
        """The element coords/den, for coordinates already canonical."""
        out = object.__new__(cls)
        _set_coords(out, MappingProxyType(coords))
        _set_den(out, den)
        _set_elem_order(out, order)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def terms(self):
        order, den = self.order, self.den
        return MappingProxyType({
            k: CycNum(order, a, b) if den == 1 else
            CycNum(order, Fraction(a, den), Fraction(b, den))
            for k, (a, b) in self.coords.items()})

    # -- hooks of algebra-bound subclasses ------------------------------

    def _sibling(self, coords: dict, den: int, other=None):
        """An element of the same space from canonical coordinates;
        `other` is the second operand of a sum, for subclasses that
        carry more than coordinates."""
        order = self.order if self.coords or other is None else other.order
        return self._of(coords, den, order)

    def _scalar(self, value) -> CycNum:
        if type(value) is not CycNum:
            return CycNum(self.order or 1, value)
        if self.coords and value.order != self.order:
            raise ValueError(f"cyclotomic order mismatch: {self.order} vs {value.order}")
        return value

    def _same_space(self, other) -> bool:
        return self.order == other.order or not (self.coords and other.coords)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if not self._same_space(other):
            raise ValueError("elements belong to different algebras")

    # -- vector space operations ----------------------------------------

    def _combine(self, other, sign: int):
        """self + sign*other, in one pass over the lcm of the two dens."""
        self._check(other)
        dx, dy = self.den, other.den
        g = gcd(dx, dy)
        fx, fy = dy // g, sign * (dx // g)
        coords = times(self.coords, fx)
        for k, (a, b) in other.coords.items():
            s = coords.get(k)
            coords[k] = (a * fy, b * fy) if s is None else (s[0] + a * fy, s[1] + b * fy)
        return self._sibling(*canonical(coords, dx * fx), other)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._sibling(times(self.coords, -1), self.den)

    def scale(self, value):
        c = self._scalar(value)
        q = lcm(c.a.denominator, c.b.denominator)
        pa, pb = cleared_int(c.a, q), cleared_int(c.b, q)
        coords = {k: omega_product(pa, pb, a, b) for k, (a, b) in self.coords.items()}
        return self._sibling(*canonical(coords, self.den * q))

    __mul__ = __rmul__ = scale

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self._same_space(other) and self.den == other.den
                and self.coords == other.coords)

    def __bool__(self):
        return bool(self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    # -- display ----------------------------------------------------------

    def _sort_key(self, key):
        return key

    def render(self) -> str:
        """Signed sum of coeff*symbol in key order; "0" when empty."""
        terms = self.terms
        out = ""
        for key in sorted(terms, key=self._sort_key):
            part = coeff_prefix(terms[key], self._symbol(key))
            if not out:
                out = part
            elif part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


# the slot setters, which SparseTerms.__setattr__ refuses to reach
_set_coords = SparseTerms.coords.__set__
_set_den = SparseTerms.den.__set__
_set_elem_order = SparseTerms.order.__set__


def times(coords, f: int) -> dict:
    """A fresh coordinate map, every pair times the int f."""
    if f == 1:
        return dict(coords)
    return {k: (a * f, b * f) for k, (a, b) in coords.items()}


class AlgebraTerms(SparseTerms):
    """SparseTerms bound to one algebra, whose scalars they take: a
    coefficient of another cyclotomic order is refused when built.
    `_graded` keeps a loop element's grouping by basis index once computed
    (`toroidal._by_basis`)."""

    __slots__ = ("alg", "_graded")

    def __new__(cls, alg, terms: dict):
        r = alg.spec.r
        for c in terms.values():
            if c.order != r:
                raise ValueError(f"coefficient {c} has cyclotomic order {c.order}, "
                                 f"not the algebra's twist order {r}")
        return cls._of(alg, *from_terms(terms))

    @classmethod
    def _of(cls, alg, coords: dict, den: int):
        """The element coords/den of `alg`, for canonical coordinates."""
        out = object.__new__(cls)
        _set_coords(out, MappingProxyType(coords))
        _set_den(out, den)
        _set_elem_order(out, alg.spec.r)
        _set_alg(out, alg)
        return out

    def _sibling(self, coords: dict, den: int, other=None):
        return self._of(self.alg, coords, den)

    def _scalar(self, value):
        return self.alg.scalar(value)

    def _same_space(self, other) -> bool:
        return self.alg is other.alg

    def __repr__(self):
        return f"{type(self).__name__}({self.alg.spec.name}, {self.render()})"


_set_alg = AlgebraTerms.alg.__set__
