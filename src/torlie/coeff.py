"""Exact arithmetic in the cyclotomic fields Q(zeta_r) for r in {1, 2, 3}.

Every stored scalar is a ``CycNum``: a pair of rationals (a, b)
representing a + b*w with w = exp(2*pi*i/r).  For r = 1 and r = 2 the
basis is {1} (w collapses to 1 and -1 respectively); for r = 3 the basis
is {1, w} and products reduce through the minimal polynomial
w**2 = -1 - w (`omega_product`).  A coordinate is an `int` while it is
integral and a `fractions.Fraction` only when it is not; division goes
through `Fraction`, and a float or any other inexact value is refused.
So arithmetic is exact at arbitrary precision, and the integral values
that make up almost every coefficient cost int arithmetic only.

Scalars carry their order r and refuse to mix with scalars of a
different order; plain ints and Fractions coerce into any order.

The hot kernels (the Lie bracket, which the loop and extended brackets
call per pair of degree components, and echelon reduction) do not
compute through ``CycNum`` objects: they take coordinate maps key ->
(a, b) (`term_coords` reads one off a term map) and multiply and
accumulate plain int/Fraction pairs; a caller that needs an element
builds one ``CycNum`` per nonzero output term (`coord_terms`).

`SparseTerms` is the one format of every vector in the library: an
immutable sparse map from a basis key to a nonzero CycNum.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        a, b = self.a, self.b
        if not b:  # 1/a in any order, through Fraction: 1 / int is a float
            return CycNum(self.order, Fraction(1) / a)
        # conj(a + b w) = (a - b) - b w;  norm = a^2 - a b + b^2
        norm = Fraction(a * a - a * b + b * b)
        return CycNum(3, (a - b) / norm, -b / norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "CycNum":
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        out = CycNum.one(self.order)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

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


def from_coords(order: int, a, b=0) -> CycNum:
    """The CycNum a + b*w, its slots set directly.

    For the kernels, which know their order and give b == 0 unless the
    order is 3, so none of the checks of `CycNum.__init__` apply; only a
    non-int coordinate passes `exact`, which makes it canonical.
    """
    out = object.__new__(CycNum)
    _set_order(out, order)
    _set_a(out, a if type(a) is int else exact(a))
    _set_b(out, b if type(b) is int else exact(b))
    return out


def term_coords(terms) -> dict:
    """The coordinate map key -> (a, b) of a map key -> CycNum."""
    return {k: (c.a, c.b) for k, c in terms.items()}


def coord_terms(order: int, coords: dict) -> dict:
    """{key: CycNum} of a coordinate map key -> (a, b), the zeros left
    out; b is 0 unless the order is 3."""
    return {k: from_coords(order, a, b) for k, (a, b) in coords.items() if a or b}

# w**e for e = 0..r-1, per order; CycNum is immutable, so they are shared
_OMEGA_POWERS = {
    order: tuple(CycNum.omega(order) ** e for e in range(order)) for order in _ORDERS
}


def omega_pow(order: int, exponent: int) -> CycNum:
    """w**exponent, using that it only depends on exponent mod order."""
    powers = _OMEGA_POWERS.get(order)
    if powers is None:
        raise ValueError(f"unsupported cyclotomic order {order!r}")
    return powers[exponent % order]


def drop_zeros(terms: dict) -> dict:
    """`terms` itself when no value is zero, else a copy without the zeros."""
    if all(terms.values()):
        return terms
    return {k: v for k, v in terms.items() if v}


def algebra_terms(terms: dict, order: int) -> dict:
    """`drop_zeros` for an element of an algebra of twist `order`, which
    refuses a coefficient of any other cyclotomic order (ValueError)."""
    # one pass over the values, which costs no more than drop_zeros alone
    for c in terms.values():
        if c.order != order or not (c.a or c.b):
            break
    else:
        return terms
    for c in terms.values():
        if c.order != order:
            raise ValueError(f"coefficient {c} has cyclotomic order {c.order}, "
                             f"not the algebra's twist order {order}")
    return {k: v for k, v in terms.items() if v}


def denominator(*elements) -> int:
    """Least common denominator of every coordinate of the elements; 1
    when they are all integral."""
    d = 1
    for x in elements:
        for c in x.terms.values():
            if type(c.a) is not int or type(c.b) is not int:
                d = lcm(d, c.a.denominator, c.b.denominator)
    return d


def cleared_int(x, d: int) -> int:
    """d*x as an int, for a coordinate x whose denominator divides d."""
    return x * d if type(x) is int else x.numerator * (d // x.denominator)


def _divided(x, d: int):
    """x/d as an exact coordinate, before `from_coords` makes it canonical."""
    return Fraction(x, d) if x else 0


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


class SparseTerms:
    """Immutable sparse combination: `terms` maps a key to a CycNum.

    Invariant: no stored coefficient is zero.  The constructor enforces
    it, through `drop_zeros`, so two elements are equal exactly when
    their term maps are, and `==` is an exact zero test of the
    difference.  The constructor takes ownership of the dict it is given
    and does not copy it (a copy would cost every bracket); callers hand
    over a fresh dict and do not touch it afterwards.  `terms` is a
    read-only view of that dict, and attributes cannot be reassigned, so
    elements can be shared.

    Subclasses name (`_symbol`) and order (`_sort_key`) their keys for
    `render`; `AlgebraTerms` binds elements to one algebra.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        terms = {} if terms is None else drop_zeros(terms)
        object.__setattr__(self, "terms", MappingProxyType(terms))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- hooks of algebra-bound subclasses ------------------------------

    def _new(self, terms: dict, other=None):
        """A sibling element over the same space; `other` is the second
        operand of a sum, for subclasses that carry more than terms."""
        return type(self)(terms)

    def _scalar(self, value):
        return value

    def _same_space(self, other) -> bool:
        return True

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if not self._same_space(other):
            raise ValueError("elements belong to different algebras")

    # -- vector space operations ----------------------------------------

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            terms[k] = c if s is None else s + c
        return self._new(terms, other)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def scale(self, value):
        c = self._scalar(value)
        return self._new({k: v * c for k, v in self.terms.items()})

    __mul__ = __rmul__ = scale

    def cleared(self, d: int):
        """d times this element, for an int d that clears every
        denominator (see `denominator`).  Each coordinate is written as
        an int directly; `_new` carries the element's flags over."""
        return self._new({k: from_coords(c.order, cleared_int(c.a, d), cleared_int(c.b, d))
                          for k, c in self.terms.items()})

    def divided(self, d: int):
        """This element divided by the nonzero int d: one exact division
        per nonzero coordinate, which `from_coords` makes canonical."""
        return self._new({k: from_coords(c.order, _divided(c.a, d), _divided(c.b, d))
                          for k, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._same_space(other) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- display ----------------------------------------------------------

    def _sort_key(self, key):
        return key

    def render(self) -> str:
        """Signed sum of coeff*symbol in key order; "0" when empty."""
        out = ""
        for key in sorted(self.terms, key=self._sort_key):
            part = coeff_prefix(self.terms[key], self._symbol(key))
            if not out:
                out = part
            elif part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class AlgebraTerms(SparseTerms):
    """SparseTerms bound to one algebra, whose scalars they take: a
    coefficient of another cyclotomic order is refused when built."""

    __slots__ = ("alg",)

    def __init__(self, alg, terms: dict):
        # no super() call: the bracket loops build one element per bracket
        object.__setattr__(self, "alg", alg)
        object.__setattr__(self, "terms",
                           MappingProxyType(algebra_terms(terms, alg.spec.r)))

    def _new(self, terms: dict, other=None):
        return type(self)(self.alg, terms)

    def _scalar(self, value):
        return self.alg.scalar(value)

    def _same_space(self, other) -> bool:
        return self.alg is other.alg

    def __repr__(self):
        return f"{type(self).__name__}({self.alg.spec.name}, {self.render()})"
