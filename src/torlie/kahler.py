"""The central term: differentials of the two-variable Laurent ring
modulo exact ones, reduced to a canonical basis.

Basis symbols, with j ranging over the integers and m nonzero:

    Bs(j, m) -> class of s^(j-1) t^m ds
    Bt(j)    -> class of s^j t^-1 dt
    C0       -> class of s^-1 ds

`reduce_b_da` rewrites the class of b*d(a) for Laurent monomials a, b
into this basis.  The rewriting is total: every term of the expanded
differential is either already a basis symbol, the class of an exact
differential (dropped), or is converted through a single integration by
parts with an exact rational division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .coeff import CycNum
from .render import join_terms

LaurentMono = tuple  # (s-degree, t-degree)


@dataclass(frozen=True, order=True)
class KSym:
    kind: str  # "c" < "ds" < "dt", which also gives a stable sort
    j: int = 0
    m: int = 0

    def s_degree(self) -> int:
        return 0 if self.kind == "c" else self.j

    def render(self) -> str:
        if self.kind == "c":
            return "C0"
        if self.kind == "dt":
            return f"[s^{self.j} t^-1 dt]"
        return f"[s^{self.j - 1} t^{self.m} ds]"


C0 = KSym("c")


def Bs(j: int, m: int) -> KSym:
    if m == 0:
        raise ValueError("Bs needs a nonzero t-degree")
    return KSym("ds", j, m)


def Bt(j: int) -> KSym:
    return KSym("dt", j)


class KahlerElem:
    """Sparse combination of basis symbols with CycNum coefficients.

    Immutable: `terms` is a read-only view of the dict passed in.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        object.__setattr__(self, "terms", MappingProxyType(terms or {}))

    def __setattr__(self, name, value):
        raise AttributeError("KahlerElem is immutable")

    def __add__(self, other: "KahlerElem") -> "KahlerElem":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            s = terms.get(k)
            s = c if s is None else s + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return KahlerElem(terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return KahlerElem({k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "KahlerElem":
        out = {}
        for k, v in self.terms.items():
            s = v * c
            if s:
                out[k] = s
        return KahlerElem(out)

    def __eq__(self, other):
        if not isinstance(other, KahlerElem):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"KahlerElem({self.render()})"

    def render(self) -> str:
        return join_terms([(c, k.render()) for k, c in sorted(self.terms.items())])


def _accumulate(terms: dict, sym: KSym, coeff):
    s = terms.get(sym)
    s = coeff if s is None else s + coeff
    if s:
        terms[sym] = s
    else:
        terms.pop(sym, None)


def _reduce_ds(terms: dict, u: int, v: int, coeff):
    # class of coeff * s^u t^v ds
    if v != 0:
        _accumulate(terms, Bs(u + 1, v), coeff)
    elif u == -1:
        _accumulate(terms, C0, coeff)


def _reduce_dt(terms: dict, u: int, v: int, coeff):
    # class of coeff * s^u t^v dt
    if v == -1:
        _accumulate(terms, Bt(u), coeff)
    elif u != 0:
        # integrate s^u t^(v+1) by parts; v+1 is nonzero here
        _reduce_ds(terms, u - 1, v + 1, coeff * Fraction(-u, v + 1))


def reduce_b_da(b: LaurentMono, a: LaurentMono, order: int = 1) -> KahlerElem:
    """The class of b*d(a) for monomials a = s^k t^l and b = s^p t^q."""
    p, q = b
    k, l = a
    one = CycNum.one(order)
    terms: dict = {}
    if k:
        _reduce_ds(terms, p + k - 1, q + l, one * k)
    if l:
        _reduce_dt(terms, p + k, q + l - 1, one * l)
    return KahlerElem(terms)
