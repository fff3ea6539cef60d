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

from .coeff import CycNum, SparseTerms

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


class KahlerElem(SparseTerms):
    """Sparse combination of basis symbols with CycNum coefficients."""

    __slots__ = ()

    def _symbol(self, sym: KSym) -> str:
        return sym.render()


def _accumulate(terms: dict, sym: KSym, coeff):
    s = terms.get(sym)
    terms[sym] = coeff if s is None else s + coeff


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
