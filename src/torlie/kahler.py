"""The central term: differentials of the two-variable Laurent ring
modulo exact ones, reduced to a canonical basis.

Basis symbols, with j ranging over the integers and m nonzero:

    Bs(j, m) -> class of s^(j-1) t^m ds
    Bt(j)    -> class of s^j t^-1 dt
    C0       -> class of s^-1 ds

`reduce_b_da` gives the class of b*d(a) for Laurent monomials a, b in
this basis, in closed form: b*d(a) has one degree (J, M), the degree of
the product ab, and its class is one multiple of Bs(J, M) when M != 0,
else a multiple of Bt(J) plus, at J = 0, a multiple of C0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coeff import SparseTerms, canonical

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


def reduce_b_da(b: LaurentMono, a: LaurentMono, order: int = 1) -> KahlerElem:
    """The class of b*d(a) for monomials a = s^k t^l and b = s^p t^q.

    With (J, M) = (p + k, q + l), b*d(a) = k s^(J-1) t^M ds + l s^J t^(M-1) dt.
    For M != 0 the dt term is -(l J/M) s^(J-1) t^M ds plus the exact
    (l/M) d(s^J t^M), so the class is ((k M - l J)/M) Bs(J, M).  For M = 0
    it is l Bt(J), plus k C0 when J = 0 (else the ds term is exact).
    The class is built from those ints, over the positive den |M| or 1.
    """
    p, q = b
    k, l = a
    J, M = p + k, q + l
    if M:
        s = 1 if M > 0 else -1
        return KahlerElem._of(*canonical({Bs(J, M): (s * (k * M - l * J), 0)}, s * M), order)
    coords = {C0: (k, 0)} if J == 0 else {}
    coords[Bt(J)] = (l, 0)
    return KahlerElem._of(*canonical(coords, 1), order)
