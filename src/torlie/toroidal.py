"""The double-loop algebra, its twisted automorphism, and the centrally
extended bracket.

A LoopElem is a sparse combination of basis_vector (x) s^j t^m terms.
A ToroidalElem pairs a LoopElem with a central KahlerElem.  The bracket

    [x (x) s^j t^m, y (x) s^k t^l]
        = [x,y] (x) s^(j+k) t^(m+l)  +  (x|y) * class of (s^k t^l) d(s^j t^m)

annihilates central parts.  Elements tagged as twisted are validated
eagerly: the loop part must be fixed by the twisted automorphism and
every central symbol must have s-degree divisible by the twist order.
"""

from __future__ import annotations

from fractions import Fraction

from .coeff import AlgebraTerms, omega_pow, signed_join
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


def loop_bracket(x: LoopElem, y: LoopElem) -> LoopElem:
    x._check(y)
    alg = x.alg
    table = alg._table
    terms: dict = {}
    for (b1, j1, m1), c1 in x.terms.items():
        for (b2, j2, m2), c2 in y.terms.items():
            entry = table.get((b1, b2))
            if not entry:
                continue
            c = c1 * c2
            key_j, key_m = j1 + j2, m1 + m2
            for b3, k in entry:
                key = (b3, key_j, key_m)
                s = terms.get(key)
                terms[key] = c * k if s is None else s + c * k
    return LoopElem(alg, terms)


def sigma_bar(x: LoopElem) -> LoopElem:
    """Twisted automorphism: basis automorphism times omega^(-j)."""
    alg = x.alg
    r = alg.spec.r
    # a signed permutation of the basis keeps (j, m): keys never collide
    terms: dict = {}
    for (b, j, m), c in x.terms.items():
        b2, s = alg.sigma_basis(b)
        v = c * omega_pow(r, -j)
        terms[(b2, j, m)] = v if s == 1 else -v
    return LoopElem(alg, terms)


def fix_project(x: LoopElem) -> LoopElem:
    """Average over the twisted automorphism; idempotent projection."""
    r = x.alg.spec.r
    acc = x
    cur = x
    for _ in range(r - 1):
        cur = sigma_bar(cur)
        acc = acc + cur
    return acc * Fraction(1, r)


class ToroidalElem:
    """Loop part plus central part of the extended algebra; immutable."""

    __slots__ = ("loop", "central", "twisted")

    def __init__(self, loop: LoopElem, central: KahlerElem | None = None,
                 twisted: bool = False, validate: bool = True):
        object.__setattr__(self, "loop", loop)
        object.__setattr__(self, "central",
                           central if central is not None else KahlerElem())
        object.__setattr__(self, "twisted", twisted)
        if twisted and validate:
            self.validate_twisted()

    def __setattr__(self, name, value):
        raise AttributeError("ToroidalElem is immutable")

    def validate_twisted(self):
        r = self.loop.alg.spec.r
        if sigma_bar(self.loop) != self.loop:
            raise ValueError("loop part is not fixed by the twisted automorphism")
        for sym in self.central.terms:
            if sym.s_degree() % r:
                raise ValueError(
                    f"central symbol {sym.render()} has s-degree not divisible by {r}"
                )

    @classmethod
    def zero(cls, alg: LieAlgebra) -> "ToroidalElem":
        return cls(LoopElem.zero(alg), KahlerElem(), twisted=True, validate=False)

    def _wrap(self, loop, central):
        return ToroidalElem(loop, central, twisted=self.twisted, validate=False)

    def __add__(self, other: "ToroidalElem") -> "ToroidalElem":
        out = ToroidalElem(self.loop + other.loop, self.central + other.central,
                           twisted=self.twisted and other.twisted, validate=False)
        return out

    def __sub__(self, other):
        return ToroidalElem(self.loop - other.loop, self.central - other.central,
                            twisted=self.twisted and other.twisted, validate=False)

    def __neg__(self):
        return self._wrap(-self.loop, -self.central)

    def __mul__(self, scalar):
        c = self.loop.alg.scalar(scalar)
        return self._wrap(self.loop * c, self.central.scale(c))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ToroidalElem):
            return NotImplemented
        return self.loop == other.loop and self.central == other.central

    def __bool__(self):
        return bool(self.loop) or bool(self.central)

    def is_zero(self) -> bool:
        return not self

    def __repr__(self):
        return f"ToroidalElem({self.render()})"

    def render(self) -> str:
        return signed_join(part.render() for part in (self.loop, self.central) if part)


def toroidal_bracket(x: ToroidalElem, y: ToroidalElem) -> ToroidalElem:
    """Bracket with the differential 2-cocycle; central inputs die."""
    x.loop._check(y.loop)
    alg = x.loop.alg
    r = alg.spec.r
    loop = loop_bracket(x.loop, y.loop)
    central = KahlerElem()
    form = alg._form
    for (b1, j1, m1), c1 in x.loop.terms.items():
        for (b2, j2, m2), c2 in y.loop.terms.items():
            pairing = form.get((b1, b2))
            if pairing is not None:
                central = central + reduce_b_da((j2, m2), (j1, m1), r).scale(
                    c1 * c2 * pairing)
    return ToroidalElem(loop, central, twisted=x.twisted and y.twisted)
