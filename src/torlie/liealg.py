"""The finite simple Lie algebra in a Chevalley basis.

Basis: Cartan elements h_1..h_N followed by one root vector per root.
Structure constants come from a bimultiplicative asymmetry function on
the root lattice (eps(a_i,a_i) = -1, eps(a_i,a_j) = -1 when i < j are
adjacent, +1 otherwise), adjusted by a positive/negative sign so that

    [e_a, e_b]  = N(a,b) e_{a+b}   when a+b is a root, N = +-1,
    [e_a, e_-a] = h_a,
    [h, e_a]    = a(h) e_a,

which makes the invariant form satisfy (h_i|h_j) = A'_{ij},
(e_a|e_-a) = 1 and (e_a|e_b) = 0 otherwise.  The diagram automorphism
is written in closed form as a signed permutation of the basis:
h_i -> h_sigma(i) and e_a -> (-1)^q(a) e_sigma(a).  Here q(a) is the sum
of a_i a_j over the pairs i < j at which sigma changes eps(alpha_i,
alpha_j): then (-1)^q(a+b) = (-1)^(q(a) + q(b)) eps(a,b) eps(sa,sb) and
q vanishes on the simple roots, so this is the unique automorphism
that extends sigma on the Chevalley generators.  The test suite checks
the automorphism property on every pair of basis vectors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .coeff import (
    AlgebraTerms,
    CycNum,
    canonical,
    integral_coords,
    omega_pow,
    omega_product,
)
from .rootdata import (
    AlgebraSpec,
    build_cartan,
    enumerate_roots,
    highest_root,
    sigma_root,
)


class LieElem(AlgebraTerms):
    """Sparse vector over the Chevalley basis of one algebra."""

    __slots__ = ()

    @classmethod
    def basis(cls, alg: "LieAlgebra", index: int, coeff=1) -> "LieElem":
        return cls(alg, {index: alg.scalar(coeff)})

    def __hash__(self):
        return hash((id(self.alg), self.den, frozenset(self.coords.items())))

    def _symbol(self, b: int) -> str:
        return self.alg.basis_name(b)


class EchelonBasis:
    """Incremental exact Gaussian elimination over Q(zeta_r), fraction free.

    `add` takes a coordinate map key -> (a, b) of a + b w, as
    `LieAlgebra.bracket_terms` returns it, and the order r of its
    scalars; the first vector fixes r, and another order is refused.  A
    rational vector is scaled by its common denominator first.

    `rows` maps each pivot to its row: two maps, key -> a and key -> b,
    of coordinates in Z[w], each row divided by its content (the gcd of
    its coordinates).  Every key of a row is a key of `a`, and `b` is
    empty while every b is 0, as it always is for r <= 2.  The rows are
    reduced, zero at every other pivot, so a vector meets only the rows
    whose pivots lie in its support: v <- P v - c row, with P the row's
    pivot coefficient and c the vector's, clears that pivot and leaves
    the other pivot coordinates as they were.  A new row clears its own
    pivot column from the older rows the same way.
    """

    def __init__(self):
        self.rows = {}  # pivot -> (a, b)
        self.order = None  # of the first vector's scalars; others are refused

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: dict, order: int) -> bool:
        """Reduce `vec` against the basis; absorb it if independent."""
        if order != self.order:
            if self.order is not None:
                raise ValueError(f"cyclotomic order mismatch: {self.order} vs {order}")
            self.order = order
        va, vb = _integral(vec)
        rows = self.rows
        for pivot in [k for k in va if k in rows]:
            va, vb = _eliminate(va, vb, pivot, *rows[pivot])
        row = _primitive(va, vb)
        if row is None:
            return False
        pivot = min(row[0])
        for old, (oa, ob) in rows.items():
            if oa.get(pivot) or ob.get(pivot):
                rows[old] = _primitive(*_eliminate(oa, ob, pivot, *row))
        rows[pivot] = row
        return True


def _integral(vec: dict) -> tuple:
    """`vec` times its common denominator, as (a, b) coordinate maps in
    Z[w]; the b map holds no zero."""
    vec = integral_coords(vec)[0]
    return {k: a for k, (a, _) in vec.items()}, {k: b for k, (_, b) in vec.items() if b}


def _eliminate(va: dict, vb: dict, pivot, ra: dict, rb: dict) -> tuple:
    """P v - c row for the vector v = (va, vb), a row with pivot
    coefficient P and c = v[pivot], all in Z[w]: zero at the pivot."""
    pa, pb = ra[pivot], rb.get(pivot, 0)
    ca, cb = va[pivot], vb.get(pivot, 0)
    if not (pb or cb or vb or rb):  # every coordinate in Z
        g = gcd(pa, ca)
        pa, ca = pa // g, ca // g
        if pa != 1:
            va = {k: a * pa for k, a in va.items()}
        for k, a in ra.items():
            va[k] = va.get(k, 0) - ca * a
        return va, vb
    out_a, out_b = {}, {}
    for k, a in va.items():
        out_a[k], out_b[k] = omega_product(pa, pb, a, vb.get(k, 0))
    for k, a in ra.items():
        qa, qb = omega_product(ca, cb, a, rb.get(k, 0))
        out_a[k] = out_a.get(k, 0) - qa
        out_b[k] = out_b.get(k, 0) - qb
    return out_a, {k: b for k, b in out_b.items() if b}


def _primitive(va: dict, vb: dict):
    """The nonzero entries of the vector (va, vb), whose `vb` holds no
    zero, divided by their content; None when there is none."""
    ra = {k: a for k, a in va.items() if a or k in vb}
    if not ra:
        return None
    g = gcd(*ra.values(), *vb.values())
    if g != 1:
        ra = {k: a // g for k, a in ra.items()}
        vb = {k: b // g for k, b in vb.items()}
    return ra, vb


class LieAlgebra:
    """Chevalley-basis realization of one spec, built once and frozen."""

    def __init__(self, spec: AlgebraSpec):
        self.spec = spec
        self.cartan = build_cartan(spec)
        self.N = spec.N
        self.roots = enumerate_roots(spec)
        self.root_index = {root: i for i, root in enumerate(self.roots)}
        self.dim = self.N + len(self.roots)
        self.zero_scalar = CycNum.zero(spec.r)
        self._eta = self._orientation_parity()
        self._neg = tuple(
            self.root_index[tuple(-c for c in root)] for root in self.roots
        )
        # pairing[ri][i] = root(h_i), used for [h, e_root] and weights
        A = self.cartan.A_prime
        self._pairing = tuple(
            tuple(sum(A[i][j] * root[j] for j in range(self.N)) for i in range(self.N))
            for root in self.roots
        )
        self._rows = self._build_bracket_rows()
        self._form_rows = self._build_form_rows()
        self._sigma = self._build_sigma_table()
        self._theta = self._build_theta_triple()

    # -- scalars -------------------------------------------------------

    def scalar(self, value) -> CycNum:
        if isinstance(value, CycNum):
            if value.order != self.spec.r:
                raise ValueError("cyclotomic order mismatch with algebra twist")
            return value
        return CycNum(self.spec.r, value)

    # -- basis bookkeeping ----------------------------------------------

    def zero(self) -> LieElem:
        return LieElem(self, {})

    def h(self, i: int) -> LieElem:
        if not 1 <= i <= self.N:
            raise ValueError(f"Cartan index {i} out of range")
        return LieElem.basis(self, i - 1)

    def root_vector(self, root) -> LieElem:
        return LieElem.basis(self, self.N + self.root_index[tuple(root)])

    def e(self, i: int) -> LieElem:
        root = tuple(1 if t == i - 1 else 0 for t in range(self.N))
        return self.root_vector(root)

    def f(self, i: int) -> LieElem:
        root = tuple(-1 if t == i - 1 else 0 for t in range(self.N))
        return self.root_vector(root)

    def basis_name(self, b: int) -> str:
        if b < self.N:
            return f"h{b + 1}"
        coords = ",".join(str(c) for c in self.roots[b - self.N])
        return f"e[{coords}]"

    # -- structure constants --------------------------------------------

    def _orientation_parity(self):
        # eta[i][j] = 1 exactly when eps(alpha_i, alpha_j) = -1
        A = self.cartan.A_prime
        N = self.N
        return tuple(
            tuple(
                1 if (i == j or (A[i][j] != 0 and i < j)) else 0 for j in range(N)
            )
            for i in range(N)
        )

    def _epsilon(self, a, b) -> int:
        parity = 0
        eta = self._eta
        for i in range(self.N):
            if not a[i]:
                continue
            for j in range(self.N):
                if b[j] and eta[i][j]:
                    parity += a[i] * b[j]
        return -1 if parity % 2 else 1

    @staticmethod
    def _positive(root) -> bool:
        for c in root:
            if c:
                return c > 0
        return False

    def _struct(self, a, b) -> int:
        s = 1 if self._positive(a) else -1
        s *= 1 if self._positive(b) else -1
        ab = tuple(x + y for x, y in zip(a, b))
        s *= 1 if self._positive(ab) else -1
        return self._epsilon(a, b) * s

    def _build_bracket_rows(self):
        """The structure constants by row: rows[b1][b2] is the entry
        ((b3, k), ...) with [b1, b2] = sum of k b3, and a row's keys are
        the partners of b1, the b2 with [b1, b2] != 0."""
        rows = tuple({} for _ in range(self.dim))
        N = self.N
        for ri in range(len(self.roots)):
            for i in range(N):
                c = self._pairing[ri][i]
                if c:
                    rows[i][N + ri] = ((N + ri, c),)
                    rows[N + ri][i] = ((N + ri, -c),)
        for ri, a in enumerate(self.roots):
            for rj, b in enumerate(self.roots):
                if rj == self._neg[ri]:
                    rows[N + ri][N + rj] = tuple((i, c) for i, c in enumerate(a) if c)
                    continue
                ab = tuple(x + y for x, y in zip(a, b))
                rk = self.root_index.get(ab)
                if rk is not None:
                    rows[N + ri][N + rj] = ((N + rk, self._struct(a, b)),)
        return rows

    def bracket(self, x: LieElem, y: LieElem) -> LieElem:
        if x.alg is not self or y.alg is not self:
            raise ValueError("elements belong to a different algebra")
        coords = self.bracket_terms(x.coords, y.coords)
        return LieElem._of(self, *canonical(coords, x.den * y.den))

    def bracket_terms(self, xs, ys) -> dict:
        """The bracket of the coordinate maps xs and ys (b -> (a, b), the
        coordinates of a + b w), as a fresh coordinate map without zeros.

        This is the loop over structure constants for vectors of g; the
        loop bracket has its own (`graded_terms`).  It reads the table by
        row, so a pair of terms with no entry costs one dict miss, and
        takes the w-product only where a b coordinate is nonzero.
        """
        rows = self._rows
        ys = ys.items()
        acc_a, acc_b = {}, {}
        for b1, (a1, w1) in xs.items():
            row = rows[b1]
            for b2, (a2, w2) in ys:
                entry = row.get(b2)
                if entry is None:
                    continue
                if w1 or w2:
                    pa, pb = omega_product(a1, w1, a2, w2)
                    for b3, k in entry:
                        acc_a[b3] = acc_a.get(b3, 0) + pa * k
                        acc_b[b3] = acc_b.get(b3, 0) + pb * k
                else:
                    p = a1 * a2
                    for b3, k in entry:
                        acc_a[b3] = acc_a.get(b3, 0) + p * k
        if acc_b:
            return {b: (a, acc_b.get(b, 0)) for b, a in acc_a.items()
                    if a or acc_b.get(b)}
        return {b: (a, 0) for b, a in acc_a.items() if a}

    def partners(self, xs) -> frozenset:
        """The basis indices b2 with [b1, b2] != 0 for some key b1 of xs.
        A map none of whose keys is among them brackets with xs to zero."""
        rows = self._rows
        return frozenset().union(*(rows[b] for b in xs))

    def _build_form_rows(self):
        """The invariant form by row: form_rows[b1] = {b2: (b1|b2)} over
        the b2 with (b1|b2) != 0, which are (h_i|h_j) = A'_ij and
        (e_a|e_-a) = 1."""
        A = self.cartan.A_prime
        N = self.N
        rows = tuple({j: A[i][j] for j in range(N) if A[i][j]} for i in range(N))
        return rows + tuple({N + rj: 1} for rj in self._neg)

    def form(self, x: LieElem, y: LieElem) -> CycNum:
        if x.alg is not self or y.alg is not self:
            raise ValueError("elements belong to a different algebra")
        a, b = self.form_terms(x.coords, y.coords)
        d = x.den * y.den
        return CycNum(self.spec.r, Fraction(a, d), Fraction(b, d))

    def form_terms(self, xs, ys) -> tuple:
        """The invariant form of the coordinate maps xs and ys, as the
        coordinates (a, b) of a + b w: their degree-0 pairing in the one
        loop over form entries (`graded_terms`), whose bracket is dropped."""
        xs, ys = ({b: ((0, 0, a, w),) for b, (a, w) in cs.items()} for cs in (xs, ys))
        return self.graded_terms(xs, ys)[1].get((0, 0, 0, 0), (0, 0))

    def graded_terms(self, xs, ys) -> tuple:
        """(coords, pairings) of two loop elements grouped by basis index,
        b -> [(j, m, p, q), ...] for the terms (p + q w) b s^j t^m: the
        bracket, (b3, j, m) -> coordinates, and the form summed per degree
        pair, (j1, m1, j2, m2) -> coordinates, zeros kept in both.  Each
        pair of basis indices reads its structure-constant entry and its
        pairing once, by row."""
        rows, form_rows = self._rows, self._form_rows
        ys = ys.items()
        acc, pairings = {}, {}
        for b1, terms1 in xs.items():
            row, form_row = rows[b1], form_rows[b1]
            for b2, terms2 in ys:
                entry = row.get(b2)
                pairing = form_row.get(b2)
                if entry is None and pairing is None:
                    continue
                for j1, m1, a1, w1 in terms1:
                    for j2, m2, a2, w2 in terms2:
                        if w1 or w2:
                            pa, pb = omega_product(a1, w1, a2, w2)
                        else:
                            pa, pb = a1 * a2, 0
                        if entry is not None:
                            j, m = j1 + j2, m1 + m2
                            for b3, k in entry:
                                key = (b3, j, m)
                                s = acc.get(key)
                                acc[key] = ((pa * k, pb * k) if s is None
                                            else (s[0] + pa * k, s[1] + pb * k))
                        if pairing is not None:
                            key = (j1, m1, j2, m2)
                            s = pairings.get(key)
                            pairings[key] = ((pa * pairing, pb * pairing) if s is None
                                             else (s[0] + pa * pairing, s[1] + pb * pairing))
        return acc, pairings

    # -- diagram automorphism --------------------------------------------

    def _build_sigma_table(self):
        """sigma as a signed permutation of the basis: h_i -> h_sigma(i) and
        e_a -> (-1)^q(a) e_sigma(a), where q(a) = sum of a_i a_j over the
        pairs i < j at which sigma changes eps(alpha_i, alpha_j)."""
        N = self.N
        perm = self.cartan.sigma
        eta = self._eta
        flips = [(i, j) for i in range(N) for j in range(i + 1, N)
                 if eta[i][j] != eta[perm[i + 1] - 1][perm[j + 1] - 1]]
        table = {i: (perm[i + 1] - 1, 1) for i in range(N)}
        for ri, a in enumerate(self.roots):
            q = sum(a[i] * a[j] for i, j in flips)
            table[N + ri] = (N + self.root_index[sigma_root(a, self.spec)], -1 if q % 2 else 1)
        # sanity: the permutation closes up with order r
        for b in range(self.dim):
            cur, sign = b, 1
            for _ in range(self.spec.r):
                cur, s = table[cur]
                sign *= s
            if cur != b or sign != 1:
                raise AssertionError("diagram automorphism failed to close with order r")
        return table

    def sigma(self, x: LieElem) -> LieElem:
        # a signed permutation of the basis: distinct keys never collide
        coords = {}
        for b, (a, w) in x.coords.items():
            b2, s = self._sigma[b]
            coords[b2] = (a, w) if s == 1 else (-a, -w)
        return LieElem._of(self, coords, x.den)

    def graded_dim(self, j: int) -> int:
        """Dimension of the w^j-eigenspace of sigma, counted from its cycles.

        A cycle of L basis vectors whose signs multiply to s spans one
        eigenvector for each L-th root of s, so it adds 1 exactly when
        w^(jL) = s.
        """
        r = self.spec.r
        seen = set()
        dim = 0
        for b in range(self.dim):
            if b in seen:
                continue
            cur, sign, length = b, 1, 0
            while cur not in seen:
                seen.add(cur)
                cur, s = self._sigma[cur]
                sign *= s
                length += 1
            if omega_pow(r, j * length) == sign:
                dim += 1
        return dim

    # -- distinguished elements -------------------------------------------

    def _build_theta_triple(self):
        theta = highest_root(self.spec)
        f0 = self.root_vector(theta)
        e0 = self.root_vector(tuple(-c for c in theta))
        h0 = self.bracket(e0, f0)
        if self.bracket(h0, e0) != e0 * 2 or self.bracket(h0, f0) != f0 * (-2):
            raise AssertionError("highest-root sl2 normalization failed")
        return (e0, f0, h0)

    def theta_triple(self):
        """(e0, f0, h0) attached to the highest root, [h0,e0] = 2 e0."""
        return self._theta


@lru_cache(maxsize=None)
def get_algebra(spec: AlgebraSpec) -> LieAlgebra:
    return LieAlgebra(spec)
