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
is extended from the Chevalley generators by recursively decomposing
each root vector as a bracket word; the automorphism property is then
checked by the test suite rather than assumed.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import (
    AlgebraTerms,
    CycNum,
    coord_terms,
    exact,
    inverse_coords,
    omega_pow,
    omega_product,
)
from .rootdata import (
    AlgebraSpec,
    build_cartan,
    enumerate_roots,
    highest_root,
    orbit,
)


class LieElem(AlgebraTerms):
    """Sparse vector over the Chevalley basis of one algebra."""

    __slots__ = ()

    @classmethod
    def basis(cls, alg: "LieAlgebra", index: int, coeff=1) -> "LieElem":
        return cls(alg, {index: alg.scalar(coeff)})

    def __hash__(self):
        return hash((id(self.alg), frozenset(self.terms.items())))

    def _symbol(self, b: int) -> str:
        return self.alg.basis_name(b)


class EchelonBasis:
    """Incremental exact Gaussian elimination over Q(zeta_r).

    A row is (pivot key, a, b): its coordinates as two maps, key -> a and
    key -> b, scaled so that the pivot coefficient is 1.  Every key of
    the row is a key of `a`; `b` is empty when every b coordinate is 0,
    which it always is for r <= 2.  Reduction multiplies and adds these
    coordinates directly, and takes the w-product only where a b is
    nonzero.  `add` takes a map of CycNum and keeps no CycNum.
    """

    def __init__(self):
        self.rows = []
        self.order = None  # of the first vector's scalars; others are refused

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, vec: dict) -> bool:
        """Reduce `vec` against the basis; absorb it if independent."""
        order = self.order
        va, vb = {}, {}
        for k, c in vec.items():
            if c.order != order:
                if order is not None:
                    raise ValueError(f"cyclotomic order mismatch: {order} vs {c.order}")
                order = self.order = c.order
            va[k] = c.a
            if c.b:
                vb[k] = c.b
        for pivot, ra, rb in self.rows:
            ca = va.get(pivot, 0)
            cb = vb.get(pivot, 0) if vb else 0
            if cb or (ca and rb):
                for k, a in ra.items():
                    pa, pb = omega_product(ca, cb, a, rb.get(k, 0))
                    va[k] = va.get(k, 0) - pa
                    vb[k] = vb.get(k, 0) - pb
            elif ca:
                for k, a in ra.items():
                    va[k] = va.get(k, 0) - ca * a
        if vb:
            keys = [k for k, a in va.items() if a or vb.get(k)]
        else:
            keys = [k for k, a in va.items() if a]
        if not keys:
            return False
        pivot = min(keys)
        ia, ib = inverse_coords(va[pivot], vb.get(pivot, 0))
        ra, rb = {}, {}
        for k in keys:
            pa, pb = omega_product(va[k], vb.get(k, 0), ia, ib)
            ra[k] = exact(pa)
            if pb:
                rb[k] = exact(pb)
        self.rows.append((pivot, ra, rb))
        return True


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
        self._table = self._build_bracket_table()
        self._form = self._build_form_table()
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

    def _build_bracket_table(self):
        table = {}
        N = self.N
        for ri in range(len(self.roots)):
            for i in range(N):
                c = self._pairing[ri][i]
                if c:
                    table[(i, N + ri)] = ((N + ri, c),)
                    table[(N + ri, i)] = ((N + ri, -c),)
        for ri, a in enumerate(self.roots):
            for rj, b in enumerate(self.roots):
                if rj == self._neg[ri]:
                    entry = tuple((i, c) for i, c in enumerate(a) if c)
                    table[(N + ri, N + rj)] = entry
                    continue
                ab = tuple(x + y for x, y in zip(a, b))
                rk = self.root_index.get(ab)
                if rk is not None:
                    table[(N + ri, N + rj)] = ((N + rk, self._struct(a, b)),)
        return table

    def bracket(self, x: LieElem, y: LieElem) -> LieElem:
        if x.alg is not self or y.alg is not self:
            raise ValueError("elements belong to a different algebra")
        table = self._table
        ys = y.terms.items()
        acc_a, acc_b = {}, {}
        for b1, c1 in x.terms.items():
            a1, w1 = c1.a, c1.b
            for b2, c2 in ys:
                entry = table.get((b1, b2))
                if not entry:
                    continue
                a2, w2 = c2.a, c2.b
                if w1 or w2:
                    pa, pb = omega_product(a1, w1, a2, w2)
                    for b3, k in entry:
                        acc_a[b3] = acc_a.get(b3, 0) + pa * k
                        acc_b[b3] = acc_b.get(b3, 0) + pb * k
                else:
                    p = a1 * a2
                    for b3, k in entry:
                        acc_a[b3] = acc_a.get(b3, 0) + p * k
        return LieElem(self, coord_terms(self.spec.r, acc_a, acc_b))

    def _build_form_table(self):
        # (h_i|h_j) = A'_ij, (e_a|e_-a) = 1, every other pair 0 (absent)
        A = self.cartan.A_prime
        N = self.N
        table = {(i, j): A[i][j] for i in range(N) for j in range(N) if A[i][j]}
        for ri, rj in enumerate(self._neg):
            table[(N + ri, N + rj)] = 1
        return table

    def form(self, x: LieElem, y: LieElem) -> CycNum:
        if x.alg is not self or y.alg is not self:
            raise ValueError("elements belong to a different algebra")
        table = self._form
        total = self.zero_scalar
        for b1, c1 in x.terms.items():
            for b2, c2 in y.terms.items():
                pairing = table.get((b1, b2))
                if pairing is not None:
                    total = total + c1 * c2 * pairing
        return total

    # -- diagram automorphism --------------------------------------------

    def _build_sigma_table(self):
        N = self.N
        perm = self.cartan.sigma
        table = {}
        for i in range(1, N + 1):
            table[i - 1] = (perm[i] - 1, 1)
        if self.spec.r == 1:
            for ri in range(len(self.roots)):
                table[N + ri] = (N + ri, 1)
            return table

        unit = lambda i: tuple(1 if t == i else 0 for t in range(N))
        for i in range(N):
            for sgn in (1, -1):
                root = tuple(sgn * c for c in unit(i))
                img = tuple(sgn * c for c in unit(perm[i + 1] - 1))
                table[N + self.root_index[root]] = (N + self.root_index[img], 1)

        positives = sorted(
            (root for root in self.roots if self._positive(root)),
            key=lambda root: sum(root),
        )
        for root in positives:
            ht = sum(root)
            if ht == 1:
                continue
            imin = next(
                i
                for i in range(N)
                if root[i]
                and tuple(root[j] - (1 if j == i else 0) for j in range(N))
                in self.root_index
            )
            beta = tuple(root[j] - (1 if j == imin else 0) for j in range(N))
            for sgn in (1, -1):
                a = tuple(sgn * c for c in unit(imin))
                b = tuple(sgn * c for c in beta)
                target_root = tuple(sgn * c for c in root)
                c0 = self._struct(a, b)
                t1, s1 = table[N + self.root_index[a]]
                t2, s2 = table[N + self.root_index[b]]
                entry = self._table[(t1, t2)]
                if len(entry) != 1 or entry[0][0] < N:
                    raise AssertionError("automorphism word did not stay a root vector")
                t3, c3 = entry[0]
                table[N + self.root_index[target_root]] = (t3, s1 * s2 * c3 * c0)
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
        terms = {}
        for b, c in x.terms.items():
            b2, s = self._sigma[b]
            terms[b2] = c if s == 1 else -c
        return LieElem(self, terms)

    def grade_component(self, x: LieElem, j: int) -> LieElem:
        r = self.spec.r
        acc = self.zero()
        cur = x
        for k in range(r):
            acc = acc + cur * omega_pow(r, -j * k)
            cur = self.sigma(cur)
        return acc.divided(r)

    def graded_dim(self, j: int) -> int:
        """Dimension of the twist eigenspace, by projection rank."""
        basis = EchelonBasis()
        for b in range(self.dim):
            comp = self.grade_component(LieElem.basis(self, b), j)
            if comp:
                basis.add(comp.terms)
        return basis.rank

    # -- distinguished elements -------------------------------------------

    def folded_generators(self):
        """Chevalley triples (e_i, f_i, h_i) of the fixed-point subalgebra."""
        out = []
        for i in range(1, self.spec.pres_rank + 1):
            nodes = orbit(self.spec, i)
            e = self.zero()
            f = self.zero()
            h = self.zero()
            for u in nodes:
                e = e + self.e(u)
                f = f + self.f(u)
                h = h + self.h(u)
            out.append((e, f, h))
        return out

    def _build_theta_triple(self):
        theta = highest_root(self.spec)
        f0 = self.root_vector(theta)
        e0 = self.root_vector(tuple(-c for c in theta))
        h0 = self.bracket(e0, f0)
        if self.bracket(h0, e0) != e0 * 2 or self.bracket(h0, f0) != f0 * (-2):
            raise AssertionError("highest-root sl2 normalization failed")
        fixed = True
        if self.spec.r > 1:
            fixed = self.sigma(e0) == e0 and self.sigma(f0) == f0
        return (e0, f0, h0, fixed)

    def theta_triple(self):
        """(e0, f0, h0) attached to the highest root, [h0,e0] = 2 e0."""
        return self._theta[:3]

    @property
    def sigma_fixes_theta(self) -> bool:
        return self._theta[3]


@lru_cache(maxsize=None)
def get_algebra(spec: AlgebraSpec) -> LieAlgebra:
    return LieAlgebra(spec)
