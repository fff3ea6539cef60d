"""Cartan data for the supported simply laced algebras and their foldings.

Supported inputs are A_{2n-1} (twist order 1 or 2), D_{n+1} (twist order
1 or 2) and D_4 with the order-3 triality twist.  This module owns the
finite Cartan matrix, the diagram automorphism as an index permutation,
root-system enumeration and the highest root.  The folding data (the
folded Cartan matrix, its d-vector and the extended matrix with the
affine node 0) are all read off one pairing over sigma's orbits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

Root = tuple  # integer coordinate vector over the simple roots


class ConfigError(ValueError):
    """Unsupported (family, n, r) combination or malformed input."""


@dataclass(frozen=True)
class AlgebraSpec:
    """A supported simple Lie algebra together with a twist order.

    `family` is "A" or "D"; `n` is the rank parameter (A_{2n-1} or
    D_{n+1}); `r` is the twist order.  The triality case is D_4 with
    r = 3: it may be entered as n=3 (the D_{n+1} parameter) or n=4
    (the subscript of D_4), both normalize to n=3.
    """

    family: str
    n: int
    r: int

    def __post_init__(self):
        if self.family not in ("A", "D"):
            raise ConfigError(f"unknown family {self.family!r} (expected A or D)")
        if self.r not in (1, 2, 3):
            raise ConfigError(f"unsupported twist order r={self.r}")
        if self.family == "A":
            if self.r == 3:
                raise ConfigError("r=3 is only valid for D_4")
            if self.n < 2:
                raise ConfigError("A_{2n-1} needs n >= 2")
        else:
            if self.r == 3:
                if self.n not in (3, 4):
                    raise ConfigError("r=3 is only valid for D_4 (n=3 or n=4)")
                object.__setattr__(self, "n", 3)
            elif self.n < 2:
                raise ConfigError("D_{n+1} needs n >= 2")
        # hashed once, since every cached image lookup hashes the spec; the
        # family enters as an int, so the value is the same in every
        # process, whatever its str hash seed
        object.__setattr__(self, "_hash", hash((ord(self.family), self.n, self.r)))

    def __hash__(self):
        return self._hash

    @property
    def N(self) -> int:
        """Rank of the finite algebra."""
        return 2 * self.n - 1 if self.family == "A" else self.n + 1

    @property
    def pres_rank(self) -> int:
        """Number of non-affine generator indices I = {1..pres_rank}: one
        per sigma-orbit of the finite nodes, counted once in build_cartan."""
        return len(build_cartan(self).orbits)

    @property
    def name(self) -> str:
        return f"{self.family}{self.N}"

    @property
    def folded_name(self) -> str:
        if self.r == 1:
            return self.name
        if self.family == "A":
            return f"C{self.n}"
        if self.r == 3:
            return "G2"
        return f"B{self.n}"

    def to_json_dict(self) -> dict:
        """The algebra header of every JSON report."""
        return {"family": self.family, "n": self.n, "r": self.r, "N": self.N,
                "folded_type": self.folded_name}


@dataclass(frozen=True)
class CartanData:
    """All index-level data attached to a spec.

    Matrices are tuples of tuples of ints.  `sigma` is the diagram
    automorphism as a 1-based permutation tuple (entry 0 unused),
    `orbits` its orbits on the nodes 1..N, each led by its least node,
    `theta` the highest root and `positive_roots` the frozenset of the
    positive roots, grown once here.  `pairing` is the one computed folding
    matrix, S[p][m] = (w_m | c_p) for p, m = 0..pres_rank, with
    w_0 = c_0 = -theta, w_m = alpha_m and c_p the sum of alpha_u over
    the sigma-orbit of p.  `A_folded` is S without row and column 0,
    `A_ext` is S with column 0 replaced by row 0, and d_i = 1/|orbit(i)|.
    """

    A_prime: tuple
    sigma: tuple
    orbits: tuple
    pairing: tuple
    A_folded: tuple
    A_ext: tuple
    d: tuple
    theta: Root
    positive_roots: frozenset


def _edges(spec: AlgebraSpec):
    N, n = spec.N, spec.n
    if spec.family == "A":
        return [(i, i + 1) for i in range(1, N)]
    if spec.r == 3:
        return [(1, 2), (2, 3), (2, 4)]
    # D_{n+1}: chain 1..n-1, with node n-1 forking to n and n+1
    chain = [(i, i + 1) for i in range(1, n - 1)]
    return chain + [(n - 1, n), (n - 1, n + 1)] if n >= 2 else chain


def _sigma_perm(spec: AlgebraSpec) -> tuple:
    N, n = spec.N, spec.n
    perm = list(range(N + 1))
    if spec.r == 1:
        return tuple(perm)
    if spec.family == "A":
        for i in range(1, N + 1):
            perm[i] = N - i + 1
    elif spec.r == 3:
        perm[1], perm[2], perm[3], perm[4] = 3, 2, 4, 1
    else:
        perm[n], perm[n + 1] = n + 1, n
    return tuple(perm)


def _orbit(perm: tuple, node: int) -> tuple:
    out = [node]
    j = perm[node]
    while j != node:
        out.append(j)
        j = perm[j]
    return tuple(out)


def orbit(spec: AlgebraSpec, node: int) -> tuple:
    """The distinct sigma-orbit of a node, starting at the node itself."""
    return _orbit(build_cartan(spec).sigma, node)


@lru_cache(maxsize=None)
def build_cartan(spec: AlgebraSpec) -> CartanData:
    N = spec.N
    A = [[0] * N for _ in range(N)]
    for i in range(N):
        A[i][i] = 2
    for i, j in _edges(spec):
        A[i - 1][j - 1] = A[j - 1][i - 1] = -1
    A_prime = tuple(tuple(row) for row in A)
    sigma = _sigma_perm(spec)
    positive = _positive_roots(A_prime)
    theta = max(positive, key=sum)  # the one of greatest height

    # an orbit walked from node p is led by its least node exactly once
    orbits = tuple(nodes for nodes in (_orbit(sigma, p) for p in range(1, N + 1))
                   if nodes[0] == min(nodes))
    minus_theta = tuple(-c for c in theta)
    weights = [minus_theta] + [tuple(int(t == nodes[0]) for t in range(1, N + 1))
                               for nodes in orbits]
    coroots = [minus_theta] + [tuple(int(t in nodes) for t in range(1, N + 1))
                               for nodes in orbits]
    S = tuple(tuple(_form(A_prime, w, c) for w in weights) for c in coroots)
    A_folded = tuple(row[1:] for row in S[1:])
    A_ext = tuple((S[0][p],) + row[1:] for p, row in enumerate(S))
    d = tuple(Fraction(1, len(nodes)) for nodes in orbits)
    return CartanData(A_prime, sigma, orbits, S, A_folded, A_ext, d, theta, positive)


def _form(A, a, b):
    """sum_ij a_i A_ij b_j over the nonzero coordinates of a and b."""
    N = len(A)
    total = 0
    for i in range(N):
        if not a[i]:
            continue
        total += a[i] * sum(A[i][j] * b[j] for j in range(N) if b[j])
    return total


def root_form(a, b, spec: AlgebraSpec) -> Fraction:
    """Invariant bilinear form of two coordinate vectors, (alpha|alpha)=2."""
    return Fraction(_form(build_cartan(spec).A_prime, a, b))


def _positive_roots(A) -> frozenset:
    """The positive roots of the simply laced Cartan matrix A.

    They are grown by simple-root ladders: gamma + alpha_i is a root
    exactly when (gamma|alpha_i) = -1 in the simply laced case.
    """
    N = len(A)
    frontier = {tuple(int(t == i) for t in range(N)) for i in range(N)}
    pos = set(frontier)
    while frontier:
        frontier = {g[:i] + (g[i] + 1,) + g[i + 1:] for g in frontier for i in range(N)
                    if sum(A[i][j] * g[j] for j in range(N) if g[j]) == -1} - pos
        pos |= frontier
    return frozenset(pos)


@lru_cache(maxsize=None)
def enumerate_roots(spec: AlgebraSpec) -> tuple:
    """The full root set, closed under negation, every root of norm 2."""
    pos = build_cartan(spec).positive_roots
    return tuple(sorted(pos | {tuple(-c for c in g) for g in pos}))


def highest_root(spec: AlgebraSpec) -> Root:
    return build_cartan(spec).theta


def sigma_root(a: Root, spec: AlgebraSpec) -> Root:
    """Push a coordinate vector through the diagram automorphism."""
    perm = build_cartan(spec).sigma
    out = [0] * spec.N
    for i in range(spec.N):
        out[perm[i + 1] - 1] = a[i]
    return tuple(out)


def folded_simple_roots(spec: AlgebraSpec) -> list:
    """alpha_i = (1/r) sum over the sigma-images of the orbit representative,
    which gives each node of the orbit the weight 1/|orbit|."""
    return [tuple(Fraction(int(t in nodes), len(nodes)) for t in range(1, spec.N + 1))
            for nodes in build_cartan(spec).orbits]
