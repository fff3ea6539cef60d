from torlie import AlgebraSpec

# the five twisted configurations exercised throughout
TWISTED_SPECS = [
    AlgebraSpec("A", 3, 2),   # A5 -> C3
    AlgebraSpec("A", 4, 2),   # A7 -> C4
    AlgebraSpec("D", 3, 2),   # D4 -> B3
    AlgebraSpec("D", 2, 2),   # D3 -> B2
    AlgebraSpec("D", 4, 3),   # D4 -> G2 (triality)
]

UNTWISTED_SPECS = [
    AlgebraSpec("A", 2, 1),   # A3
    AlgebraSpec("D", 3, 1),   # D4
]


def term_coords(terms) -> dict:
    """The coordinate map key -> (a, b) of a map key -> CycNum."""
    return {k: (c.a, c.b) for k, c in terms.items()}


def reference_table(alg) -> dict:
    """(b1, b2) -> ((b3, k), ...) with [b1, b2] = sum of k b3, rebuilt
    from the root data through `_struct` and `_pairing`, so that it
    shares no table with the bracket kernel: [h_i, e_a] = a(h_i) e_a,
    [e_a, e_-a] = h_a and [e_a, e_b] = N(a, b) e_(a+b)."""
    N, roots = alg.N, alg.roots
    table = {}
    for ri, a in enumerate(roots):
        for i in range(N):
            c = alg._pairing[ri][i]
            if c:
                table[(i, N + ri)] = ((N + ri, c),)
                table[(N + ri, i)] = ((N + ri, -c),)
        for rj, b in enumerate(roots):
            ab = tuple(x + y for x, y in zip(a, b))
            if not any(ab):
                table[(N + ri, N + rj)] = tuple((i, c) for i, c in enumerate(a) if c)
            elif ab in roots:
                table[(N + ri, N + rj)] = ((N + roots.index(ab), alg._struct(a, b)),)
    return table
