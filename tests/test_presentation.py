import hashlib
from itertools import product

import pytest

from conftest import TWISTED_SPECS, UNTWISTED_SPECS
from torlie import AlgebraSpec, get_algebra, presentation
from torlie.kahler import Bt, C0, KahlerElem
from torlie.presentation import (
    GenSym,
    RelationId,
    admissible,
    degree_modulus,
    enumerate_cases,
    evaluate_case,
    families_for,
    pibar_image,
    proof_cases,
    psi_image,
    relation_sides,
    serre_exceptions,
    serre_matrix,
    span_check,
    verify_all,
)
from torlie.toroidal import LoopElem, ToroidalElem, sigma_bar, toroidal_bracket

A5 = AlgebraSpec("A", 3, 2)
D4_G = AlgebraSpec("D", 4, 3)
D3 = AlgebraSpec("D", 2, 2)


def all_gens(spec, window):
    out = [GenSym("c")]
    for i in range(spec.pres_rank + 1):
        for k in range(-window, window + 1):
            for kind in ("a", "x+", "x-"):
                g = GenSym(kind, i, k)
                if admissible(spec, g):
                    out.append(g)
    return out


# ---------------------------------------------------------------------------
# admissibility and images
# ---------------------------------------------------------------------------

def test_degree_moduli():
    assert [degree_modulus(A5, i) for i in range(4)] == [2, 1, 1, 2]
    assert [degree_modulus(AlgebraSpec("D", 3, 2), i) for i in range(4)] == [2, 2, 2, 1]
    assert [degree_modulus(D4_G, i) for i in range(3)] == [3, 1, 3]
    assert [degree_modulus(AlgebraSpec("A", 2, 1), i) for i in range(4)] == [1, 1, 1, 1]


def test_inadmissible_degree_rejected():
    with pytest.raises(ValueError):
        psi_image(GenSym("a", 0, 1), A5)
    with pytest.raises(ValueError):
        psi_image(GenSym("x+", 2, 2), D4_G)


def test_psi_examples():
    alg = get_algebra(A5)
    c = psi_image(GenSym("c"), A5)
    assert c.loop.is_zero()
    assert c.central == KahlerElem({C0: alg.scalar(1)})

    x = psi_image(GenSym("x+", 1, 1), A5)
    assert x.central.is_zero()
    assert x.loop == LoopElem.from_lie(alg.e(1) - alg.e(5), 1, 0)

    a0 = psi_image(GenSym("a", 0, 2), A5)
    _, _, h0 = alg.theta_triple()
    assert a0.loop == LoopElem.from_lie(h0, 2, 0)
    assert a0.central == KahlerElem({Bt(2): alg.scalar(1)})

    # orbit-fixed index picks up the factor r
    an = psi_image(GenSym("a", 3, 2), A5)
    assert an.loop == LoopElem.from_lie(alg.h(3) * 2, 2, 0)


def test_psi_triality_weights():
    from torlie.coeff import omega_pow

    alg = get_algebra(D4_G)
    x = psi_image(GenSym("a", 1, 1), D4_G)
    expected = (
        alg.h(1)
        + alg.h(3) * omega_pow(3, -1)
        + alg.h(4) * omega_pow(3, -2)
    )
    assert x.loop == LoopElem.from_lie(expected, 1, 0)


def test_pibar_examples():
    alg = get_algebra(A5)
    assert pibar_image(GenSym("c"), A5).is_zero()
    _, _, h0 = alg.theta_triple()
    assert pibar_image(GenSym("a", 0, 2), A5) == LoopElem.from_lie(h0, 2, 0)
    e0, f0, _ = alg.theta_triple()
    assert pibar_image(GenSym("x-", 0, 0), A5) == LoopElem.from_lie(-f0, 0, -1)


@pytest.mark.parametrize("spec", TWISTED_SPECS)
def test_images_are_fixed_and_match_pibar(spec):
    for gen in all_gens(spec, 2 * spec.r):
        img = psi_image(gen, spec)
        assert sigma_bar(img.loop) == img.loop
        assert pibar_image(gen, spec) == img.loop
        # the two maps differ only by central classes, nonzero only on
        # the central generator and the affine current
        if gen.kind not in ("c",) and not (gen.kind == "a" and gen.i == 0):
            assert img.central.is_zero()


# ---------------------------------------------------------------------------
# relation sides, pinned cases
# ---------------------------------------------------------------------------

def test_family2_example():
    # bracket of the affine current with a twisted current
    lhs, rhs = relation_sides(RelationId("2", (1,), "", (2, -2)), A5)
    alg = get_algebra(A5)
    expected = ToroidalElem(LoopElem.zero(alg), KahlerElem({C0: alg.scalar(-4)}))
    assert lhs == rhs == expected


def test_family5_example():
    lhs, rhs = relation_sides(RelationId("5", (3, 3), "", (2, -2)), A5)
    alg = get_algebra(A5)
    assert rhs.central == KahlerElem({C0: alg.scalar(16)})
    assert lhs == rhs


def test_family12_zero():
    for k, l in [(0, 0), (1, -1), (2, 2)]:
        lhs, rhs = relation_sides(RelationId("12", (1,), "+", (k, l)), A5)
        assert lhs.is_zero() and rhs.is_zero()


def test_family13_affine_case():
    alg = get_algebra(A5)
    for k in (-2, 0, 2):
        lhs, rhs = relation_sides(RelationId("13", (0, 0), "", (k, -k)), A5)
        expected = -(psi_image(GenSym("a", 0, 0), A5))
        if k:
            expected = expected + ToroidalElem(
                LoopElem.zero(alg), KahlerElem({C0: alg.scalar(-k)})
            )
        assert lhs == rhs == expected


def test_family15_example_zero():
    lhs, rhs = relation_sides(RelationId("15", (0, 1), "+", (0, 2, -2)), A5)
    assert lhs.is_zero() and rhs.is_zero()


def test_serre_matrix_and_exceptions():
    # the orbit-summed pairing departs from the extended matrix exactly at
    # the pairs whose affine node meets a twisted orbit
    assert serre_exceptions(A5) == [{"p": 1, "m": 0, "extended": -1, "used": -2}]
    assert serre_exceptions(D3) == [{"p": 2, "m": 0, "extended": -1, "used": -2}]
    assert serre_exceptions(D4_G) == []
    assert serre_exceptions(AlgebraSpec("D", 3, 2)) == []
    assert serre_exceptions(AlgebraSpec("A", 2, 1)) == []
    s = serre_matrix(D4_G)
    assert s[1][2] == -3 and s[2][1] == -1


def test_depth_two_fails_at_twisted_affine_pair():
    # the depth the extended matrix suggests really is too shallow: the
    # depth-2 word at equal parity degrees survives, the depth-3 word dies
    x10 = psi_image(GenSym("x+", 0, 0), A5)
    x11 = psi_image(GenSym("x+", 1, 1), A5)
    inner = toroidal_bracket(x11, toroidal_bracket(x11, x10))
    assert not inner.is_zero()
    assert toroidal_bracket(x11, inner).is_zero()
    # mixed parity does vanish at depth 2
    x12 = psi_image(GenSym("x+", 1, 2), A5)
    assert toroidal_bracket(x12, toroidal_bracket(x11, x10)).is_zero()


@pytest.mark.parametrize("spec", TWISTED_SPECS + UNTWISTED_SPECS)
def test_serre_depth_is_sharp(spec):
    # one bracket fewer than families 14-17 and U6 use leaves a nonzero word
    # at some window-2 degree tuple for every ordered pair and sign, so the
    # passing Serre families pin S exactly
    s = serre_matrix(spec)
    n = spec.pres_rank

    def degs(i):
        return [k for k in range(-2, 3) if k % degree_modulus(spec, i) == 0]

    def word(sign, i, j, degrees):
        inner = psi_image(GenSym("x" + sign, j, degrees[0]), spec)
        for k in degrees[1:]:
            inner = toroidal_bracket(psi_image(GenSym("x" + sign, i, k), spec), inner)
        return inner

    for i, j, sign in product(range(n + 1), range(n + 1), "+-"):
        if i != j:
            tuples = product(degs(j), *[degs(i)] * -s[i][j])
            assert any(not word(sign, i, j, t).is_zero() for t in tuples), (i, j, sign)
    # at the exceptions the extended matrix asks for exactly that depth
    for exc in serre_exceptions(spec):
        assert 1 - exc["extended"] == -exc["used"]


def test_verify_family_counts():
    reports = [evaluate_case(A5, rel) for rel in enumerate_cases(A5, "1", 4)]
    assert len(reports) == 25  # five admissible degrees squared
    assert all(rep.passed for rep in reports)


def test_untwisted_matrices_align():
    # at r = 1 the extended matrix, the pairing matrix driving the
    # current relations, and the nilpotency-depth matrix all coincide
    from torlie.rootdata import build_cartan

    for spec in UNTWISTED_SPECS:
        assert serre_matrix(spec) == build_cartan(spec).A_ext


def test_untwisted_family_examples():
    spec = AlgebraSpec("A", 2, 1)
    alg = get_algebra(spec)
    lhs, rhs = relation_sides(RelationId("U2", (1, 1), "", (3, -3)), spec)
    assert lhs == rhs == ToroidalElem(
        LoopElem.zero(alg), KahlerElem({C0: alg.scalar(6)})
    )
    lhs, rhs = relation_sides(RelationId("U4", (2, 2), "", (1, -1)), spec)
    assert lhs == rhs
    assert not lhs.is_zero()


def test_case_enumeration_is_deterministic():
    a = enumerate_cases(A5, "13", 2, 2)
    b = enumerate_cases(A5, "13", 2, 2)
    assert a == b
    assert len(set(a)) == len(a)


def case_id_order(rel):
    """Sort key of the case-id order: family number (U after the twisted
    families, P after U), then indices, sign and degrees."""
    base = {"U": 100, "P": 200}.get(rel.family[0], 0) + int(rel.family.lstrip("UP"))
    return (base, rel.indices, rel.sign, rel.degrees)


# SHA-256 of the rendered case ids of every family at window 3, serre cap
# 2, each family sorted by case id; pins the case catalog itself, which
# passing reports only count
CASE_CATALOG_DIGESTS = {
    ("A", 3, 2): "669533f41594d96530bd7f1c88c46fd6b6771b12ed4a302080845ad15215daba",
    ("A", 4, 2): "49df53f1a1c751417df485e1c23c3b7c65a5a56cfb8a9fc23ca6dfbaff769eb8",
    ("D", 3, 2): "2fcba031b14d0943e54607f28f5ee093c5f8a232af8b7710c4084ee8127df183",
    ("D", 2, 2): "a1207fd522d4d7f31451372fb0b80909ce40c516c39c2af27740150a2345d1b6",
    ("D", 4, 3): "0c0cbae83df123a37f2589717b2238939f82004ee11b9983107e8f7cc6c46274",
    ("A", 2, 1): "17813ad2c307596500b33013eeb3edbd62fed4bf8cd0f496b3770fa453f13ef4",
    ("D", 3, 1): "4c082a2f9d02d476ba7813f33c41b6426ee9b7d51b656888fdba0539eafbe3ce",
}


@pytest.mark.parametrize("key", sorted(CASE_CATALOG_DIGESTS))
def test_case_catalog_is_pinned(key):
    spec = AlgebraSpec(*key)
    lines = [
        rel.render()
        for family in families_for(spec)
        for rel in sorted(enumerate_cases(spec, family, 3, 2), key=case_id_order)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CASE_CATALOG_DIGESTS[key]


@pytest.mark.parametrize("spec", TWISTED_SPECS + UNTWISTED_SPECS,
                         ids=lambda spec: f"{spec.name} r={spec.r}")
def test_cases_are_enumerated_in_case_id_order(spec):
    # verify_all reports each family's cases in the order listed here
    for family, window, cap in product(families_for(spec), range(1, 5), range(1, 4)):
        cases = enumerate_cases(spec, family, window, cap)
        assert cases == sorted(cases, key=case_id_order)


def test_unknown_or_foreign_family_rejected():
    for spec, family in ((A5, "18"), (A5, "U1"), (AlgebraSpec("A", 2, 1), "1")):
        with pytest.raises(ValueError):
            enumerate_cases(spec, family, 1)
        with pytest.raises(ValueError):
            relation_sides(RelationId(family, (1, 1), "", (0, 0)), spec)


# ---------------------------------------------------------------------------
# verify_all and named cases
# ---------------------------------------------------------------------------

def test_verify_all_small_window():
    summary = verify_all(A5, 2, 2)
    assert summary.passed
    assert summary.total_cases > 0
    data = summary.to_json_dict()
    assert data["passed"] is True
    assert data["algebra"]["folded_type"] == "C3"
    assert {f["id"] for f in data["families"]} >= {str(i) for i in range(1, 18)}


def _same_reports(a, b):
    assert a.to_json_dict() == b.to_json_dict()
    assert a.render_text() == b.render_text()


def test_verify_all_parallel_matches_serial():
    # at window 2, pool chunks of 64 cases cut the runs of 5 and 25
    # Serre cases that share a prefix; each worker fills its own word cache
    serial = verify_all(D4_G, 2, 2, include_proof=False)
    presentation._serre_prefix.cache_clear()
    parallel = verify_all(D4_G, 2, 2, include_proof=False, jobs=2)
    assert serial.passed and parallel.passed
    _same_reports(serial, parallel)


def test_verify_all_parallel_matches_serial_failures(monkeypatch):
    # forked workers inherit the patched module global
    true_sides = presentation.relation_sides

    def broken(rel, spec):
        lhs, rhs = true_sides(rel, spec)
        if rel.family in ("2", "13"):
            return lhs, rhs + presentation._central_c(spec, rel.degrees[0] + 1)
        return lhs, rhs

    monkeypatch.setattr(presentation, "relation_sides", broken)
    serial = verify_all(A5, 1, 1, include_proof=False)
    parallel = verify_all(A5, 1, 1, include_proof=False, jobs=2)
    assert not serial.passed
    failures = [rep for fr in serial.families for rep in fr.failures]
    assert {rep.rel.family for rep in failures} == {"2", "13"}
    assert len({rep.diff_text for rep in failures}) > 1
    _same_reports(serial, parallel)


def test_psi_image_is_cached_and_shared():
    for spec in (A5, D4_G):
        for g in all_gens(spec, 1):
            img = psi_image(g, spec)
            assert psi_image(g, spec) is img
            fresh = psi_image.__wrapped__(g, spec)
            assert fresh is not img
            # arithmetic on the shared image must leave it as it was built
            img * 2, -img, img + img, img - img, toroidal_bracket(img, img)
            assert img == fresh
            assert img.render() == fresh.render()


@pytest.mark.parametrize("spec", [A5, D4_G])
def test_reports_do_not_depend_on_the_image_cache(spec, monkeypatch):
    psi_image.cache_clear()
    presentation._serre_prefix.cache_clear()
    cold = verify_all(spec, 2, 2)
    assert psi_image.cache_info().currsize > 0
    warm = verify_all(spec, 2, 2)
    assert psi_image.cache_info().hits > 0
    _same_reports(cold, warm)
    monkeypatch.setattr(presentation, "psi_image", psi_image.__wrapped__)
    presentation._serre_prefix.cache_clear()
    _same_reports(cold, verify_all(spec, 2, 2))
    for g in all_gens(spec, 2)[::3]:
        assert psi_image(g, spec) == psi_image.__wrapped__(g, spec)


# ---------------------------------------------------------------------------
# Serre words on shared prefixes
# ---------------------------------------------------------------------------

def _serre_cases(spec, window, serre_cap):
    return [rel for family in families_for(spec)
            if presentation.CATALOG[family].shape == "serre"
            for rel in enumerate_cases(spec, family, window, serre_cap)]


def _nested_words(spec, rel) -> list:
    """The words of degrees[:1], degrees[:2], ..., bracketed from the
    inside out as the relation reads, nothing shared."""
    i, j = rel.indices
    x = lambda index, k: psi_image(GenSym("x" + rel.sign, index, k), spec)
    words = [x(j, rel.degrees[0])]
    for k in rel.degrees[1:]:
        words.append(toroidal_bracket(x(i, k), words[-1]))
    return words


@pytest.mark.parametrize("spec, window, serre_cap",
                         [(spec, 1, 2) for spec in TWISTED_SPECS + UNTWISTED_SPECS]
                         + [(D4_G, 3, 3)],
                         ids=lambda v: f"{v.name} r={v.r}" if hasattr(v, "r") else str(v))
def test_serre_words_match_nested_brackets(spec, window, serre_cap):
    presentation._serre_prefix.cache_clear()
    cases = _serre_cases(spec, window, serre_cap)
    nonzero_prefixes = 0
    for rel in cases:
        want = _nested_words(spec, rel)
        lhs, rhs = relation_sides(rel, spec)
        assert lhs == want[-1] and rhs.is_zero()
        # the prefixes the case was built on, as the cache now holds them
        for length, word in enumerate(want[:-1], 1):
            got = presentation._serre_prefix(spec, rel.sign, *rel.indices,
                                             rel.degrees[:length])
            assert got == word
            nonzero_prefixes += bool(word)
    assert cases and nonzero_prefixes > len(cases) // 2
    if serre_cap == 3:
        assert max(len(rel.degrees) for rel in cases) == 5


def test_serre_words_bracket_each_shared_prefix_once(monkeypatch):
    calls = []
    bracket = presentation.toroidal_bracket

    def counted(x, y):
        calls.append(1)
        return bracket(x, y)

    monkeypatch.setattr(presentation, "toroidal_bracket", counted)
    presentation._serre_prefix.cache_clear()
    cases = _serre_cases(D4_G, 3, 3)
    for rel in cases:
        relation_sides(rel, D4_G)
    words = {(rel.sign, rel.indices, rel.degrees[:length])
             for rel in cases for length in range(2, len(rel.degrees) + 1)}
    assert len(calls) == len(words) < sum(len(rel.degrees) - 1 for rel in cases)


def test_serre_prefix_cache_is_bounded_and_clearable():
    cache = presentation._serre_prefix
    assert cache.cache_info().maxsize == presentation.SERRE_PREFIXES_KEPT <= 64
    cache.cache_clear()
    verify_all(D4_G, 2, 2)
    info = cache.cache_info()
    assert info.hits > 0 and 0 < info.currsize <= info.maxsize
    cache.cache_clear()
    assert cache.cache_info().currsize == 0


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("cpus, jobs, want", [
    (4, 100_000, 4),          # capped by the cores
    (None, 100_000, None),    # unknown core count: serial
    (100_000, 100_000, "cases"),  # capped by the number of cases
    (8, 1, None),             # serial on request
])
def test_verify_all_caps_the_pool(monkeypatch, cpus, jobs, want):
    import concurrent.futures
    import os

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    summary = verify_all(D3, 1, 1, include_proof=False, jobs=jobs)
    if want == "cases":
        want = summary.total_cases
    assert _RecordingPool.sizes == ([] if want is None else [want])
    _same_reports(summary, verify_all(D3, 1, 1, include_proof=False))


def test_proof_cases_pass():
    for spec in TWISTED_SPECS:
        reports = proof_cases(spec, 3)
        assert reports and all(rep.passed for rep in reports)
        fam = {rep.rel.family for rep in reports}
        assert fam == ({"P2"} if spec.r == 3 else {"P1"})


def test_central_terms_commute_with_images():
    # sampled kernel-in-center check: everything the cocycle produces is
    # killed by further brackets
    x = psi_image(GenSym("a", 0, 2), A5)
    y = psi_image(GenSym("a", 0, -2), A5)
    w = toroidal_bracket(x, y)
    alg = get_algebra(A5)
    central_only = ToroidalElem(LoopElem.zero(alg), w.central)
    for gen in all_gens(A5, 2)[:12]:
        assert toroidal_bracket(psi_image(gen, A5), central_only).is_zero()


# ---------------------------------------------------------------------------
# span check
# ---------------------------------------------------------------------------

def test_span_check_fills_loop_slices():
    report = span_check(A5, j_window=1, m_window=0, word_length=4)
    assert report.slices[(0, 0)] == (21, 21)
    assert report.slices[(1, 0)] == (14, 14)
    assert report.slices[(-1, 0)] == (14, 14)
    assert report.complete


def test_span_slices_target_graded_dims():
    alg = get_algebra(A5)
    report = span_check(A5, j_window=2, m_window=0, word_length=3)
    for (j, m), (got, full) in report.slices.items():
        assert full == alg.graded_dim(j % 2)
        assert got <= full


def test_span_check_brackets_each_pair_once(monkeypatch):
    alg = get_algebra(A5)  # built before recording: its set-up brackets too
    bracket = type(alg).bracket
    pairs = []

    def recording(self, x, y):
        pairs.append((id(x), id(y)))
        return bracket(self, x, y)

    monkeypatch.setattr(type(alg), "bracket", recording)
    report = span_check(A5, 1, 1, 4)
    assert report.complete and report.vectors == 449
    assert all(x != y for x, y in pairs)
    assert len({frozenset(pair) for pair in pairs}) == len(pairs)
    # 13,863 before the pair rule: 117 of [v, v] and 3,711 repeated pairs
    assert len(pairs) == 10035


def test_span_check_rejects_negative_windows():
    from torlie import ConfigError

    for kwargs in ({"j_window": -1}, {"m_window": -1}, {"word_length": -3}):
        with pytest.raises(ConfigError):
            span_check(A5, **kwargs)
    # zero stays valid: the degree-0 slice alone, from the generators only
    report = span_check(A5, j_window=0, m_window=0, word_length=0)
    assert list(report.slices) == [(0, 0)]
    assert report.word_length == 0 and report.generators > 0


def test_verify_all_rejects_nonpositive_parameters():
    from torlie import ConfigError

    for kwargs in ({"window": 0}, {"serre_cap": 0}, {"jobs": 0}):
        with pytest.raises(ConfigError):
            verify_all(A5, **{"window": 1, **kwargs})
