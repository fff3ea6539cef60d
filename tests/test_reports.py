"""Report pins: the bytes `torlie verify` and `torlie span` print.

The passing reports are compared with the benchmark's references in
bench/reference/, through the benchmark's own rendering; the failure
reports and the span reports no reference holds are pinned by SHA-256.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from torlie import AlgebraSpec, get_algebra, presentation
from torlie.coeff import CycNum
from torlie.kahler import Bt, C0, KahlerElem
from torlie.presentation import span_check, verify_all
from torlie.toroidal import LoopElem, ToroidalElem

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
SPAN_ARGS = ((1, 0, 3), (1, 1, 4))


@pytest.mark.parametrize("spec", workloads.SWEEP_SPECS, ids=workloads.spec_label)
def test_verify_report_matches_the_reference(spec):
    key = workloads.VerifyWorkload.key(spec, 1, 2)
    want = workloads.load_reference("verify-sweep")[key]
    assert workloads.rendered(verify_all(spec, 1, 2)) == want


@pytest.mark.parametrize("args", SPAN_ARGS, ids=str)
def test_span_report_matches_the_reference(args):
    reference = workloads.load_reference("span-a5")
    assert sorted(reference) == sorted(
        workloads.SpanWorkload.key(workloads.A5, *a) for a in SPAN_ARGS)
    want = reference[workloads.SpanWorkload.key(workloads.A5, *args)]
    assert workloads.rendered(span_check(workloads.A5, *args)) == want


# SHA-256 of the text and JSON span reports the references leave out: A5
# at the CLI defaults, D4 r=3 and A11 r=2 at word length 4 (which stay
# short; A11's vector count covers the hidden slices of the box too) and
# A3 r=1
SPAN_DIGESTS = {
    (("A", 3, 2), (2, 1, 4)): (
        "93088a0aa18ea27759b7f4920ac53e5f1ea78f4911f6c7a3c427cc1d7cce58b2",
        "82202d104d050b512c6a0e63889515f9e4a0c4ecbf08ee228d0cf916143c87d9",
    ),
    (("D", 4, 3), (1, 1, 3)): (
        "66e584645d7180ca4dd919623d7a8e781be9db6ebf94df67ae0e1aab47fd0be0",
        "c2c3aba84bff47e594198690d037ae46df35a8ae7c6951f40ca94d49de0a6686",
    ),
    (("A", 6, 2), (2, 1, 4)): (
        "cd8b03f8979a894862541c5f8a95a3e9cdbbbdb41b7348719e76422215e7065a",
        "c478c7da501363bf4c8018074b059ccfaf4ed392de32543a909f40444607a2b8",
    ),
    (("A", 2, 1), (1, 1, 3)): (
        "531a198d21edb158fb6299a9f23277e0366a89bb65ca76e21fcaeb8030c10a7d",
        "0c3886218a7ba0a866ae459c63f3dbde121dcf83830d9e8a293479e341484d88",
    ),
}


def _digests(report):
    rendered = workloads.rendered(report)
    return tuple(hashlib.sha256(rendered[form].encode()).hexdigest()
                 for form in ("text", "json"))


@pytest.mark.parametrize("key", SPAN_DIGESTS, ids=lambda key: "{} r={} {}".format(
    AlgebraSpec(*key[0]).name, key[0][2], key[1]))
def test_span_reports_are_pinned(key):
    spec_key, args = key
    assert _digests(span_check(AlgebraSpec(*spec_key), *args)) == SPAN_DIGESTS[key]


# families whose cases are made to fail, and the SHA-256 of the text and
# JSON reports at window 1 with the failures `_broken_sides` injects
BROKEN_FAMILIES = ("1", "6", "13", "U2")
FAILURE_DIGESTS = {
    ("A", 3, 2): (
        "7a7ae7e757b0195c07b2f776819f9582d308813e15235776de149cd62953fa61",
        "f8050716d01c394e7c2f824fe12392f549aaed3053c16eb5b105f57cc877271b",
    ),
    ("D", 4, 3): (
        "e837a34b0f0380cb457668338186823f6aefffd7cc9a08e189b3c85683662963",
        "7a052858966ef81bb686878823b6611e8f9de8f4dc19cb2c51b7a28fc53b59fe",
    ),
    ("A", 2, 1): (
        "b8d50336e10da2e5c2b2377c1dd2f26af66ebfc9a98a94d3b0f562041e702e93",
        "6af6057f79f91cb582bb9cbb340e88bcbd04e3057cd0c8503664c369bfd04508",
    ),
    ("D", 3, 1): (
        "eb62c4f68a1fc3b0873c441d09ac3209dfadb93f0805d9ecb173d411234beb59",
        "e20555daa3deca55b1c7db5a599bae6212e346bbc6b212d72cacb4047e2380a9",
    ),
}


def _broken_sides(original):
    """relation_sides with a loop-plus-central bump on BROKEN_FAMILIES.

    The bump changes sign with the parity of the degrees and the true
    right side is doubled, so differences of both signs appear, some
    pure bump and some mixed with the cataloged closed form.
    """
    def relation_sides(rel, spec):
        lhs, rhs = original(rel, spec)
        if rel.family not in BROKEN_FAMILIES:
            return lhs, rhs
        alg = get_algebra(spec)
        k = rel.degrees[0]
        bump = ToroidalElem(
            LoopElem(alg, {(0, k, 1): alg.scalar(CycNum(spec.r, 2, -1)),
                           (alg.N, -k, 0): alg.scalar(-1)}),
            KahlerElem({C0: alg.scalar(-3), Bt(spec.r * k): alg.scalar(2)}),
        )
        sign = -1 if sum(rel.degrees) % 2 else 1
        return lhs + bump * sign, rhs * 2
    return relation_sides


@pytest.mark.parametrize("key", sorted(FAILURE_DIGESTS),
                         ids=lambda key: f"{AlgebraSpec(*key).name} r={key[2]}")
def test_failure_reports_are_pinned(key, monkeypatch):
    spec = AlgebraSpec(*key)
    monkeypatch.setattr(presentation, "relation_sides",
                        _broken_sides(presentation.relation_sides))
    summary = verify_all(spec, 1, 2)
    diffs = [rep.diff_text for fr in summary.families for rep in fr.failures]
    assert {fr.family for fr in summary.families if fr.failures} == \
        {f for f in BROKEN_FAMILIES if f in presentation.families_for(spec)}
    assert any(d.startswith("-") for d in diffs)
    assert any(not d.startswith("-") for d in diffs)
    assert _digests(summary) == FAILURE_DIGESTS[key]
