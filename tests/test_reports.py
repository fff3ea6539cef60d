"""Report pins: the bytes `torlie verify` and `torlie span` print.

The passing reports are compared with the benchmark's references in
bench/reference/, through the benchmark's own rendering; every other
default report of the seven acceptance algebras (verify, span, info and
dump-structure) and the failure reports are pinned by SHA-256.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from torlie import AlgebraSpec, cli, get_algebra, presentation
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


# SHA-256 of the text and JSON span reports the references leave out:
# D4 r=3 and A11 r=2 at word length 4 (which stay short; A11's vector
# count covers the hidden slices of the box too), A3 r=1, and each of
# the seven acceptance algebras at the CLI defaults
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
    (("A", 4, 2), (2, 1, 4)): (
        "6e8d4971f9567070d2c23f0eeb337d12cd70542c5ceef763e442ce87f1330bf3",
        "a0551f4d27af0d5ac6a002e1b9df97b47ca581c2dca6504aa7f06f5debf1c9ba",
    ),
    (("D", 3, 2), (2, 1, 4)): (
        "d6a7f758ba275418d729018940276e0cf62a5b051c3ade392057a7156036a571",
        "c89e2664842c5517ddf4ca3c8e124f61ea6272514aa3babacfc32dbae022dfb0",
    ),
    (("D", 2, 2), (2, 1, 4)): (
        "c91c8e8456836cdf399fb5c408c7ef21d48d8b0657720e4ca60d85803e58c6a9",
        "89afe98bde3e9b2371a7059796860c86c99f75cd3d208ed9d467881cffa355ed",
    ),
    (("D", 4, 3), (2, 1, 4)): (
        "41f13056d3f432b9e662f003cb99f4098afe087bede913575ef1920a3b8e68eb",
        "6b4ab20f7b73983fc5a254f2a5ec1a16f8d390edb78c20216243e70c9db9735d",
    ),
    (("A", 2, 1), (2, 1, 4)): (
        "b2002dedd13544c1e55aaaa42748b0c5cf4446f204d8e95758428767979df2ba",
        "f802c13b4273c4a9d4ce830d4048931dbc3a90cf9d3c3b4a5a2d8da984855163",
    ),
    (("D", 3, 1), (2, 1, 4)): (
        "54e90120c36e2edaafe34adce506d7e378046eb44fbd259663cab2f6a991c961",
        "b1fa43d3f53464535cddd93796c5157bcef75b8a858ecf99e3b1dbe2ef9c9ec9",
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


# SHA-256 of the text and JSON verify reports of the seven acceptance
# algebras at windows 1-4 (1-3 for D4 r=3), serre cap 2; then, per
# algebra, of what `torlie info` prints as text and as JSON and of what
# `torlie dump-structure` prints
VERIFY_DIGESTS = {
    (("A", 3, 2), 1): (
        "caba50983bbf745a2118e0e487eaa2453941ae787687397038a15d77bfe05c90",
        "e9c50fb5c1018208ff43d18744a5109d1157ec9bfdbb1a3493133c22dd6e5449",
    ),
    (("A", 3, 2), 2): (
        "87b2ffc4946eaa85df24f225daa274aefc2b5d0638ebee0a989975767b0e5e0a",
        "05d95c050e99983ffbda389a2c0faf777c2e18f608c679ce7957920d95ccc34a",
    ),
    (("A", 3, 2), 3): (
        "631bfe3ebc3dfd9f97f6e65abeba2e4ad605768d58da4dcfb87db208057368c4",
        "4d39ed6467141f9b7794757496b50606ade26182428b2f164566ac2e9d2e7d31",
    ),
    (("A", 3, 2), 4): (
        "fbacbd38f87ae932e81c1e534096acd3d9b64f11ff33d1dd50bbee8558863ba8",
        "b732e517c27f052cb4025e2123cb8edc3de16fdd53a59401dc6f5ab189af62fe",
    ),
    (("A", 4, 2), 1): (
        "4d8c2e2e986aa77bc3473f9d105dc5eed2d6899a2434840d6eb1ef0dd1b04008",
        "dfadf515c38249394758e0dd5ec137f750f5103d6010a938f71b33247dbf9dc2",
    ),
    (("A", 4, 2), 2): (
        "1fdba20e5cecf108c500885694e3ca1311825a2d93d89dfec7ffb8df49e067af",
        "73cb306864932eff766fe146924c34986ab3bbdbc04895e20cafdefbc4686992",
    ),
    (("A", 4, 2), 3): (
        "59eb5c8d9006c5263bc3b8adff4b7b66dbfdd5d9d91882a4db35df6a74965e02",
        "0bf16c70f0bc9437ab6374b6152a68bd384d8d6b70feb3b4372e02ed4d436778",
    ),
    (("A", 4, 2), 4): (
        "2644c43eb77c72a5df2b2bf3b7e73b0458f09aca4f6ea23733497e40600b8e10",
        "d1fb76d862d0bfe95047876ec18d3b96f1ac54585f7c1860b65369ca9de157b2",
    ),
    (("D", 3, 2), 1): (
        "6de56d0815acaf0339c3c0c70efc6001e96ccbfcb2a40c24b6b8e26f73f49646",
        "8d90504b5e664c8acc9f6e8263530d56cb25dad8ec63d45106ac522044bf5519",
    ),
    (("D", 3, 2), 2): (
        "fafaac9b609e33ebda2db9d0d0e53989a48480e01f62e9145ef1f0dd4d19b6d9",
        "f7a91370743cd89fef43f43054d3662f95bf80c6dd469e3becfb9fcbee43b1be",
    ),
    (("D", 3, 2), 3): (
        "ebf91fcb475dc56d8ff87c54da6ce5fc04937baa01dc2f2258d6e62224dffb37",
        "4d18d898779d6972af837243f24f4572e8550b835c696be9a5fb0de6250ca2cf",
    ),
    (("D", 3, 2), 4): (
        "24fa4028ca34d0692a6bb17ed41ecd5e551bb2c0bda132ab8f84fa9b917e8b67",
        "157af86e567afae077224d65b9441b70f93125173bcbab20dd19d477f1e51ee4",
    ),
    (("D", 2, 2), 1): (
        "e8cefeb4139e03c8a1b6e1922e165cf8b7e6f812aa8419531f49a362b7517f24",
        "22380a582f1038f6c5503bfa5bd73222c0d55939b436f96143a48be43251e945",
    ),
    (("D", 2, 2), 2): (
        "ff7499642c102f396eeb60b580c13d2cd9ec7daadbb4073ad748243e75eb873d",
        "5d222de189142875120ed7bf5b7317ff747e9f053d72ed1f7eada460af584b73",
    ),
    (("D", 2, 2), 3): (
        "9e396be21c45f6fedf19782729a857be1c819d528be7c29230f68c3b7e3b3f07",
        "c26d30936dd2cb32e56c3e5221b509691c7446315b3addfe60c83d7fa92dd0cd",
    ),
    (("D", 2, 2), 4): (
        "0abf2e542aa29377a69eac7addf451e08579707d13e44aec4b36aefa1d82c0e7",
        "40ded746e260c485b695994c19302c280f445f09a9ec8633767a78a8d01b7579",
    ),
    (("D", 4, 3), 1): (
        "c779febe45dcac787441e8f5a035376259aaecbeacdab4683dede00fc4386f7b",
        "7c8c8d6731208dea164f2cba95c71af2bb67a8ddb5a205b81c554c68b0b4d606",
    ),
    (("D", 4, 3), 2): (
        "e6fab3d482a476bec7abaa1a9f3aec7362285b9c8b1a648e4e2ddb566c3dbf6d",
        "f8622942e7b9ab422aa500fef87ced1402ba592a709e41e20636db51d391a71d",
    ),
    (("D", 4, 3), 3): (
        "3ea691df7b2779b7a929cfbc4324e327c99a75e5b4e289cbb32c7d163f949d9c",
        "4111e7d04554bb507fa455bdf27530a513cb8bf7df4d110cee34ebfd93cea620",
    ),
    (("A", 2, 1), 1): (
        "f1af556bc73c4e3eadf21649bc6d2a97733ddbdeba5c62a303915bca673ca35e",
        "2e2ff83a71638fb29869bbda2735754d123a6e167e27f3a86faf3c9e4b8a5d67",
    ),
    (("A", 2, 1), 2): (
        "a0e5c68d3a281d6f28df2347655ad2863ce6c1f501a99112ab97ca7cec937813",
        "ddfc1eeca0d7e36d8aeb3ce70a7060cb81a3b2803e6d546be06659b100a9eb68",
    ),
    (("A", 2, 1), 3): (
        "796fadc97bb0a867eab4c9148c1ced691b14bec5282e7ff32038fe83c264bcf0",
        "b5b1032935e700ce7537aed435a909d6a0900355018c2be1cf2c877e291b411f",
    ),
    (("A", 2, 1), 4): (
        "abbfaa856f5551ad40263abd9daf8884c4675a2ad70fe4560cd4b0a3446aabac",
        "b46296f4411f732fdca4994e2566eb1a57832f010ea4c145ab335e474832f2df",
    ),
    (("D", 3, 1), 1): (
        "01deb6109a26d44ec73398e857c9be70ef1dd20b49eefa21eb96b0749a11b599",
        "1f0e6f494f486eae5b989850fa72e32096193f4c1cb54a960dfdf227f5d8f066",
    ),
    (("D", 3, 1), 2): (
        "72ba2e301b7a23ccf5be414f5f564119b9cae2c34e6bba65c303b0ef9553458d",
        "30e5ee32808ec553022c2461a7a625750bd62bac09ea843dfbf848dc5c795a44",
    ),
    (("D", 3, 1), 3): (
        "2ed1a1ab0571cc516e8ec6560d36cfbf51ec70a88907dd70a9400c27df8069f0",
        "b12be95ba628ecaf8abb0c7c586986ec828dbd92f353da6203e3a07eaf3c8f60",
    ),
    (("D", 3, 1), 4): (
        "2b8c7c317b561fef23b74d9c2326698d554e60011db8c1a5e2cd9d36ef1c0a1a",
        "57ebd581c19d0053528df857d05c07fdf0af0b654b1f9f5ca012c26c81922373",
    ),
}
PRINTED_DIGESTS = {
    ("A", 3, 2): (
        "2ea0c9fc4ad163f4a237d9f2357dc83464541866d6e17ce65b2c8c456b9754cc",
        "93b5ace11e1c554154720814bba3646cae7017f20ad12a06afa8460a5fb0e1e1",
        "4b0076228f392b45e3a215ee6aaad02e80013f51a585d4b109ccdf3fdacc62b5",
    ),
    ("A", 4, 2): (
        "7ec797cc26661ee008fd9e52a17d625bc137c375df2eeefc9753f4f7c5c10493",
        "cf4c8680d7202c78e540726f87722c750ce9abf46897c4c9bb4fcf21e0a67257",
        "b2b37a72dd0308d191cc7ab10c01a713c066cdea607d960e910a8672cd785d4f",
    ),
    ("D", 3, 2): (
        "8f9da1dfb1f5aa02309855356cc26dbad2f008b1942aaa57ff20d18b3882db32",
        "d5b3231aaed0c18ed84c73c6b1427dbc77563f6896fe67d65513912e825a2892",
        "d05dce79b07b15886f7528a140ec83c5db0b3a96e659e5d0f2923c418d335d84",
    ),
    ("D", 2, 2): (
        "ff5c14a36afda6d239a53fc1333b5ca50feecfc92389bac2519d2eb15f405648",
        "635e3273c16bfcd0ddd724e1582e1b6d6d4ddc74df46ca16a354017778209217",
        "708807f4e6f1abafb5ec8e4511af489b1cd6c397144bdaf90b74fe5a5db85288",
    ),
    ("D", 4, 3): (
        "c1c4422edbb9f43522faa6d5b86c1eb947127a0dc6b491ff54ecde108ab92203",
        "83e7c5648c73032e98798ab7cdfcb39e566a6c9e3884cd966fce5fe80c81836e",
        "d05dce79b07b15886f7528a140ec83c5db0b3a96e659e5d0f2923c418d335d84",
    ),
    ("A", 2, 1): (
        "1808d1d8bbad95a3e9d255269100deb803dc3e290c37e0f55efe0bae007cf279",
        "18153d8cdb60478a48dc051e27db2317fb016aa857e8ce5c9206807d81ca9674",
        "a25fd708b616d013573ed25f8ef870cd53b2112b0bbc39c0047291a67f65a495",
    ),
    ("D", 3, 1): (
        "9bc542be8e58e816941ab48a72d0f15ccd1e598e35a052064907aae4ade3ad0c",
        "2d0158651325f83fa1b287911afa6d1f89cbc17d13eab4e46cda1c7b682fc499",
        "d05dce79b07b15886f7528a140ec83c5db0b3a96e659e5d0f2923c418d335d84",
    ),
}


def _spec_id(spec_key) -> str:
    return f"{AlgebraSpec(*spec_key).name} r={spec_key[2]}"


@pytest.mark.parametrize("key", VERIFY_DIGESTS,
                         ids=lambda key: f"{_spec_id(key[0])} w{key[1]}")
def test_verify_reports_are_pinned(key):
    spec_key, window = key
    # text and JSON are both rendered from this one run
    assert _digests(verify_all(AlgebraSpec(*spec_key), window, 2)) == VERIFY_DIGESTS[key]


@pytest.mark.parametrize("spec_key", PRINTED_DIGESTS, ids=_spec_id)
def test_info_and_structure_dump_are_pinned(spec_key, capsys):
    flags = ["--family", spec_key[0], "--n", str(spec_key[1]), "--r", str(spec_key[2])]
    digests = []
    for argv in (["info", *flags], ["info", *flags, "--format", "json"],
                 ["dump-structure", *flags]):
        assert cli.main(argv) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == PRINTED_DIGESTS[spec_key]


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
