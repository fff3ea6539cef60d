"""The benchmark's span recorder (bench/spans.py) against this source.

The recorder reaches methods through their owner's class ``__dict__``,
so a traced method that moves into a base class breaks it; this test
catches that, and checks that `restore()` puts every name back.  The
benchmark's own self-test runs here too, so that a refactor which drops
a name the benchmark rebinds or calls fails the suite.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

from conftest import term_coords
from torlie import AlgebraSpec, get_algebra, presentation, toroidal
from torlie.liealg import EchelonBasis
from torlie.presentation import GenSym

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"
A5 = AlgebraSpec("A", 3, 2)


def load_bench_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench_module("bench_spans", SPANS)


def torlie_names() -> dict:
    """(module, attribute[, class attribute]) -> object, for all of torlie."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "torlie" or modname.startswith("torlie."):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = value
                if isinstance(value, type) and value.__module__ == modname:
                    for cattr, cvalue in vars(value).items():
                        out[(modname, attr, cattr)] = cvalue
    return out


def test_span_recorder_installs_and_restores():
    spans = load_spans()
    before = torlie_names()
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        alg = get_algebra(A5)
        alg.bracket(alg.e(1), alg.f(1))
        EchelonBasis().add(term_coords(alg.e(1).terms), 2)
        x = presentation.psi_image(GenSym("x+", 1, 1), A5)
        y = presentation.psi_image(GenSym("x-", 1, -1), A5)
        presentation.toroidal_bracket(x, y)
        # toroidal_bracket does not go through loop_bracket: call it here
        toroidal.loop_bracket(x, y)
        summary = recorder.summary()
    finally:
        recorder.restore()
    for name in ("liealg.bracket", "liealg.echelon_add", "toroidal.validate_twisted",
                 "toroidal.toroidal_bracket", "toroidal.loop_bracket",
                 "presentation.psi_image"):
        assert summary[name]["calls"] > 0, name
    after = torlie_names()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_benchmark_passes_start_without_serre_words(monkeypatch):
    # run.py imports its sibling spans.py by plain name
    monkeypatch.syspath_prepend(str(BENCH))
    run = load_bench_module("bench_run", BENCH / "run.py")
    presentation.verify_all(A5, 1, 2)
    assert presentation._inner_bracket.cache_info().currsize > 0
    assert "torlie.presentation._inner_bracket" in run.clear_run_caches()
    assert presentation._inner_bracket.cache_info().currsize == 0


def test_benchmark_selftest_passes():
    # the self-test keeps its files in a temporary directory under bench/out/
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
