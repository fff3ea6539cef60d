"""The benchmark's workloads: inputs, one timed pass, and its checks.

Every workload is single-process and single-threaded and runs as a
closed loop: the next pass starts when the previous one has returned.
A pass is one call (or one fixed batch of calls) into the package's
public functions; nothing here edits the package.

Verify and span passes are deterministic and ignore the seed.  Their
reports are compared byte for byte, in both the JSON and the text form
the command line prints, with the reports captured in ``reference/``.
The laws pass draws its elements from the seed and is checked against
the Lie algebra laws themselves.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from torlie import kahler, liealg, presentation, toroidal
from torlie.rootdata import AlgebraSpec

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

A5 = AlgebraSpec("A", 3, 2)
A7 = AlgebraSpec("A", 4, 2)
D4_B3 = AlgebraSpec("D", 3, 2)
D3 = AlgebraSpec("D", 2, 2)
A3_UNTWISTED = AlgebraSpec("A", 2, 1)
D4_UNTWISTED = AlgebraSpec("D", 3, 1)
D4_TRIALITY = AlgebraSpec("D", 4, 3)


def spec_label(spec: AlgebraSpec) -> str:
    return f"{spec.name} r={spec.r}"


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def rendered(report) -> dict:
    """The two report forms ``torlie verify`` / ``torlie span`` print."""
    return {
        "json": json.dumps(report.to_json_dict(), indent=2) + "\n",
        "text": report.render_text() + "\n",
    }


class Workload:
    """Base: subclasses fill in the inputs, a pass and its checks."""

    uses_seed = False
    specs: tuple = ()      # algebras whose set-up the workload pays
    scalar_order = 1       # cyclotomic order of the micro-timings
    fractional = False     # micro-time fractional rather than integer operands

    def prepare(self, seed: int):
        """Build the pass inputs; only the laws workload reads the seed."""

    def run_pass(self, k: int):
        raise NotImplementedError

    def check(self, output) -> tuple:
        """(checks attempted, checks failed) for the output of a pass."""
        raise NotImplementedError

    def cases(self, output) -> int:
        """Relation instances, slices or triples the pass delivered."""
        raise NotImplementedError


class VerifyWorkload(Workload):
    """``verify_all`` over a list of (spec, window, serre cap)."""

    def __init__(self, name, configs, reference):
        self.name = name
        self.configs = tuple(configs)
        self.specs = tuple(dict.fromkeys(spec for spec, _, _ in self.configs))
        self.scalar_order = max(spec.r for spec in self.specs)
        self.reference = reference

    @staticmethod
    def key(spec, window, serre_cap) -> str:
        return f"verify {spec_label(spec)} window={window} serre_cap={serre_cap}"

    def run_pass(self, k):
        return [presentation.verify_all(spec, window, serre_cap)
                for spec, window, serre_cap in self.configs]

    def check(self, output):
        failed = 0
        for (spec, window, cap), summary in zip(self.configs, output):
            want = self.reference.get(self.key(spec, window, cap))
            if not summary.passed or rendered(summary) != want:
                failed += 1
        return len(self.configs), failed

    def cases(self, output):
        return sum(summary.total_cases for summary in output)


class SpanWorkload(Workload):
    """``span_check`` of one algebra; the verdict must be FULL."""

    def __init__(self, name, spec, j_window, m_window, word_length, reference):
        self.name = name
        self.spec = spec
        self.specs = (spec,)
        self.scalar_order = spec.r
        self.args = (j_window, m_window, word_length)
        self.reference = reference

    @staticmethod
    def key(spec, j_window, m_window, word_length) -> str:
        return (f"span {spec_label(spec)} j_window={j_window} "
                f"m_window={m_window} word_length={word_length}")

    def run_pass(self, k):
        return presentation.span_check(self.spec, *self.args)

    def check(self, output):
        want = self.reference.get(self.key(self.spec, *self.args))
        ok = output.complete and rendered(output) == want
        return 1, 0 if ok else 1

    def cases(self, output):
        return len(output.slices)


def random_raw_element(alg, rng) -> tuple:
    """Loop terms and a central coefficient, drawn as in acceptance test 6b.

    The loop part is not yet projected onto the fixed points; the pass
    does that through ``fix_project``.
    """
    terms = {}
    for _ in range(4):
        key = (rng.randrange(alg.dim), rng.randint(-3, 3), rng.randint(-2, 2))
        c = alg.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        if c:
            terms[key] = terms.get(key, alg.zero_scalar) + c
    return {k: v for k, v in terms.items() if v}, rng.randint(-2, 2)


class LawsWorkload(Workload):
    """Antisymmetry and Jacobi of ``toroidal_bracket`` on seeded triples.

    The seed fixes a pool of batches; pass k checks batch k modulo the
    pool size, so every pass of a run sees inputs fixed by the seed.
    """

    uses_seed = True
    fractional = True

    def __init__(self, name, specs, triples_per_spec, batches):
        self.name = name
        self.specs = tuple(specs)
        self.scalar_order = max(spec.r for spec in self.specs)
        self.triples_per_spec = triples_per_spec
        self.batches = batches
        self.pool = []

    def draw(self, seed: int) -> list:
        """The pool of batches the seed gives: [[(spec, (x, y, z)), ...], ...]."""
        rngs = {spec: random.Random(f"laws-frac:{seed}:{spec_label(spec)}")
                for spec in self.specs}
        pool = []
        for _ in range(self.batches):
            batch = []
            for spec in self.specs:
                alg = liealg.get_algebra(spec)
                for _ in range(self.triples_per_spec):
                    triple = tuple(random_raw_element(alg, rngs[spec]) for _ in range(3))
                    batch.append((spec, triple))
            pool.append(batch)
        return pool

    def prepare(self, seed):
        self.pool = self.draw(seed)

    @staticmethod
    def _element(alg, raw):
        terms, c0 = raw
        loop = toroidal.fix_project(toroidal.LoopElem(alg, dict(terms)))
        central = kahler.KahlerElem({kahler.C0: alg.scalar(c0)} if c0 else {})
        return toroidal.ToroidalElem(loop, central, twisted=True)

    def run_pass(self, k):
        bracket = toroidal.toroidal_bracket
        results = []
        for spec, triple in self.pool[k % len(self.pool)]:
            alg = liealg.get_algebra(spec)
            x, y, z = (self._element(alg, raw) for raw in triple)
            antisymmetric = bracket(x, y) == -bracket(y, x)
            jacobi = (bracket(bracket(x, y), z)
                      + bracket(bracket(y, z), x)
                      + bracket(bracket(z, x), y))
            results.append((antisymmetric, jacobi.is_zero()))
        return results

    def check(self, output):
        failed = sum((not anti) + (not jac) for anti, jac in output)
        return 2 * len(output), failed

    def cases(self, output):
        return len(output)


# every acceptance configuration: both constant columns of the twisted
# catalog, the triality column, and the untwisted catalog
SWEEP_SPECS = (A5, A7, D4_B3, D3, D4_TRIALITY, A3_UNTWISTED, D4_UNTWISTED)


def make_workloads(tiny: bool = False, reference: dict | None = None) -> dict:
    """Name -> workload.  ``tiny`` shrinks every input for the self-test.

    ``reference`` maps a workload name to its reference reports; by
    default they are read from ``reference/``.
    """
    def ref(name):
        if reference is not None:
            return reference.get(name, {})
        return load_reference(name)

    if tiny:
        sweep = [(A5, 1, 2), (A3_UNTWISTED, 1, 2), (D4_TRIALITY, 1, 2)]
        span = (A5, 1, 0, 3)
        laws = dict(triples_per_spec=1, batches=2)
    else:
        sweep = [(spec, 1, 2) for spec in SWEEP_SPECS]
        span = (A5, 1, 1, 4)
        laws = dict(triples_per_spec=12, batches=64)
    workloads = [
        VerifyWorkload("verify-sweep", sweep, ref("verify-sweep")),
        SpanWorkload("span-a5", *span, ref("span-a5")),
        LawsWorkload("laws-frac", (A5, D4_TRIALITY), **laws),
    ]
    return {w.name: w for w in workloads}
