"""Self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Runs every workload at its smallest size (window 1, one triple per
algebra) in both modes and checks that each named metric is printed
with its unit, that a seed reproduces its triples, that an altered
reference or a broken law is counted as a failed check, that the span
recorder restores every name it rebinds, that each pass starts with the
per-run caches empty, and that the benchmark refuses to run without the
package.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run

run.import_package()

from spans import SpanRecorder  # noqa: E402
from workloads import load_reference, make_workloads  # noqa: E402

SECONDS = 0.2
VERIFY_AND_SPAN = ("verify-sweep", "span-a5")


def torlie_namespace() -> dict:
    """(module, attribute) -> object for every torlie module attribute."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "torlie" or modname.startswith("torlie."):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = value
                if isinstance(value, type) and value.__module__ == modname:
                    for cattr, cvalue in vars(value).items():
                        out[(modname, f"{attr}.{cattr}")] = cvalue
    return out


class BenchmarkSelfTest(unittest.TestCase):

    def test_benchmark_json_matches_the_metric_tables(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(make_workloads(tiny=True)))

    def test_every_metric_is_reported_with_its_unit(self):
        for name in make_workloads(tiny=True):
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    out = run.run(name, seed=1, seconds=SECONDS, trace=trace, tiny=True)
                    result = out["result"]
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(out["failed_frac"], 0)
                    units = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(
                        {k: m["unit"] for k, m in result["metrics"].items()}, units)
                    for metric in result["metrics"].values():
                        self.assertTrue(math.isfinite(metric["value"]))
                    if not trace:
                        for key in run.END_TO_END:
                            self.assertGreater(result["metrics"][key]["value"], 0)

    def test_command_line_prints_table_then_json(self):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", "laws-frac",
             "--seed", "1", "--seconds", "0.1", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        table = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
        for name, unit in {**run.END_TO_END, "failed_frac": run.FAILED_FRAC_UNIT}.items():
            self.assertEqual(table.get(name), unit)

    def test_seed_fixes_the_triples(self):
        laws = make_workloads(tiny=True)["laws-frac"]
        self.assertEqual(laws.draw(7), laws.draw(7))
        self.assertNotEqual(laws.draw(7), laws.draw(8))

    def test_altered_reference_counts_as_failed(self):
        for name in VERIFY_AND_SPAN:
            with self.subTest(workload=name):
                altered = copy.deepcopy(load_reference(name))
                for entry in altered.values():
                    entry["json"] = entry["json"].replace('"passed": true', '"passed": false')
                    entry["json"] = entry["json"].replace('"complete": true', '"complete": false')
                out = run.run(name, seed=1, seconds=SECONDS, trace=False, tiny=True,
                              reference={name: altered})
                self.assertFalse(out["result"]["correct"])
                self.assertGreater(out["failed_frac"], 0)

    def test_broken_law_counts_as_failed(self):
        from torlie import kahler, toroidal

        original = toroidal.toroidal_bracket

        def shifted(x, y):
            out = original(x, y)
            bump = kahler.KahlerElem({kahler.C0: out.loop.alg.scalar(1)})
            return toroidal.ToroidalElem(out.loop, out.central + bump, twisted=out.twisted)

        with mock.patch.object(toroidal, "toroidal_bracket", shifted):
            out = run.run("laws-frac", seed=1, seconds=SECONDS, trace=False, tiny=True)
        self.assertFalse(out["result"]["correct"])
        self.assertGreater(out["failed_frac"], 0)

    def test_recorder_rebinds_every_alias_and_restores_it(self):
        from torlie import coeff, liealg, presentation, toroidal

        before = torlie_namespace()
        with SpanRecorder():
            for owner, attr in (
                (presentation, "toroidal_bracket"), (toroidal, "loop_bracket"),
                (toroidal, "sigma_bar"), (toroidal, "reduce_b_da"),
                (coeff, "omega_pow"), (liealg, "omega_pow"), (toroidal, "omega_pow"),
                (presentation, "omega_pow"), (liealg.LieAlgebra, "bracket"),
                (liealg.EchelonBasis, "add"), (toroidal.ToroidalElem, "validate_twisted"),
            ):
                self.assertTrue(hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr))
        after = torlie_namespace()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)

    def test_passes_start_with_per_run_caches_empty(self):
        from torlie import liealg, presentation, rootdata
        from workloads import A5

        presentation.verify_all(A5, 1, 2)
        self.assertGreater(presentation.serre_matrix.cache_info().currsize, 0)
        cleared = run.clear_run_caches()
        self.assertIn("torlie.presentation.serre_matrix", cleared)
        self.assertEqual(presentation.serre_matrix.cache_info().currsize, 0)
        for kept in (liealg.get_algebra, rootdata.build_cartan, rootdata.enumerate_roots):
            self.assertGreater(kept.cache_info().currsize, 0, kept)

    def test_refuses_to_run_without_the_package(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            root = Path(tmp)
            shutil.copytree(run.BENCH_DIR, root / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "verify-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=root, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
