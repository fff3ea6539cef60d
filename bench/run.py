"""torlie benchmark: one workload, timed passes, checked outputs.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the package from
``src/``.  ``--trace 0`` prints the end-to-end metrics of untraced
passes, ``--trace 1`` the per-layer metrics of a run whose first third
is untraced and the rest traced through ``spans.SpanRecorder``.  Each
pass starts with torlie's per-run caches emptied (``clear_run_caches``),
and set-up is timed in fresh interpreters spread over the run.  Every
metric is printed as a table line with its unit, then the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status 0 on a completed run (check ``correct``), 2 when the
package or the arguments are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from spans import SpanRecorder, TARGETS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# set-up probes per run, spread over its seconds; each takes about 0.2 s
SETUP_SAMPLES = 20
# lru caches (by function name, so re-imports count too) that hold what
# set-up builds once per algebra; they are timed by setup_s, so
# clear_run_caches keeps them
SETUP_CACHES = {"get_algebra", "build_cartan", "enumerate_roots"}
UNTRACED_SHARE = 1 / 3  # of a traced run's seconds, for the overhead ratio

END_TO_END = {
    "wall_s": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# printed with the end-to-end table; it is 0 on a correct run, so the
# gate reads it from "attempted"/"failed" rather than as a bounded metric
FAILED_FRAC_UNIT = "ratio"

SPAN_TARGETS = tuple(name for name, _, _ in TARGETS)
PER_LAYER = {
    **{f"{name}.{field}": unit
       for name in SPAN_TARGETS
       for field, unit in (("calls", "count"), ("self_s", "s"))},
    "presentation.psi_image.distinct_ratio": "ratio",
    "presentation.case_p50_ms": "ms",
    "presentation.case_p99_ms": "ms",
    "liealg.echelon_add.accept_ratio": "ratio",
    "coeff.mul_us": "us",
    "coeff.add_us": "us",
    "rootdata.build_cartan_s": "s",
    "liealg.get_algebra_s": "s",
    "cli.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.covered_frac": "ratio",
}


class UsageError(Exception):
    pass


def import_package():
    """Import torlie from this checkout's src/, never from elsewhere."""
    if not (SRC / "torlie" / "__init__.py").is_file():
        raise UsageError(f"no torlie package under {SRC}")
    sys.path.insert(0, str(SRC))
    import torlie

    if Path(torlie.__file__).resolve().parent != (SRC / "torlie").resolve():
        raise UsageError(f"imported torlie from {torlie.__file__}, not {SRC}")
    return torlie


# ---------------------------------------------------------------------------
# set-up, timed in fresh interpreters
# ---------------------------------------------------------------------------

def probe_setup(specs) -> dict:
    """One fresh interpreter's set-up split, with its sum as setup_s."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"),
         *(f"{s.family},{s.n},{s.r}" for s in specs)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(sample.pop("torlie_file")).resolve().parent != (SRC / "torlie").resolve():
        raise RuntimeError("setup probe imported torlie from outside src/")
    sample["setup_s"] = sum(sample.values())
    return sample


def median_setup(samples) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---------------------------------------------------------------------------
# scalar micro-timings (CycNum operators are too cheap to wrap)
# ---------------------------------------------------------------------------

def scalar_microtimings(order: int, fractional: bool, repeats: int = 5) -> dict:
    from torlie.coeff import CycNum

    rng = random.Random(20160517)

    def coordinate():
        if fractional:
            return Fraction(rng.randint(-50, 50), rng.randint(1, 12))
        return rng.randint(-50, 50)

    def operand():
        return CycNum(order, coordinate(), coordinate() if order == 3 else 0)

    pairs = [(operand(), operand()) for _ in range(256)] * 8
    clock = time.perf_counter

    def per_op(op) -> float:
        runs = []
        for _ in range(repeats):
            t0 = clock()
            for a, b in pairs:
                op(a, b)
            runs.append((clock() - t0) / len(pairs))
        return statistics.median(runs) * 1e6

    return {
        "coeff.mul_us": per_op(lambda a, b: a * b),
        "coeff.add_us": per_op(lambda a, b: a + b),
    }


# ---------------------------------------------------------------------------
# the closed loop of passes
# ---------------------------------------------------------------------------

def clear_run_caches() -> list:
    """Empty every functools cache in torlie but the SETUP_CACHES.

    Called before each pass, so that a pass pays the cache misses a
    fresh ``torlie verify`` pays instead of reusing what an earlier pass
    filled.  Only caches with ``cache_clear`` are reached: a new cache
    must be an ``lru_cache``/``cache`` (or be listed as set-up here) for
    the benchmark to stay honest.  Returns the qualified names cleared.
    """
    cleared = []
    for modname, mod in list(sys.modules.items()):
        if modname != "torlie" and not modname.startswith("torlie."):
            continue
        owners = [mod, *(v for v in vars(mod).values()
                         if isinstance(v, type) and v.__module__ == modname)]
        for owner in owners:
            for attr, value in vars(owner).items():
                if (hasattr(value, "cache_clear")
                        and value.__name__ not in SETUP_CACHES):
                    value.cache_clear()
                    cleared.append(f"{modname}.{attr}")
    return cleared


def run_passes(workload, seconds: float, setup: list, probe_every: float,
               traced: bool = False) -> list:
    """Passes until the next would end past `seconds`; at least one.

    Before each pass, set-up probes are appended to `setup` until this
    call has taken one per `probe_every` seconds of passes so far, plus
    one: the probes then sample the same stretch of the host's speed as
    the passes.  Counting pass time only keeps a probe from making more
    probes due, however short `probe_every` is.

    Returns one record per pass: wall seconds, cases delivered, checks
    attempted and failed, and the span recorder when tracing.  Pass k
    reads input k of the workload, so a traced phase sees the same
    inputs as an untraced one.
    """
    clock = time.perf_counter
    records = []
    begin = clock()
    probes = 0
    busy = 0.0
    k = 0
    while True:
        while probes <= busy / probe_every:
            setup.append(probe_setup(workload.specs))
            probes += 1
        clear_run_caches()
        gc.collect()
        recorder = SpanRecorder() if traced else None
        with recorder or contextlib.nullcontext():
            t0 = clock()
            output = workload.run_pass(k)
            t1 = clock()
        busy += t1 - t0
        attempted, failed = workload.check(output)
        records.append({"wall_s": t1 - t0, "origin": t0,
                        "cases": workload.cases(output), "spans": recorder,
                        "attempted": attempted, "failed": failed})
        k += 1
        median = statistics.median(r["wall_s"] for r in records)
        if clock() - begin + median > seconds:
            return records


def end_to_end_metrics(records, setup) -> dict:
    wall = statistics.median(r["wall_s"] for r in records)
    cases = statistics.median(r["cases"] for r in records)
    return {
        "wall_s": wall,
        "cases_per_s": cases / wall,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(untraced, traced, setup, micro) -> dict:
    summaries = [r["spans"].summary() for r in traced]
    first = summaries[0]
    recorder = traced[0]["spans"]
    metrics = {}
    for name in SPAN_TARGETS:
        metrics[f"{name}.calls"] = first[name]["calls"]
        metrics[f"{name}.self_s"] = statistics.median(s[name]["self_s"] for s in summaries)
    psi_calls = first["presentation.psi_image"]["calls"]
    distinct = len(recorder.distinct)
    metrics["presentation.psi_image.distinct_ratio"] = distinct / psi_calls if psi_calls else 0.0
    cases = sorted(first["presentation.relation_sides"]["durations"]) or [0.0]
    metrics["presentation.case_p50_ms"] = statistics.median(cases) * 1e3
    metrics["presentation.case_p99_ms"] = cases[int(0.99 * (len(cases) - 1))] * 1e3
    adds = first["liealg.echelon_add"]["calls"]
    accepted = recorder.accepted
    metrics["liealg.echelon_add.accept_ratio"] = accepted / adds if adds else 0.0
    metrics.update(micro)
    for key in ("rootdata.build_cartan_s", "liealg.get_algebra_s", "cli.import_s"):
        metrics[key] = setup[key]
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    # both phases start at pass 0; compare the passes both ran, so that
    # seeded workloads compare the same inputs
    n = min(len(untraced), len(traced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced[:n])
        / statistics.median(r["wall_s"] for r in untraced[:n]))
    metrics["trace.covered_frac"] = statistics.median(
        s[None] / r["wall_s"] for s, r in zip(summaries, traced))
    return metrics


def write_spans(path: Path, record):
    """The spans of one traced pass, as tab-separated text."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("id\tparent\tname\tstart_us\tend_us\n")
        record["spans"].write_rows(fh, record["origin"])


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, reference: dict | None = None,
        spans_path: Path | None = None) -> dict:
    """One benchmark run; returns the result object that main() prints."""
    from workloads import make_workloads

    workloads = make_workloads(tiny=tiny, reference=reference)
    if workload_name not in workloads:
        raise UsageError(f"unknown workload {workload_name!r}; "
                         f"choose from {', '.join(workloads)}")
    workload = workloads[workload_name]

    from torlie.liealg import get_algebra

    for spec in workload.specs:
        get_algebra(spec)
    workload.prepare(seed)
    setup = []
    probe_every = seconds / SETUP_SAMPLES
    notes = []
    if not workload.uses_seed:
        notes.append(f"seed {seed} ignored: {workload_name} has fixed inputs")
    if not trace:
        records = run_passes(workload, seconds, setup, probe_every)
        metrics = end_to_end_metrics(records, median_setup(setup))
        units = END_TO_END
    else:
        micro = scalar_microtimings(workload.scalar_order, workload.fractional)
        untraced = run_passes(workload, seconds * UNTRACED_SHARE, setup, probe_every)
        traced = run_passes(workload, seconds * (1 - UNTRACED_SHARE), setup,
                            probe_every, traced=True)
        metrics = per_layer_metrics(untraced, traced, median_setup(setup), micro)
        units = PER_LAYER
        if spans_path is not None:
            write_spans(spans_path, traced[0])
            notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
        records = untraced + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    notes.append(f"{len(records)} passes, {attempted} checks, "
                 f"{len(setup)} set-up probes")
    return {
        "notes": notes,
        "failed_frac": failed / attempted,
        "result": {
            "correct": failed == 0 and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import_package()
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  spans_path=spans_path)
    except UsageError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for note in out["notes"]:
        print(note)
    rows = [(name, m["value"], m["unit"]) for name, m in out["result"]["metrics"].items()]
    rows.append(("failed_frac", out["failed_frac"], FAILED_FRAC_UNIT))
    for name, value, unit in rows:
        print(f"{name:<44} {value:>16.6f} {unit}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
