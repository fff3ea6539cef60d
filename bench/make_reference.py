"""Capture the reference reports the benchmark compares against.

    python3 bench/make_reference.py

Writes ``bench/reference/<workload>.json`` for the verify and span
workloads, at full and self-test sizes: for each configuration, the
JSON and text report exactly as ``torlie verify`` / ``torlie span``
print them.  The references pin the reports of the commit that made
them; regenerate them only when a report is meant to change.
"""

import json
import sys

from run import ROOT, import_package


def main() -> int:
    import_package()
    from workloads import REFERENCE_DIR, SpanWorkload, make_workloads, rendered

    refs: dict = {}
    for tiny in (False, True):
        for name, workload in make_workloads(tiny=tiny, reference={}).items():
            if workload.uses_seed:
                continue
            entries = refs.setdefault(name, {})
            if isinstance(workload, SpanWorkload):
                report = workload.run_pass(0)
                entries[workload.key(workload.spec, *workload.args)] = rendered(report)
            else:
                for config, summary in zip(workload.configs, workload.run_pass(0)):
                    entries[workload.key(*config)] = rendered(summary)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, entries in refs.items():
        path = REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.relative_to(ROOT)} ({len(entries)} reports)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
