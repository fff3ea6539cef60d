"""Time torlie's set-up in a fresh interpreter; print one JSON line.

    python3 bench/setup_probe.py A,3,2 D,4,3 ...

Each argument is family,n,r of one algebra.  The probe times importing
the command-line module (which imports every layer), then
``build_cartan`` and then ``get_algebra`` for each algebra.  The
interpreter's own start-up is not included.
"""

import json
import sys
import time


def main(argv):
    clock = time.perf_counter
    t0 = clock()
    import torlie.cli  # noqa: F401  (the import is what is timed)
    t1 = clock()
    from torlie.liealg import get_algebra
    from torlie.rootdata import AlgebraSpec, build_cartan

    specs = []
    for arg in argv:
        family, n, r = arg.split(",")
        specs.append(AlgebraSpec(family, int(n), int(r)))
    t2 = clock()
    for spec in specs:
        build_cartan(spec)
    t3 = clock()
    for spec in specs:
        get_algebra(spec)
    t4 = clock()
    print(json.dumps({
        "torlie_file": torlie.__file__,
        "cli.import_s": t1 - t0,
        "rootdata.build_cartan_s": t3 - t2,
        "liealg.get_algebra_s": t4 - t3,
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
