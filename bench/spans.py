"""Outside-in span recorder for the torlie layers.

The recorder leaves the package's source alone.  While it is installed
it rebinds every name through which a layer function is reached: the
defining module's attribute, each re-import of it into another torlie
module (``presentation.toroidal_bracket``, ``toroidal.reduce_b_da``,
``omega_pow`` in four modules, the package ``__init__``), and the class
attribute for methods (``LieAlgebra.bracket``, ``EchelonBasis.add``,
``ToroidalElem.validate_twisted``).  ``restore()`` puts the originals
back.

Each call becomes one span: name, parent span, start and end.  Spans are
kept in flat arrays in memory and only turned into per-function counts
and self-times (duration minus the time covered by child spans) once the
traced pass is over.  ``CycNum`` operators are not wrapped: a wrapper
would cost more than the scalar operation it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (metric prefix, defining module, attribute or Class.method)
TARGETS = (
    ("presentation.psi_image", "torlie.presentation", "psi_image"),
    ("presentation.relation_sides", "torlie.presentation", "relation_sides"),
    ("presentation.evaluate_case", "torlie.presentation", "evaluate_case"),
    ("presentation.enumerate_cases", "torlie.presentation", "enumerate_cases"),
    ("presentation.proof_cases", "torlie.presentation", "proof_cases"),
    ("toroidal.toroidal_bracket", "torlie.toroidal", "toroidal_bracket"),
    ("toroidal.loop_bracket", "torlie.toroidal", "loop_bracket"),
    ("toroidal.sigma_bar", "torlie.toroidal", "sigma_bar"),
    ("toroidal.validate_twisted", "torlie.toroidal", "ToroidalElem.validate_twisted"),
    ("toroidal.fix_project", "torlie.toroidal", "fix_project"),
    ("kahler.reduce_b_da", "torlie.kahler", "reduce_b_da"),
    ("liealg.bracket", "torlie.liealg", "LieAlgebra.bracket"),
    ("liealg.echelon_add", "torlie.liealg", "EchelonBasis.add"),
    ("coeff.omega_pow", "torlie.coeff", "omega_pow"),
)

# distinct argument tuples are counted for KEYED, truthy results (an
# accepted echelon row) for ACCEPTING, and single durations kept for TIMED
KEYED = "presentation.psi_image"
ACCEPTING = "liealg.echelon_add"
TIMED = "presentation.relation_sides"


class SpanRecorder:
    """Rebinds the TARGETS to span-recording wrappers; use as a context."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.distinct = set()   # argument tuples of KEYED calls
        self.accepted = 0       # truthy results of ACCEPTING calls
        self._saved = []

    # -- installing and removing the wrappers -------------------------

    def _wrapper(self, nid, fn):
        name = self.names[nid]
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        seen = self.distinct if name == KEYED else None
        counts_accepts = name == ACCEPTING

        def span(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if seen is not None:
                seen.add(args)
            if counts_accepts and result:
                self.accepted += 1
            return result

        return functools.update_wrapper(span, fn)

    def install(self):
        if self._saved:
            raise RuntimeError("span recorder is already installed")
        by_id = {}
        for nid, (_, modname, path) in enumerate(TARGETS):
            owner = importlib.import_module(modname)
            attr = path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
                self._rebind(owner, attr, self._wrapper(nid, fn))
            else:
                fn = getattr(owner, attr)
                by_id[id(fn)] = (fn, self._wrapper(nid, fn))
        # every module-level alias of a target, wherever it was imported
        for modname, mod in list(sys.modules.items()):
            if modname != "torlie" and not modname.startswith("torlie."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr, hit[1])

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reading the spans back ---------------------------------------

    def summary(self) -> dict:
        """Per target: calls and self seconds, and for TIMED the
        duration of every span.

        Also returns under the key None the seconds covered by root
        spans, i.e. the sum of every span's self-time.
        """
        n = len(self.name_id)
        child = array("d", bytes(8 * n))
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {
            name: {"calls": 0, "self_s": 0.0, "durations": []}
            for name in self.names
        }
        timed = self.names.index(TIMED)
        covered = 0.0
        for i in range(n):
            nid = name_id[i]
            rec = out[self.names[nid]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if nid == timed:
                rec["durations"].append(dur)
            if parent[i] < 0:
                covered += dur
        out[None] = covered
        return out

    def write_rows(self, fh, origin: float = 0.0):
        """Write the spans as tab-separated id, parent, name, start and
        end, the times in microseconds after `origin`."""
        names = self.names
        for i in range(len(self.name_id)):
            fh.write(
                f"{i}\t{self.parent[i]}\t{names[self.name_id[i]]}\t"
                f"{(self.start[i] - origin) * 1e6:.1f}\t"
                f"{(self.end[i] - origin) * 1e6:.1f}\n"
            )
