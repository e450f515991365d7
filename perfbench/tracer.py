"""In-memory span tracer that wraps causalbox's public functions from outside.

A :class:`Tracer` installs a timing wrapper around each target function and
rebinds it in every ``causalbox`` module that imported the name, so calls
that cross layers (``ps_member`` -> ``lp_solve``) are captured as nested
spans.  Each span records name, start, end, parent span and request id.
Counts are computed only from the wrapped call's arguments and return
value.  Nothing under ``src/`` is modified; :meth:`Tracer.uninstall` puts
every original back.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute, span name); "Class.method" attributes wrap methods.
TARGETS = [
    ("causalbox.linprog", "lp_solve", "lp_solve"),
    ("causalbox.lift", "ps_system", "ps_system"),
    ("causalbox.lift", "ps_member", "ps_member"),
    ("causalbox.polytope", "enumerate_classical_vertices", "enumerate_classical_vertices"),
    ("causalbox.polytope", "classical_member", "classical_member"),
    ("causalbox.polytope", "decompose_ns_box", "decompose_ns_box"),
    ("causalbox.boxes", "ns_box_vertices", "ns_box_vertices"),
    ("causalbox.tables", "Kernel.__init__", "Kernel"),
    ("causalbox.tables", "Kernel.from_function", "Kernel.from_function"),
    ("causalbox.tables", "Kernel.from_mapping", "Kernel.from_mapping"),
    ("causalbox.tables", "marginalize", "marginalize"),
    ("causalbox.tables", "join_inputs", "join_inputs"),
    ("causalbox.tables", "project", "project"),
    ("causalbox.tables", "split_joint", "split_joint"),
    ("causalbox.graphs", "d_separated", "d_separated"),
    ("causalbox.graphs", "ci_constraints", "ci_constraints"),
    ("causalbox.graphs", "build_hypergraph", "build_hypergraph"),
    ("causalbox.constraints", "enumerate_constraints", "enumerate_constraints"),
    ("causalbox.constraints", "check_nested", "check_nested"),
    ("causalbox.constraints", "i_member", "i_member"),
    ("causalbox.recipes", "Evaluator.evaluate", "Evaluator.evaluate"),
    ("causalbox.recipes", "simplify", "simplify"),
    ("causalbox.networks", "ClassicalNetwork.joint_observed", "joint_observed"),
    ("causalbox.cli", "dispatch", "dispatch"),
    ("causalbox.cli", "_emit", "emit"),
    ("causalbox.fileio", "load_graph", "load"),
    ("causalbox.fileio", "load_kernel", "load"),
]


def _bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _observe_lp(counts: Counter, args, result) -> None:
    system = args[0]
    rows = len(system.equalities)
    cols = len(system.variables)
    counts["lp.rows"] += rows
    counts["lp.cols"] += cols
    counts["lp.cells"] += rows * cols
    counts["lp.nnz"] += sum(1 for coeffs, _ in system.equalities for c in coeffs.values() if c)
    if result.status == "infeasible":
        counts["lp.infeasible"] += 1
    values = list((result.assignment or {}).values())
    if result.value is not None:
        values.append(result.value)
    bits = max((_bits(v) for v in values), default=0)
    counts["lp.bits_max"] = max(counts["lp.bits_max"], bits)


def _observe_vertices(counts: Counter, args, result) -> None:
    counts["vertices"] = max(counts["vertices"], len(result))


def _observe_records(counts: Counter, args, result) -> None:
    from causalbox.graphs import CiConstraint

    ci = sum(1 for r in result if isinstance(r, CiConstraint))
    counts["records_ci"] = max(counts["records_ci"], ci)
    counts["records_verma"] = max(counts["records_verma"], len(result) - ci)


OBSERVERS = {
    "lp_solve": _observe_lp,
    "enumerate_classical_vertices": _observe_vertices,
    "enumerate_constraints": _observe_records,
}


class Tracer:
    """Records spans ``[name, start, end, parent, request]`` and counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self.request: object = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self.counts[self.request], args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever causalbox imported it."""
        for module_name, attr, span in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(span, raw.__func__))
                else:
                    new = self.wrap(span, raw)
                setattr(cls, meth, new)
                self._undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "causalbox" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self) -> dict:
        """Spans and counts in a JSON-serializable form."""
        return {
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Children of one span run one after another inside it (a single
    thread), so their durations add up without overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]
