"""Spans and counters for the traced run, installed from the benchmark's
own files.

Each traced function is replaced by a span-recording wrapper under every
name an ``artifact`` module binds it to: modules import these names at
import time, so patching only the defining module would miss their calls.
(``globalreport._excluded_isogeny`` imports ``trace_of_frobenius`` at call
time and ``solve_local`` recurses through its module global, so both are
covered by the same patch.)  ``Fq`` multiplications and extension-field
constructions are counted, not timed.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

#: (module, function) pairs that get a span; the span name drops the
#: ``artifact.`` prefix.
TRACED = (
    ("artifact.globalreport", "analyze"),
    ("artifact.globalreport", "isogeny_witness"),
    ("artifact.globalreport", "frey_mazur_classify"),
    ("artifact.localsolver", "solve_local"),
    ("artifact.fqcurves", "trace_of_frobenius"),
    ("artifact.fqcurves", "residual_module_search"),
    ("artifact.fqcurves", "torsion_field_degree"),
    ("artifact.semistability", "defect"),
    ("artifact.semistability", "good_twist"),
    ("artifact.padic", "with_unramified_roots"),
    ("artifact.weierstrass", "minimal_model_at"),
    ("artifact.weierstrass", "reduction_kind"),
    ("artifact.arith", "factorize"),
    ("artifact.cli", "main"),
)


def _artifact_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "artifact" or name.startswith("artifact."))]


def clear_caches() -> None:
    """Empty every ``lru_cache`` of the program (module functions and
    methods), so a second pass over the same jobs starts cold."""
    for mod in _artifact_modules():
        for obj in list(vars(mod).values()):
            for fn in [obj, *(vars(obj).values() if isinstance(obj, type) else ())]:
                if callable(getattr(fn, "cache_clear", None)):
                    fn.cache_clear()


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) so far of the caches the per-layer metrics read."""
    import artifact.fqcurves as fqc
    import artifact.weierstrass as ws

    out = {}
    for name, fn in (("minimal_model_at", ws.minimal_model_at),
                     ("curve_classes", fqc.curve_classes)):
        if not hasattr(fn, "cache_info"):  # a span wrapper
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out


class Tracer:
    """In-memory spans ``[name, start, end, parent index, op id]`` plus
    counters; nothing is written until ``write``.

    ``op`` is the id of the running op: a job index (>= 0) inside the job
    list, negative during warm-up, fixtures and the register.  Counters
    count only inside the job list, so the per-layer metrics cover the
    same ops as the spans they are read with; errors are kept per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.mul_calls = [0]
        self.ext_degrees: list[int] = []
        self.frob_keys: set = set()

    # -- spans -----------------------------------------------------------
    def _wrap(self, name: str, fn, after=None):
        spans, stack, errors = self.spans, self.stack, self.errors

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                errors[name, self.op] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_frobenius(self, args, out):
        if self.op < 0:
            return
        C = args[0]
        F = C.F
        key = (type(F).__name__, F.ell, F.k, getattr(F, "modulus", None),
               getattr(F, "D", None), C.a1, C.a2, C.a3, C.a4, C.a6)
        if key in self.frob_keys:
            self.counts["frob_repeats"] += 1
        self.frob_keys.add(key)

    def _after_search(self, args, out):
        if self.op < 0:
            return
        import artifact.fqcurves as fqc

        self.counts["classes_scanned"] += len(fqc.curve_classes(args[0].F.ell))
        self.counts["classes_matched"] += len(out)

    def install(self) -> None:
        import sympy

        import artifact.fq as fq

        hooks = {"fqcurves.trace_of_frobenius": self._after_frobenius,
                 "fqcurves.residual_module_search": self._after_search}
        modules = _artifact_modules()
        for modname, attr in TRACED:
            orig = getattr(sys.modules[modname], attr)
            name = f"{modname.split('.', 1)[1]}.{attr}"
            wrapped = self._wrap(name, orig, hooks.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        sympy.factor_list = self._wrap("sympy.factor_list", sympy.factor_list)

        calls, degrees = self.mul_calls, self.ext_degrees
        mul = fq.Fq.mul

        def counted_mul(field, a, b):
            if self.op >= 0:
                calls[0] += 1
            return mul(field, a, b)

        fq.Fq.mul = counted_mul
        for cls in (fq.Fq, fq.QuadExt):
            init = cls.__init__

            def counted_init(field, *args, _init=init, **kwargs):
                _init(field, *args, **kwargs)
                if field.k > 1 and self.op >= 0:
                    degrees.append(field.k)

            cls.__init__ = counted_init

    # -- aggregation -----------------------------------------------------
    def layer_times(self, ops) -> dict[str, dict]:
        """Per span name over the given op ids: calls, inclusive time
        (outermost spans of that name only) and self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict] = {}
        for i, (name, t0, t1, parent, op) in enumerate(spans):
            if op not in ops:
                continue
            agg = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (t1 - t0) - child[i]
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                agg["time_s"] += t1 - t0
        return out

    def error_count(self, name: str, ops) -> int:
        """Exceptions raised out of ``name`` spans of the given op ids."""
        return sum(n for (key, op), n in self.errors.items()
                   if key == name and op in ops)

    def child_calls(self, name: str, parent: str, ops) -> int:
        """Spans called ``name`` whose direct parent is a ``parent`` span."""
        spans = self.spans
        return sum(1 for rec in spans if rec[0] == name and rec[4] in ops
                   and rec[3] >= 0 and spans[rec[3]][0] == parent)

    def write(self, path) -> None:
        import json

        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
