"""Spans around the library's public functions, for the traced run.

The tracer replaces each function in ``TARGETS`` with a wrapper in every
module that holds it by name (the library's modules and the benchmark's
own ``workloads``), so calls between library modules are caught as well.
Spans are kept in memory while recording is on and written out when the
run ends.  The library itself is not changed.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _search_span(bound):
    return "pebbling.bw_search" if bound["mode"] == "black_white" else "pebbling.black_search"


# (module, function or Class.method, span name or a function of the bound
# arguments that gives it, work counts taken from (result, bound arguments)).
# A span named x adds its time to the metric x_s and one call to x_calls,
# where PER_LAYER has them; both pebbling searches count as searches, also
# those that raise InfeasibleError.
TARGETS = [
    ("resspace.compilers", "compile_pebbling", "compilers.compile",
     lambda r, a: {"compilers.steps_emitted": len(r.steps)}),
    ("resspace.compilers", "compile_pebbling_rk", "compilers.compile",
     lambda r, a: {"compilers.steps_emitted": len(r.steps)}),
    ("resspace.proofs", "check_refutation", "proofs.check", None),
    ("resspace.proofs", "replay", "proofs.replay",
     lambda r, a: {"proofs.steps_replayed": len(a["deriv"].steps)}),
    ("resspace.formats", "derivation_to_text", "formats.emit",
     lambda r, a: {"formats.text_mb": len(r) / 1e6}),
    ("resspace.formats", "derivation_from_text", "formats.parse", None),
    ("resspace.projection", "Projector.project", "projection.project", None),
    ("resspace.projection", "translate_refutation", "projection.translate", None),
    ("resspace.projection", "extract_pebbling", "projection.extract", None),
    ("resspace.projection", "project_invariant_audit", "projection.audit", None),
    ("resspace.transforms", "eliminate_weakening", "transforms.weakening", None),
    ("resspace.transforms", "make_frugal", "transforms.frugal", None),
    ("resspace.accel", "find_counterexample", "accel.counterexample", None),
    ("resspace.accel", "black_bfs", "accel.black_bfs",
     lambda r, a: {"accel.black_bfs_states": len(r[1])}),
    ("resspace.accel", "cover_scan", "accel.cover_scan",
     lambda r, a: {"accel.covers": r[0]}),
    ("resspace.accel", "cover_enumeration", "accel.cover_enum",
     lambda r, a: {"accel.covers": len(r)}),
    ("resspace.pebbling", "search_min_space", _search_span, None),
    ("resspace.pebbling", "search_min_time_given_space", _search_span, None),
    ("resspace.minimal", "scan_min_unsat_cnf", "minimal.scan", None),
    ("resspace.minimal", "enumerate_min_unsat", "minimal.enumerate",
     lambda r, a: {"minimal.sets_found": len(r)}),
    ("resspace.minimal", "is_minimally_unsatisfiable", "minimal.check", None),
]

# name -> unit of every per-layer metric, in the order of BENCHMARK.json
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())["per_layer"]}


class Tracer:
    """Records spans [name, parent, start, end, operation, counts] while
    ``recording`` is active; the wrappers are installed by ``installed``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None

    @contextmanager
    def recording(self, op_name):
        self._op = op_name
        try:
            yield
        finally:
            self._op = None

    def _wrap(self, fn, span, count):
        signature = inspect.signature(fn)
        is_generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            bound = None
            if callable(span) or count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            name = span(bound) if callable(span) else span
            record = [name, self._stack[-1] if self._stack else None,
                      time.perf_counter(), None, self._op, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if is_generator:
                    result = list(result)  # spend the generator's time inside the span
            finally:
                self._stack.pop()
                record[3] = time.perf_counter()
            if count is not None:
                record[5] = count(result, bound)
            return iter(result) if is_generator else result

        return traced

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper, and back on exit."""
        holders = [m for n, m in sys.modules.items()
                   if n.startswith("resspace") or n == "workloads"]
        saved = []
        try:
            for module_name, qualname, span, count in TARGETS:
                owner = sys.modules[module_name]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    original = getattr(cls, attr)
                    saved.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(original, span, count))
                    continue
                original = getattr(owner, qualname)
                wrapper = self._wrap(original, span, count)
                for module in holders:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield
        finally:
            for holder, attr, original in reversed(saved):
                setattr(holder, attr, original)

    def metrics(self, rounds):
        """Per-layer metrics per traced round."""
        child_time = defaultdict(float)
        for name, parent, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        values = Counter({name: 0 for name in PER_LAYER})
        for i, (name, _, start, end, _, counts) in enumerate(self.spans):
            duration = end - start
            if name + "_s" in PER_LAYER:
                values[name + "_s"] += duration
            calls = "pebbling.searches" if name.startswith("pebbling.") else name + "_calls"
            if calls in PER_LAYER:
                values[calls] += 1
            values.update(counts or {})
            values[name.split(".")[0] + ".self_s"] += duration - child_time[i]
        out = {name: values[name] / rounds for name in PER_LAYER}
        if out["proofs.replay_s"]:
            out["proofs.steps_per_s"] = out["proofs.steps_replayed"] / out["proofs.replay_s"]
        return out

    def dump(self):
        keys = ("name", "parent", "start", "end", "operation", "counts")
        return [dict(zip(keys, span)) for span in self.spans]
