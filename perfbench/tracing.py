"""Per-layer spans recorded from the benchmark's own wrappers.

``Tracer.install`` replaces each traced fanov5 function by a wrapper in
every fanov5 module that holds it, because modules import functions by
name (``fanov5.bundles.dominantize`` is the same object as
``fanov5.weights.dominantize``).  A wrapper records one span (id, parent,
name, start, end) in memory; ``layer_totals`` turns the spans into call
counts and self times, self time being a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# (module, function, span name); rref is split by field below.
TRACED = (
    ("fanov5.weights", "dominantize", "weights.dominantize"),
    ("fanov5.weights", "weyl_dim", "weights.weyl_dim"),
    ("fanov5.bundles", "cohomology", "bundles.cohomology"),
    ("fanov5.koszul", "restrict_cohomology", "koszul.restrict_cohomology"),
    ("fanov5.koszul", "ulrich_check", "koszul.ulrich_check"),
    ("fanov5.chow", "chi", "chow.chi"),
    ("fanov5.linalg", "rref", "linalg.rref"),
    ("fanov5.linalg", "row_space_basis", "linalg.row_space_basis"),
    ("fanov5.quiver", "hom_ext", "quiver.hom_ext"),
    ("fanov5.quiver", "check_stability", "quiver.check_stability"),
    ("fanov5.checklist", "run_all", "checklist.run_all"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._next_id = 1

    # -- recording

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int) -> int:
        end = perf_counter_ns()
        self.spans.append((sid, parent, name, start, end))
        self._stack.pop()
        return end

    def span(self, name: str):
        return _Span(self, name)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    # -- wrappers

    def _wrap(self, name: str, fn, label=None, after=None):
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            span_name = label(args, kwargs) if label else name
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, span_name, start)
            if after:
                after(span_name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                sid, parent = self._open()
                start = perf_counter_ns()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(sid, parent, name, start)
                self.counts[name + ".yielded"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        import fanov5.checklist  # noqa: F401 - imported so its references get patched
        import fanov5.cli  # noqa: F401
        from fanov5.linalg import PrimeField

        def rref_label(args, kwargs):
            field = args[1] if len(args) > 1 else kwargs["field"]
            return "linalg.rref_fp" if isinstance(field, PrimeField) else "linalg.rref_q"

        def rref_after(name, args, result):
            rows = args[0]
            self.counts[name + ".cells"] += len(rows) * (len(rows[0]) if len(rows) else 0)

        def restrict_after(name, args, result):
            if result.table is not None:
                self.counts["koszul.pages_resolved"] += 1

        hooks = {
            "linalg.rref": (rref_label, rref_after),
            "koszul.restrict_cohomology": (None, restrict_after),
        }
        targets = []
        for module, attr, name in TRACED:
            label, after = hooks.get(name, (None, None))
            orig = getattr(sys.modules[module], attr)
            targets.append((orig, self._wrap(name, orig, label, after)))
        orig = sys.modules["fanov5.linalg"].subspaces
        targets.append((orig, self._wrap_generator("linalg.subspaces", orig)))
        for orig, wrapper in targets:
            self._patch_everywhere(orig, wrapper)

    def _patch_everywhere(self, orig, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "fanov5" and not modname.startswith("fanov5."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)

    # -- results

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "self_ms", "total_ms"}} over the recorded spans."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        for sid, _, name, start, end in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["total_ms"] += (end - start) / 1e6
            rec["self_ms"] += (end - start - child_ns.get(sid, 0)) / 1e6
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: [id, parent, name, start_ns, end_ns]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid, self.parent = self.tracer._open()
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.end = self.tracer._close(self.sid, self.parent, self.name, self.start)
        return False
