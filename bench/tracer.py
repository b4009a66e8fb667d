"""Per-layer spans taken from outside the program.

``Tracer.install`` replaces each traced public function at every module
binding that holds it (``rewrite.replace_at`` as well as
``formula.replace_at``), so calls between layers and recursive calls are
counted too.  A layer's self time is its spans' duration minus the time
covered by the traced spans they enclose.  Counts are exact: a round runs
in a fresh interpreter with a fixed hash seed, so two traced rounds of the
same inputs give the same counts.
"""

from __future__ import annotations

import gc
import sys
import time

# layer -> (home module, attribute); attribute "Class.method" patches a
# method on its class, which is its only binding.
LAYERS = {
    "parser.parse": [("prenexify.parser", "parse")],
    "parser.render": [("prenexify.parser", "render")],
    "parser.formula_to_dict": [("prenexify.parser", "formula_to_dict")],
    "formula.alpha_canonical": [("prenexify.formula", "alpha_canonical")],
    "formula.replace_at": [("prenexify.formula", "replace_at")],
    "formula.subformula_at": [("prenexify.formula", "subformula_at")],
    "hierarchy.classify_prenex": [("prenexify.hierarchy", "classify_prenex")],
    "semiclassical.decide": [("prenexify.semiclassical", "Classifier.decide")],
    "semiclassical.min_levels": [("prenexify.semiclassical", "Classifier.min_levels")],
    "semiclassical.witness": [("prenexify.semiclassical", "Classifier.witness")],
    "rewrite.applicable_steps": [("prenexify.rewrite", "applicable_steps")],
    "rewrite.apply_step": [("prenexify.rewrite", "apply_step")],
    "rewrite.verify_trace": [("prenexify.rewrite", "verify_trace")],
    "rewrite.trace_text": [
        ("prenexify.rewrite", "trace_to_text"),
        ("prenexify.rewrite", "trace_from_text"),
    ],
    "normalizer.normalize": [
        ("prenexify.normalizer", "normalize_J"),
        ("prenexify.normalizer", "normalize_R"),
    ],
    "oracle.reachable_set": [("prenexify.oracle", "reachable_set")],
    "oracle.enumerate_formulas": [("prenexify.oracle", "enumerate_formulas")],
}


# layers whose results feed a counter in Tracer._count
COUNTED = ("parser.parse", "normalizer.normalize", "oracle.reachable_set")


class Layer:
    __slots__ = ("calls", "self_ns", "total_ns")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0


class Tracer:
    """Layer statistics of one round; also counts garbage collections."""

    def __init__(self):
        self.layers = {name: Layer() for name in LAYERS}
        self.counters = {"parse_chars": 0, "normalizer_steps": 0, "oracle_states": 0,
                         "oracle_edges": 0}
        self.gc_collections = 0
        self.gc_pause_ns = 0
        # one accumulator of enclosed span time per open span
        self._open: list[int] = [0]
        self._gc_start = 0

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "prenexify" or name.startswith("prenexify.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self._wrap(layer, getattr(cls, meth)))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    def _wrap(self, layer_name: str, fn):
        stats = self.layers[layer_name]
        open_spans = self._open
        clock = time.perf_counter_ns
        counted = layer_name in COUNTED
        count = self._count

        def close(start: int) -> None:
            elapsed = clock() - start
            enclosed = open_spans.pop()
            stats.calls += 1
            stats.self_ns += elapsed - enclosed
            stats.total_ns += elapsed
            open_spans[-1] += elapsed

        if layer_name == "oracle.enumerate_formulas":
            def generator_wrapper(*args, **kwargs):
                # each resumption of the generator is one span
                it = fn(*args, **kwargs)
                while True:
                    start = clock()
                    open_spans.append(0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(start)
                    yield item
            return generator_wrapper

        def wrapper(*args, **kwargs):
            start = clock()
            open_spans.append(0)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(start)
            if counted:
                count(layer_name, args, result)
            return result

        return wrapper

    def _count(self, layer_name: str, args, result) -> None:
        counters = self.counters
        if layer_name == "parser.parse":
            counters["parse_chars"] += len(args[0])
        elif layer_name == "normalizer.normalize":
            counters["normalizer_steps"] += len(result.trace.steps)
        else:
            counters["oracle_states"] += len(result.members)
            counters["oracle_edges"] += sum(len(out) for out in result.edges.values())

    def report(self) -> dict:
        out: dict = {}
        for name, stats in self.layers.items():
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_ns / 1e9
            out[f"{name}.total_s"] = stats.total_ns / 1e9
        out.update(self.counters)
        out["gc.collections"] = self.gc_collections
        out["gc.pause_s"] = self.gc_pause_ns / 1e9
        return out
