"""What the benchmark under ``bench/`` calls of the package exists, with
the call shapes it uses.  The benchmark is only read here, never run: a
deletion or signature change that would break it fails this suite too."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from prenexify import normalizer, oracle, parse, rewrite, selftest
from prenexify.rewrite import Trace
from prenexify.semiclassical import Classifier

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced_layers() -> dict:
    """``LAYERS`` of ``bench/tracer.py``, read from its source."""
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no LAYERS")


def _unresolved() -> list[tuple[str, str]]:
    """Every traced ``(module, attribute)`` that does not resolve; an
    attribute ``Class.method`` is looked up on its class."""
    missing = []
    for targets in _traced_layers().values():
        for module_name, attr in targets:
            owner = importlib.import_module(module_name)
            try:
                for name in attr.split("."):
                    owner = getattr(owner, name)
            except AttributeError:
                missing.append((module_name, attr))
    return missing


def test_every_traced_layer_resolves():
    assert _traced_layers()
    assert _unresolved() == []


def test_a_deleted_traced_method_is_caught(monkeypatch):
    monkeypatch.delattr(Classifier, "decide")
    assert _unresolved() == [("prenexify.semiclassical", "Classifier.decide")]


def test_the_benchmark_call_shapes_bind():
    # the calls of bench/worker.py and bench/inputs.py
    phi, checker = parse("exists x. P(x)"), Classifier()
    trace = Trace(phi, (), 0)
    calls = [
        (oracle.reachable_set, (phi, 0), {"checker": checker}),
        (rewrite.verify_trace, (trace, checker), {}),
        (normalizer.normalize_J, (phi, 1, 0, checker), {}),
        (normalizer.normalize_R, (phi, 2, 0, checker), {}),
        (checker.min_levels, (phi, 0), {}),
        (
            selftest.run_selftest,
            (),
            {"size": 5, "n_max": 2, "k_max": 4, "seed": 1, "progress": print},
        ),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)


def test_the_traced_oracle_counters_read_a_closure():
    # the tracer counts a closure's states and edges off its members and
    # edges; a change to their shape must still give these counts
    closure = oracle.reachable_set(parse("(exists x. P(x)) & (exists y. Q(y))"), 0)
    assert len(closure.members) == 5
    assert sum(len(out) for out in closure.edges.values()) == 4
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer._count("oracle.reachable_set", (), closure)
    assert (tracer.counters["oracle_states"], tracer.counters["oracle_edges"]) == (5, 4)
