import ast
from collections import Counter
from math import inf
from pathlib import Path

import prenexify

from prenexify.formula import Exists, alpha_canonical, prenex_floors
from prenexify.oracle import Signature, can_reach, enumerate_formulas, reachable_set
from prenexify.parser import parse, render
from prenexify.rewrite import apply_step, verify_trace
from test_formula import node_count

SIG = Signature.make({"P": 1, "Q": 1}, ("x", "y"), 4)


def test_reachable_set_no_redex():
    rs = reachable_set(parse("P(x)"), 0)
    assert [render(m) for m in rs.members] == ["P(x)"]
    assert rs.exhausted and rs.edges == {}


def test_reachable_set_disjunction():
    rs = reachable_set(parse("(exists x. P(x)) | (forall y. Q(y))"), 0)
    assert rs.exhausted
    target = alpha_canonical(parse("exists x. forall y. P(x) | Q(y)"))
    assert target in rs.members
    assert alpha_canonical(parse("exists a. forall b. P(a) | Q(b)")) in rs.members


def test_reachable_set_blocked_at_degree_zero():
    rs = reachable_set(parse("(forall x. P(x)) -> false"), 0)
    assert rs.exhausted
    assert len(rs.members) == 1


def test_a_closure_reports_its_least_floors():
    negated = parse("(forall x. P(x)) -> false")
    assert reachable_set(negated, 0).floors == (inf, inf)  # no prenex member
    assert reachable_set(negated, 1).floors == (1, 2)
    assert reachable_set(parse("P(x)"), 0).floors == (0, 0)
    # each side's least floor may come from another member: a Sigma_2 form
    # at degree 0, and a Pi_2 form beside it from degree 1 on
    phi = parse("(exists x. P(x)) | (forall y. Q(y))")
    assert reachable_set(phi, 0).floors == (2, 3)
    assert reachable_set(phi, 1).floors == (2, 2)


def test_degree_monotone_members():
    phi = parse("(forall x. P(x)) | (exists y. Q(y))")
    low = reachable_set(phi, 0)
    high = reachable_set(phi, 1)
    assert set(low.members) <= set(high.members)


def test_budget_produces_unexhausted():
    rs = reachable_set(parse("(exists x. P(x)) | (forall y. Q(y))"), 0, node_budget=2)
    assert not rs.exhausted
    assert len(rs.members) == 2


def test_reachable_set_on_a_5000_deep_chain():
    # alpha_canonical keeps an explicit stack
    phi = parse("(exists y. P(y)) & (exists y. Q(y))")
    for _ in range(5000):
        phi = Exists("x", phi)
    rs = reachable_set(phi, 0)
    assert rs.exhausted and len(rs.members) == 5
    start = rs.members[0]
    for i in range(5000):
        assert isinstance(start, Exists) and start.var == f"v{i}"
        start = start.body
    assert start is parse("(exists v5000. P(v5000)) & (exists v5001. Q(v5001))")


def test_can_reach_yes_with_shortest_trace():
    phi = parse("(exists x. P(x)) | (forall y. Q(y))")
    result = can_reach(phi, 0, lambda m: 2 >= prenex_floors(m)[0])
    assert result.status == "yes"
    assert len(result.trace.steps) == 2
    final = verify_trace(result.trace)
    assert 2 >= prenex_floors(final)[0]
    assert final.free == phi.free


def test_can_reach_reflexive():
    phi = parse("exists x. P(x)")
    result = can_reach(phi, 0, lambda m: 1 >= prenex_floors(m)[0])
    assert result.status == "yes" and result.trace.steps == ()


def test_can_reach_pinned_negative():
    phi = parse("((forall x. P(x)) | (exists y. Q(y))) -> R(x)")
    result = can_reach(phi, 1, lambda m: 2 >= prenex_floors(m)[0])
    assert result.status == "no"


def test_can_reach_unknown_on_budget():
    phi = parse("(exists x. P(x)) | (forall y. Q(y))")
    result = can_reach(phi, 0, lambda m: False, node_budget=2)
    assert result.status == "unknown"


def test_can_reach_class_predicates():
    phi = parse("(forall y. Q(y)) | (exists x. P(x))")
    result = can_reach(phi, 1, lambda m: 2 >= prenex_floors(m)[1])
    assert result.status == "yes"
    assert verify_trace(result.trace) is parse(
        "forall y. exists x. Q(y) | P(x)"
    )


def test_one_transitions_dict_serves_every_degree():
    # the cache is keyed by degree first, so closures sharing one dict
    # across degrees match closures that each get a fresh dict
    shared = {}
    for n in range(3):
        for phi in enumerate_formulas(SIG):
            closure = reachable_set(phi, n, transitions=shared)
            alone = reachable_set(phi, n, transitions={})
            assert closure.members == alone.members, (render(phi), n)
            assert closure.edges == alone.edges, (render(phi), n)
            assert closure.floors == alone.floors, (render(phi), n)
            assert closure.exhausted and alone.exhausted, (render(phi), n)
    assert sorted(shared) == [0, 1, 2]


def _discovery_path(closure, member: int) -> list:
    """The members on the BFS route to ``member``: each is reached by the
    first edge into it, the edge that discovered it."""
    parent = {}
    for src, out in closure.edges.items():
        for dst in out:
            parent.setdefault(dst, src)
    path = [member]
    while path[-1]:
        path.append(parent[path[-1]])
    return [closure.members[i] for i in reversed(path)]


TARGETS = [
    (f"{name} {k}", lambda m, side=side, k=k: k >= prenex_floors(m)[side])
    for side, name in enumerate(("sigma", "pi"))
    for k in range(3)
]


def test_can_reach_answers_as_the_closure_does():
    # yes exactly when a member of the closure meets the target; the trace
    # replays to the first such member in BFS order along its BFS route
    answers = Counter()
    for n in range(3):
        transitions = {}
        for phi in enumerate_formulas(SIG):
            closure = reachable_set(phi, n, transitions=transitions)
            assert closure.exhausted
            for name, target in TARGETS:
                result = can_reach(phi, n, target)
                first = next(
                    (i for i, m in enumerate(closure.members) if target(m)), None
                )
                answers[result.status] += 1
                if first is None:
                    assert result.status == "no", (render(phi), n, name)
                    continue
                assert result.status == "yes", (render(phi), n, name)
                route = [phi]
                for step in result.trace.steps:
                    route.append(apply_step(route[-1], step, n))
                assert route[-1] is verify_trace(result.trace)
                assert [alpha_canonical(m) for m in route] == _discovery_path(
                    closure, first
                )
    assert answers["yes"] and answers["no"] and not answers["unknown"]


def test_can_reach_under_a_budget_answers_as_the_closure_does():
    # the same budget cuts both searches at the same members
    formulas = [
        "(exists x. P(x)) | (forall y. Q(y))",
        "(forall x. P(x)) -> (exists y. Q(y))",
        "((exists x. P(x)) & (forall y. Q(y))) | (exists x. Q(x))",
    ]
    statuses = set()
    for text in formulas:
        phi = parse(text)
        for n in range(2):
            for budget in range(1, 5):
                closure = reachable_set(phi, n, budget)
                for name, target in TARGETS:
                    result = can_reach(phi, n, target, budget)
                    statuses.add(result.status)
                    if any(target(m) for m in closure.members):
                        assert result.status == "yes", (text, n, budget, name)
                        assert len(result.trace.steps) < budget
                    else:
                        expected = "no" if closure.exhausted else "unknown"
                        assert result.status == expected, (text, n, budget, name)
    assert statuses == {"yes", "no", "unknown"}


def test_can_reach_runs_its_own_search(monkeypatch):
    # the benchmark counts the reachable_set calls of a selftest round
    import prenexify.oracle as oracle

    def refuse(*args, **kwargs):
        raise AssertionError("can_reach called reachable_set")

    monkeypatch.setattr(oracle, "reachable_set", refuse)
    phi = parse("(exists x. P(x)) | (forall y. Q(y))")
    result = can_reach(phi, 0, lambda m: 2 >= prenex_floors(m)[0])
    assert result.status == "yes" and len(result.trace.steps) == 2


def test_enumeration_contains_basics():
    small = Signature.make({"P": 1}, ("x",), 3)
    rendered = [render(phi) for phi in enumerate_formulas(small)]
    assert "false" in rendered and "P(x)" in rendered
    assert "exists v0. P(v0)" in rendered
    assert "P(x) -> false" in rendered and "P(x) & P(x)" in rendered


def test_enumeration_golden_counts():
    # pinned after first computation; cross-checked against raw generation
    counts = Counter(map(node_count, enumerate_formulas(SIG)))
    assert dict(counts) == {1: 5, 2: 14, 3: 111, 4: 754}


def test_enumeration_is_alpha_distinct_and_deterministic():
    first = list(enumerate_formulas(SIG))
    second = list(enumerate_formulas(SIG))
    assert first == second
    assert len(set(first)) == len(first)
    assert all(alpha_canonical(phi) is phi for phi in first)


def test_witness_traces_replay_from_original_not_canonical():
    # start formula uses bound name y; states are canonicalized internally
    phi = parse("(exists y. P(y)) & Q(x)")
    result = can_reach(phi, 0, lambda m: 1 >= prenex_floors(m)[0])
    assert result.status == "yes"
    assert result.trace.start is phi
    assert verify_trace(result.trace) is parse("exists y. P(y) & Q(x)")


def _package_imports(module: str) -> set[str]:
    """The prenexify modules that ``module`` imports."""
    package = Path(prenexify.__file__).parent
    found = set()
    for node in ast.walk(ast.parse((package / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
            paths = [path[1:] for path in paths if path[0] == "prenexify"]
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[:1] != ["prenexify"]:
                    continue
                path = path[1:]
            # ``from . import name`` may name a module
            paths = [path] if path else [[alias.name] for alias in node.names]
        else:
            continue
        found.update(path[0] for path in paths if path)
    return {name for name in found if (package / f"{name}.py").exists()}


def test_oracle_is_independent_of_the_classifier():
    # the rewrite search checks the classifier, so neither the rules nor
    # the search may read its clause table, directly or through a module
    for module in ("rewrite", "oracle"):
        seen, todo = set(), [module]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(_package_imports(name))
        assert "semiclassical" not in seen, module


def test_no_module_builds_a_classifier_at_import():
    # a Classifier held by a module would keep its tables for the life of
    # the process; every caller makes its own
    package = Path(prenexify.__file__).parent
    for path in package.glob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
                continue
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    assert name != "Classifier", f"{path.name}:{node.lineno}"
