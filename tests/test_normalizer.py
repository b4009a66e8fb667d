import dataclasses
import gc
import sys
from collections import defaultdict
from math import inf

import pytest

from prenexify import formula, normalizer, rewrite
from prenexify.formula import (
    And,
    Exists,
    Forall,
    Prime,
    _Quant,
    alpha_canonical,
    is_prenex,
    prenex_floors,
    rename_bound,
    subformulas,
)
from prenexify.normalizer import (
    RESULT_SCHEMA,
    NotInClassError,
    normalize_J,
    normalize_R,
    prenex_form,
)
from prenexify.oracle import enumerate_formulas
from prenexify.parser import parse, render
from prenexify.rewrite import (
    RewriteStep,
    SideConditionError,
    Trace,
    apply_step,
    measure,
    trace_from_text,
    trace_to_text,
    verify_trace,
)
from prenexify.selftest import default_signature
from prenexify.semiclassical import Classifier


def test_identity_on_prime():
    for k, n in ((0, 0), (3, 1)):
        result = normalize_J(parse("P(x)"), k, n)
        assert result.output is parse("P(x)")
        assert result.trace.steps == ()


def test_disjunction_example():
    result = normalize_J(parse("(exists x. P(x)) | (forall y. Q(y))"), 2, 0)
    assert result.output is parse("exists x. forall y. P(x) | Q(y)")
    assert len(result.trace.steps) == 2
    assert verify_trace(result.trace) is result.output


def test_negated_universal_at_degree_one():
    result = normalize_J(parse("(forall x. P(x)) -> false"), 2, 1)
    assert result.output is parse("exists x. P(x) -> false")
    assert [s.rule for s in result.trace.steps] == ["ForallImpN"]
    assert 1 >= prenex_floors(result.output)[0]  # lands in Sigma_1 inside Sigma_2+


def test_merge_and_sigma():
    result = normalize_J(parse("(exists x. P(x)) & (exists y. Q(y))"), 1, 0)
    assert result.output is parse("exists x. exists y. P(x) & Q(y)")


def test_merge_and_needs_rename():
    phi = parse("(forall x. P(x)) & (forall x. Q(x))")
    result = normalize_R(phi, 1, 0)
    assert result.output is parse("forall x. forall v0. P(x) & Q(v0)")
    assert result.output.free == phi.free == ()


def test_merge_and_quantifier_free():
    result = normalize_J(parse("P(x) & Q(y)"), 0, 0)
    assert result.output is parse("P(x) & Q(y)")
    assert result.trace.steps == ()


def test_merge_imp_base():
    # quantifier-free antecedent: hoist the consequent prefix, degree 0
    result = normalize_J(parse("P(x) -> (exists y. forall z. R(y, z))"), 2, 0)
    assert result.output is parse("exists y. forall z. P(x) -> R(y, z)")


def test_merge_imp_pi_target():
    result = normalize_R(parse("(exists x. P(x)) -> (forall z. Q(z))"), 1, 0)
    assert result.output is parse("forall x. forall z. P(x) -> Q(z)")


def test_merge_imp_degree_one():
    result = normalize_J(parse("(forall x. P(x)) -> (exists y. Q(y))"), 2, 1)
    assert result.output is parse("exists x. exists y. P(x) -> Q(y)")
    assert 1 >= prenex_floors(result.output)[0]


def test_merge_or_asymmetric_ranks():
    # Pi_1 disjunct with a Sigma_2 one at degree 1 stays within Sigma_2+
    phi = parse("(forall x. P(x)) | (exists y. forall z. R(y, z))")
    result = normalize_J(phi, 2, 1)
    assert 2 >= prenex_floors(result.output)[0]
    assert verify_trace(result.trace) is result.output
    assert result.output.free == phi.free


def test_or_asymmetric_low_side_right():
    # R-side disjunction at k = n + 1 exercises the U | D clause
    phi = parse("(forall y. Q(y)) | (exists x. P(x))")
    result = normalize_R(phi, 2, 1)
    assert result.output is parse("forall y. exists x. Q(y) | P(x)")
    assert 2 >= prenex_floors(result.output)[1]


def test_or_hoists_from_the_higher_ranked_operand_first():
    # Sigma_1 | Sigma_2 at degree 2: no existential operand is above the
    # degree, so the unequal ranks pick the side, and the right operand's
    # block comes down first although the rule order tries the left's first
    result = normalize_J(parse("(exists x. false) | exists y. forall z. false"), 2, 2)
    steps = [(step.rule, step.position) for step in result.trace.steps]
    assert steps == [("OrExists", ()), ("ExistsOr", ("b",)), ("OrForallN", ("b", "b"))]
    assert verify_trace(result.trace) is result.output


def test_or_hoists_an_existential_operand_above_the_degree_first():
    # Sigma_1 | Pi_2 at degree 0: the left operand is existential and above
    # the degree, so it hoists first although the ranks point right; the
    # right operand's universal hoist could not take it as delta otherwise
    result = normalize_J(parse("(exists x. P(x)) | forall y. exists z. Q(z)"), 3, 0)
    assert result.output is parse("exists x. forall y. exists z. P(x) | Q(z)")
    steps = [(step.rule, step.position) for step in result.trace.steps]
    assert steps == [("ExistsOr", ()), ("OrForallN", ("b",)), ("OrExists", ("b", "b"))]
    assert verify_trace(result.trace) is result.output


def test_not_in_class_errors():
    with pytest.raises(NotInClassError):
        normalize_J(parse("(forall x. P(x)) -> false"), 2, 0)
    with pytest.raises(NotInClassError):
        normalize_R(parse("exists x. P(x)"), 1, 0)


def test_levels_are_checked_k_first():
    phi = parse("exists x. P(x)")
    for target in ("sigma", "pi"):
        with pytest.raises(ValueError, match="level k"):
            prenex_form(phi, -1, -1, target, Classifier())
        with pytest.raises(ValueError, match="degree n"):
            prenex_form(phi, 1, -1, target, Classifier())
    with pytest.raises(ValueError, match="level k"):
        normalize_J(phi, -1, -1)


def test_wrappers_return_the_objects_prenex_form_returns():
    # every positive verdict of the size-4 corpus: normalize_J / normalize_R
    # hand out prenex_form's output and steps tuple themselves
    checker = Classifier()
    positives = 0
    for phi in enumerate_formulas(default_signature(4)):
        for n in range(3):
            for k in range(5):
                verdicts = checker.decide(phi, k, n)
                for target, normalize, member in zip(
                    ("sigma", "pi"), (normalize_J, normalize_R), verdicts
                ):
                    if not member:
                        continue
                    positives += 1
                    result = normalize(phi, k, n, checker)
                    output, steps = prenex_form(phi, k, n, target, checker)
                    assert result.output is output
                    assert result.trace.steps is steps
                    assert result.trace.start is phi and result.trace.n == n
    assert positives == 18403


def test_traces_stay_at_requested_degree():
    # the composite needs its (forall->) hoist at degree 1 even though the
    # surrounding steps are degree 0
    phi = parse("((forall x. P(x)) -> false) & (exists y. Q(y))")
    result = normalize_J(phi, 2, 1)
    assert result.trace.n == 1
    assert verify_trace(result.trace) is result.output
    assert 2 >= prenex_floors(result.output)[0]


def test_determinism():
    phi = parse("(forall x. P(x)) & (forall x. Q(x))")
    one = normalize_R(phi, 1, 0)
    two = normalize_R(phi, 1, 0, Classifier())
    assert one.output is two.output
    assert one.trace == two.trace


def test_result_json_shape():
    result = normalize_J(parse("(exists x. P(x)) | (forall y. Q(y))"), 2, 0)
    data = result.to_json()
    assert data["schema"] == RESULT_SCHEMA
    assert data["input"]["text"] == "(exists x. P(x)) | forall y. Q(y)"
    assert data["output"]["text"] == render(result.output)
    assert data["trace"]["degree"] == 0
    assert data["input"]["ast"]["op"] == "or"


def test_result_json_renders_its_input_once(monkeypatch):
    # the trace starts at the input, so both fields hold one rendering
    result = normalize_J(parse("(exists x. P(x)) | (forall y. Q(y))"), 2, 0)
    rendered = []

    def counted(phi):
        rendered.append(phi)
        return render(phi)

    monkeypatch.setattr(normalizer, "render", counted)
    monkeypatch.setattr(rewrite, "render", counted)
    data = result.to_json()
    assert data["input"]["text"] == data["trace"]["start"] == "(exists x. P(x)) | forall y. Q(y)"
    assert rendered.count(result.input) == 1
    # a result whose trace starts elsewhere still shows its own input
    other = dataclasses.replace(result, input=parse("P(x)")).to_json()
    assert other["input"]["text"] == "P(x)"
    assert other["trace"]["start"] == data["trace"]["start"]


def test_lift_through_levels_reuses_lower_normalization():
    phi = parse("exists x. P(x)")
    low = normalize_J(phi, 1, 0)
    high = normalize_J(phi, 4, 0)
    assert high.output is low.output
    assert high.trace.steps == low.trace.steps


def test_converse_consistency_regression():
    # the class realized by the output bounds the input's class: reaching
    # a Sigma_m+ formula at degree n puts the start formula in J_m^n
    checker = Classifier()
    cases = [
        ("(exists x. P(x)) | (forall y. Q(y))", 2, 0),
        ("(forall x. P(x)) -> false", 2, 1),
        ("(forall x. P(x)) | (exists y. forall z. R(y, z))", 2, 1),
        ("P(x) -> (exists y. forall z. R(y, z))", 4, 0),
    ]
    for text, k, n in cases:
        phi = parse(text)
        result = normalize_J(phi, k, n)
        floor = prenex_floors(result.output)[0]
        assert floor <= k
        assert checker.decide(phi, floor, n)[0]


def _wide_conjunction(width, name="P"):
    """``(exists x1. P(x1)) & ... & (exists xw. P(xw))``, right-nested,
    with the predicate ``name``."""
    operands = [Exists(f"x{i}", Prime(name, (f"x{i}",))) for i in range(1, width + 1)]
    phi = operands.pop()
    while operands:
        phi = And(operands.pop(), phi)
    return phi


def test_steps_cost_constant_nodes_on_a_wide_conjunction(monkeypatch):
    # Theta(w^2) steps are needed (each lowers the measure by one); a step
    # must cost O(1) new nodes, not a rebuild of every ancestor.  Counted
    # in interned nodes, so the guard does not depend on timing; no sweep
    # may fire meanwhile, so it does not depend on the table's history.
    # Each of the 79 merges builds its prefix, one binder per hoist, and
    # its connective; the replay builds nothing new.  The predicate is the
    # test's own, so no earlier test has interned these nodes.
    monkeypatch.setattr(formula, "_sweep_at", sys.maxsize)
    phi = _wide_conjunction(80, "Wide")
    before = len(formula._interned)
    result = normalize_J(phi, 1, 1)
    normalized = len(formula._interned)
    steps = len(result.trace.steps)
    assert steps == 3239
    assert normalized - before == steps + 79
    assert verify_trace(result.trace) is result.output
    assert len(formula._interned) == normalized


def test_a_merge_interns_only_its_output(monkeypatch):
    # the hoists build no node: prenex_form on the 80-wide conjunction
    # interns exactly the nodes of its entries' outputs that are new (its
    # binders are distinct, so no hoist renames a body), none per hoist.
    # Its predicate is its own, so no earlier test has interned its nodes.
    monkeypatch.setattr(formula, "_sweep_at", sys.maxsize)
    phi = _wide_conjunction(80, "Merged")
    checker = Classifier()
    checker.levels(phi, 1)
    before = {id(node) for node in formula._interned.values()}
    output, steps = prenex_form(phi, 1, 1, "sigma", checker)
    assert len(steps) == 3239
    new = {id(node) for node in formula._interned.values()} - before
    outputs = {
        id(node) for form in checker.normal_forms(1).values() for node in subformulas(form.output)
    }
    assert new == outputs - before
    assert len(new) == 3239 + 79


def _python_calls(function, argument) -> int:
    """How many Python functions ``function(argument)`` calls, itself
    included, with no garbage collection (whose callbacks are calls too)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        function(argument)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def test_trace_steps_cost_constant_calls_on_a_wide_alternating_conjunction(monkeypatch):
    # Each trace step is written, read and replayed at a fixed number of
    # Python calls, counted apart from the start line's: writing a step
    # line calls none, reading one none but is_variable for a fresh name,
    # and the replay at most 9 a step (7,359 for these 819 steps).
    # A per-step call put back fails here; every node the replay builds is
    # interned by a first replay, and no sweep may fire meanwhile, so the
    # counts do not depend on the intern table's history.
    monkeypatch.setattr(formula, "_sweep_at", sys.maxsize)
    operands = [(Exists, Forall)[i % 2]("x", Prime("Alternating", ("x",))) for i in range(40)]
    phi = operands.pop()
    while operands:
        phi = And(operands.pop(), phi)
    trace = normalize_J(phi, 2, 1).trace
    steps = len(trace.steps)
    fresh = sum(step.fresh is not None for step in trace.steps)
    assert (steps, fresh) == (819, 39)
    bare = Trace(trace.start, (), trace.n)
    text, bare_text = trace_to_text(trace), trace_to_text(bare)
    assert verify_trace(trace) is verify_trace(trace_from_text(text))

    def per_steps(function, full, empty):
        return _python_calls(function, full) - _python_calls(function, empty)

    assert per_steps(trace_to_text, trace, bare) == 0
    assert per_steps(trace_from_text, text, bare_text) == fresh
    assert per_steps(verify_trace, trace, bare) <= 9 * steps


def test_normalize_5000_deep_chains():
    # the entries are built and the steps emitted with explicit stacks
    for quant, normalize in ((Exists, normalize_J), (Forall, normalize_R)):
        phi = And(quant("y", Prime("P", ("y",))), quant("y", Prime("Q", ("y",))))
        for _ in range(5000):
            phi = quant("x", phi)
        result = normalize(phi, 1, 0, Classifier())
        hoist = quant.__name__ + "And"
        assert result.trace.steps == (
            RewriteStep(hoist, ("b",) * 5000),
            RewriteStep("And" + quant.__name__, ("b",) * 5001, "v0"),
        )
        assert verify_trace(result.trace) is result.output


def test_renaming_a_3000_deep_conjunction():
    # the hoist renames x away from P(x), and the renaming keeps an
    # explicit stack: it rebuilds every node in which x is free
    body = Prime("P", ("x",))
    for _ in range(3000):
        body = And(Prime("Q", ("x",)), body)
    q = Exists("x", body)
    renamed = rename_bound(q, "z")
    assert renamed.var == "z" and renamed.body.vars == ("z",)
    assert alpha_canonical(renamed) is alpha_canonical(q)
    phi = And(q, Prime("P", ("x",)))
    step = RewriteStep("ExistsAnd", (), "v0")
    hoisted = Exists("v0", And(rename_bound(q, "v0").body, phi.right))
    assert apply_step(phi, step, 0) is hoisted
    result = normalize_J(phi, 1, 0, Classifier())
    assert result.trace.steps == (step,)
    assert verify_trace(result.trace) is result.output


def deep_conjunction(depth):
    """``(exists x. Q(x) & ... depth times ... & P(x)) & P(x)``."""
    body = Prime("P", ("x",))
    for _ in range(depth):
        body = And(Prime("Q", ("x",)), body)
    return And(Exists("x", body), Prime("P", ("x",)))


def test_the_trace_of_a_3000_deep_conjunction_reads_back():
    # the parser keeps explicit stacks, so the start line parses again
    result = normalize_J(deep_conjunction(3000), 1, 0)
    again = trace_from_text(trace_to_text(result.trace))
    assert again == result.trace
    assert verify_trace(again) is result.output


def test_not_in_class_message_on_a_5000_deep_chain():
    # the message renders the whole input; render keeps an explicit stack
    phi = Exists("y", Prime("P", ("y",)))
    for _ in range(5000):
        phi = Forall("x", phi)
    message = r"^(forall x\. ){5000}exists y\. P\(y\) is not in R_1\^0$"
    with pytest.raises(NotInClassError, match=message):
        normalize_R(phi, 1, 0, Classifier())


def test_json_and_subformulas_on_a_5000_deep_chain():
    # formula_to_dict and subformulas keep explicit stacks
    phi = And(Exists("y", Prime("P", ("y",))), Exists("y", Prime("Q", ("y",))))
    for _ in range(5000):
        phi = Exists("x", phi)
    data = normalize_J(phi, 1, 0, Classifier()).to_json()
    ast = data["input"]["ast"]
    for _ in range(5000):
        assert ast["op"] == "exists" and ast["var"] == "x"
        ast = ast["body"]
    assert ast["op"] == "and" and ast["right"]["body"]["name"] == "Q"
    nodes = list(subformulas(phi))
    assert len(nodes) == 5005
    conj = nodes[5000]
    left, right = conj.left, conj.right
    assert nodes[5000:] == [conj, left, left.body, right, right.body]


def test_normal_forms_are_per_classifier():
    phi = parse("(exists x. P(x)) & ((forall y. Q(y)) | exists z. R(z))")
    one, two = Classifier(), Classifier()
    first = normalize_J(phi, 3, 1, one)
    assert one.normal_forms(1) and not two.normal_forms(1)
    # the finished trace is kept on the entry of the goal normalized
    root = one.lift_root(phi, "J", 3, 1)
    assert one.normal_forms(1)[root].steps is first.trace.steps
    assert normalize_J(phi, 3, 1, one).trace.steps is first.trace.steps
    second = normalize_J(phi, 3, 1, two)
    assert second.trace == first.trace
    assert second.trace.steps is not first.trace.steps
    stored = one.normal_forms(1)
    assert stored.keys() == two.normal_forms(1).keys()
    for goal, form in two.normal_forms(1).items():
        assert form is not stored[goal]


def test_a_lifted_goal_with_a_stored_root_derives_nothing(monkeypatch):
    phi = parse("(exists x. P(x)) & (forall y. Q(y) -> exists z. R(y, z))")
    checker = Classifier()
    least = checker.min_levels(phi, 1)[0]
    low = normalize_J(phi, least, 1, checker)
    derived = []
    derive = Classifier.derive

    def counted(self, *goal):
        derived.append(goal)
        return derive(self, *goal)

    monkeypatch.setattr(Classifier, "derive", counted)
    for k in range(least + 1, least + 4):
        high = normalize_J(phi, k, 1, checker)
        assert high.output is low.output
        assert high.trace.steps is low.trace.steps
    assert derived == []
    # a fresh classifier has no entries yet, so it derives them
    normalize_J(phi, least + 3, 1, Classifier())
    assert derived


def test_lift_root_is_where_derive_stops_lifting():
    checker = Classifier()
    for phi in enumerate_formulas(default_signature(4)):
        for n in range(3):
            for side, least in zip("JR", checker.min_levels(phi, n)):
                if least is None:
                    continue
                for k in range(least, least + 3):
                    goal = (phi, side, k)
                    clause, premises = checker.derive(*goal, n)
                    while clause == "lift":
                        (goal,) = premises
                        clause, premises = checker.derive(*goal, n)
                    assert checker.lift_root(phi, side, k, n) == goal
                    assert (clause == "qf") == (goal[2] == 0)


def test_no_checker_leaves_a_classifier_in_any_module():
    # without a checker nothing outlives the call: no module holds a
    # Classifier whose tables a call could fill
    phi = parse("(exists x. P(x)) & forall y. Q(y)")
    for n in range(3):
        normalize_J(phi, 2, n)
        normalize_R(phi, 2, n)
        checker = Classifier()
        normalize_J(phi, 2, n, checker)
        assert checker.normal_forms(n)
    modules = [
        module
        for name, module in sys.modules.items()
        if name == "prenexify" or name.startswith("prenexify.")
    ]
    assert len(modules) > 1
    for module in modules:
        for name, value in vars(module).items():
            assert not isinstance(value, Classifier), f"{module.__name__}.{name}"


def test_lifted_goals_reuse_the_stored_entry():
    phi = parse("(exists x. P(x)) & (forall y. Q(y) -> exists z. R(y, z))")
    for n in range(3):
        for side, normalize in enumerate((normalize_J, normalize_R)):
            checker = Classifier()
            least = checker.min_levels(phi, n)[side]
            assert least is not None and least <= 3
            sizes = []
            for k in range(least, 5):
                normalize(phi, k, n, checker)
                sizes.append(len(checker.normal_forms(n)))
            assert sizes[0] > 0
            assert sizes == sizes[:1] * len(sizes)


def test_every_normal_form_takes_the_measure_drop_in_steps():
    # the step potential: a connective step lowers rewrite.measure by
    # exactly 1, and the normalizer makes no other step, so each normal
    # form of the size-5 corpus at n <= 2 takes as many steps as its
    # measure drops, the least any trace to a prenex formula can take
    corpus = list(enumerate_formulas(default_signature(5)))
    forms = 0
    for n in range(3):
        checker = Classifier()
        for phi in corpus:
            for k, target in zip(checker.levels(phi, n), ("sigma", "pi")):
                if k != inf:
                    output, steps = prenex_form(phi, k, n, target, checker)
                    assert len(steps) == measure(phi) - measure(output)
                    forms += bool(steps)
    assert forms > 10_000


def _goals(phi, witness):
    """The (node, side, level) goals of a witness for ``phi`` that are not
    ``lift`` and whose node is not prenex."""
    goals = set()
    stack = [(phi, witness)]
    while stack:
        psi, w = stack.pop()
        if w.clause == "lift":
            stack.append((psi, w.children[0]))
        elif not is_prenex(psi):
            goals.add((psi, w.side, w.k))
            operands = (psi.body,) if isinstance(psi, _Quant) else (psi.left, psi.right)
            stack.extend(zip(operands, w.children))
    return goals


def test_one_entry_per_goal_over_the_size_4_corpus():
    checker = Classifier()
    goals = defaultdict(set)
    for phi in enumerate_formulas(default_signature(4)):
        for n in range(3):
            for k in range(5):
                for side, normalize in (("J", normalize_J), ("R", normalize_R)):
                    w = checker.witness(phi, k, n, side)
                    if w is not None:
                        normalize(phi, k, n, checker)
                        goals[n] |= _goals(phi, w)
    for n in range(3):
        store = checker.normal_forms(n)
        assert set(store) == goals[n]
        # merges only: no stand-in entry, and no prenex node as a key
        assert None not in store.values()
        assert not [goal for goal in store if is_prenex(goal[0])]


def test_a_prenex_formula_is_its_own_normal_form(monkeypatch):
    # its shape decides it: no derivation, and no store entry
    phi = parse("exists x. forall y. P(x) | Q(y)")
    derived = []
    derive = Classifier.derive

    def counted(self, *goal):
        derived.append(goal)
        return derive(self, *goal)

    monkeypatch.setattr(Classifier, "derive", counted)
    checker = Classifier()
    for n in range(3):
        assert checker.levels(phi, n) == (2, 3)
        for k in range(2, 5):
            assert prenex_form(phi, k, n, "sigma", checker) == (phi, ())
            if k >= 3:
                assert prenex_form(phi, k, n, "pi", checker) == (phi, ())
        assert checker.normal_forms(n) == {}
    assert derived == []


def test_every_hoist_is_made_by_the_rewrite_engine(monkeypatch):
    # the pins cannot see a hoist built without the rewrite engine's
    # checks: each hoist an entry keeps is one rewrite.hoist call, which
    # makes every check of rewrite_node (test_rewrite's
    # test_hoist_agrees_with_the_first_rule_rewrite_node_applies)
    calls = []
    engine = normalizer.hoist

    def counted(*args, **kwargs):
        found = engine(*args, **kwargs)
        calls.append(found)
        return found

    monkeypatch.setattr(normalizer, "hoist", counted)
    # every merge of the size-4 corpus hoists once, so a few formulas
    # whose merges hoist more than once join it
    corpus = list(enumerate_formulas(default_signature(4)))
    corpus += [
        parse("(exists x. forall y. R(x, y)) & (forall z. Q(z))"),
        parse("(forall x. P(x)) | (exists y. forall z. R(y, z))"),
        parse("(exists x. P(x)) -> (forall y. exists z. R(y, z))"),
    ]
    hoists = []
    for n in range(3):
        checker = Classifier()  # cold, so every entry is built here
        for phi in corpus:
            for k in range(5):
                in_j, in_r = checker.decide(phi, k, n)
                if in_j:
                    normalize_J(phi, k, n, checker)
                if in_r:
                    normalize_R(phi, k, n, checker)
        forms = checker.normal_forms(n).values()
        hoists += [len(form.hoists) for form in forms]
    assert max(hoists) > 1
    assert len(calls) == sum(hoists)


def test_a_refused_hoist_reaches_the_caller(monkeypatch):
    # the engine's variable condition refuses the rename it chose; the
    # normalizer passes the refusal on as the cause of its own error
    monkeypatch.setattr(rewrite, "_is_free", lambda name, phi: True)
    with pytest.raises(AssertionError, match="no valid hoist") as info:
        normalize_J(parse("(exists x. P(x)) & Q(y)"), 1, 0)
    refusal = info.value.__cause__
    assert type(refusal) is SideConditionError
    assert str(refusal) == (
        "ExistsAnd: bound variable v0 occurs free in the other operand "
        "(no or unusable fresh rename)"
    )
