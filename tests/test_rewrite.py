import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from prenexify.formula import (
    FALSUM,
    And,
    Exists,
    Forall,
    Imp,
    Or,
    PositionError,
    Prime,
    _Quant,
    fresh_variable,
    is_prenex,
    subformula_at,
)
from prenexify.normalizer import _ORDER
from prenexify.parser import parse
from prenexify.rewrite import (
    RULES,
    RewriteError,
    RewriteStep,
    RuleMismatchError,
    SideConditionError,
    StrategyViolationError,
    Trace,
    TraceStepError,
    applicable_steps,
    apply_step,
    format_position,
    hoist,
    measure,
    parse_position,
    rewrite_node,
    trace_from_json,
    trace_from_text,
    trace_to_json,
    trace_to_text,
    verify_trace,
)
from test_formula import Px, Py, Qx, Qy, formulas, node_count, positions


def test_rule_table_has_fourteen_rules():
    assert len(RULES) == 14
    assert [name for name in RULES][:2] == ["ExistsImp", "ForallImpN"]


def test_applicable_steps_examples():
    steps = applicable_steps(parse("(exists x. P(x)) & Q(y)"), 0)
    assert [(s.rule, s.position) for s in steps] == [("ExistsAnd", ())]

    steps = applicable_steps(parse("Q(y) -> exists x. P(x)"), 0)
    assert [(s.rule, s.position) for s in steps] == [("ImpExistsN", ())]

    assert applicable_steps(parse("(forall x. P(x)) -> false"), 0) == []
    steps = applicable_steps(parse("(forall x. P(x)) -> false"), 1)
    assert [(s.rule, s.position) for s in steps] == [("ForallImpN", ())]


def test_apply_examples():
    phi = parse("(exists x. P(x)) -> Q(y)")
    out = apply_step(phi, RewriteStep("ExistsImp", ()), 0)
    assert out is parse("forall x. P(x) -> Q(y)")

    phi = parse("(exists x. P(x)) & P(x)")
    (step,) = applicable_steps(phi, 0)
    assert step.fresh == "v0"
    out = apply_step(phi, step, 0)
    assert out is parse("exists v0. P(v0) & P(x)")
    assert out.free == phi.free

    phi = parse("Q(y) | forall x. P(x)")
    out = apply_step(phi, RewriteStep("OrForallN", ()), 0)
    assert out is parse("forall x. Q(y) | P(x)")


def test_step_order_rule_then_position():
    # both rules match at the root; rule declaration order breaks the tie
    phi = parse("(exists x. P(x)) & (exists y. Q(y))")
    steps = applicable_steps(phi, 0)
    assert [(s.rule, s.position) for s in steps] == [
        ("ExistsAnd", ()),
        ("AndExists", ()),
    ]
    # one rule at two positions: leftmost redex first
    phi = parse("((exists x. P(x)) & Q(y)) & ((exists z. P(z)) & Q(x))")
    steps = applicable_steps(phi, 0)
    assert [(s.rule, s.position) for s in steps] == [
        ("ExistsAnd", ("l",)),
        ("ExistsAnd", ("r",)),
    ]


def test_step_order_is_leftmost_across_depths():
    # one rule at two depths: the deeper redex, under a quantifier body,
    # sorts by its position alone, on the left side and on the right
    phi = parse("(exists u. ((exists x. P(x)) & Q(y))) & ((exists z. P(z)) & Q(x))")
    steps = applicable_steps(phi, 0)
    assert [(s.rule, s.position) for s in steps] == [
        ("ExistsAnd", ("l", "b")),
        ("ExistsAnd", ("r",)),
    ]
    phi = parse("((exists z. P(z)) & Q(x)) & (exists u. ((exists x. P(x)) & Q(y)))")
    steps = applicable_steps(phi, 0)
    assert [(s.rule, s.position) for s in steps] == [
        ("ExistsAnd", ("l",)),
        ("ExistsAnd", ("r", "b")),
    ]


def test_strategy_restriction_blocks_nonprenex_children():
    # the left operand (exists x. P(x)) & Q(y) is not prenex, so the root
    # conjunction is not yet a legal redex; only the inner one is
    phi = parse("((exists x. P(x)) & Q(y)) & (exists z. P(z))")
    steps = applicable_steps(phi, 0)
    assert [(s.rule, s.position) for s in steps] == [("ExistsAnd", ("l",))]
    with pytest.raises(StrategyViolationError):
        apply_step(phi, RewriteStep("AndExists", ()), 0)


def test_error_kinds_are_distinguished():
    phi = parse("(exists x. P(x)) & Q(y)")
    with pytest.raises(RuleMismatchError):
        apply_step(phi, RewriteStep("ExistsOr", ()), 0)
    with pytest.raises(RuleMismatchError):
        apply_step(phi, RewriteStep("Unheard", ()), 0)
    with pytest.raises(RuleMismatchError):
        # the connective matches, the quantifier's kind does not
        apply_step(parse("(forall x. P(x)) & Q(y)"), RewriteStep("ExistsAnd", ()), 0)
    with pytest.raises(PositionError):
        apply_step(phi, RewriteStep("ExistsAnd", ("b",)), 0)
    with pytest.raises(SideConditionError):
        # degree condition: ForallImpN is never applicable at degree 0
        apply_step(parse("(forall x. P(x)) -> false"), RewriteStep("ForallImpN", ()), 0)
    with pytest.raises(SideConditionError):
        # x free in the other operand, no fresh rename supplied
        apply_step(parse("(exists x. P(x)) & P(x)"), RewriteStep("ExistsAnd", ()), 0)
    with pytest.raises(SideConditionError) as info:
        # renaming x to y would capture the body's free y
        apply_step(parse("(exists x. R(x, y)) & P(x)"), RewriteStep("ExistsAnd", (), "y"), 0)
    assert str(info.value) == "ExistsAnd: fresh y already appears in the quantified operand"


def test_degree_side_conditions():
    # (forall x. P(x)) | exists y. Q(y): hoisting the universal needs the
    # existential side in C_n+, which holds at degree 1 but not 0
    phi = parse("(forall x. P(x)) | (exists y. Q(y))")
    rules_at = lambda n: {s.rule for s in applicable_steps(phi, n)}
    assert rules_at(0) == {"OrExists"}
    assert rules_at(1) == {"ForallOrN", "OrExists"}


def test_var_rules_only_explicit():
    phi = parse("exists x. P(x)")
    assert applicable_steps(phi, 0) == []
    out = apply_step(phi, RewriteStep("ExistsVar", (), fresh="y"), 0)
    assert out is parse("exists y. P(y)")
    with pytest.raises(SideConditionError):
        apply_step(phi, RewriteStep("ExistsVar", ()), 0)  # fresh required
    with pytest.raises(SideConditionError):
        apply_step(phi, RewriteStep("ExistsVar", (), fresh="x"), 0)
    with pytest.raises(RuleMismatchError):
        apply_step(phi, RewriteStep("ForallVar", (), fresh="y"), 0)


def test_verify_trace_examples():
    phi = parse("P(x)")
    assert verify_trace(Trace(phi, (), 0)) is phi

    start = parse("(exists x. P(x)) | (forall y. Q(y))")
    trace = Trace(
        start, (RewriteStep("ExistsOr", ()), RewriteStep("OrForallN", ("b",))), 0
    )
    assert verify_trace(trace) is parse("exists x. forall y. P(x) | Q(y)")

    bad = Trace(parse("(forall x. P(x)) -> false"), (RewriteStep("ForallImpN", ()),), 0)
    with pytest.raises(TraceStepError) as info:
        verify_trace(bad)
    assert info.value.index == 0
    assert isinstance(info.value.reason, SideConditionError)


def test_lifts_to_degree():
    # degrees only gain rules: a trace valid at n replays at every n' >= n
    start = parse("(exists x. P(x)) | (forall y. Q(y))")
    steps = (RewriteStep("ExistsOr", ()), RewriteStep("OrForallN", ("b",)))
    for n in (0, 2, 3):
        assert verify_trace(Trace(start, steps, n)) is parse("exists x. forall y. P(x) | Q(y)")
    start = parse("(forall x. P(x)) -> false")
    steps = (RewriteStep("ForallImpN", ()),)
    for n in (1, 2, 3):
        assert verify_trace(Trace(start, steps, n)) is parse("exists x. ~P(x)")
    with pytest.raises(TraceStepError) as info:
        verify_trace(Trace(start, steps, 0))
    assert info.value.index == 0
    assert isinstance(info.value.reason, SideConditionError)
    assert "U_0+" in str(info.value.reason)


def test_measure_decreases_by_one_per_step():
    phi = parse("(exists x. P(x)) & (forall y. Q(y))")
    assert measure(phi) == 2
    (first, second) = applicable_steps(phi, 0)[:2]
    out = apply_step(phi, first, 0)
    assert measure(out) == 1


def test_trace_text_roundtrip():
    start = parse("(exists x. P(x)) & P(x)")
    (step,) = applicable_steps(start, 0)
    trace = Trace(start, (step,), 0)
    text = trace_to_text(trace)
    assert "ExistsAnd@/ fresh=v0" in text
    again = trace_from_text(text)
    assert again == trace and trace_to_text(again) == text
    assert verify_trace(again) is apply_step(start, step, 0)


@pytest.mark.parametrize("header", ["degree: 1", "start: (exists z. Q(z)) & P(y)"])
def test_trace_text_rejects_a_second_header(header):
    text = f"degree: 0\nstart: (exists x. P(x)) & Q(y)\nExistsAnd@/\n{header}\n"
    name = header.split(":")[0]
    with pytest.raises(ValueError, match=f"second '{name}:' line"):
        trace_from_text(text)


def test_trace_json_roundtrip():
    start = parse("(exists x. P(x)) | (forall y. Q(y))")
    trace = Trace(
        start, (RewriteStep("ExistsOr", ()), RewriteStep("OrForallN", ("b",))), 0
    )
    data = trace_to_json(trace)
    assert data["steps"][1]["path"] == "/b"
    assert trace_from_json(data) == trace


def test_parse_position():
    assert parse_position("/") == ()
    assert parse_position("/l/b/r") == ("l", "b", "r")
    with pytest.raises(ValueError):
        parse_position("l/b")
    with pytest.raises(ValueError):
        parse_position("/l/x")


def test_a_bad_position_names_its_first_bad_part():
    for text, message in [
        ("/l/x/r", "bad position selector 'x' in '/l/x/r'"),
        ("/l//r", "bad position selector '' in '/l//r'"),
        ("l/r", "position must start with '/': 'l/r'"),
    ]:
        with pytest.raises(ValueError) as caught:
            parse_position(text)
        assert str(caught.value) == message


def test_a_depth_40_position_round_trips():
    pos = tuple("lrb"[i % 3] for i in range(40))
    text = format_position(pos)
    assert text.count("/") == 40
    assert parse_position(text) == pos


@settings(max_examples=250, deadline=None)
@given(formulas(max_leaves=6))
def test_every_applicable_step_preserves_free_vars_and_measure(phi):
    for n in range(3):
        steps = applicable_steps(phi, n)
        for step in steps:
            out = apply_step(phi, step, n)
            assert out.free == phi.free
            assert measure(out) == measure(phi) - 1


@settings(max_examples=250, deadline=None)
@given(formulas(max_leaves=6))
def test_degree_monotone_applicability(phi):
    for n in range(3):
        assert set(applicable_steps(phi, n)) <= set(applicable_steps(phi, n + 1))


def test_context_closure_of_traces():
    # a trace on a subformula shifts to any position of a host formula
    sub = parse("(exists x. P(x)) | (forall y. Q(y))")
    inner = Trace(
        sub, (RewriteStep("ExistsOr", ()), RewriteStep("OrForallN", ("b",))), 0
    )
    host = parse("Q(x) & ((exists x. P(x)) | (forall y. Q(y)))")
    shifted = Trace(
        host,
        tuple(RewriteStep(s.rule, ("r",) + s.position, s.fresh) for s in inner.steps),
        0,
    )
    result = verify_trace(shifted)
    assert result is parse("Q(x) & (exists x. forall y. P(x) | Q(y))")


@settings(max_examples=120, deadline=None)
@given(formulas(max_leaves=4))
def test_context_closure_random(phi):
    from prenexify.formula import And as AndNode
    from prenexify.formula import Prime

    steps = applicable_steps(phi, 1)
    if not steps:
        return
    host = AndNode(Prime("Q", ("x",)), phi)
    shifted = [RewriteStep(s.rule, ("r",) + s.position, s.fresh) for s in steps]
    for original, moved in zip(steps, shifted):
        expected = AndNode(Prime("Q", ("x",)), apply_step(phi, original, 1))
        assert apply_step(host, moved, 1) is expected


def _exists_chain(depth, body):
    for _ in range(depth):
        body = Exists("x", body)
    return body


def _negation_chain(depth, body):
    for _ in range(depth):
        body = Imp(body, FALSUM)
    return body


def test_walkers_on_5000_deep_chains():
    # built with the constructors, so that only the walkers are tested
    redex = parse("(exists y. P(y)) & Q(x)")
    chain = _exists_chain(5000, redex)
    assert sum(1 for _ in positions(chain)) == 5000 + node_count(redex)
    assert measure(chain) == 1
    (step,) = applicable_steps(chain, 0)
    assert step == RewriteStep("ExistsAnd", ("b",) * 5000)
    out = apply_step(chain, step, 0)
    assert out is _exists_chain(5000, parse("exists y. P(y) & Q(x)"))
    assert measure(out) == 0
    assert verify_trace(Trace(chain, (step,), 0)) is out

    chain = _negation_chain(5000, Exists("x", Prime("P", ("x",))))
    walk = list(positions(chain))
    assert len(walk) == node_count(chain) == 10002
    assert walk[5000:5003] == [("l",) * 5000, ("l",) * 5000 + ("b",), ("l",) * 4999 + ("r",)]
    assert walk[-1] == ("r",)
    assert measure(chain) == 5000
    (step,) = applicable_steps(chain, 0)
    assert step == RewriteStep("ExistsImp", ("l",) * 4999)
    out = apply_step(chain, step, 0)
    assert measure(out) == 4999
    assert verify_trace(Trace(chain, (step,), 0)) is out


def _fold(trace):
    """The reference replay: every step applied from the root."""
    phi = trace.start
    for index, step in enumerate(trace.steps):
        try:
            phi = apply_step(phi, step, trace.n)
        except Exception as exc:  # noqa: BLE001 - rewrap as verify_trace does
            raise TraceStepError(index, exc) from exc
    return phi


def _outcome(replay, trace):
    try:
        return replay(trace)
    except TraceStepError as exc:
        return exc.index, type(exc.reason), str(exc.reason)


@settings(max_examples=300, deadline=None)
@given(formulas(max_leaves=7), st.integers(0, 2), st.randoms(use_true_random=False))
def test_cursor_replay_matches_the_fold_from_the_root(start, n, rng):
    # a random walk of 1 to 12 steps: applicable steps at any position, so
    # the cursor jumps up and across siblings, and standalone renamings
    steps = []
    phi = start
    for _ in range(rng.randint(1, 12)):
        quants = [
            p for p in positions(phi)
            if isinstance(q := subformula_at(phi, p), _Quant) and is_prenex(q.body)
        ]
        choices = applicable_steps(phi, n)
        if quants and (not choices or rng.random() < 0.25):
            pos = rng.choice(quants)
            rule = "ExistsVar" if isinstance(subformula_at(phi, pos), Exists) else "ForallVar"
            step = RewriteStep(rule, pos, fresh_variable(phi.vars))
        elif choices:
            step = rng.choice(choices)
        else:
            break
        steps.append(step)
        phi = apply_step(phi, step, n)
    trace = Trace(start, tuple(steps), n)
    assert verify_trace(trace) is _fold(trace) is phi
    if not steps:
        return

    i = rng.randrange(len(steps))
    step = steps[i]
    dangling = RewriteStep(step.rule, step.position + ("l",) * (node_count(start) + 1), step.fresh)
    order = tuple(RULES)
    other_rule = order[(order.index(step.rule) + rng.randrange(1, 14)) % 14]
    corrupted = [
        steps[:i] + steps[i + 1:],
        steps[:i] + [dangling] + steps[i + 1:],
        steps[:i] + [RewriteStep(other_rule, step.position, step.fresh)] + steps[i + 1:],
    ]
    for bad in corrupted:
        bad = Trace(start, tuple(bad), n)
        assert _outcome(verify_trace, bad) == _outcome(_fold, bad)
    index, reason, message = _outcome(verify_trace, Trace(start, tuple(corrupted[1]), n))
    assert (index, reason) == (i, PositionError) and "invalid for" in message


def _first_rewrite(node, n, order, avoid):
    """The first rule of ``order`` whose step ``rewrite_node`` applies at
    ``node``, renaming as the normalizer does, as ``(rule, fresh,
    hoisted)``; ``None`` when it refuses every one."""
    for rule in order:
        quant, delta = (node.left, node.right) if rule.qside == "l" else (node.right, node.left)
        fresh = None
        if isinstance(quant, _Quant) and quant.var in delta.free:
            fresh = fresh_variable([*avoid, *node.vars])
        try:
            return rule, fresh, rewrite_node(node, RewriteStep(rule.name, (), fresh), n)
        except RewriteError:
            continue
    return None


_QF = st.recursive(
    st.sampled_from([FALSUM, Px, Py, Qx, Qy]),
    lambda sub: st.builds(lambda conn, a, b: conn(a, b), st.sampled_from([And, Or, Imp]), sub, sub),
    max_leaves=3,
)


def _prenex(prefix, matrix):
    for quant, var in reversed(prefix):
        matrix = quant(var, matrix)
    return matrix


_PRENEX = st.builds(
    _prenex,
    st.lists(st.tuples(st.sampled_from([Exists, Forall]), st.sampled_from("xyz")), max_size=4),
    _QF,
)


@seed(31)
@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([And, Or, Imp]),
    st.one_of(_PRENEX, formulas(max_leaves=4)),
    _PRENEX,
    st.lists(st.sampled_from(["v0", "v1", "x", "z"]), max_size=3),
)
def test_hoist_agrees_with_the_first_rule_rewrite_node_applies(conn, left, right, avoid):
    # the normalizer's one engine call per hoist makes the checks of
    # rewrite_node, each once: same rule, fresh name and hoisted node, and
    # None exactly when rewrite_node refuses every rule of the order (a
    # left operand that is not prenex refuses them all)
    node = conn(left, right)
    for order in _ORDER.values():
        for n in range(4):
            assert hoist(node, n, order, avoid) == _first_rewrite(node, n, order, avoid)


def test_a_step_is_an_immutable_value():
    step = RewriteStep("ExistsAnd", ("b",), "v0")
    for field in ("rule", "position", "fresh"):
        with pytest.raises(AttributeError):
            setattr(step, field, None)
    assert step == RewriteStep("ExistsAnd", ("b",), "v0")
    assert repr(step) == "RewriteStep(rule='ExistsAnd', position=('b',), fresh='v0')"


def test_equal_steps_hash_equal_across_text_and_json_round_trips():
    # criterion 7 compares step sets: set(steps) <= set(applicable_steps(...))
    phi = parse("((exists x. P(x)) & P(x)) | (forall y. Q(y) -> exists z. R(y, z))")
    trace = Trace(phi, tuple(applicable_steps(phi, 1)), 1)
    assert any(step.fresh for step in trace.steps)
    for again in (trace_from_text(trace_to_text(trace)), trace_from_json(trace_to_json(trace))):
        assert again == trace
        assert [hash(step) for step in again.steps] == [hash(step) for step in trace.steps]
        assert set(again.steps) == set(trace.steps)


def test_step_lines_with_comments_blanks_and_a_repeated_path_read_back_equal():
    text = (
        "degree: 0   \n"
        "start: exists x. P(x) & Q(y)\n"
        "  ExistsVar@/ fresh=z   # rename\n"
        "ExistsVar@/ fresh=w\t\n"
        "\t# only a comment\n"
        "   \n"
        "ExistsVar@/#no blank before the comment\n"
    )
    assert trace_from_text(text) == Trace(
        parse("exists x. P(x) & Q(y)"),
        (
            RewriteStep("ExistsVar", (), "z"),
            RewriteStep("ExistsVar", (), "w"),
            RewriteStep("ExistsVar", (), None),
        ),
        0,
    )
    deep = "degree: 1\nstart: P(x)\nExistsAnd@/l/b/r\nForallOrN@/l/b/r fresh=v2 #\n"
    assert trace_from_text(deep).steps == (
        RewriteStep("ExistsAnd", ("l", "b", "r")),
        RewriteStep("ForallOrN", ("l", "b", "r"), "v2"),
    )
