import contextlib
import io
import json
import os
import re
import string
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prenexify.cli import main
from prenexify.parser import render
from test_formula import formulas


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ok(capsys):
    code, out, _ = run(capsys, "parse", "~P(x)")
    assert code == 0
    assert out.strip() == "P(x) -> false"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "--json", "P(x) & Q(y)")
    assert code == 0
    assert json.loads(out)["op"] == "and"


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "parse", "P(x) &")
    assert code == 2
    assert "parse error" in err


def test_classify(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "# demo corpus\n"
        "sig P/1 Q/1\n"
        "exists x. P(x)\n"
        "P(x)\n"
        "(forall x. P(x)) -> false\n"
    )
    code, out, _ = run(capsys, "classify", str(corpus), "--n", "0", "--k-max", "4")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3

    first = records[0]
    assert first["formula"] == "exists x. P(x)"
    assert first["min_levels"]["0"] == {"k_J": 1, "k_R": 2}
    assert first["prenex"] == {"kind": "sigma", "level": 1, "blocks": [1]}

    second = records[1]
    assert second["prenex"]["level"] == 0
    assert all(cell["in_J"] and cell["in_R"] for cell in second["grid"])

    third = records[2]
    assert third["min_levels"]["0"] == {"k_J": None, "k_R": None}
    assert not any(cell["in_J"] or cell["in_R"] for cell in third["grid"])


def test_classify_reports_parse_errors(tmp_path, capsys):
    corpus = tmp_path / "bad.txt"
    corpus.write_text("P(x) &\nQ(y)\n")
    code, _, err = run(capsys, "classify", str(corpus))
    assert code == 2
    assert "1:7" in err


def test_normalize_roundtrip(tmp_path, capsys):
    trace_file = tmp_path / "out.trace"
    code, out, _ = run(
        capsys,
        "normalize",
        "(exists x. P(x)) | (forall y. Q(y))",
        "-k",
        "2",
        "-n",
        "0",
        "--trace-out",
        str(trace_file),
    )
    assert code == 0
    data = json.loads(out)
    assert data["output"]["text"] == "exists x. forall y. P(x) | Q(y)"

    code, out, _ = run(capsys, "verify", str(trace_file))
    assert code == 0
    assert out.strip() == "exists x. forall y. P(x) | Q(y)"


def test_normalize_not_in_class_exit_3(capsys):
    code, _, err = run(
        capsys, "normalize", "(forall x. P(x)) -> false", "-k", "2", "-n", "0"
    )
    assert code == 3
    assert "not in" in err


def test_verify_rejects_bad_step(tmp_path, capsys):
    trace_file = tmp_path / "bad.trace"
    trace_file.write_text(
        "degree: 0\nstart: (forall x. P(x)) -> false\nForallImpN@/\n"
    )
    code, _, err = run(capsys, "verify", str(trace_file))
    assert code == 1
    assert "step 0 failed" in err


def test_verify_json_trace(tmp_path, capsys):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(
        json.dumps(
            {
                "schema": "prenexify.trace/1",
                "degree": 0,
                "start": "(exists x. P(x)) & Q(y)",
                "steps": [{"rule": "ExistsAnd", "path": "/", "fresh": None}],
            }
        )
    )
    code, out, _ = run(capsys, "verify", str(trace_file))
    assert code == 0
    assert out.strip() == "exists x. P(x) & Q(y)"


def test_verify_malformed_exit_2(tmp_path, capsys):
    trace_file = tmp_path / "nonsense.trace"
    trace_file.write_text("no trace here\n")
    code, _, err = run(capsys, "verify", str(trace_file))
    assert code == 2


def test_verify_rejects_negative_degree(tmp_path, capsys):
    trace_file = tmp_path / "negative.trace"
    trace_file.write_text("degree: -1\nstart: P(x)\n")
    code, out, err = run(capsys, "verify", str(trace_file))
    assert code == 2
    assert out == ""
    assert err.startswith("malformed trace")


@pytest.mark.parametrize(
    "fields",
    [
        {"degree": 0, "start": "P(x)"},
        {"degree": 0, "start": "P(x)", "steps": "ExistsAnd@/"},
        {"degree": 0, "start": "P(x)", "steps": [{"path": "/"}]},
        {"degree": 0, "start": "P(x)", "steps": ["ExistsAnd@/"]},
        {"degree": -1, "start": "P(x)", "steps": []},
        {"start": "P(x)", "steps": []},
        {"degree": float("inf"), "start": "P(x)", "steps": []},
        {"degree": 0, "start": 5, "steps": []},
        {"degree": 0, "start": ["P(x)"], "steps": []},
        *(
            {
                "degree": 0,
                "start": "(exists x. P(x)) & Q(y)",
                "steps": [{"rule": "ExistsAnd", "path": "/", "fresh": fresh}],
            }
            for fresh in ("Q", "false", "forall", 5, "x y", "")
        ),
    ],
)
def test_verify_malformed_json_trace_exit_2(tmp_path, capsys, fields):
    trace_file = tmp_path / "malformed.json"
    trace_file.write_text(json.dumps({"schema": "prenexify.trace/1", **fields}))
    code, _, err = run(capsys, "verify", str(trace_file))
    assert code == 2
    assert err.startswith("malformed trace")


@pytest.mark.parametrize("fresh", ["Q", "false", "forall", "x,"])
def test_verify_rejects_text_trace_fresh_name_that_is_no_variable(
    tmp_path, capsys, fresh
):
    trace_file = tmp_path / "fresh.trace"
    trace_file.write_text(
        f"degree: 0\nstart: (exists x. P(x)) & Q(y)\nExistsAnd@/ fresh={fresh}\n"
    )
    code, out, err = run(capsys, "verify", str(trace_file))
    assert code == 2
    assert out == ""
    assert err.startswith("malformed trace") and err.count("\n") == 1


def test_verify_text_trace_with_fresh_variable(tmp_path, capsys):
    trace_file = tmp_path / "fresh.trace"
    trace_file.write_text(
        "degree: 0\nstart: (exists x. P(x)) & Q(y)\nExistsAnd@/ fresh=v0\n"
    )
    code, out, _ = run(capsys, "verify", str(trace_file))
    assert code == 0
    assert out == "exists v0. P(v0) & Q(y)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "P(x)", "-k", "-1", "-n", "0"),
        ("normalize", "P(x)", "-k", "1", "-n", "-1"),
        ("normalize", "P(x)", "-k", "one", "-n", "0"),
        ("search", "P(x)", "-n", "-1", "--target", "j", "-k", "0"),
        ("search", "P(x)", "-n", "0", "--target", "j", "-k", "1.5"),
        ("classify", "corpus.txt", "--n", "a"),
        ("classify", "corpus.txt", "--n", "0,-1"),
        ("classify", "corpus.txt", "--k-max", "-1"),
    ],
)
def test_levels_must_be_natural_numbers(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.txt").write_text("P(x)\n")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "natural number" in err


def test_search_yes(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "(exists x. P(x)) | (forall y. Q(y))",
        "-n",
        "0",
        "--target",
        "sigma",
        "-k",
        "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    assert any(line.startswith("ExistsOr@") for line in lines)


def test_search_no_on_unreachable_target(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "((forall x. P(x)) | (exists y. Q(y))) -> R(x)",
        "-n",
        "1",
        "--target",
        "sigma",
        "-k",
        "2",
    )
    assert code == 0
    assert out.strip() == "no"


def test_search_budget_unknown_exit_4(capsys, monkeypatch):
    monkeypatch.setenv("PRENEXIFY_BUDGET", "2")
    code, out, _ = run(
        capsys,
        "search",
        "(exists x. P(x)) | (forall y. Q(y))",
        "-n",
        "0",
        "--target",
        "pi",
        "-k",
        "0",
    )
    assert code == 4
    assert out.strip() == "unknown"


def test_config_file_sets_signature_and_budget(tmp_path, capsys):
    config = tmp_path / "prenexify.cfg"
    config.write_text("# demo\nsig = P/2\nbudget = 7\n")
    code, _, err = run(capsys, "--config", str(config), "parse", "P(x)")
    assert code == 2
    assert "expects 2" in err
    code, out, _ = run(capsys, "--config", str(config), "parse", "P(x, y)")
    assert code == 0


def test_selftest_small(capsys):
    code, out, _ = run(
        capsys, "selftest", "--size", "3", "--n-max", "1", "--k-max", "3", "--quiet"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(lines) == 7


SEARCH = ("search", "P(x)", "-n", "0", "--target", "j", "-k", "0")
SEARCH_YES = (
    "search",
    "(exists x. P(x)) | (forall y. Q(y))",
    "-n",
    "0",
    "--target",
    "sigma",
    "-k",
    "2",
)
START_NOT_A_STRING = {"schema": "prenexify.trace/1", "degree": 0, "start": 5}
CONFIG = ("--config", "a.cfg")
PARSE = ("parse", "P(x)")
NORMALIZE = ("normalize", "P(x)", "-k", "0", "-n", "0")

# Each case: argv, files in the working directory, PRENEXIFY_BUDGET, and a
# substring of the one stderr line.
INPUT_ERRORS = {
    "config-budget-abc": ((*CONFIG, *SEARCH), {"a.cfg": b"budget=abc"}, None, "budget"),
    "config-budget-negative": ((*CONFIG, *SEARCH), {"a.cfg": b"budget=-5"}, None, "-5"),
    "config-sig-malformed": ((*CONFIG, *PARSE), {"a.cfg": b"sig = P/x"}, None, "P/x"),
    "config-not-utf8": ((*CONFIG, *PARSE), {"a.cfg": b"\xff"}, None, "a.cfg"),
    "config-unknown-key": ((*CONFIG, *PARSE), {"a.cfg": b"colour = 1"}, None, "colour"),
    "config-no-equals": ((*CONFIG, *PARSE), {"a.cfg": b"budget"}, None, "key=value"),
    "config-missing": (("--config", "none.cfg", *PARSE), {}, None, "none.cfg"),
    "config-read-by-verify": ((*CONFIG, "verify", "t"), {"a.cfg": b"x=1"}, None, "'x'"),
    "env-budget-zz": (SEARCH, {}, "zz", "PRENEXIFY_BUDGET"),
    "env-budget-negative": (SEARCH, {}, "-1", "PRENEXIFY_BUDGET"),
    "search-budget-negative": ((*SEARCH, "--budget", "-3"), {}, None, "natural"),
    "parse-sig-malformed": ((*PARSE, "--sig", "P/x"), {}, None, "P/x"),
    "classify-sig-malformed": (
        ("classify", "c.txt", "--sig", "P/x"),
        {"c.txt": b"P(x)\n"},
        None,
        "P/x",
    ),
    "classify-not-utf8": (("classify", "c.txt"), {"c.txt": b"P\n\xff"}, None, "c.txt"),
    "classify-two-sig-headers": (
        ("classify", "c.txt"),
        {"c.txt": b"sig P/1\nsig Q/1\nP(x)\n"},
        None,
        "c.txt:2:",
    ),
    "verify-not-utf8": (("verify", "t"), {"t": b"degree: 0\nstart: \xff"}, None, "t:"),
    "verify-json-start-not-a-string": (
        ("verify", "t"),
        {"t": json.dumps({**START_NOT_A_STRING, "steps": []}).encode()},
        None,
        "malformed trace",
    ),
    "normalize-trace-out-missing-dir": (
        (*NORMALIZE, "--trace-out", "no/t"),
        {},
        None,
        "no/t",
    ),
    "search-trace-out-missing-dir": (
        (*SEARCH_YES, "--trace-out", "no/t"),
        {},
        None,
        "no/t",
    ),
    "selftest-negative-levels": (
        ("selftest", "--n-max", "-1", "--k-max", "-3"),
        {},
        None,
        "natural",
    ),
    "selftest-negative-size": (("selftest", "--size", "-1"), {}, None, "natural"),
    "selftest-budget-x": (("selftest", "--budget", "x"), {}, None, "natural"),
}


@pytest.mark.parametrize(
    "argv, files, budget_env, expect", INPUT_ERRORS.values(), ids=INPUT_ERRORS
)
def test_input_errors_exit_2(
    tmp_path, capsys, monkeypatch, argv, files, budget_env, expect
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRENEXIFY_BUDGET", raising=False)
    if budget_env is not None:
        monkeypatch.setenv("PRENEXIFY_BUDGET", budget_env)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and expect in err


def test_classify_reports_every_bad_line(tmp_path, capsys):
    corpus = tmp_path / "bad.txt"
    corpus.write_text("sig P/1\nP(x) &\nP(x)\nQ(y)\n")
    code, out, err = run(capsys, "classify", str(corpus))
    assert code == 2
    assert out == ""
    assert [line.split(":")[1] for line in err.splitlines()] == ["2", "4"]


def test_budget_precedence(tmp_path, capsys, monkeypatch):
    """Flag, then config file, then PRENEXIFY_BUDGET, then the default."""
    search = ("search", "(exists x. P(x)) | (forall y. Q(y))", "-n", "0")
    search += ("--target", "pi", "-k", "0")
    config = tmp_path / "big.cfg"
    config.write_text("budget = 100000\n")
    monkeypatch.setenv("PRENEXIFY_BUDGET", "2")
    assert run(capsys, *search)[0] == 4
    assert run(capsys, "--config", str(config), *search)[0] == 0
    assert run(capsys, "--config", str(config), *search, "--budget", "2")[0] == 4
    monkeypatch.delenv("PRENEXIFY_BUDGET")
    assert run(capsys, *search)[0] == 0


def test_help_returns_0(capsys):
    code, out, _ = run(capsys, "normalize", "--help")
    assert code == 0
    assert out.startswith("usage: prenexify normalize")


# -- the whole boundary, fuzzed ---------------------------------------------

TOKENS = ["exists", "forall", "false", "P", "Q(x)", "P(x, y)", "x", "y", "v0"]
TOKENS += ["(", ")", "&", "|", "->", "~", ".", ",", " "]


def pick(*strategies):
    """Draws from one of ``strategies``, each as likely; repeat one to weight it."""
    return st.sampled_from(strategies).flatmap(lambda strategy: strategy)


well_formed = formulas(max_leaves=3).map(render).filter(lambda text: len(text) <= 30)
formula_texts = pick(
    st.text(string.ascii_letters + string.digits + "_()&|~.,-> ", max_size=30),
    st.lists(st.sampled_from(TOKENS), max_size=16).map(lambda t: "".join(t)[:30]),
    well_formed,
    well_formed,
)
naturals = st.integers(0, 4).map(str)
bad_numbers = st.one_of(
    st.integers(-5, -1).map(str), st.sampled_from(["", "x", "1.5", "0x1", "--", "-"])
)
# mostly naturals, so that most calls get past argparse
values = pick(naturals, naturals, naturals, naturals, bad_numbers, formula_texts)
signatures = st.sampled_from(["P/1 Q/1", "P/1 Q/1", "P/2 Q/1", "P/x", "p/1", "", "-1"])
OPTIONS = {
    "-k": values,
    "-n": values,
    "--target": st.sampled_from(["sigma", "pi", "j", "r", "x"]),
    "--sig": signatures,
    "--trace-out": st.sampled_from(["out.trace", "out.trace", "no/out.trace", "."]),
    "--n": st.lists(st.one_of(naturals, bad_numbers), max_size=3).map(",".join),
    "--k-max": values,
    "--json": st.none(),
}
# positional, required options, other options
COMMANDS = {
    "parse": (formula_texts, [], ["--sig", "--json"]),
    "classify": (st.just("c.txt"), [], ["--n", "--k-max", "--sig"]),
    "normalize": (formula_texts, ["-k", "-n"], ["--target", "--sig", "--trace-out"]),
    "verify": (st.just("t.trace"), [], []),
    "search": (formula_texts, ["-k", "-n", "--target"], ["--sig", "--trace-out"]),
}


def lines_of(items):
    return st.lists(items, max_size=4).map("\n".join)


config_texts = lines_of(
    st.sampled_from(["sig = P/1 Q/1", "budget = 3", "# c", "", "sig = P/x", "x=1"])
)
corpus_texts = lines_of(st.one_of(st.just("sig P/1 Q/1"), formula_texts))
STARTS = ["(exists x. P(x)) & Q(y)", "(forall x. P(x)) -> false", "exists x. P(x)"]
STEPS = ["ExistsAnd@/", "ExistsImp@/", "ForallImpN@/", "ExistsVar@/", "No@/", "No"]
trace_texts = st.builds(
    "degree: {}\nstart: {}\n{}{}".format,
    st.one_of(naturals, bad_numbers),
    st.one_of(st.sampled_from(STARTS), formula_texts),
    st.sampled_from(STEPS),
    st.sampled_from(["", " fresh=v1", " fresh=x", " fresh=Q", " fresh=false"]),
)
json_traces = st.fixed_dictionaries(
    {"schema": st.just("prenexify.trace/1")},
    optional={
        "degree": st.one_of(st.integers(-1, 2), st.none(), st.text(max_size=2)),
        "start": st.one_of(st.sampled_from(STARTS), formula_texts, st.integers()),
        "steps": st.lists(
            st.fixed_dictionaries(
                {"rule": st.sampled_from(["ExistsAnd", "ExistsVar", "x", ""])},
                optional={
                    "path": st.sampled_from(["/", "/l", "l", "/q"]),
                    "fresh": st.one_of(st.none(), st.integers(), formula_texts),
                },
            ),
            max_size=2,
        ),
    },
).map(json.dumps)


def file_contents(grammar):
    """At most 64 arbitrary bytes, or text built from the file's grammar."""
    return st.one_of(st.binary(max_size=64), grammar.map(str.encode))


mostly = st.sampled_from([True] * 9 + [False])


@st.composite
def invocations(draw):
    """``(argv, files, PRENEXIFY_BUDGET or None)`` for one call of ``main``."""
    argv, files = [], {}
    if draw(st.integers(0, 3)) == 0:
        argv += ["--config", draw(st.sampled_from(["a.cfg"] * 3 + ["none.cfg"]))]
        files["a.cfg"] = draw(file_contents(config_texts))
    command = draw(st.sampled_from([*COMMANDS, "selftest"]))
    argv.append(command)
    if command == "selftest":
        # only argument values that argparse must reject: a valid call runs
        # the whole acceptance suite
        flags = draw(st.lists(st.sampled_from(["--size", "--n-max", "--k-max"])))
        for flag in flags + ["--budget"]:
            argv += [flag, draw(st.one_of(naturals, bad_numbers))]
        flag = draw(st.sampled_from(["--size", "--n-max", "--k-max", "--budget"]))
        argv += [flag, draw(bad_numbers)]
        return argv, files, None
    positional, required, optional = COMMANDS[command]
    if draw(mostly):
        argv.append(draw(positional))
    flags = [flag for flag in required if draw(mostly)]
    flags += draw(st.lists(st.sampled_from(optional), unique=True)) if optional else []
    for flag in draw(st.permutations(flags)):
        value = draw(OPTIONS[flag])
        argv += [flag] if value is None else [flag, value]
    if command == "search":
        # a natural budget stays small: the default explores 100,000 states
        budget = st.integers(0, 50).map(str)
        argv += ["--budget", draw(pick(budget, budget, budget, bad_numbers))]
    files["c.txt"] = draw(file_contents(corpus_texts))
    files["t.trace"] = draw(file_contents(st.one_of(trace_texts, json_traces)))
    return argv, files, draw(st.none() | st.none() | values)


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_cli_boundary_never_raises(invocation):
    """Any argv, ``PRENEXIFY_BUDGET``, config, corpus and trace ends in an
    exit code from 0 to 4; exit 2 prints one stderr line per error and
    nothing on stdout; exit 1 comes only from a trace step that fails.

    Not covered: nesting about 200 deep still ends in a ``RecursionError``
    in the recursive parser and walkers, and a formula of at most 30
    characters cannot reach that depth.
    """
    argv, files, budget_env = invocation
    command = next(arg for arg in argv if arg in COMMANDS or arg == "selftest")
    saved_cwd, saved_env = os.getcwd(), os.environ.pop("PRENEXIFY_BUDGET", None)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            os.chdir(tmp)
            for name, data in files.items():
                with open(name, "wb") as handle:
                    handle.write(data)
            if budget_env is not None:
                os.environ["PRENEXIFY_BUDGET"] = budget_env
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(saved_cwd)
            os.environ.pop("PRENEXIFY_BUDGET", None)
            if saved_env is not None:
                os.environ["PRENEXIFY_BUDGET"] = saved_env
    out, err = out.getvalue(), err.getvalue()
    lines = err.split("\n")
    assert code in range(5)
    assert err == "" or (err.endswith("\n") and lines.pop() == "")
    if code == 0:
        assert err == ""
    elif code == 1:
        assert command == "verify" and len(lines) == 1
        assert re.match(r"step \d+ failed", lines[0])
    elif code == 2:
        assert out == ""
        assert len(lines) == 1 or command == "classify" and all(
            line.startswith("c.txt:") for line in lines
        )
    elif code == 3:
        assert command == "normalize" and out == "" and len(lines) == 1
    else:
        assert command == "search" and out == "unknown\n"
