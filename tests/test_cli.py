import json

import pytest

from prenexify.cli import main


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
    ],
)
def test_verify_malformed_json_trace_exit_2(tmp_path, capsys, fields):
    trace_file = tmp_path / "malformed.json"
    trace_file.write_text(json.dumps({"schema": "prenexify.trace/1", **fields}))
    code, _, err = run(capsys, "verify", str(trace_file))
    assert code == 2
    assert err.startswith("malformed trace")


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
