"""The package's own checks hold under ``python -O``, which drops every
``assert`` statement: a check the package makes raises explicitly."""

import ast
from pathlib import Path

import prenexify

SRC = Path(prenexify.__file__).parent


def asserts(sources: dict[str, str]) -> set[str]:
    """``module:line`` for each ``assert`` statement in the modules of
    ``sources`` (module name -> text)."""
    return {
        f"{module}:{node.lineno}"
        for module, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Assert)
    }


def test_the_scan_finds_each_assert():
    sources = {
        "normalizer": "def f(k):\n    assert k >= 0, 'negative'\n",
        "cli": "if True:\n    assert False\n",
        # a raise and the word in a docstring are no assert statement
        "fine": "'''assert this'''\nif 0:\n    raise AssertionError('x')\n",
    }
    assert asserts(sources) == {"normalizer:2", "cli:2"}


def test_the_package_has_no_assert_statement():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    assert "normalizer" in sources and "cli" in sources
    assert asserts(sources) == set()
