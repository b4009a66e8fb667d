"""No line of the package's source is longer than 99 characters."""

from pathlib import Path

import prenexify

SRC = Path(prenexify.__file__).parent
LIMIT = 99


def test_no_source_line_is_longer_than_99_characters():
    long = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert long == []
