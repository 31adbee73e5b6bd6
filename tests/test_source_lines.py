"""The sources keep to 100 columns."""

import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rbx"


def test_no_source_line_is_wider_than_100_columns():
    wide = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert wide == []
