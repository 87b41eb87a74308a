"""Layout rules of the package source, checked on the checkout."""

import pathlib

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qfano"
MAX_LINE = 100


def test_no_source_line_is_longer_than_100_characters():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    long = [
        f"{path.name}:{n} has {len(line)} characters"
        for path in paths
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert long == []
