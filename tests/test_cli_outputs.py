"""Frozen CLI answers: every command's exit code and stdout, byte for byte.

``data/cli_outputs.json`` lists argv, exit code and stdout for the text,
``--json`` and ``--bare`` forms of each command. A polynomial file argument
is written as ``{NAME}`` and replaced by a file holding ``POLYS[NAME]``.
After a deliberate output change, rewrite the data with

    PYTHONPATH=src python tests/test_cli_outputs.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from qfano import cli, fixtures

DATA = pathlib.Path(__file__).with_name("data") / "cli_outputs.json"
POLYS = {
    "FORM_A": fixtures.FORM_A,
    "FORM_B": fixtures.FORM_B,
    "MIXED": "x5*x7 + x4^3 + x6^2 + 2*x3*x4*x5 + 1/3*x3^2*x6",
    "NO_CORNER": "x5*x7 + x4^3 + x3^4",
}
X12 = ("--weights", "3,4,5,6,7", "--degree", "12")
COMMANDS = [
    *(
        ("link", "--case", case, *flags)
        for case in ("ng", "p2", "p3", "p5", "p7")
        for flags in ((), ("--json",), ("--bare",), ("--bare", "--json"))
    ),
    *(
        (*argv, *json_flag)
        for argv in (
            ("hilbert", *X12, "--terms", "12"),
            ("hilbert", "--space", "1,3,4,5"),
            ("analyze", *X12),
            ("analyze", *X12, "--poly", "{FORM_B}"),
            ("analyze", "--space", "1,2,2,2"),
            ("analyze", "--weights", "1,2,3,5,7", "--degree", "7"),
            ("normalize", "--input", "{FORM_A}"),
            ("normalize", "--input", "{MIXED}"),
            ("normalize", "--input", "{NO_CORNER}"),
            ("hilbert", "--weights", "3,4", "--degree", "12"),
        )
        for json_flag in ((), ("--json",))
    ),
    ("selftest",),
]


def replay(argv, directory: pathlib.Path) -> tuple[int, str]:
    """Exit code and stdout of ``cli.main`` on argv, with polynomial files filled in."""
    args = []
    for arg in argv:
        if arg.startswith("{"):
            path = directory / f"{arg[1:-1]}.txt"
            path.write_text(POLYS[arg[1:-1]], encoding="utf-8")
            arg = str(path)
        args.append(arg)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return code, out.getvalue()


# a missing data file fails test_frozen_outputs_cover_every_command
ENTRIES = json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists() else []


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_is_frozen(entry, tmp_path):
    assert replay(entry["argv"], tmp_path) == (entry["code"], entry["stdout"])


def test_frozen_outputs_cover_every_command():
    assert [tuple(e["argv"]) for e in ENTRIES] == COMMANDS


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = []
        for argv in COMMANDS:
            code, stdout = replay(argv, pathlib.Path(tmp))
            entries.append({"argv": list(argv), "code": code, "stdout": stdout})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
