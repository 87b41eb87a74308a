"""Layout rules of the package source, checked on the checkout."""

import ast
import pathlib
import sys

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


# qfano modules each module may import at module level; cli and the package
# itself import theirs inside functions, so that parsing flags loads nothing
PACKAGE_IMPORTS = {
    "series": set(),
    "wps": {"series"},
    "riemann_roch": {"series", "wps"},
    "sarkisov": {"wps"},
    "normal_form": {"wps"},
    "fixtures": {"wps"},
    "cli": set(),
    "__init__": set(),
}


def _package_imports(path):
    """The qfano modules that a module's top-level import statements name."""
    modules = {p.stem for p in SOURCE.glob("*.py")}
    named = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            named.update(alias.name.removeprefix("qfano.") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qfano")):
            module = (node.module or "").removeprefix("qfano").lstrip(".")
            named.update([module] if module else [alias.name for alias in node.names])
    return named & modules


def test_modules_import_only_the_layers_below_them():
    paths = sorted(SOURCE.glob("*.py"))
    assert {path.stem for path in paths} == set(PACKAGE_IMPORTS)
    found = {path.stem: _package_imports(path) for path in paths}
    assert found == PACKAGE_IMPORTS


def test_every_import_is_qfano_or_the_standard_library():
    # no runtime dependencies: imports inside functions count as much as top-level ones
    outside = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"qfano"}
            ]
    assert outside == []
