"""Layout rules of the package source, checked on the checkout."""

import ast
import pathlib
import sys

from conftest import MEMOS

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
# itself import theirs inside functions, so that parsing flags loads nothing, and
# wps loads report when analyze builds its first report
PACKAGE_IMPORTS = {
    "series": set(),
    "report": set(),
    "wps": {"series"},
    "riemann_roch": {"series", "wps"},
    "sarkisov": {"wps"},
    "normal_form": set(),
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


def _absolute_imports(paths=None):
    """(file:line, module) of every absolute import in src/qfano, or in the given files,
    inside functions too; ``from m import n`` names both m and m.n, since n may be a
    submodule."""
    for path in paths or sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            yield from ((f"{path.name}:{node.lineno}", name) for name in names)


def test_every_import_is_qfano_or_the_standard_library():
    # no runtime dependencies: imports inside functions count as much as top-level ones
    outside = [
        f"{where} imports {name}"
        for where, name in _absolute_imports()
        if name.partition(".")[0] not in sys.stdlib_module_names | {"qfano"}
    ]
    assert outside == []


def test_the_test_oracles_import_only_the_standard_library():
    # an oracle that imported qfano could share the fault it is meant to catch
    oracles = [pathlib.Path(__file__).with_name("oracles.py")]
    assert {name.partition(".")[0] for _, name in _absolute_imports(oracles)} <= sys.stdlib_module_names


# records are collections.namedtuple and the goldens are read by path, so a
# command run on an interpreter whose site imports neither pays for neither
UNIMPORTED = {"typing", "importlib.resources"}


def test_no_module_imports_typing_or_importlib_resources():
    found = [f"{where} imports {name}" for where, name in _absolute_imports() if name in UNIMPORTED]
    assert found == []


# the classes that stay dataclasses, each with its reason in a comment on the
# decorator line; every other record is a named tuple or plain class, which costs
# far less to define on import than a dataclass, whose methods are generated and
# compiled, and keeps ``dataclasses`` (and ``inspect``) out of a cold command
DATACLASSES = {
    "report.AnalysisReport",  # bench/test_bench.py calls dataclasses.replace on it
    "riemann_roch.FanoData",  # bench/test_bench.py calls dataclasses.replace on it
    "riemann_roch.RRBasketEntry",  # bench/test_bench.py calls dataclasses.replace on it
}


def test_only_the_listed_classes_are_dataclasses_and_each_says_why():
    found, silent = set(), []
    for path in sorted(SOURCE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                    found.add(f"{path.stem}.{node.name}")
                    if "#" not in lines[decorator.end_lineno - 1]:
                        silent.append(f"{path.name}:{decorator.lineno} {node.name}")
    assert found == DATACLASSES
    assert silent == []


# public names that no code in src/qfano references, each kept for the reason
# beside it; a name that loses its reason is deleted, and every other public
# name has a caller in the package
UNCALLED = {
    "fixtures.fixture",  # bench/test_bench.py looks fixtures up by name
    "riemann_roch.chi",  # README's Library block; bench/tracing.py times it
    "riemann_roch.infer_generators",  # acceptance criterion 6; README's Library block
    "riemann_roch.relation_profile",  # acceptance criterion 6; README's Library block
    "series.partition_count",  # bench/oracle.py's independent series oracle
    "wps.edge_singularities",  # bench/tracing.py times it; README's entry points
    "wps.monomials",  # bench/tracing.py times it
    "wps.vertex_singularity",  # bench/tracing.py times it; README's entry points
    "wps.well_formed",  # bench/workloads.py calls it
}


def _public_definitions(tree):
    """(name, node) of each public def, class or assigned name at a module's top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def test_every_public_name_has_a_caller_in_the_package_or_a_listed_reason():
    # a reference is a bare name in the defining module outside the definition
    # itself, or module.name or ``from .module import name`` in another module;
    # a same-named local elsewhere, such as cli's fixture closure, is not one
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SOURCE.glob("*.py"))}
    defined, used = set(), set()
    for module, tree in trees.items():
        own = dict(_public_definitions(tree))
        defined |= {f"{module}.{name}" for name in own}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in own:
                definition = own[node.id]
                if not definition.lineno <= node.lineno <= definition.end_lineno:
                    used.add(f"{module}.{node.id}")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in trees.keys() - {module}
            ):
                used.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert defined - used == UNCALLED


def _module_level_empty_dicts():
    """(module, name) of each name that a module's top level assigns an empty ``{}``."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            if isinstance(node.value, ast.Dict) and not node.value.keys:
                yield from ((path.stem, t.id) for t in targets if isinstance(t, ast.Name))


def test_conftest_memos_lists_every_module_level_empty_dict():
    # a process memo starts as {} at a module's top level; empty_memos empties only
    # those that conftest's MEMOS lists, so a memo missing there leaks between tests
    listed = [(module.__name__.removeprefix("qfano."), name) for module, name in MEMOS]
    assert sorted(_module_level_empty_dicts()) == sorted(listed)
