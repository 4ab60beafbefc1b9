"""Every module-level import of the package, the tests and the tools is used.

No linter ships with the project, so this reads each file's syntax tree: a
name that a module-level ``import`` or ``from ... import`` binds must be
read somewhere in the file, or be listed in its ``__all__``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src/bicontact", "tests", "tools")
               for path in (ROOT / folder).glob("*.py"))


def _unused_imports(path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_the_scan_sees_every_folder():
    folders = {path.parent.name for path in FILES}
    assert folders == {"bicontact", "tests", "tools"}


@pytest.mark.parametrize("path", FILES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path) == []
