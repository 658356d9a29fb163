"""Checks on the library source itself.

A function or class under ``src/`` that no module under ``src/``
references is either dead or a helper only the tests call; such helpers
belong in the tests.  The exceptions are the click commands, which the
command group dispatches by name, and ``compose``, kept for the
Aut(G)-orbit work on the induced-map stage.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fppcert"

ALLOWED = {"compose"}


def _is_click_command(node) -> bool:
    """Decorated with ``@<group>.command(...)`` or ``@click.group(...)``."""
    for dec in node.decorator_list:
        func = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(func, ast.Attribute) and func.attr in ("command", "group"):
            return True
    return False


def unreferenced_definitions(src: Path = SRC):
    """Sorted ``module:name`` of definitions no source module refers to.

    A reference is a name read or an attribute access anywhere under
    ``src/``; imports alone do not count.  Dunder methods are called by
    Python itself and are skipped.
    """
    defined = []  # (module, qualified name, name)
    referenced = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(item): f"{node.name}." for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")) \
                        and not _is_click_command(node):
                    defined.append((path.stem, owner.get(id(node), "") + node.name, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(f"{module}:{qualified}" for module, qualified, name in defined
                  if name not in referenced and name not in ALLOWED)


def test_every_definition_is_referenced_by_the_library():
    assert unreferenced_definitions() == []


def test_the_check_finds_a_test_only_helper(tmp_path):
    copy = tmp_path / "fppcert"
    copy.mkdir()
    for path in SRC.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    with open(copy / "presentation.py", "a") as fh:
        fh.write("\n\ndef word_length(w):\n    return sum(abs(e) for _, e in w.letters)\n")
    assert unreferenced_definitions(copy) == ["presentation:word_length"]
