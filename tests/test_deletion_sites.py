"""Every call in nerprune that removes or truncates a file, pinned.

nerprune deletes in three places only: the grid clears a pending cell's
stale checkpoint slot, execute_run removes the staging directory it made
when the cell fails, and a resume truncates a torn results file. A new
deletion has to be added to the list below, so that it is seen.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nerprune"
REMOVING = {"rmtree", "unlink", "rmdir", "truncate"}


def _deletion_sites(source):
    """(enclosing function, called name) for each call in source of
    shutil.rmtree, os.remove, or an rmtree, unlink, rmdir or truncate
    function or method."""
    sites = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.functions = ["<module>"]

        def visit_FunctionDef(self, node):
            self.functions.append(node.name)
            self.generic_visit(node)
            self.functions.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
                removes = name in REMOVING or (
                    name == "remove" and isinstance(func.value, ast.Name)
                    and func.value.id == "os")
            else:
                name = getattr(func, "id", None)
                removes = name in REMOVING
            if removes:
                sites.append((self.functions[-1], name))
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return sites


def test_the_walk_finds_every_kind_of_deletion():
    source = """
import os, shutil
from shutil import rmtree

def every(path, f, items):
    shutil.rmtree(path)
    rmtree(path)
    os.remove(path)
    path.unlink()
    path.rmdir()
    with open(path, "r+b") as f:
        f.truncate(0)
    items.remove(path)  # a list's, not a file's
"""
    assert _deletion_sites(source) == [("every", name) for name in (
        "rmtree", "rmtree", "remove", "unlink", "rmdir", "truncate")]


def test_nerprune_deletes_in_three_places_only():
    sites = {str(path.relative_to(SRC)): _deletion_sites(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    assert {module: found for module, found in sites.items() if found} == {
        "experiment.py": [
            # the staging directory of a cell that failed, which this call made
            ("execute_run", "rmtree"),
            # a pending cell's stale checkpoint slot and staging directory
            ("_cell_outcome", "rmtree"),
            # a results file's torn last run
            ("_existing_run_ids", "truncate"),
        ],
    }
