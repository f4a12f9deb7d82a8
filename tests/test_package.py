"""The package root re-exports nothing: each public name has one import
path, the module that defines it."""

import ast
from pathlib import Path

import nerprune


def test_the_package_root_is_its_docstring_alone():
    # a re-export or a second version string added to the root fails here
    source = ast.parse(Path(nerprune.__file__).read_text(encoding="utf-8"))
    assert len(source.body) == 1
    assert ast.get_docstring(source, clean=False) == nerprune.__doc__
