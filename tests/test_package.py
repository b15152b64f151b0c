"""The package root: `__all__` lists exactly what `from gridcoreset import *` exports."""

import ast
from pathlib import Path

import gridcoreset


def test_star_import_matches_all():
    namespace = {}
    exec("from gridcoreset import *", namespace)  # a stale __all__ entry raises here
    assert all(name in namespace for name in gridcoreset.__all__)
    assert len(set(gridcoreset.__all__)) == len(gridcoreset.__all__)
    tree = ast.parse(Path(gridcoreset.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if not name.startswith("_")} <= set(gridcoreset.__all__)
