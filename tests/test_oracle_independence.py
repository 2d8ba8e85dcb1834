"""The dense oracle must stay independent of the package it checks."""

import ast
from pathlib import Path


def test_dense_oracle_does_not_import_the_package():
    tree = ast.parse((Path(__file__).parent / "dense_oracle.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [name for name in imported if name.split(".")[0] == "photonherald"]
