"""Every public name the package defines is used by the package itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "photonherald"


def _is_click_command(node):
    """A function under ``@click...`` or ``@<group>.command``/``.group``."""
    for decorator in node.decorator_list:
        while isinstance(decorator, (ast.Call, ast.Attribute)):
            if isinstance(decorator, ast.Attribute) and decorator.attr in ("command", "group"):
                return True
            decorator = decorator.func if isinstance(decorator, ast.Call) else decorator.value
        if isinstance(decorator, ast.Name) and decorator.id == "click":
            return True
    return False


def _definitions(tree):
    """(name, first line, last line) of each top-level function, class
    and constant, and each method of a public class; the caller drops the
    private names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_click_command(node):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno, item.end_lineno
        targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id, node.lineno, node.end_lineno


def _references(path, tree):
    """(name, file, line) of each name the code reads; the strings of
    ``__all__`` are not references."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, path, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, path, node.lineno


def test_every_public_name_is_used_by_the_package():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    references = [ref for path, tree in trees.items() for ref in _references(path, tree)]
    unused = [
        f"{path.name}:{first} {name}"
        for path, tree in trees.items()
        for name, first, last in _definitions(tree)
        if not name.startswith("_")
        and not any(ref == name and (where != path or not first <= line <= last) for ref, where, line in references)
    ]
    assert not unused, f"public names only tests (or nothing) use: {unused}"
