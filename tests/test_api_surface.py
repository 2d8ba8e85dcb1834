"""Every public name the package defines is used by the package itself,
every defaulted parameter is set by some call in the program, and every
dataclass field is read by the program."""

import ast
import dataclasses
import importlib
import itertools
import json
import os
import pkgutil
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "photonherald"
PERFBENCH = SRC.parent.parent / "perfbench"


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


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _signature(function, skip):
    """(positional parameters after the first ``skip``, defaulted parameters)
    of ``function``; a method skips its self or cls."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults) :]
    defaulted += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return positional[skip:], defaulted


def _defaulted_parameters(tree):
    """(callable name, positional parameters, defaulted parameter) of each
    public function, public method, ``__init__`` and dataclass field with a
    default; a class and its ``__init__`` or fields are called by the class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and not _is_click_command(node):
            positional, defaulted = _signature(node, 0)
            yield from ((node.name, positional, name) for name in defaulted)
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if _is_dataclass(node):
            fields = [item for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            positional = [field.target.id for field in fields]
            yield from ((node.name, positional, field.target.id) for field in fields if field.value is not None)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and (item.name == "__init__" or not item.name.startswith("_")):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                positional, defaulted = _signature(item, 0 if static else 1)
                called = node.name if item.name == "__init__" else item.name
                yield from ((called, positional, name) for name in defaulted)


def _passes(call, positional, name):
    """Whether ``call`` may set parameter ``name``."""
    if any(k.arg == name or k.arg is None for k in call.keywords):
        return True
    if name not in positional:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > positional.index(name)


def _called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def test_every_defaulted_parameter_is_set_by_some_call_in_the_program():
    # a default no call in src/ or perfbench/ overrides is a code path only
    # tests take; calls match by name, and *args or **kwargs may set anything
    sources = sorted(SRC.glob("*.py"))
    calls = [
        node
        for path in sources + sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    ]
    by_name = {}
    for call in calls:
        by_name.setdefault(_called_name(call), []).append(call)
    unset = [
        f"{path.name} {called}({name})"
        for path in sources
        for called, positional, name in _defaulted_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if not any(_passes(call, positional, name) for call in by_name.get(called, ()))
    ]
    assert not unset, f"defaulted parameters no call in src/ or perfbench/ sets: {unset}"


def test_every_dataclass_field_is_read_by_the_package():
    # a field of a public dataclass that no ``obj.field`` in src/ reads is
    # data the program computes and stores for tests alone
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name} {node.name}.{item.target.id}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and item.target.id not in read
    ]
    assert not unread, f"dataclass fields src/ never reads: {unread}"


def _public_dataclasses():
    """Each public dataclass of the package, from the module that defines it."""
    import photonherald

    for info in pkgutil.iter_modules(photonherald.__path__):
        module = importlib.import_module(f"photonherald.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__ and not name.startswith("_") and dataclasses.is_dataclass(value):
                yield value


def _recording(cls, name, slot, package, read):
    """A property over the slot ``name`` of ``cls`` that adds
    ``"Class.name"`` to ``read`` when code in the ``package`` directory
    reads it, outside the methods dataclass generates (compiled from
    strings, or in dataclasses.py) and outside ``__post_init__``, where a
    field is only checked."""

    def get(obj):
        code = sys._getframe(1).f_code
        if os.path.dirname(code.co_filename) == package and code.co_name != "__post_init__":
            read.add(f"{cls.__name__}.{name}")
        return slot.__get__(obj, cls)

    return property(get, slot.__set__)


def test_every_public_dataclass_has_slots():
    # the field-read check below wraps slots; a class without them escapes it
    assert [cls.__name__ for cls in _public_dataclasses() if "__slots__" not in vars(cls)] == []


def test_every_dataclass_field_is_read_when_the_program_runs(tmp_path):
    # the check above matches field names across classes, so reading one
    # class's field hides an unread field of the same name in another; here
    # each field records its own reads while the CLI runs every scheme, a
    # sweep and both verify suites, and the first ops of each in-process
    # benchmark workload run
    import photonherald
    from click.testing import CliRunner

    from photonherald import cli
    from test_bench_contract import WORKLOADS

    classes = [cls for cls in _public_dataclasses() if "__slots__" in vars(cls)]
    package, read, saved = os.path.dirname(photonherald.__file__), set(), []
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"theta1": [0.3, 0.5], "beta": [0, -1], "p": [0.5]}), encoding="utf-8")
    runner = CliRunner()
    try:
        for cls in classes:
            for field in dataclasses.fields(cls):
                slot = vars(cls)[field.name]
                saved.append((cls, field.name, slot))
                setattr(cls, field.name, _recording(cls, field.name, slot, package, read))
        for scheme in ("main", "doubled", "pair-herald", "filter-split"):
            result = runner.invoke(cli.main, ["run", "--scheme", scheme])
            assert result.exit_code == 0, result.output
        result = runner.invoke(cli.main, ["sweep", str(spec)])
        assert result.exit_code == 0, result.output
        for suite in ("paper-values", "invariants"):
            result = runner.invoke(cli.main, ["verify", "--suite", suite])
            assert result.exit_code in (0, 1), result.output
        for name, calls in (("sweep-grid", 4), ("scheme-mix", 20), ("verify-suites", 1)):
            workload = WORKLOADS.WORKLOADS[name](1)
            for x in itertools.islice(workload.ops(), calls):
                workload.call(x)
    finally:
        for cls, name, slot in saved:
            setattr(cls, name, slot)
    unread = [f"{cls.__name__}.{name}" for cls, name, _ in saved if f"{cls.__name__}.{name}" not in read]
    assert not unread, f"dataclass fields the program stores and never reads: {unread}"
