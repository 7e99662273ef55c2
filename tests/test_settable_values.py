"""Ratchet on the package's settable values.

A settable value is a parameter with a default (positional or
keyword-only, of any function, method or lambda) or a field of a
dataclass (`ClassVar` annotations excluded), counted over every module
of the `maskpf` package. The design fixes most of its numbers, so they
are module constants rather than settings; a change that adds a setting
raises this count on purpose, and one that retires a setting lowers it.
"""

import ast
import pathlib

import maskpf

SETTABLE_VALUES = 90


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults)
            count += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(st, ast.AnnAssign)
                         and "ClassVar" not in ast.unparse(st.annotation)
                         for st in node.body)
    return count


def test_settable_values_are_counted():
    root = pathlib.Path(maskpf.__file__).parent
    total = sum(_settable_values(ast.parse(path.read_text(encoding="utf-8")))
                for path in sorted(root.rglob("*.py")))
    assert total == SETTABLE_VALUES
