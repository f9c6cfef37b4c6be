#!/usr/bin/env python
"""Print the size of the qrelent package: its line count and its count of
settable values, then the line count of each module.

Settable values are the parameters with a default, of every ``def`` and
``lambda``, plus the fields with a default (an assigned value) of every
``@dataclass``: each is a value a caller may set or leave alone.  Only the
standard library's ``ast`` is used, so the count needs no import of the
package.

    python scripts/code_size.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qrelent"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else PACKAGE
    per_module = {}
    values = 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        per_module[path.name] = len(text.splitlines())
        values += settable_values(ast.parse(text, filename=str(path)))
    print(f"lines {sum(per_module.values())}")
    print(f"settable_values {values}")
    for name, lines in per_module.items():
        print(f"  {name} {lines}")


if __name__ == "__main__":
    main(sys.argv[1:])
