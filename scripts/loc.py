#!/usr/bin/env python3
"""Line counts of a package's modules by kind: code, docstring, comment, blank.

    python3 scripts/loc.py [DIR]        # DIR defaults to src/oodlab

Each line of each ``*.py`` file in DIR counts once. A docstring line lies
within a module, class or function docstring, found with ``ast``; of the
other lines, a blank line holds only whitespace, a comment line starts with
``#`` after its indent, and every other line is code. So each row's four
kinds sum to its total. Prints one row per module, then the sum.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines the module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(path: Path) -> dict[str, int]:
    """The `KINDS` counts and the total of one source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if number in docstrings:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    counts["total"] = len(lines)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/oodlab", help="package directory")
    args = parser.parse_args(argv)
    paths = sorted(Path(args.dir).glob("*.py"))
    if not paths:
        parser.error(f"no .py files in {args.dir}")

    columns = ("total", *KINDS)
    print(f"{'module':16s}" + "".join(f"{name:>10s}" for name in columns))
    rows = [(path.name, count_lines(path)) for path in paths]
    rows.append(("sum", {name: sum(counts[name] for _, counts in rows) for name in columns}))
    for name, counts in rows:
        print(f"{name:16s}" + "".join(f"{counts[column]:10d}" for column in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
