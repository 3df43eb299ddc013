"""Line counts of the kzfox package.

Prints each `src/kzfox/*.py` file's raw lines and code lines, with totals.
A code line holds at least one token that is not a comment and is not part
of a docstring (of the module, a class or a function); blank lines,
comment-only lines and docstring lines are not code.

    python tools/sloc.py
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "kzfox")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(raw lines, code lines) of one Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def main() -> int:
    total_raw = total_code = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fp:
            raw, code = count(fp.read())
        total_raw += raw
        total_code += code
        print(f"{raw:6d} {code:6d}  {name}")
    print(f"{total_raw:6d} {total_code:6d}  total (raw, code)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
