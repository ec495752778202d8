"""Print physical and code lines per Python file of a package.

    python tools/count_lines.py src/kernel_spectra

Physical lines are the file's lines.  Code lines leave out blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body): a line counts when tokenize finds a
token on it other than a comment, a line break or an indent change, and
ast does not place it inside a docstring.  One row per file, then a
total row.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=Path, help="directory of the package's .py files")
    args = parser.parse_args(argv)
    total_physical = total_code = 0
    print(f"{'file':24s} {'physical':>8s} {'code':>6s}")
    for path in sorted(args.package.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.name:24s} {physical:8d} {code:6d}")
    print(f"{'total':24s} {total_physical:8d} {total_code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
