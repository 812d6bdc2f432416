"""Count the lines of each ``src/react_irs/*.py`` module.

For each module, and for their total, it prints the physical lines and
the lines left after removing blank lines, ``#`` comments and string
statements (docstrings, and any other string that stands alone as a
statement).  A line counts as code when a token that is not a comment
starts or continues on it, outside every string statement.  Standard
library only::

    python tools/count_lines.py            # the modules of this checkout
    python tools/count_lines.py DIR        # the *.py files directly in DIR
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that hold no code: layout, comments, and the stream's ends.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    statements = [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    ]
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if any(start <= token.start < end for start, end in statements):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "react_irs"
    totals = [0, 0]
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for path in sorted(root.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.name:<20} {lines:>6} {code:>6}")
    print(f"{'total':<20} {totals[0]:>6} {totals[1]:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
