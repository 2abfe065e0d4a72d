#!/usr/bin/env python3
"""Count the code lines of each module of the library.

A code line is a line that holds a token of a statement, so blank lines,
comments and docstrings (any statement that is a lone string literal)
do not count; the tokens come from ``tokenize``.  Prints one line per
module of ``src/dynwalk`` and a last line ``total <n>``.

    python3 scripts/code_lines.py
"""

import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dynwalk"

LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
}


def code_lines(text: str) -> int:
    lines = set()
    statement = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT:
            continue
        if tok.type not in (tokenize.NEWLINE, tokenize.ENDMARKER):
            statement.append(tok)
            continue
        if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.stem:<12} {n:>5}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
