"""Count a package's lines by kind: code, docstring, comment and blank.

    python tests/src_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this repository's ``src/kfmetric``. Prints one row
per module and a total row. A line belongs to the first kind that claims it:
a docstring line lies within a bare string statement (module, class and
function docstrings, blank lines inside them included); a comment line
holds only a comment; a blank line holds nothing else. Every other line is
code, a code line with a trailing comment included. The code column
measures the size of the program; the other columns and the total are
printed too, so a change to prose shows as one.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def count(source: str) -> dict:
    """The number of ``source``'s lines of each kind in KINDS, and their total."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            doc.update(range(node.lineno, node.end_lineno + 1))
    code = set()  # lines holding a token other than a comment or a line break
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        if number in doc:
            counts["docstring"] += 1
        elif not line.strip():
            counts["blank"] += 1
        elif number not in code:
            counts["comment"] += 1
        else:
            counts["code"] += 1
    counts["total"] = len(lines)
    return counts


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src/kfmetric"
    modules = sorted(root.glob("*.py"))
    if not modules:
        print(f"no modules in {root}", file=sys.stderr)
        return 1
    columns = (*KINDS, "total")
    print(f"{'module':<16}" + "".join(f"{c:>11}" for c in columns))
    total = dict.fromkeys(columns, 0)
    for path in modules:
        counts = count(path.read_text(encoding="utf-8"))
        print(f"{path.name:<16}" + "".join(f"{counts[c]:>11}" for c in columns))
        for c in columns:
            total[c] += counts[c]
    print(f"{'total':<16}" + "".join(f"{total[c]:>11}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
