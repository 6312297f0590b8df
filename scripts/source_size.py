#!/usr/bin/env python3
"""Print the size of each module of the freep package: its total lines, its
code lines and its docstring lines, and the sums over the package.

Docstring lines are the lines of module, class and function docstrings,
found with `ast`. Code lines are the other lines that hold a token of
Python other than a comment, found with `tokenize`; a multi-line string
counts on every line it spans. Comments and blank lines count in the total
only.

Usage: python3 scripts/source_size.py [PACKAGE_DIR]   (default: src/freep)
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def module_size(text: str) -> tuple[int, int, int]:
    """(total, code, docstring) line counts of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs), len(docs)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("package", nargs="?", default=str(Path(__file__).resolve().parents[1] / "src" / "freep"))
    args = ap.parse_args()

    print(f"{'module':<14} {'total':>6} {'code':>6} {'docstring':>9}")
    sums = [0, 0, 0]
    for path in sorted(Path(args.package).glob("*.py")):
        size = module_size(path.read_text())
        sums = [a + b for a, b in zip(sums, size)]
        print(f"{path.stem:<14} {size[0]:>6} {size[1]:>6} {size[2]:>9}")
    print(f"{'(all)':<14} {sums[0]:>6} {sums[1]:>6} {sums[2]:>9}")


if __name__ == "__main__":
    main()
