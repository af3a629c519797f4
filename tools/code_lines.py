"""Count the code lines and the docstring lines of src/batchforge.

Run from the repository root: ``python tools/code_lines.py``. Prints a header, one ``<code> <docstring> <path>``
line per module, then the totals. A code line is not blank, not a comment and not in a docstring; a docstring line
is any line a docstring spans, blank ones included. Docstrings are found with ``ast``: the first statement of a
module, class or function body when it is a docstring. The counts report the design-quality measure and gate nothing.
"""

import ast
import pathlib

ROOT = pathlib.Path("src/batchforge")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def line_counts(text: str) -> tuple[int, int]:
    """(code lines, docstring lines) of ``text``: a code line is not blank, not a ``#`` comment and not in a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )
    return code, len(docstrings)


def main() -> None:
    totals = [0, 0]
    print(f"{'code':>6} {'docstring':>9} path")
    for path in sorted(ROOT.glob("*.py")):
        counts = line_counts(path.read_text())
        totals = [total + count for total, count in zip(totals, counts)]
        print(f"{counts[0]:6d} {counts[1]:9d} {path}")
    print(f"{totals[0]:6d} {totals[1]:9d} total")


if __name__ == "__main__":
    main()
