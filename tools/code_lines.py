"""Count the code lines of src/batchforge: lines that are not blank, not a comment and not in a docstring.

Run from the repository root: ``python tools/code_lines.py``. Prints one ``<count> <path>`` line per module, then
the total. Docstring lines are found with ``ast``: the first statement of a module, class or function body when
it is a docstring. The count reports the design-quality measure and gates nothing.
"""

import ast
import pathlib

ROOT = pathlib.Path("src/batchforge")
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """Lines of ``text`` that are not blank, not a ``#`` comment and not inside a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if number not in docstrings and line.strip() and not line.lstrip().startswith("#")
    )


def main() -> None:
    total = 0
    for path in sorted(ROOT.glob("*.py")):
        code = code_lines(path.read_text())
        total += code
        print(f"{code:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
