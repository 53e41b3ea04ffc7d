"""Print each statement of ``src/patchprior`` that no test executes.

    python tests/line_coverage.py [pytest arguments]

Runs the test suite in this process under a ``sys.settrace`` hook that
records the lines executed in ``src/patchprior`` and ignores every other
file, then prints ``path:line: statement`` for each statement, docstrings
aside, whose first line never ran.  It needs only the standard library
and pytest, so it works where no coverage package is installed.  What
only a subprocess runs, such as ``cli.main`` behind the console script,
shows as never run.  The suite's own output goes to stderr, and the exit
status is pytest's; a test that fails still counts the lines it ran.
pytest does not collect this file.
"""

import ast
import contextlib
import os
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "patchprior"
sys.path.insert(0, str(ROOT / "src"))
# the suite's subprocesses import the package from the same tree
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])

import pytest  # noqa: E402


def statement_lines(path: Path) -> dict:
    """The first line of each statement in ``path`` that is not a
    docstring, mapped to that line's text."""
    text = path.read_text()
    source = text.splitlines()
    lines = {}
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, ast.stmt) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines[node.lineno] = source[node.lineno - 1].strip()
    return lines


def main() -> int:
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    ran = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider",
                                  *(sys.argv[1:] or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
    for name, path in files.items():
        for lineno, text in sorted(statement_lines(path).items()):
            if lineno not in ran[name]:
                print(f"{path.relative_to(ROOT)}:{lineno}: {text}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
