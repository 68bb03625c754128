"""List the statements of `src/harperlab` that a pytest run never executes.

Usage, from anywhere:

    python3 tools/unreached.py [pytest arguments]

for example `python3 tools/unreached.py -q tests/test_rationals.py`; with no
arguments pytest collects the repository's `tests/`.  A line tracer
(`sys.settrace`) is installed before harperlab is imported, pytest runs in
this process with the given arguments and `-p no:cacheprovider`, and then the
tool prints

    # unreached = N

(the `# name = value` format `tools/bench_record.py` reads) and one line
`file:line: text` per statement of the package that no traced frame
executed.  A statement is any AST `stmt` except a docstring; it counts as
executed when any line from its first decorator to its last line ran.  Only
the test process is traced: work done in process-pool workers and in
subprocesses is not seen, so a statement reached only there is listed.  The
exit status is pytest's.

Standard library plus pytest only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "harperlab"


def statements(path: Path):
    """(first line, last line, line) of every statement of the module but its docstrings."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and node.body and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            yield first, node.end_lineno, node.lineno


def main(argv) -> int:
    hits = {}  # code file name -> the set of its executed lines, or None outside the package
    prefix = str(PACKAGE) + "/"

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in hits:
            hits[name] = set() if str(Path(name).resolve()).startswith(prefix) else None
        lines = hits[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(list(argv) + ["-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    executed = {}
    for name, lines in hits.items():
        if lines is not None:
            executed.setdefault(Path(name).resolve(), set()).update(lines)
    report = []
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = executed.get(path.resolve(), set())
        source = path.read_text().splitlines()
        for first, last, line in sorted(statements(path)):
            if not any(n in ran for n in range(first, last + 1)):
                report.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"# unreached = {len(report)}")
    for line in report:
        print(line)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
