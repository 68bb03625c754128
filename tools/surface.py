"""Measure the size of harperlab's code and command-line surface.

Usage, from anywhere:

    python3 tools/surface.py

It measures the checkout it sits in and prints `# name = value` lines, the
format `tools/bench_record.py` reads:

* `src_lines`: newline count over the modules of `src/harperlab`;
* `defaulted_params`: positional and keyword-only parameters with a
  default, over every function and lambda in those modules (AST walk);
* `cli_commands`: subcommands of `harperlab`;
* `cli_options`: options summed over the subcommands, without `-h`;
* `public_names`: names that `harperlab/__init__.py` imports (AST walk);
* `tests_lines`: newline count over `tests/*.py`;
* `raise_sites`: `raise` statements over the modules of `src/harperlab`
  (AST walk), the places where the library refuses.

Standard library plus harperlab only.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def source_counts(package: Path):
    """(lines, defaulted parameters, raise statements) over the package's modules."""
    lines = defaulted = raises = 0
    for path in sorted(package.rglob("*.py")):
        text = path.read_text()
        lines += text.count("\n")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaulted += len(node.args.defaults)
                defaulted += sum(d is not None for d in node.args.kw_defaults)
            raises += isinstance(node, ast.Raise)
    return lines, defaulted, raises


def public_names(init: Path) -> int:
    """Names imported by the package's `__init__.py`."""
    return sum(len(node.names) for node in ast.walk(ast.parse(init.read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom)))


def cli_counts(parser: argparse.ArgumentParser):
    """(subcommands, options summed over them, without -h) of the parser."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = sum(1 for p in sub.choices.values() for a in p._actions
                  if not isinstance(a, argparse._HelpAction))
    return len(sub.choices), options


def main() -> int:
    sys.path.insert(0, str(SRC))
    from harperlab.cli import build_parser

    lines, defaulted, raises = source_counts(SRC / "harperlab")
    commands, options = cli_counts(build_parser())
    for name, value in (("src_lines", lines), ("defaulted_params", defaulted),
                        ("cli_commands", commands), ("cli_options", options),
                        ("public_names", public_names(SRC / "harperlab" / "__init__.py")),
                        ("tests_lines", sum(p.read_text().count("\n")
                                            for p in sorted((ROOT / "tests").glob("*.py")))),
                        ("raise_sites", raises)):
        print(f"# {name} = {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
