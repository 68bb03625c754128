import argparse
import importlib.util
import inspect
import io
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import harperlab
from harperlab import convergents
from harperlab.cli import build_parser

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_SPEC = importlib.util.spec_from_file_location("bench_record", TOOLS / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def test_surface_prints_metric_lines_and_counts_the_parser_commands():
    out = subprocess.run([sys.executable, str(TOOLS / "surface.py")], capture_output=True,
                         text=True, check=True).stdout
    matches = [bench_record.METRIC.match(ln) for ln in out.splitlines()]
    assert all(matches)
    metrics = {m.group(1): int(m.group(2)) for m in matches}
    assert list(metrics) == ["src_lines", "defaulted_params", "cli_commands", "cli_options",
                             "public_names", "tests_lines", "raise_sites"]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert metrics["cli_commands"] == len(sub.choices)
    # every public name of the package that is not one of its modules is an import
    exported = [n for n in vars(harperlab)
                if not n.startswith("_") and not inspect.ismodule(getattr(harperlab, n))]
    assert metrics["public_names"] == len(exported)
    assert metrics["cli_options"] > metrics["cli_commands"] and metrics["src_lines"] > 0
    assert metrics["tests_lines"] == sum(p.read_text().count("\n")
                                         for p in Path(__file__).parent.glob("*.py"))
    # a `raise` keyword token opens every raise statement, and only those
    assert metrics["raise_sites"] == sum(
        tok.type == tokenize.NAME and tok.string == "raise"
        for p in (TOOLS.parent / "src" / "harperlab").rglob("*.py")
        for tok in tokenize.generate_tokens(io.StringIO(p.read_text()).readline))


def test_repr_battery_prints_a_hash_and_a_count_per_family():
    """Hash values depend on the BLAS build, so only the names and the format are checked."""
    out = subprocess.run([sys.executable, str(TOOLS / "repr_battery.py")], capture_output=True,
                         text=True, check=True).stdout
    matches = [bench_record.METRIC.match(ln) for ln in out.splitlines()]
    assert all(matches)
    families = ["ids", "thouless", "trace", "transfer", "log_potential", "sheet", "recursion"]
    assert [m.group(1) for m in matches] == [n for f in families for n in (f, f + "_count")]
    for digest, count in zip(matches[::2], matches[1::2]):
        assert re.fullmatch(r"[0-9a-f]{16}", digest.group(2)) and int(count.group(2)) > 0


def test_unreached_lists_the_statements_a_test_run_never_executes():
    tests = Path(__file__).resolve().parent
    run = subprocess.run([sys.executable, str(TOOLS / "unreached.py"), "-q",
                          str(tests / "test_rationals.py")], capture_output=True, text=True,
                         cwd=tests.parent)
    assert run.returncode == 0, run.stdout + run.stderr
    report = run.stdout[run.stdout.index("# unreached = "):].splitlines()
    metric = bench_record.METRIC.match(report[0])
    assert metric.group(1) == "unreached" and int(metric.group(2)) == len(report) - 1
    assert all(re.fullmatch(r"src/harperlab/\w+\.py:\d+: \S.*", ln) for ln in report[1:])
    # every call of `convergents` runs its first statement; test_rationals never runs the CLI
    lines, first = inspect.getsourcelines(convergents)
    ran = first + next(i for i, ln in enumerate(lines) if "terms = list(cf_terms)" in ln)
    assert f"src/harperlab/rationals.py:{ran}: terms = list(cf_terms)" not in "\n".join(report)
    assert any(ln.startswith("src/harperlab/cli.py:") for ln in report)
