#!/usr/bin/env python3
"""Print every line of src/spotvol that the test suite never executes.

Runs pytest with a line tracer (the standard library's ``sys.settrace``) on
the package's frames alone, and prints one ``file:line: source`` per
executable line of the package that no test ran, after pytest's own report.
It needs nothing beyond pytest. Tracing makes the suite about twice as slow,
and a test run in a subprocess is not traced. The ``trace`` module is not
used: it decides whether to trace a module by its base name alone, so with
``ignoredirs`` it skips ``spotvol/__init__.py`` once it has skipped another
package's ``__init__.py``.

    python3 scripts/untested_lines.py               # the tests under tests/
    python3 scripts/untested_lines.py -q tests/test_cli.py
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spotvol"


def executable_lines(path: Path) -> set[int]:
    """The lines that carry bytecode in the module or any function, class or comprehension in it."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> set[tuple[str, int]]:
    """Run pytest with ``args``; return the (resolved file, line) pairs of the package it ran."""
    ran = set()
    inside = {}  # file name -> whether it is one of the package's modules
    prefix = str(PACKAGE) + os.sep

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.realpath(name).startswith(prefix)
        return lines if inside[name] else None

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return {(os.path.realpath(name), line) for name, line in ran}


def main(argv: list[str]) -> None:
    ran = run_traced(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(n for n in executable_lines(path) if (str(path), n) not in ran):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")


if __name__ == "__main__":
    main(sys.argv[1:])
