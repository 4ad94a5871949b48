"""Where the tier-1 tests do not reach in ``src/aglkit``.

    python bench/reach.py

Run from anywhere; aglkit is imported from the checkout's ``src/``. The script
runs the tier-1 tests (pytest on the checkout, as CI does) in this process under
``sys.settrace`` and ``threading.settrace``, tracing only frames of files under
``src/aglkit``, and then prints one finding a line:

    src/aglkit/<module>.py:<line>: never ran: <source>
    src/aglkit/<module>.py:<line>: never false: <source>

- never ran: a line of a function body that no test executed. Module and class
  bodies run at import and are not listed.
- never false: an ``if`` or ``while`` whose test, each time it ran to an end,
  led into its body. A test that shares its line with its body, and one arm of a
  one-line conditional expression, give no line event of their own and are not
  seen. Tests that run ``python -m aglkit.cli`` in a subprocess are not traced.

It only reports: it exits 0 whatever it finds and however the tests end, and
tier-1 stays the gate. Tracing roughly doubles the tests' run time.
"""

from __future__ import annotations

import ast
import glob
import inspect
import os
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "aglkit")
EXIT = 0  # where an arc leads when its frame returns; no source line is numbered 0


def _trace(paths, run) -> dict:
    """Call ``run()`` with every frame whose code comes from one of ``paths`` traced:
    {path: (lines run, arcs (line, next line or EXIT))}. An arc out of a line that
    raised is not recorded: its next line is a handler, not where the line led."""
    seen = {path: (set(), set()) for path in paths}

    def on_call(frame, event, arg):
        if frame.f_code.co_filename not in seen:
            return None
        ran, arcs = seen[frame.f_code.co_filename]
        last = frame.f_lineno  # a resumed generator goes on from its yield

        def on_event(frame, event, arg):
            nonlocal last
            if event == "line":
                ran.add(frame.f_lineno)
                if last is not None:
                    arcs.add((last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "exception":
                last = None
            elif event == "return" and last is not None:
                arcs.add((last, EXIT))
            return on_event
        return on_event

    before = sys.gettrace(), threading.gettrace()
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    return seen


def _body_lines(code) -> set:
    """The lines of every function, lambda and comprehension compiled in ``code``.
    A named function's first line only enters the function and never runs as a line."""
    lines = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= _body_lines(const)
    if code.co_flags & inspect.CO_OPTIMIZED:  # not a module or class body
        own = {line for _, _, line in code.co_lines() if line is not None}
        if not code.co_name.startswith("<"):
            own.discard(code.co_firstlineno)
        lines |= own
    return lines


def _branches(tree):
    """(lines of the header up to the end of its test, lines of the first body
    statement) of each ``if``, ``elif`` and ``while`` inside a function."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.If, ast.While)):
                    first = node.body[0]
                    yield (range(node.lineno, node.test.end_lineno + 1),
                           range(first.lineno, first.end_lineno + 1))


def unreached(root, run) -> list[tuple[str, int, str]]:
    """Sorted ``(path, line, "never ran" | "never false")`` of the .py files under
    ``root`` after ``run()``, as the module docstring defines them."""
    paths = sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True))
    seen = _trace(paths, run)
    found = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        ran, arcs = seen[path]
        found |= {(path, line, "never ran")
                  for line in _body_lines(compile(source, path, "exec")) - ran}
        # nested functions are walked once for each function around them
        for header, body in _branches(ast.parse(source, path)):
            led = {to for at, to in arcs if at in header and to not in header}
            if led and all(to in body for to in led):
                found.add((path, header[0], "never false"))
    return sorted(found)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    found = unreached(SOURCE, lambda: pytest.main(["-q", "--continue-on-collection-errors", ROOT]))
    print(f"\nfindings in {os.path.relpath(SOURCE, ROOT)}: {len(found)}")
    for path, line, what in found:
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()[line - 1].strip()
        print(f"{os.path.relpath(path, ROOT)}:{line}: {what}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
