"""Lines of ``src/`` that a pytest run never executes, for when ``coverage``
is not installed.  Load it only on request, from the repository root:

    PYTHONPATH=src:tools python -m pytest -p linetrace

Tracing starts when pytest imports this plugin (before any test module
imports the package), through ``sys.settrace`` and ``threading.settrace``;
worker processes are not traced.  The terminal summary lists, per module,
the lines that its code objects can run (``co_lines``) but that no traced
frame reached.  The run is about three times slower than without it."""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
_hit = {}  # file name -> line numbers run


def _line(frame, event, arg):
    if event == "line":
        _hit[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(SRC):
        return None
    _hit.setdefault(name, set()).add(frame.f_lineno)
    return _line


def _runnable(code):
    """Every line number of a code object and of the ones nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _runnable(const)
    return lines


def _spans(lines):
    """'3, 7-9, 12' from sorted line numbers."""
    spans = []
    for n in lines:
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("lines of src/ never run")
    total = 0
    for folder, _, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path) as fh:
                code = compile(fh.read(), path, "exec")
            unrun = sorted(_runnable(code) - _hit.get(path, set()))
            total += len(unrun)
            if unrun:
                terminalreporter.write_line(
                    f"{os.path.relpath(path, ROOT)}: {len(unrun)}: "
                    f"{_spans(unrun)}")
    terminalreporter.write_line(f"total: {total}")


sys.settrace(_call)
threading.settrace(_call)
