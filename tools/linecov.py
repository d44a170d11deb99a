"""A pytest plugin that lists the lines of ``src/phinlab`` functions no test ran.

    PYTHONPATH=src:tools python3 -m pytest -q -p linecov tests

It traces the test process with ``sys.settrace`` alone (no coverage
package is needed) and, at the end of the run, prints each line that
holds code inside a function, method, lambda or comprehension of the
package and that no in-process test executed; a test that runs the CLI
in a child process covers nothing here. Module and class bodies, which
run at import, are not listed. The trace slows the suite several-fold.
"""

import inspect
import pathlib
import sys
import threading

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "phinlab"

_ours = {}  # co_filename -> whether it is a file of the package
_hits = set()  # (resolved path, line) executed inside a package function


def _local(frame, event, arg):
    if event == "line":
        _hits.add((_ours[frame.f_code.co_filename], frame.f_lineno))
    return _local


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        path = pathlib.Path(name).resolve()
        _ours[name] = path if path.parent == PACKAGE else None
    if _ours[name] is None:
        return None
    _hits.add((_ours[name], frame.f_code.co_firstlineno))
    return _local


def _function_lines(code, inside=False):
    """(line, qualified name) of every code line in the functions nested in code."""
    inside = inside or bool(code.co_flags & inspect.CO_OPTIMIZED)
    if inside:
        yield code.co_firstlineno, code.co_qualname
        for _, _, line in code.co_lines():
            if line is not None:
                yield line, code.co_qualname
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _function_lines(const, inside)


def pytest_configure(config):
    threading.settrace(_call)
    sys.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        owners = {}  # line -> the outermost function holding it
        for line, qualname in sorted(set(_function_lines(compile(source, str(path), "exec")))):
            owners.setdefault(line, qualname)
        for line, qualname in owners.items():
            if (path, line) not in _hits:
                missed.append(f"{path.name}:{line} {qualname}: {lines[line - 1].strip()}")
    terminalreporter.write_line(f"{len(missed)} lines in src/phinlab functions that no test ran")
    for entry in missed:
        terminalreporter.write_line(f"  {entry}")
