"""Byte record of the six file commands on a corpus of edge modules.

Each module under ``edge_modules/`` sits at one edge of the input shape:
embedding labels out of order, e = 2, f != f0 with and without a
monodromy, f0 = 2, an irrational spectrum, int and mixed int/string
matrices, and a bool, a float or bool jumps where the schema refuses them.
``edge_modules/expected.json`` holds the exit code, stdout and stderr of
every command on every module in both formats, and each call must give
them byte for byte. A declared report change re-records the file with

    PYTHONPATH=src python3 tests/test_edge_modules.py

and its diff shows every changed byte.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from phinlab.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent / "edge_modules"
RECORD = CORPUS / "expected.json"
COMMANDS = ("check-admissible", "wd", "segments", "beta", "consistency", "strata")
FORMATS = ("text", "json")


def outcome(module, command, fmt):
    """[exit code, stdout, stderr] of one call on the named module."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(CORPUS / f"{module}.json"), "--format", fmt])
    return [code, out.getvalue(), err.getvalue()]


def calls():
    return [(path.stem, command, fmt) for path in sorted(CORPUS.glob("*.json"))
            if path != RECORD for command in COMMANDS for fmt in FORMATS]


def key(module, command, fmt):
    return f"{module} {command} {fmt}"


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_the_record_covers_the_corpus(record):
    assert sorted(record) == sorted(key(*call) for call in calls())


@pytest.mark.parametrize("module,command,fmt", calls())
def test_edge_module_bytes(record, module, command, fmt):
    assert outcome(module, command, fmt) == record[key(module, command, fmt)]


if __name__ == "__main__":
    RECORD.write_text(json.dumps({key(*call): outcome(*call) for call in calls()}, indent=1,
                                 sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
