"""The CLI's bytes match the committed record: ``tools/golden.py`` makes it."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
RECORD = json.loads(golden.RECORD.read_text(encoding="utf-8"))


@pytest.mark.skipif(sys.version_info[:3] != (3, 11, 7),
                    reason="argparse's help layout changes between versions; "
                           "the record was made on Python 3.11.7")
def test_every_output_matches_the_record(monkeypatch):
    # argparse lays help out for the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    # the edge argvs are compared byte for byte in tests/test_edge_modules.py
    edges = set(map(" ".join, golden.edge_argvs()))
    digests = {key: value for key, value in RECORD.items() if key not in edges}
    assert golden.changed(digests, golden.digest_snapshot()) == []
