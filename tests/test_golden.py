"""The CLI's bytes match the committed record: ``tools/golden.py`` makes it."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.skipif(sys.version_info[:3] != (3, 11, 7),
                    reason="argparse's help layout changes between versions; "
                           "the record was made on Python 3.11.7")
def test_every_output_matches_the_record(monkeypatch):
    # golden.py puts src/ and perfbench/ first on sys.path when loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    # argparse lays help out for the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    record = json.loads(golden.RECORD.read_text(encoding="utf-8"))
    assert golden.changed(record, golden.digests()) == []
