"""The six file commands on each edge module, byte for byte against ``tools/golden.py``'s record."""

import pathlib

import pytest

from test_golden import RECORD, golden


def test_the_record_covers_the_corpus():
    assert sorted(key for key in RECORD if " tests/" in key) == sorted(map(" ".join, golden.edge_argvs()))


@pytest.mark.parametrize("argv", golden.edge_argvs(),
                         ids=lambda argv: f"{pathlib.Path(argv[1]).stem}-{argv[0]}-{argv[3]}")
def test_edge_module_bytes(argv):
    assert golden.edge_outcome(argv) == RECORD[" ".join(argv)]
