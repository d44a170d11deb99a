"""The committed mutants still match the code: ``tools/mutants.py`` runs them."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_snippet_occurs_once_in_src():
    assert mutants.snippet_errors() == []


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_its_snippet_and_names_existing_tests(mutant):
    assert mutant.replacement != mutant.snippet and mutant.tests
    for test_id in mutant.tests:
        path, name = test_id.split("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(), test_id
