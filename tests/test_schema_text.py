"""The text forms schema reads and writes: matrix entries, read by
``rational_literal`` with the field path of the entry, and report JSON from
``schema.dumps``."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from phinlab.errors import SchemaError
from phinlab.linalg import Matrix
from phinlab.scalars import rational_literal
from phinlab.schema import _as_matrix, dumps


@given(st.text(alphabet=" \t-+/_0123456789١", max_size=8))
@example("1/0")
@example("-0/00")
@example("07/05")
@example("1_0")
@example("-")
@example(" -3/4\t")
@example("9" * 4400)
def test_the_matrix_reader_agrees_with_rational_literal(text):
    try:
        want = rational_literal(text)
    except ValueError as err:
        with pytest.raises(SchemaError) as exc:
            _as_matrix([["1", "0"], [text, "1"]], 2, "phi")
        assert str(exc.value) == str(SchemaError("phi.1.0", str(err)))
    else:
        got = _as_matrix([["1", "0"], [text, "1"]], 2, "phi")
        assert got == Matrix([[1, 0], [Fraction(*want), 1]])


# the values reports are made of
report_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text()),
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=25,
)


@given(report_values)
@example({"b": [], "a": {}, "é\x00": [" ", "\U0001d11e", "\x1f\"\\"], "": [[{}]]})
@example([])
@example({})
def test_dumps_matches_the_standard_library(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [1.5, {1: "a"}, {"a": object()}])
def test_dumps_refuses_what_no_report_holds(value):
    with pytest.raises(TypeError):
        dumps(value)
