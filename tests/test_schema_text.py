"""The text forms schema reads and writes: matrices, read whole or entry by
entry, against ``rational_literal`` and against a reference that reads one
entry at a time with string methods, with the field path of the entry at
fault; and report JSON from ``schema.dumps``."""

import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from phinlab.errors import SchemaError
from phinlab.linalg import Matrix
from phinlab.scalars import rational_literal
from phinlab.schema import _as_matrix, dumps


@given(st.text(alphabet=" \t-+/_,;0123456789١", max_size=8))
@example("1/0")
@example("-0/00")
@example("07/05")
@example("1_0")
@example("-")
@example(" -3/4\t")
@example("9" * 4400)
@example("1,2")
@example("3;")
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


def reference_entry(value, path):
    """(num, den) of one matrix entry, by the grammar written with string
    methods: strip, an optional '-', ASCII digits, and an optional '/' with
    a nonzero ASCII-digit denominator; or the SchemaError for it."""
    if isinstance(value, str):
        s = value.strip()
        negative = s[:1] == "-"
        num, slash, den = (s[1:] if negative else s).partition("/")
        try:
            # int(den) comes first, so a denominator past the digit limit
            # of int() is the error even when the numerator is too
            if not (num.isascii() and num.isdigit()) or (
                    slash and not (den.isascii() and den.isdigit() and int(den))):
                raise SchemaError(path, f"not a rational literal: {value!r}")
            return (-int(num) if negative else int(num)), (int(den) if slash else 1)
        except ValueError as err:  # past the digit limit of int()
            raise SchemaError(path, str(err))
    if isinstance(value, (bool, float)):
        raise SchemaError(path, f"numbers must be ints or rational strings, got {value!r}")
    if isinstance(value, int):
        return value, 1
    raise SchemaError(path, f"expected a rational, got {type(value).__name__}")


def reference_matrix(value, n, path):
    """(ints, den) in lowest terms of an n x n matrix read one entry at a
    time, rows in order; or the first SchemaError."""
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected a list of {n} rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{path}.{i}", f"expected a list of {n} entries")
        rows.append([reference_entry(x, f"{path}.{i}.{j}") for j, x in enumerate(row)])
    den = math.lcm(*(b for row in rows for _, b in row))
    ints = [[a * (den // b) for a, b in row] for row in rows]
    g = math.gcd(den, *(x for row in ints for x in row))
    return tuple(tuple(x // g for x in row) for row in ints), den // g


# the whitespace str.strip and the literal grammar take around a literal;
# int() itself does not strip U+001C..U+001F
SPACES = ["", " ", "\t", "\n", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0",
          "\u2003", "\u3000"]
# good literals, as one draw each: a numerator and an optional denominator,
# each side padded by at most one kind of whitespace
literals = st.sampled_from([
    f"{lead}{num}{den}{trail}"
    for lead, trail in itertools.product(SPACES, repeat=2)
    for num in ("0", "-0", "7", "-12", "007", "-010", "123456789012")
    for den in ("", "/1", "/3", "/007", "/10", "/999999")
])
faults = st.one_of(
    # separators inside an entry
    st.sampled_from(["1,2", "3;", ",", ";4", "1/2,3", " ; ", "1,", ",-5/6"]),
    # other scripts' digits, signs, underscores, points and cut literals
    st.sampled_from(["\u0663", "\u0661/2", "3/\u0662", "\u00b2", "\uff11", "+1", "1/+2",
                     "1_0", "1/1_0", "1.5", ".5", "1.", "1/0", "-0/00", "--3", "1/2/3", "", " ",
                     "/", "1/", "-", "1 2", "1 /2", "1/ 2", "0x10", "1e3"]),
    st.text(alphabet=" \t\x1c\x85\xa0\u3000-+/_.,;0123456789\u0661\u00b2", max_size=8),
    # a literal past the 4,300-digit limit of int(), in either part
    st.sampled_from(["9" * 4400, "-" + "9" * 4400 + "/7", "1/" + "9" * 4400,
                     "9" * 4400 + "/" + "9" * 4500]),
    # JSON values that are not strings
    st.integers(-10 ** 6, 10 ** 6), st.booleans(), st.floats(allow_nan=False), st.none(),
    st.sampled_from([[], {}, [1]]),
)


@st.composite
def faulty_matrices(draw):
    """(value, n): n x n rows of literal strings, with faults anywhere: bad
    entries, and a row cut short or made long."""
    n = draw(st.integers(1, 5))
    rows = [[draw(literals) for _ in range(n)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(faults)
    if draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, n - 1))]
        if draw(st.booleans()):
            row.append(draw(literals))
        else:
            row.pop()
    return rows, n


@settings(max_examples=300)
@given(faulty_matrices())
# a comma or a semicolon in an entry
@example(([["1", "2"], ["3,4", "5"]], 2))
@example(([["1;2", "0"], ["3", "5"]], 2))
# a bad literal, then a ragged row
@example(([["1", "1.5"], ["3", "5", "6"]], 2))
# whitespace int() does not strip, a 4,400-digit literal
@example(([["\x1c3\x1f", "\u30001/2\x85"], ["\xa0-4", "1/" + "9" * 4400]], 2))
# any entry but a string sends the matrix to the entry read: ints among
# strings, and Fractions, whose str is a literal but which JSON cannot hold
@example(([[1, "1/2"], ["-3", 4]], 2))
@example(([[Fraction(1, 2), Fraction(0)], [Fraction(3), Fraction(5)]], 2))
def test_the_matrix_reader_agrees_with_the_entry_reference(case):
    value, n = case
    try:
        want = reference_matrix(value, n, "phi")
    except SchemaError as err:
        with pytest.raises(SchemaError) as exc:
            _as_matrix(value, n, "phi")
        assert (exc.value.path, str(exc.value)) == (err.path, str(err))
    else:
        got = _as_matrix(value, n, "phi")
        assert (got.ints, got.den) == want


@pytest.mark.parametrize("entry", [
    "1" * 99_999 + "x",
    " " * 99_999 + "x",
    "-" + "0" * 99_998 + "/",
    "7/" + "0" * 99_998,
    "1/" + "2" * 99_997 + " x",
    "1," * 49_999 + "1",
], ids=["digits", "spaces", "no denominator", "zero denominator", "junk after", "commas"])
def test_the_matrix_reader_takes_linear_time_on_a_long_near_miss(entry):
    value = [["1", "0", "2"], ["3", entry, "4"], ["5", "6", "7"]]
    start = time.perf_counter()
    with pytest.raises(SchemaError) as exc:
        _as_matrix(value, 3, "phi")
    # a scan whose steps grow with the square of the entry's 100,000
    # characters would take minutes
    assert time.perf_counter() - start < 1.0
    assert exc.value.path == "phi.1.1"


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
