"""Fuzz the CLI in process: every input gets exit 0, 1 or 2 and no traceback.

A module file is a small valid module (n <= 4) with at most one fault put
at a chosen site: a wrong type, a float, a bool or a bad literal, a
missing or unknown key, a ragged, empty or missing row, a bad ``field``
value; or its JSON text is cut short, is not an object, holds a byte that
is not UTF-8 or is nested 5,000 levels deep. Every site is
its own test case, so each one runs whatever the example distribution.
Four integer sites also get a 5,000-digit literal, past Python's limit for
converting a decimal string to an int, and the commands whose reports
print no powers of p meet phi entries p^k * u with k up to about 14,000.
``hecke`` argvs mix valid and bad
values, zero and negative psi entries among them. The runs are
derandomized with bounded example counts, so the suite sees the same
inputs every time.
"""

import contextlib
import copy
import io
import json
import math
import time

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from phinlab.cli import main

FILE_COMMANDS = ("check-admissible", "wd", "segments", "beta", "consistency", "strata")

# seconds one call may take; the inputs are small, so this is generous
CALL_BUDGET = 5.0


def fuzz(examples):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples,
                    suppress_health_check=[HealthCheck.too_slow])


def run(argv):
    """(exit code, stdout, stderr) of main(argv); argparse's own exit 2 on a
    usage error arrives as SystemExit and is read as that code."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - start < CALL_BUDGET, argv
    return code, out.getvalue(), err.getvalue()


def check_outcome(argv, code, out, err, usage_error=False):
    assert code in (0, 1, 2), (argv, code, out, err)
    assert "Traceback" not in out + err
    if argv[argv.index("--format") + 1] == "json" and not usage_error:
        # a verdict goes to stdout, an input error to stderr, as one JSON object
        assert json.loads(err if code == 2 else out)


literals = st.sampled_from([
    "1/0", "1.5", "1e3", "", " ", "abc", "--3", "1/-2", "+1", "0x10", "٣", "1/2/3",
    "nan", "inf", "-", "/", "1/", "0", "10" * 13,
])
good_entries = st.one_of(
    st.integers(-6, 6),
    st.tuples(st.integers(-9, 9), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
)
entry_faults = st.one_of(literals, st.floats(allow_nan=False, allow_infinity=False),
                         st.booleans(), st.sampled_from([None, [], {}]))

# the sites a fault can go, each with the values set there (None deletes
# the key or row); LABEL stands for the first filtration label, and an int
# for that row or entry
LABEL = "<first label>"
SITES = {
    "field": (("field",), st.sampled_from([None, "p=2", [2], 2])),
    "field.p": (("field", "p"), st.sampled_from([4, 1, 0, -3, True, "2", 2.0, None])),
    "field.e": (("field", "e"), st.sampled_from([0, -1, True, "1", 1.5])),
    "field.embeddings": (("field", "embeddings"), st.sampled_from([[], ["a", "a"], "k0", [1], None])),
    "field.extra": (("field", "extra"), st.integers(0, 2)),
    "n": (("n",), st.sampled_from([0, -1, 9, "2", 2.0, True, None])),
    "phi": (("phi",), st.sampled_from([None, [], "I", [[1]], [[]]])),
    "phi.row": (("phi", 0), st.sampled_from([None, [], [1], "row"])),
    "phi.entry": (("phi", 0, 0), entry_faults),
    "monodromy": (("monodromy",), st.sampled_from([None, [[0]]])),
    "monodromy.entry": (("monodromy", 0, 0), entry_faults),
    "filtration": (("filtration",), st.sampled_from([None, [], "k0", {}])),
    "filtration.label": (("filtration", LABEL), st.sampled_from([None, [], "flag", {}])),
    "filtration.extra": (("filtration", "extra"), st.sampled_from([{}, {"flag": [[1]], "jumps": [0]}])),
    "flag": (("filtration", LABEL, "flag"), st.sampled_from([None, [], [[1]]])),
    "flag.row": (("filtration", LABEL, "flag", 0), st.sampled_from([None, [], [1, 2, 3, 4, 5]])),
    "flag.entry": (("filtration", LABEL, "flag", 0, 0), entry_faults),
    "jumps": (("filtration", LABEL, "jumps"), st.sampled_from([None, [], "0,1", [0] * 9])),
    "jumps.entry": (("filtration", LABEL, "jumps", 0), st.sampled_from([1.5, True, "0", None])),
    "filtration.label.extra": (("filtration", LABEL, "extra"), st.integers(0, 2)),
    "extra": (("extra",), st.integers(0, 2)),
}


@st.composite
def modules(draw):
    n = draw(st.integers(1, 4))

    def matrix(entries):
        return [[draw(entries) for _ in range(n)] for _ in range(n)]

    def diagonal():
        return [[draw(st.integers(1, 9)) if i == j else 0 for j in range(n)] for i in range(n)]

    field = {"p": draw(st.sampled_from([2, 3, 5]))}
    for key in draw(st.lists(st.sampled_from(["f0", "e", "f", "degree_factor"]), max_size=2)):
        field[key] = draw(st.integers(1, 3))
    if draw(st.booleans()):
        field["embeddings"] = draw(st.sampled_from([["k0"], ["a", "b"]]))
    filtration = {
        label: {
            "flag": draw(st.sampled_from([diagonal, lambda: matrix(good_entries)]))(),
            "jumps": sorted(draw(st.lists(st.integers(-3, 6), min_size=n, max_size=n, unique=True))),
        }
        for label in field.get("embeddings", ["k0"])
    }
    phi = draw(st.sampled_from([diagonal, lambda: matrix(good_entries)]))()
    monodromy = matrix(st.just(0))
    if n > 1 and draw(st.integers(0, 3)) == 0:
        # N e_1 = c e_0 obeys N phi = p^f phi N when phi e_1 = p^f phi_00 e_1
        monodromy[0][1] = draw(st.integers(-2, 2))
        phi = diagonal()
        phi[1][1] = phi[0][0] * field["p"] ** field.get("f", 1)
    return {"field": field, "n": n, "phi": phi, "monodromy": monodromy, "filtration": filtration}


def put_fault(obj, path, value):
    """Set the value at path in obj, or delete it (if there) when value is None."""
    parent = obj
    for step in path[:-1]:
        parent = parent[next(iter(parent)) if step == LABEL else step]
    key = next(iter(parent)) if path[-1] == LABEL else path[-1]
    if value is not None:
        parent[key] = copy.deepcopy(value)
    elif isinstance(parent, list) or key in parent:
        del parent[key]


def check_file_command(tmp_path_factory, text, command, fmt):
    """Run command on a module file holding text (a str, or bytes as they are)."""
    module_path = tmp_path_factory.getbasetemp() / "fuzz_module.json"
    module_path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = [command, str(module_path), "--format", fmt]
    check_outcome(argv, *run(argv))


@fuzz(60)
@given(obj=modules(), command=st.sampled_from(FILE_COMMANDS), fmt=st.sampled_from(["text", "json"]))
def test_file_commands_on_well_formed_modules(tmp_path_factory, obj, command, fmt):
    check_file_command(tmp_path_factory, json.dumps(obj), command, fmt)


@pytest.mark.parametrize("site", [*SITES, "truncated text", "not an object", "not UTF-8",
                                  "nested too deep"])
@fuzz(10)
@given(data=st.data(), command=st.sampled_from(FILE_COMMANDS), fmt=st.sampled_from(["text", "json"]))
def test_file_commands_on_faulty_modules(tmp_path_factory, site, data, command, fmt):
    obj = data.draw(modules())
    if site in SITES:
        path, values = SITES[site]
        put_fault(obj, path, data.draw(values))
    text = json.dumps(obj)
    if site == "truncated text":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif site == "not an object":
        text = json.dumps(obj["phi"])
    elif site == "not UTF-8":
        # 0xff starts no UTF-8 sequence, wherever it stands
        at = data.draw(st.integers(0, len(text)))
        text = text[:at].encode() + b"\xff" + text[at:].encode()
    elif site == "nested too deep":
        text = "[" * 5000 + text + "]" * 5000
    check_file_command(tmp_path_factory, text, command, fmt)


# json.dumps cannot write a 5,000-digit int, so this marker stands in for
# it and the literal is spliced into the text
LONG_INT = "<5,000-digit integer>"


@pytest.mark.parametrize("site", ["n", "field.p", "field.e", "jumps.entry"])
@fuzz(5)
@given(obj=modules(), command=st.sampled_from(FILE_COMMANDS), fmt=st.sampled_from(["text", "json"]))
def test_file_commands_on_integers_past_the_digit_limit(tmp_path_factory, site, obj, command, fmt):
    put_fault(obj, SITES[site][0], LONG_INT)
    text = json.dumps(obj).replace(json.dumps(LONG_INT), "7" * 5000)
    assert "7" * 5000 in text
    check_file_command(tmp_path_factory, text, command, fmt)


@st.composite
def high_power_modules(draw):
    """A valid module, N = 0, whose phi entries are p^k * u with k up to the
    most that keeps them under the 4,300-digit limit: 13,952 for p = 2.
    phi is upper triangular, so its spectrum is rational; a diagonal phi
    gets its exponents as jumps, so t_H = t_N and the verdict reaches the
    stable subspaces. A diagonal phi goes up to rank 6, a triangular one
    to rank 4: at rank 6 its integer echelon forms alone can take 2 s."""
    diagonal = draw(st.booleans())
    n = draw(st.integers(1, 6 if diagonal else 4))
    p = draw(st.sampled_from([2, 3, 5]))
    # small exponents are the other sites' entries; this one is for large valuations
    top = int(4200 / math.log10(p))
    exponents = st.integers(top // 2, top)
    # units prime to p, so p^k * u has valuation k
    units = st.sampled_from([1, -1, 7, -11, 13])
    k = [draw(exponents) for _ in range(n)]
    phi = [[0] * n for _ in range(n)]
    for i in range(n):
        phi[i][i] = p ** k[i] * draw(units)
        if not diagonal:
            for j in range(i + 1, n):
                phi[i][j] = p ** draw(exponents) * draw(units)
    jumps = sorted(k if diagonal else draw(st.lists(exponents, min_size=n, max_size=n)))
    flag = [[int(i == j) for j in range(n)] for i in range(n)]
    return {"field": {"p": p}, "n": n, "phi": phi, "monodromy": [[0] * n for _ in range(n)],
            "filtration": {"k0": {"flag": flag, "jumps": jumps}}}


# beta and consistency are left out: their reports print powers of p past
# 4,300 digits, which exit 1 with a traceback until the package has a
# policy for printing integers that long. A dense phi is left out for the
# same reason: check-admissible prints the coefficients of its irrational
# factor. No shrinking: each shrink step reruns calls that may take
# seconds, and a slow call is the failure here.
@pytest.mark.parametrize("command", ["check-admissible", "wd", "segments", "strata"])
@settings(fuzz(6), phases=[Phase.generate])
@given(obj=high_power_modules(), fmt=st.sampled_from(["text", "json"]))
def test_file_commands_on_high_prime_powers(tmp_path_factory, command, obj, fmt):
    check_file_command(tmp_path_factory, json.dumps(obj), command, fmt)


bad_tokens = st.sampled_from(["x", "", "2.5", "1e1", "-", "-x"])


@st.composite
def hecke_argvs(draw):
    n = draw(st.integers(-1, 7))
    r = draw(st.sampled_from([1, 2, n, n + 1, 0]))
    q = draw(st.sampled_from([2, 3, 4, 5, 9, 1, 0, -2]))
    size = draw(st.sampled_from([n, n, n, 0, n + 1, max(n - 1, 0)]))
    psi = [str(draw(good_entries)) for _ in range(size)]
    args = [str(n), str(r), str(q)]
    if draw(st.integers(0, 4)) == 0:
        args[draw(st.integers(0, 2))] = draw(bad_tokens)
    if psi and draw(st.integers(0, 4)) == 0:
        psi[draw(st.integers(0, len(psi) - 1))] = draw(st.one_of(literals, bad_tokens))
    fmt = draw(st.sampled_from(["text", "json"]))
    return ["hecke", "--n", args[0], "--r", args[1], "--q", args[2], "--psi", ",".join(psi),
            "--format", fmt]


@fuzz(150)
@given(argv=hecke_argvs())
def test_hecke_argvs(argv):
    code, out, err = run(argv)
    # argparse refuses a non-integer --n, --r or --q, and a --psi value that
    # starts with '-' but no digit, with its usage text and exit 2
    check_outcome(argv, code, out, err, usage_error=code == 2 and err.startswith("usage:"))
