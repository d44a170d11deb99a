"""JSON ingestion with field-path errors, and report serialization.

Input side: parse_module turns the one shared JSON shape into a validated
module, naming the offending field path on any violation. Numbers arrive
as rational strings or ints; floats are rejected outright. A matrix whose
entries are all strings is read whole: its rows are joined into one text,
which ``scalars.rational_literals`` checks with one match of the literal
grammar and cuts into integers over their least common denominator. Any
other matrix, and any fault, is read entry by entry, which names the
first row or entry at fault; the two reads agree on every value and
every error.

Output side: every report dict produced here contains only strings, ints,
bools, lists and dicts, with all rationals rendered as strings, so
json.dumps with sorted keys is byte-stable across runs. ``dumps`` writes
them as ``json.dumps(report, indent=2, sort_keys=True)`` does.
"""

import json
import math
from json.encoder import encode_basestring_ascii

from .errors import SchemaError
from .linalg import Matrix
from .modules import FieldDescriptor, build_module
from .scalars import format_rational, is_int, rational_literal, rational_literals

__all__ = [
    "dumps",
    "load_json",
    "parse_module",
    "matrix_json",
    "valuation_json",
    "twisted_json",
    "segments_json",
    "character_json",
    "partition_function_json",
    "admissibility_json",
    "integrality_json",
    "consistency_json",
    "wd_json",
]


def load_json(text):
    """json.loads with every error as a SchemaError; decode errors carry the position."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaError("", f"malformed JSON at line {err.lineno} column {err.colno}: {err.msg}")
    except ValueError as err:
        raise SchemaError("", str(err))
    except RecursionError:
        # the decoder recurses once per level of arrays and objects
        raise SchemaError("<root>", "JSON nested too deeply to read") from None


def _key(path, name):
    return f"{path}.{name}" if path else str(name)


def _need(obj, name, path):
    if name not in obj:
        raise SchemaError(path, f"missing required field '{name}'")
    return obj[name]


def _as_int(value, path):
    if not is_int(value):
        raise SchemaError(path, f"expected an integer, got {value!r}")
    return value


def _literal(value, row_path, j):
    """(num, den) integers of the matrix entry at row_path.j, read once."""
    if isinstance(value, str):
        try:
            return rational_literal(value)
        except ValueError as err:
            raise SchemaError(_key(row_path, j), str(err))
    if is_int(value):
        return value, 1
    if isinstance(value, (bool, float)):
        raise SchemaError(_key(row_path, j),
                          f"numbers must be ints or rational strings, got {value!r}")
    raise SchemaError(_key(row_path, j), f"expected a rational, got {type(value).__name__}")


def _read_text(value, n):
    """(rows, den) of n lists of n literal strings, read as one text; None
    for any other value, or for a literal that is bad or past the digit
    limit of int(), which ``_read_entries`` then reads or rejects."""
    if type(value) is not list or len(value) != n or not all(
            type(row) is list and len(row) == n for row in value):
        return None
    try:
        text = ";".join([",".join(row) for row in value])
    except TypeError:
        return None
    # no literal holds "," or ";", so an entry that does changes a count
    if text.count(",") != n * (n - 1) or text.count(";") != n - 1:
        return None
    try:
        ints, den = rational_literals(text)
    except ValueError:
        return None
    return [ints[i:i + n] for i in range(0, n * n, n)], den


def _read_entries(value, n, path):
    """(rows, den) of the matrix at path, one entry at a time: the error
    path, which names the first row or entry at fault."""
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected a list of {n} rows")
    rows = []
    for i, row in enumerate(value):
        row_path = _key(path, i)
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(row_path, f"expected a list of {n} entries")
        rows.append([_literal(x, row_path, j) for j, x in enumerate(row)])
    den = math.lcm(*(b for row in rows for _, b in row))
    return [[a * (den // b) for a, b in row] for row in rows], den


def _as_matrix(value, n, path):
    """The n x n matrix at path: rows of literal strings are read as one
    text, anything else (ints among the entries, or a fault) entry by entry."""
    return Matrix._from_ints(*(_read_text(value, n) or _read_entries(value, n, path)))


def _reject_unknown(obj, allowed, path):
    extra = sorted(set(obj) - set(allowed))
    if extra:
        raise SchemaError(path or "<root>", f"unknown fields {extra}")


def parse_field(obj):
    """The module's ``field`` object; errors name paths under ``field``."""
    if not isinstance(obj, dict):
        raise SchemaError("field", "expected an object")
    _reject_unknown(obj, {"p", "f0", "e", "f", "embeddings", "degree_factor"}, "field")
    p = _as_int(_need(obj, "p", "field"), "field.p")
    kwargs = {}
    for name in ("f0", "e", "f", "degree_factor"):
        if name in obj:
            kwargs[name] = _as_int(obj[name], f"field.{name}")
    if "embeddings" in obj:
        emb = obj["embeddings"]
        if not isinstance(emb, list) or not all(isinstance(x, str) for x in emb):
            raise SchemaError("field.embeddings", "expected a list of strings")
        kwargs["embeddings"] = tuple(emb)
    try:
        return FieldDescriptor(p=p, **kwargs)
    except ValueError as err:
        raise SchemaError("field", str(err))


def parse_module(obj):
    """The shared input shape used by every file-driven subcommand."""
    if not isinstance(obj, dict):
        raise SchemaError("<root>", "expected a JSON object")
    _reject_unknown(obj, {"field", "n", "phi", "monodromy", "filtration"}, "")
    field = parse_field(_need(obj, "field", ""))
    n = _as_int(_need(obj, "n", ""), "n")
    if n < 1:
        raise SchemaError("n", f"rank must be positive, got {n}")
    phi = _as_matrix(_need(obj, "phi", ""), n, "phi")
    monodromy = _as_matrix(_need(obj, "monodromy", ""), n, "monodromy")
    raw_filtration = _need(obj, "filtration", "")
    if not isinstance(raw_filtration, dict):
        raise SchemaError("filtration", "expected an object keyed by embedding label")
    filtration = {}
    for label, body in raw_filtration.items():
        fpath = _key("filtration", label)
        if not isinstance(body, dict):
            raise SchemaError(fpath, "expected an object with 'flag' and 'jumps'")
        _reject_unknown(body, {"flag", "jumps"}, fpath)
        flag = _as_matrix(_need(body, "flag", fpath), n, _key(fpath, "flag"))
        raw_jumps = _need(body, "jumps", fpath)
        if not isinstance(raw_jumps, list) or len(raw_jumps) != n:
            raise SchemaError(_key(fpath, "jumps"), f"expected a list of {n} integers")
        jumps = [_as_int(x, _key(_key(fpath, "jumps"), i)) for i, x in enumerate(raw_jumps)]
        filtration[label] = (flag, jumps)
    return build_module(field, n, phi, monodromy, filtration)


# ---------------------------------------------------------------------------
# report serialization


def dumps(value):
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    the values reports are made of: dicts with string keys, lists, tuples,
    strings, ints, bools and None; anything else raises TypeError.

    With ``indent`` set, the standard library encodes through its
    pure-Python generators; this is the same walk, appending to one list.
    """
    out = []
    _write(value, out, "\n")
    return "".join(out)


def _write(value, out, newline):
    """Append the JSON text of value to out, its lines led by newline."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _write(item, out, inner)
            out.append(",")
        out[-1] = newline + "]"
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for key in sorted(value):
            out.append(inner)
            # raises TypeError for a key that is not a string
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(value[key], out, inner)
            out.append(",")
        out[-1] = newline + "}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def matrix_json(m):
    """The entries as ``format_rational`` prints them, read off the integer
    form (ints, den) of m with one gcd per entry and no rational built."""
    den = m.den
    out = []
    for row in m.ints:
        gcds = [math.gcd(x, den) for x in row]
        out.append([str(x // g) if g == den else f"{x // g}/{den // g}" for x, g in zip(row, gcds)])
    return out


def valuation_json(v):
    return "inf" if v == math.inf else v


def twisted_json(t):
    """Rational string when the uniformizer power folds, a pair otherwise."""
    if t.is_rational:
        return format_rational(t.rational())
    return {"coeff": format_rational(t.coeff), "pi_exp": t.pi_exp}


def segments_json(segments):
    return [{"chi": format_rational(s.chi), "len": s.length} for s in segments]


def character_json(psi):
    return [format_rational(v) for v in psi]


def partition_function_json(pf):
    return {label: list(pf[label].parts) for label in pf.labels}


def admissibility_json(report):
    out = {
        "admissible": report.admissible,
        "t_h": format_rational(report.t_h),
        "t_n": format_rational(report.t_n),
        "subspaces_checked": report.subspaces_checked,
        "mode": report.mode,
        "witness": None,
    }
    if report.witness is not None:
        w = report.witness
        basis = [] if w.subspace.dim == 0 else matrix_json(w.subspace.matrix())
        out["witness"] = {
            "dim": w.subspace.dim,
            "basis": basis,
            "t_h": format_rational(w.t_h),
            "t_n": format_rational(w.t_n),
        }
    return out


def integrality_json(report):
    return {
        "xi": {label: list(xi) for label, xi in report["xi"].items()},
        "admissible": report["admissible"],
        "warning": report["warning"],
        "passed": report["passed"],
        "rows": [
            {
                "r": row["r"],
                "value": twisted_json(row["value"]),
                "valuation": valuation_json(row["valuation"]),
                "integral": row["integral"],
            }
            for row in report["rows"]
        ],
    }


def consistency_json(report):
    out = {
        "status": report["status"],
        "q": report["q"],
        "segments": segments_json(report["segments"]),
        "linked_pair": list(report["linked_pair"]) if report["linked_pair"] else None,
        "conventions": report["conventions"],
        "rows": [
            {
                "r": row["r"],
                "hecke": twisted_json(row["hecke"]),
                "galois": twisted_json(row["galois"]),
                "equal": row["equal"],
                "valuation": valuation_json(row["valuation"]),
            }
            for row in report["rows"]
        ],
    }
    if "psi" in report:
        out["psi"] = character_json(report["psi"])
    return out


def wd_json(w, partition):
    return {
        "q": w.q,
        "n": w.n,
        "frobenius": matrix_json(w.frobenius),
        "monodromy": matrix_json(w.monodromy),
        "partition": partition_function_json(partition),
    }
