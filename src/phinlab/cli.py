"""Command-line front end.

One JSON module file feeds check-admissible, wd, segments, beta,
consistency and strata; hecke takes inline flags; sweep takes a seed.
Exit codes separate verdicts from plumbing: 0 = success/pass, 1 = a
mathematical check failed (inadmissible, inconsistent, not generic,
chain mismatch), 2 = bad input (malformed JSON, schema violation,
precondition failure).
"""

import argparse
import functools
import json
import sys

from .config import check_work_units
from .errors import ChainMismatch, InputError
from .hecke import HeckeParams, theta_closed, theta_enumerated
from .interpolation import check_integrality, consistency_check, ht_from_module, xi_from_ht
from .linalg import jordan_partition
from .modules import is_weakly_admissible
from .partitions import (
    PartitionFunction,
    partition_count,
    partitions_of,
    reaches_thresholds,
    strata_thresholds,
)
from .sampling import sweep
from .scalars import format_rational, parse_rational
from .schema import (
    admissibility_json,
    character_json,
    consistency_json,
    integrality_json,
    load_json,
    parse_module,
    partition_function_json,
    segments_json,
    wd_json,
)
from .weil_deligne import (
    is_generic,
    monodromy_partition,
    psi_from_segments,
    segments_from_wd,
    wd_from_module,
)

__all__ = ["main"]


def _load_module(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}")
    return parse_module(load_json(text))


def _cmd_check_admissible(args):
    d = _load_module(args.input)
    rep = is_weakly_admissible(d)
    report = admissibility_json(rep)
    lines = [
        f"admissible: {'yes' if rep.admissible else 'no'}",
        f"t_H = {format_rational(rep.t_h)}",
        f"t_N = {format_rational(rep.t_n)}",
        f"subspaces checked: {rep.subspaces_checked} ({rep.mode})",
    ]
    if rep.witness is not None:
        w = rep.witness
        lines.append(
            f"witness: dim {w.subspace.dim} subspace with "
            f"t_H = {format_rational(w.t_h)} > t_N = {format_rational(w.t_n)}"
        )
    return (0 if rep.admissible else 1), report, lines


def _cmd_wd(args):
    d = _load_module(args.input)
    w = wd_from_module(d)
    part = monodromy_partition(w)
    report = wd_json(w, part)
    lines = [
        f"n = {w.n}, q = {w.q}",
        f"monodromy partition: {partition_function_json(part)}",
    ]
    return 0, report, lines


def _cmd_segments(args):
    d = _load_module(args.input)
    w = wd_from_module(d)
    segs = segments_from_wd(w)
    generic = is_generic(segs, w.q)
    psi = psi_from_segments(segs, w.q)
    report = {
        "q": w.q,
        "segments": segments_json(segs),
        "generic": generic,
        "psi": character_json(psi),
    }
    lines = [
        "segments: " + ", ".join(f"({format_rational(s.chi)}, {s.length})" for s in segs),
        f"generic: {'yes' if generic else 'no'}",
        "psi: (" + ", ".join(character_json(psi)) + ")",
    ]
    return 0, report, lines


def _cmd_hecke(args):
    try:
        psi = tuple(parse_rational(tok) for tok in args.psi.split(","))
    except (InputError, ValueError) as err:
        raise InputError(f"--psi: {err}")
    h = HeckeParams(args.n, args.q, args.r)
    closed = theta_closed(psi, h)
    enumerated = theta_enumerated(psi, h)
    equal = closed == enumerated
    report = {
        "n": h.n,
        "q": h.q,
        "r": h.r,
        "psi": [format_rational(v) for v in psi],
        "closed": format_rational(closed),
        "enumerated": format_rational(enumerated),
        "equal": equal,
    }
    lines = [
        f"theta closed = {format_rational(closed)}",
        f"theta enumerated = {format_rational(enumerated)}",
        f"equal: {'yes' if equal else 'no'}",
    ]
    return (0 if equal else 1), report, lines


def _cmd_beta(args):
    d = _load_module(args.input)
    xi = xi_from_ht(ht_from_module(d))
    report = integrality_json(check_integrality(d, xi))
    report["xi"] = {label: list(xi[label]) for label in xi}
    lines = [f"xi: {report['xi']}"]
    for row in report["rows"]:
        lines.append(
            f"r={row['r']}: beta = {row['value']} (val {row['valuation']}, "
            f"{'integral' if row['integral'] else 'NOT integral'})"
        )
    if report["warning"]:
        lines.append(f"warning: {report['warning']}")
    lines.append(f"all integral: {'yes' if report['passed'] else 'no'}")
    return 0, report, lines


def _cmd_consistency(args):
    d = _load_module(args.input)
    xi = xi_from_ht(ht_from_module(d))
    report = consistency_json(consistency_check(d, xi))
    lines = [f"status: {report['status']}"]
    if report["status"] == "not_generic":
        i, j = report["linked_pair"]
        lines.append(f"segments {i} and {j} are linked; no verdict")
    for row in report["rows"]:
        lines.append(
            f"r={row['r']}: hecke = {row['hecke']}, galois = {row['galois']}, "
            f"equal: {'yes' if row['equal'] else 'no'} (val {row['valuation']})"
        )
    return (0 if report["status"] == "pass" else 1), report, lines


def _cmd_strata(args):
    d = _load_module(args.input)
    # one probe per partition of n, each a threshold vector of length n
    check_work_units(partition_count(d.n) * d.n, "strata thresholds")
    part = jordan_partition(d.monodromy)
    labels = d.field.embeddings
    point = PartitionFunction({label: part for label in labels})
    point_thresholds = strata_thresholds(point, d.n)
    strata = []
    for probe in partitions_of(d.n):
        thresholds = strata_thresholds(PartitionFunction({label: probe for label in labels}), d.n)
        strata.append({
            "partition": list(probe.parts),
            "thresholds": list(thresholds),
            "member": reaches_thresholds(point_thresholds, thresholds),
        })
    report = {"partition": partition_function_json(point), "strata": strata}
    lines = [f"monodromy partition: {partition_function_json(point)}"]
    for s in strata:
        verdict = "in" if s["member"] else "out"
        lines.append(f"stratum {s['partition']}: {verdict} (thresholds {s['thresholds']})")
    return 0, report, lines


def _cmd_sweep(args):
    report = sweep(args.seed)
    lines = [
        f"seed: {report['seed']}",
        f"cases: {report['case_count']}",
        f"passed: {'yes' if report['passed'] else 'no'}",
    ]
    for c in report["cases"]:
        if not c["ok"]:
            lines.append(f"FAILED {c['id']} ({c['kind']})")
    return (0 if report["passed"] else 1), report, lines


_HANDLERS = {
    "check-admissible": _cmd_check_admissible,
    "wd": _cmd_wd,
    "segments": _cmd_segments,
    "hecke": _cmd_hecke,
    "beta": _cmd_beta,
    "consistency": _cmd_consistency,
    "strata": _cmd_strata,
    "sweep": _cmd_sweep,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phinlab",
        description="exact computations on filtered phi-N modules and their Hecke side",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to a module JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    add_file_command("check-admissible", "decide weak admissibility")
    add_file_command("wd", "extract Frobenius/monodromy data and its partition")
    add_file_command("segments", "decompose into segments and test genericity")
    add_file_command("beta", "beta values, valuations and integrality")
    add_file_command("consistency", "compare the Hecke and Galois sides per r")
    add_file_command("strata", "closed-stratum membership for the monodromy")

    hecke = sub.add_parser("hecke", help="double-coset eigenvalue two ways")
    hecke.add_argument("--n", type=int, required=True)
    hecke.add_argument("--r", type=int, required=True)
    hecke.add_argument("--q", type=int, required=True)
    hecke.add_argument("--psi", required=True, help="comma-separated rational values")
    hecke.add_argument("--format", choices=("text", "json"), default="text")

    sw = sub.add_parser("sweep", help="seeded batch of randomized checks")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _emit(report, lines, fmt, stream):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True), file=stream)
    else:
        for line in lines:
            print(line, file=stream)


def _attach_psi_values(argv):
    """Rewrite ``--psi -3/2,1`` as ``--psi=-3/2,1``.

    argparse reads a token that starts with '-' and is not a plain negative
    number as an option, so a psi list led by a negative value needs the
    attached form.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--psi" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--psi={tok}"
        else:
            out.append(tok)
    return out


@functools.cache
def _parser():
    # built on the first call to main; parse_args keeps no state between calls
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(_attach_psi_values(sys.argv[1:] if argv is None else argv))
    try:
        code, report, lines = _HANDLERS[args.command](args)
    except ChainMismatch as err:
        _emit({"error": str(err), "report": err.report}, [f"error: {err}"], args.format, sys.stdout)
        return 1
    except InputError as err:
        _emit({"error": str(err)}, [f"error: {err}"], args.format, sys.stderr)
        return 2
    _emit(report, lines, args.format, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
