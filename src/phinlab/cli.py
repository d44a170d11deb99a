"""Command-line front end.

One JSON module file feeds check-admissible, wd, segments, beta,
consistency and strata; hecke takes inline flags; sweep takes a seed.
``_FILE_COMMANDS`` names each file subcommand with its help text and its
handler, and builds their subparsers. ``main`` reads a file call written
``NAME PATH`` or ``NAME PATH --format text|json`` without argparse, parses
any other argv with the named subcommand's own parser, loads the module
once and hands it to that handler. Exit codes separate verdicts from
plumbing: 0 = success/pass, 1 = a mathematical check failed (inadmissible,
inconsistent, not generic, chain mismatch), 2 = bad input (malformed JSON,
schema violation, precondition failure).
"""

import argparse
import functools
import sys

from .config import check_work_units
from .errors import ChainMismatch, InputError
from .hecke import HeckeParams, theta_closed, theta_enumerated
from .interpolation import check_integrality, consistency_check
from .modules import is_weakly_admissible
from .partitions import (
    part_thresholds,
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
    dumps,
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
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}")
    return parse_module(load_json(text))


def _cmd_check_admissible(d):
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
        relation = ">" if w.t_h > w.t_n else "<"
        lines.append(
            f"witness: dim {w.subspace.dim} subspace with "
            f"t_H = {format_rational(w.t_h)} {relation} t_N = {format_rational(w.t_n)}"
        )
    return (0 if rep.admissible else 1), report, lines


def _cmd_wd(d):
    w = wd_from_module(d)
    part = monodromy_partition(d)
    report = wd_json(w, part)
    lines = [
        f"n = {w.n}, q = {w.q}",
        f"monodromy partition: {partition_function_json(part)}",
    ]
    return 0, report, lines


def _cmd_segments(d):
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
        "psi": character_json(psi),
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


def _cmd_beta(d):
    report = integrality_json(check_integrality(d))
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


def _cmd_consistency(d):
    report = consistency_json(consistency_check(d))
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


def _cmd_strata(d):
    # one probe per partition of n, each a threshold vector of length n
    check_work_units(partition_count(d.n) * d.n, "strata thresholds")
    point = monodromy_partition(d)
    point_thresholds = strata_thresholds(point, d.n)
    strata = []
    for probe in partitions_of(d.n):
        # the probe at every label
        thresholds = part_thresholds(probe.parts, d.n, len(point.labels))
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


# the file subcommands in --help order: name -> (help text, handler of the parsed module)
_FILE_COMMANDS = {
    "check-admissible": ("decide weak admissibility", _cmd_check_admissible),
    "wd": ("extract Frobenius/monodromy data and its partition", _cmd_wd),
    "segments": ("decompose into segments and test genericity", _cmd_segments),
    "beta": ("beta values, valuations and integrality", _cmd_beta),
    "consistency": ("compare the Hecke and Galois sides per r", _cmd_consistency),
    "strata": ("closed-stratum membership for the monodromy", _cmd_strata),
}
_FLAG_COMMANDS = {"hecke": _cmd_hecke, "sweep": _cmd_sweep}


def _emit(report, lines, fmt, stream):
    if fmt == "json":
        print(dumps(report), file=stream)
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
    # built on the first call that needs argparse; parsing keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="phinlab",
        description="exact computations on filtered phi-N modules and their Hecke side",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _FILE_COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to a module JSON file")

    hecke = sub.add_parser("hecke", help="double-coset eigenvalue two ways")
    hecke.add_argument("--n", type=int, required=True)
    hecke.add_argument("--r", type=int, required=True)
    hecke.add_argument("--q", type=int, required=True)
    hecke.add_argument("--psi", required=True, help="comma-separated rational values")

    sw = sub.add_parser("sweep", help="seeded batch of randomized checks")
    sw.add_argument("--seed", type=int, default=0)
    # every subcommand takes --format as its last option
    for command in sub.choices.values():
        command.add_argument("--format", choices=("text", "json"), default="text")
    return parser, sub.choices


def _parse_args(argv):
    """The top-level ``parse_args(argv)``.

    A file call in one of its two canonical shapes, ``NAME PATH`` and
    ``NAME PATH --format text|json`` with a PATH that does not start with
    '-', is read here with no parser built: argparse would read it the
    same way. Any other argv goes to the named subcommand's parser, and the
    top-level parser runs only to word its own errors: an unknown or missing
    name, or arguments left over.
    """
    if len(argv) == 2 or (len(argv) == 4 and argv[2] == "--format" and argv[3] in ("text", "json")):
        if argv[0] in _FILE_COMMANDS and argv[1][:1] != "-":
            fmt = argv[3] if len(argv) == 4 else "text"
            return argparse.Namespace(command=argv[0], input=argv[1], format=fmt)
    parser, commands = _parser()
    sub = commands.get(argv[0]) if argv else None
    args, rest = sub.parse_known_args(argv[1:]) if sub else (None, argv)
    if args is None or rest:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None):
    args = _parse_args(_attach_psi_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command in _FILE_COMMANDS:
            code, report, lines = _FILE_COMMANDS[args.command][1](_load_module(args.input))
        else:
            code, report, lines = _FLAG_COMMANDS[args.command](args)
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
