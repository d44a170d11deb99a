"""Byte record of the CLI over the edge modules, the benchmark's pool argvs and every --help text.

The argv list is fixed. The edge argvs run the six file commands on each
module under ``tests/edge_modules/`` in both formats; each module sits at
one edge of the input shape (embedding labels out of order, e = 2,
f != f0 with and without a monodromy, f0 = 2, an irrational spectrum,
int and mixed int/string matrices, a bool, a float, bool jumps). The pool
argvs are those of the four benchmark workloads at seeds 0, 1 and 7,
generated by ``perfbench``'s own generator, each in both formats; then
``--help`` for the CLI and for each subcommand. Every argv runs through
``phinlab.cli.main`` in process. ``tools/golden.json`` keeps, per argv,
the exit code, stdout and stderr in full for an edge argv, so a declared
report change shows every changed edge byte in the record's diff, and as
one SHA-256 digest for any other. An edge argv names its module by its
path in the checkout and runs with that path made absolute. The pool
fixtures are written to a temporary directory, which argvs and outputs
name as ``POOL``, so the record does not depend on where it was made.

    python3 tools/golden.py --record   # write tools/golden.json, the one re-record command
    python3 tools/golden.py --check    # exit 1 when an output differs from the record
    python3 tools/golden.py --diff     # the same, naming every argv that differs

Run it from any directory; ``src/phinlab`` and ``perfbench/`` are imported
from this checkout. Help texts are laid out for 80 columns. argparse's
layout changes between Python versions, so a record compares only with
runs on the Python version that made it. A run takes a few seconds.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "tools" / "golden.json"
EDGE_MODULES = ROOT / "tests" / "edge_modules"
WORKLOADS = ("report-rank", "report-height", "hecke-routes", "cli-cold")
SEEDS = (0, 1, 7)
FORMATS = ("json", "text")
POOL = "POOL"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pb_work  # noqa: E402
from phinlab import cli  # noqa: E402


def edge_argvs():
    """Each file command on each edge module in both formats, the module named by its path in the checkout."""
    return [[command, path.relative_to(ROOT).as_posix(), "--format", fmt]
            for path in sorted(EDGE_MODULES.glob("*.json")) for command in cli._FILE_COMMANDS
            for fmt in FORMATS]


def argvs(workdir):
    """Every other argv of the record, in a fixed order; pool fixtures go under workdir."""
    out = [["--help"]] + [[name, "--help"] for name in (*cli._FILE_COMMANDS, *cli._FLAG_COMMANDS)]
    for workload in WORKLOADS:
        for seed in SEEDS:
            pool = os.path.join(workdir, f"{workload}-{seed}")
            os.mkdir(pool)
            items, _ = pb_work.build_pool(workload, seed, pool)
            for item in items:
                for argv in item.argvs:
                    at = argv.index("--format") + 1
                    out += [argv[:at] + [fmt] + argv[at + 1:] for fmt in FORMATS]
    return out


def outcome(argv):
    """[exit code, stdout, stderr] of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return [code, out.getvalue(), err.getvalue()]


def edge_outcome(argv):
    """The outcome of an edge argv, run with its module path made absolute."""
    return outcome([argv[0], str(ROOT / argv[1]), *argv[2:]])


def edge_snapshot():
    """{argv text: its outcome} over the edge argvs."""
    return {" ".join(argv): edge_outcome(argv) for argv in edge_argvs()}


def digest_snapshot():
    """{argv text: the digest of its outcome} over every other argv."""
    now = {}
    with tempfile.TemporaryDirectory() as workdir:
        for argv in argvs(workdir):
            text = json.dumps(outcome(argv)).replace(json.dumps(workdir)[1:-1], POOL)
            now[" ".join(argv).replace(workdir, POOL)] = hashlib.sha256(text.encode()).hexdigest()
    return now


def snapshot():
    """{argv text: its outcome for an edge argv, else the digest of its outcome}."""
    return {**edge_snapshot(), **digest_snapshot()}


def changed(record, now):
    """The argvs whose value differs, or that only one side has, sorted."""
    return sorted(key for key in record.keys() | now.keys() if record.get(key) != now.get(key))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true", help=f"write {RECORD.name}")
    mode.add_argument("--check", action="store_true", help="compare with the record")
    mode.add_argument("--diff", action="store_true", help="compare, naming each argv that differs")
    args = parser.parse_args(argv)
    # argparse lays help out for the terminal's width
    os.environ["COLUMNS"] = "80"
    now = snapshot()
    if args.record:
        RECORD.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(now)} argvs")
        return 0
    diff = changed(json.loads(RECORD.read_text(encoding="utf-8")), now)
    if args.diff:
        for key in diff:
            print(key)
    print(f"{len(diff)} of {len(now)} argvs differ from the record")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
