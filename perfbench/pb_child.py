"""Traced child for cold CLI items: wrap phinlab's layers, run one CLI call.

    python -X importtime perfbench/pb_child.py STATS.json <phinlab cli args>

Prints exactly what ``python -m phinlab.cli <args>`` prints, exits with the
same code, and writes the tracer's snapshot to STATS.json.
"""

import sys

import pb_trace


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = pb_trace.Tracer(span_cap=2000)
    tracer.install()
    import phinlab.cli

    try:
        code = phinlab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        pb_trace.write_json(stats_path, tracer.snapshot())
    return code


if __name__ == "__main__":
    sys.exit(main())
