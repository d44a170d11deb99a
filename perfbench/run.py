"""phinlab benchmark: one seeded workload, every output checked, metrics as JSON.

    python3 perfbench/run.py --workload report-rank --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run on the same
inputs. Lines before it record the environment and the details behind each
number. See perfbench/NOTES.md for the workloads, the metrics and what the
inputs leave out.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(ROOT, ".perfbench")
DIGEST_SEED = 0
SETUP_REPEATS = 11
IMPORT_PROBES = 3

NOTES = [
    "closed loop: one caller in one process issues the next item after the previous one ends",
    "item times are calibrated: wall time times a nominal over the median reference-loop time "
    "sampled during and right after each item; detail.busy_s is the raw wall item time",
    "setup_s is the median time of fresh interpreters from their first statement to a ready "
    "pool, calibrated by a reference child run before and after each",
    "no layer has queues or threads, so time waiting does not exist and is not reported",
    "a per-layer self_s or calls of 0 means the function is not called on this workload",
    "hecke psi is passed as --psi=...: with '--psi -3/2,...' argparse reads the value as an "
    "option and exits 2 on a valid input",
    "left out: modules with 22-digit entries (rational_eigenvalues does not finish) and "
    "repeated or irrational spectra (exit 2 today)",
]


def parse_args(argv):
    import pb_work

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=pb_work.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help=f"store the output digests of seed {DIGEST_SEED} as the workload's reference")
    args = p.parse_args(argv)
    if args.record_digests and (args.seed != DIGEST_SEED or args.trace):
        p.error(f"--record-digests needs --seed {DIGEST_SEED} and --trace 0")
    return args


def environment(seed):
    import phinlab.config
    import phinlab.scalars

    return {
        "python": sys.version.split()[0],
        "backend": phinlab.scalars.BACKEND,
        "nproc": os.cpu_count(),
        "seed": seed,
        "phinlab_max_n_default": phinlab.config.DEFAULT_MAX_N,
        "phinlab_max_n_env": os.environ.get("PHINLAB_MAX_N"),
    }


def latency_metrics(latencies, pool_size):
    """items_per_s, item_p50_ms and item_tail_ms from per-item seconds."""
    import pb_work

    lat = sorted(latencies)
    k = pb_work.tail_rank(len(lat), pool_size)
    metrics = {
        "items_per_s": (len(lat) / sum(lat), "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "item_tail_ms": (lat[k] * 1000.0, "ms"),
    }
    tail = {"tail_percentile": 100.0 * (k + 1) / len(lat), "tail_samples_beyond": len(lat) - k - 1}
    return metrics, tail


def check_digests(workload, seed, res, record):
    """Per-item digests against the reference stored for DIGEST_SEED.

    Returns the number of mismatching items; other seeds have no reference
    and return 0. At DIGEST_SEED a missing reference fails every item.
    With ``record`` a run without failed items stores its digests instead.
    """
    if seed != DIGEST_SEED:
        return 0
    stored = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
    if record:
        if res.failed:
            print("not recording digests: the run has failed items", file=sys.stderr)
            return 0
        stored[workload] = {"sha256": res.digest, "items": res.item_digests}
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    ref = stored.get(workload)
    if ref is None:
        print(f"no seed-{DIGEST_SEED} digests stored for {workload}", file=sys.stderr)
        return len(res.item_digests)
    if ref["sha256"] == res.digest:
        return 0
    bad = sum(1 for a, b in zip(ref["items"], res.item_digests) if a != b)
    bad = max(1, bad + abs(len(ref["items"]) - len(res.item_digests)))
    print(f"{bad} items differ from the seed-{DIGEST_SEED} digests", file=sys.stderr)
    return bad


# One fresh set-up: import the CLI, build the pool, print the seconds that
# took and the inputs' digest. Timing starts at the first statement, so the
# start-up and exit of the interpreter, which no change to phinlab moves,
# stay out.
SETUP_CHILD = (
    "import time; start = time.perf_counter(); import hashlib, sys; sys.path[:0] = sys.argv[1:3]; "
    "import phinlab.cli, pb_work; "
    "_, blob = pb_work.build_pool(sys.argv[3], int(sys.argv[4]), sys.argv[5]); "
    "print(time.perf_counter() - start, hashlib.sha256(blob).hexdigest())"
)

# The reference set-up: a fresh interpreter imports a fixed set of standard
# modules and does fixed Fraction work, timed the same way. It takes about
# REFERENCE_SETUP_S on the machine the benchmark was tuned on when that
# machine is quiet. Set-ups there took 0.09 s or 0.14 s depending on a
# phase of the machine that lasts seconds; the reference child slows down
# in the same phases, and the Fraction loop of pb_work does not.
REFERENCE_SETUP_CHILD = (
    "import time; start = time.perf_counter(); "
    "import argparse, dataclasses, inspect, json, pathlib, random, statistics, tempfile; "
    "from fractions import Fraction\n"
    "a = Fraction(1)\n"
    "for i in range(1, 10000):\n"
    "    a = Fraction((a * Fraction(i % 97 + 1, i % 89 + 1) + 1).numerator % 100003, i % 100019 + 1)\n"
    "print(time.perf_counter() - start)"
)
REFERENCE_SETUP_S = 0.065


def fresh_setups(args, workdir, digest):
    """Time SETUP_REPEATS fresh set-ups of the run's pool, calibrated.

    Each is a new interpreter that imports phinlab and generates the inputs
    with their fixtures; each must produce the inputs with ``digest``. A
    reference child runs before the first and after every set-up, and each
    set-up's time is scaled by REFERENCE_SETUP_S over the mean of the two
    reference times around it. They run after the timed loop, so that the
    peak memory of the cold workload's children is read before they start.
    Returns (median calibrated seconds, detail).
    """
    def child(*argv):
        proc = subprocess.run([sys.executable, "-c", *argv], cwd=ROOT, capture_output=True,
                              timeout=120, check=True)
        return proc.stdout.decode().split()

    references = [float(child(REFERENCE_SETUP_CHILD)[0])]
    times, identical = [], True
    for i in range(SETUP_REPEATS):
        child_dir = os.path.join(workdir, f"setup-{i}")
        os.makedirs(child_dir)
        seconds, inputs = child(SETUP_CHILD, HERE, SRC, args.workload, str(args.seed), child_dir)
        references.append(float(child(REFERENCE_SETUP_CHILD)[0]))
        times.append(float(seconds))
        identical = identical and inputs == digest
    calibrated = [t * REFERENCE_SETUP_S * 2 / (before + after)
                  for t, before, after in zip(times, references, references[1:])]
    detail = {"fresh_raw_s": times, "reference_s": references, "inputs_identical": identical}
    return statistics.median(calibrated), detail


def measure(args, items, execute, cold, workdir, digest):
    """The untraced run: end-to-end metrics, attempted, failed, detail."""
    import pb_work

    res = pb_work.run_loop(items, execute, args.seconds)
    metrics, tail = latency_metrics(res.calibrated, len(items))
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    setup_s, setup = fresh_setups(args, workdir, digest)
    metrics["setup_s"] = (setup_s, "s")
    detail = {"items": res.attempted, "passes": res.passes, "busy_s": res.busy_s, **tail,
              "fresh_setup": setup}
    failed = res.failed + check_digests(args.workload, args.seed, res, args.record_digests)
    if not setup["inputs_identical"]:
        print("a fresh set-up generated other inputs from the same seed", file=sys.stderr)
        failed += 1
    return res, metrics, failed, detail


def import_probe_tables():
    """Cold ``import phinlab.cli`` under -X importtime, a few times."""
    import pb_trace

    env = dict(os.environ, PYTHONPATH=SRC)
    tables = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import phinlab.cli"],
                              cwd=ROOT, env=env, capture_output=True, timeout=60, check=True)
        tables.append(pb_trace.parse_importtime(proc.stderr.decode("utf-8", "replace")))
    return tables


def layer_metrics(snapshot, import_tables, untraced_rate, traced_rate):
    """The per-layer metrics, named as in BENCHMARK.json, from merged spans."""
    import pb_trace

    stats, counts = snapshot["stats"], snapshot["counts"]
    out = {}
    for name in pb_trace.SPANS:
        calls, self_s, _ = stats[name]
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
    for layer in pb_trace.LAYERS:
        rows = [v for name, v in stats.items() if name.split(".")[0] == layer]
        out[f"{layer}.self_s"] = (sum(v[1] for v in rows), "s")
        out[f"{layer}.errors"] = (sum(v[2] for v in rows), "count")
    for name in pb_trace.COUNTS:
        out[name] = (counts[name], "count")
    tried = counts["modules.masks_tried"]
    out["modules.stable_ratio"] = (counts["modules.stable_found"] / tried if tried else 0.0, "ratio")
    folded = [pb_trace.import_breakdown(t) for t in import_tables]
    for key in folded[0]:
        out[key] = (statistics.median(f[key] for f in folded), "ms")
    out["trace.untraced_items_per_s"] = (untraced_rate, "1/s")
    out["trace.traced_items_per_s"] = (traced_rate, "1/s")
    out["trace.slowdown_ratio"] = (untraced_rate / traced_rate, "ratio")
    return out


def trace(args, items, execute, cold, workdir):
    """An untraced base run, then the traced run: per-layer metrics and detail."""
    import pb_trace
    import pb_work

    base = pb_work.run_loop(items, execute, 0.0)
    if cold:
        traced_exec = pb_work.ColdProcess(ROOT, trace_dir=workdir)
        res = pb_work.run_loop(items, traced_exec, args.seconds)
        snapshot = {"stats": {}, "counts": {}, "spans": []}
        for i, child in enumerate(traced_exec.child_stats):
            pb_trace.merge(snapshot, child, item=i)
        import_tables = traced_exec.child_imports
    else:
        tracer = pb_trace.Tracer()

        def mark(seq):
            tracer.item = seq

        tracer.install()
        try:
            res = pb_work.run_loop(items, execute, args.seconds, on_item=mark)
        finally:
            tracer.uninstall()
        snapshot = tracer.snapshot()
        import_tables = import_probe_tables()
    changed = sum(1 for a, b in zip(base.item_digests, res.item_digests) if a != b)
    if changed:
        print(f"tracing changed the output of {changed} items", file=sys.stderr)
    untraced_rate = len(base.calibrated) / sum(base.calibrated)
    traced_rate = len(res.calibrated) / sum(res.calibrated)
    metrics = layer_metrics(snapshot, import_tables, untraced_rate, traced_rate)
    stats = snapshot["stats"]
    # per traced item, so a cold child's import compares with its layers
    per_item = {layer: 1000.0 * metrics[f"{layer}.self_s"][0] / len(res.calibrated)
                for layer in pb_trace.LAYERS}
    if cold:
        per_item["import"] = metrics["cli.import.total_ms"][0]
    detail = {
        "items": base.attempted + res.attempted,
        "overhead": {"untraced_items_per_s": untraced_rate, "traced_items_per_s": traced_rate,
                     "untraced_items": len(base.calibrated), "traced_items": len(res.calibrated)},
        "errors_by_function": {k: v[2] for k, v in stats.items()},
        "self_ms_per_item": per_item,
        "largest_self_s": max(stats, key=lambda k: stats[k][1]),
    }
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    pb_trace.write_json(trace_path, {"detail": detail, "stats": stats, "counts": snapshot["counts"],
                                     "imports": import_tables, "spans": snapshot["spans"]})
    detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    res.problems = base.problems + res.problems
    failed = base.failed + res.failed + changed + check_digests(args.workload, args.seed, base, False)
    return res, metrics, failed, detail


def run(args):
    import pb_work

    # calibration and cold children share one CPU with the loop
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        t = time.perf_counter()
        import phinlab.cli  # noqa: F401

        import_s = time.perf_counter() - t
        items, blob = pb_work.build_pool(args.workload, args.seed, workdir)
        setup = {"own_s": time.perf_counter() - START, "own_import_s": import_s}
        digest = hashlib.sha256(blob).hexdigest()
        cold = args.workload == "cli-cold"
        execute = pb_work.ColdProcess(ROOT) if cold else pb_work.InProcess()
        if args.trace:
            res, metrics, failed, detail = trace(args, items, execute, cold, workdir)
        else:
            res, metrics, failed, detail = measure(args, items, execute, cold, workdir, digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = detail["items"]
    failed = min(attempted, failed)
    detail.update(workload=args.workload, seconds=args.seconds, pool_items=len(items),
                  setup=setup, notes=NOTES, digest=res.digest, inputs_digest=digest,
                  failed_frac=failed / attempted)
    for line in res.problems[:20]:
        print(line, file=sys.stderr)

    print(json.dumps({"env": environment(args.seed)}, sort_keys=True))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "phinlab", "__init__.py")):
        print(f"perfbench: no phinlab package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
