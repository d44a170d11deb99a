"""Workload pools, the two ways to execute an item, and the closed timed loop.

An item is one unit of user-visible work: a list of CLI argument vectors
(six for a module report, one otherwise) plus a check of their outputs. A
single caller issues the next item only after the previous one finished,
in one process (cold items start one child at a time).
"""

import bisect
import contextlib
import hashlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import pb_check
import pb_gen
import pb_trace

WORKLOADS = ("report-rank", "report-height", "hecke-routes", "cli-cold")

# every timed run covers at least this many whole passes of its pool
MIN_PASSES = 3


@dataclass
class Item:
    ident: str
    argvs: list
    check: object        # callable(list of (code, stdout)) -> list of problems


def _module_item(case, path):
    argvs = [[cmd, path, "--format", "json"] for cmd in pb_check.FILE_COMMANDS]

    def check(results):
        problems = []
        for cmd, (code, text) in zip(pb_check.FILE_COMMANDS, results):
            problems += pb_check.check_module_command(case, cmd, code, text)
        return problems

    return Item(case.name, argvs, check)


def _hecke_argv(case):
    return ["hecke", "--n", str(case.n), "--r", str(case.r), "--q", str(case.q),
            pb_gen.psi_arg(case.psi), "--format", "json"]


def _hecke_item(case):
    return Item(f"hecke-n{case.n}-r{case.r}-q{case.q}", [_hecke_argv(case)],
                lambda results: pb_check.check_hecke(case, *results[0]))


def _sweep_item(k):
    return Item(f"sweep-{k}", [["sweep", "--seed", str(k), "--format", "json"]],
                lambda results: pb_check.check_sweep(k, *results[0]))


def _single_command_item(case, cmd, path):
    return Item(f"{cmd}-{case.name}", [[cmd, path, "--format", "json"]],
                lambda results: pb_check.check_module_command(case, cmd, *results[0]))


def _write_fixtures(cases, workdir):
    paths = []
    for i, case in enumerate(cases):
        path = os.path.join(workdir, f"{i:03d}-{case.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(case.text)
        paths.append(path)
    return paths


def build_pool(workload, seed, workdir):
    """Generate the workload's inputs from ``seed`` and write its fixtures.

    Returns (items, input bytes).
    """
    if workload in ("report-rank", "report-height"):
        if workload == "report-rank":
            cases = pb_gen.report_rank_cases(seed)
        else:
            cases = pb_gen.report_height_cases(seed)
        paths = _write_fixtures(cases, workdir)
        items = [_module_item(c, p) for c, p in zip(cases, paths)]
        blob = "\n".join(c.text for c in cases)
    elif workload == "hecke-routes":
        cases = pb_gen.hecke_cases(seed)
        items = [_hecke_item(c) for c in cases]
        blob = "\n".join(" ".join(_hecke_argv(c)) for c in cases)
    elif workload == "cli-cold":
        cases = pb_gen.cold_cases(seed)
        paths = _write_fixtures(cases, workdir)
        items = [_single_command_item(c, cmd, p)
                 for c, p in zip(cases, paths) for cmd in pb_check.FILE_COMMANDS]
        extra = ([_hecke_item(c) for c in pb_gen.cold_hecke(seed)]
                 + [_sweep_item(k) for k in (seed, seed + 1000)])
        # spread the hecke and sweep items through the file commands
        step = len(items) // len(extra)
        for j, item in enumerate(extra):
            items.insert(min(len(items), (j + 1) * step + j), item)
        blob = "\n".join([c.text for c in cases] + [" ".join(a) for it in extra for a in it.argvs])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items, blob.encode("utf-8")


# ---------------------------------------------------------------------------
# executing one argument vector


class InProcess:
    """Calls ``phinlab.cli.main`` with stdout captured."""

    def __init__(self):
        import phinlab.cli

        self.cli = phinlab.cli

    def __call__(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)  # looked up per call so a tracer can wrap it
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()


class ColdProcess:
    """Runs ``python -m phinlab.cli`` in a fresh child for each call.

    With ``trace_dir`` set the child is the tracing bootstrap under
    ``-X importtime``; its span stats and import table are collected.
    """

    def __init__(self, root, trace_dir=None):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.trace_dir = trace_dir
        self.child_stats = []      # one tracer snapshot per traced child
        self.child_imports = []    # one importtime table per traced child

    def __call__(self, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "phinlab.cli", *argv]
        else:
            stats_path = os.path.join(self.trace_dir, f"child-{len(self.child_stats)}.json")
            child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pb_child.py")
            cmd = [sys.executable, "-X", "importtime", child, stats_path, *argv]
        with no_sampling():
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  timeout=150)
        if self.trace_dir is not None:
            with open(stats_path, encoding="utf-8") as fh:
                self.child_stats.append(json.load(fh))
            os.remove(stats_path)
            self.child_imports.append(pb_trace.parse_importtime(proc.stderr.decode("utf-8", "replace")))
        return proc.returncode, proc.stdout.decode("utf-8")


# ---------------------------------------------------------------------------
# the timed loop


# The reference loop: fixed exact-rational work of the kind phinlab does.
# On the machine the benchmark was tuned on (a 2-core VM, Python 3.11.7) it
# takes about REFERENCE_S when that machine is quiet. A timer signal runs it
# every REFERENCE_EVERY_S, also while an item runs, and once more after each
# item; an item is calibrated by the median of the samples taken within
# CALIBRATION_WINDOW_S of it. The machine's speed changes within a second,
# so only samples taken during or right next to an item describe it.
REFERENCE_ROUNDS = 40
REFERENCE_S = 0.0002
REFERENCE_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 0.1


def reference_seconds():
    """Wall time of one run of the reference loop."""
    start = perf_counter()
    a = Fraction(1)
    for i in range(1, REFERENCE_ROUNDS):
        a = a * Fraction(i % 97 + 1, i % 89 + 1) + 1
        a = Fraction(a.numerator % 100003, a.denominator % 100019 + 1)
    return perf_counter() - start


class SpeedSampler:
    """Samples the reference loop from SIGALRM every REFERENCE_EVERY_S.

    ``spent`` is the time taken by the sampling itself, so callers can
    subtract it from what they time. Use it as a context manager; it
    restores the previous handler.
    """

    def __init__(self):
        self.references = []     # (time, reference seconds)
        self.spent = 0.0

    def sample(self):
        start = perf_counter()
        self.references.append((start, reference_seconds()))
        return perf_counter() - start

    def _tick(self, signum, frame):
        self.spent += self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        self.sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


@contextlib.contextmanager
def no_sampling():
    """Hold back the sampler's signal while a child process runs.

    A sample taken then would share the CPU with the child and measure the
    sharing, not the machine; the held signal is delivered right after.
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def calibrate(spans, references):
    """Scale each item's time by REFERENCE_S over the median reference time
    sampled within CALIBRATION_WINDOW_S of it.

    ``spans`` are (start, end, seconds spent sampling inside) per item;
    every item has a sample right after it.
    """
    references = sorted(references)
    times = [t for t, _ in references]
    out = []
    for start, end, inside in spans:
        lo = bisect.bisect_left(times, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(times, end + CALIBRATION_WINDOW_S)
        near = statistics.median(r for _, r in references[lo:hi])
        out.append((end - start - inside) * REFERENCE_S / near)
    return out


@dataclass
class LoopResult:
    calibrated: list     # per item: wall seconds scaled by the reference loop's speed
    busy_s: float        # wall seconds of item time, sampling excluded
    attempted: int
    failed: int
    passes: int
    item_digests: list
    digest: str
    problems: list


def run_loop(items, execute, seconds, on_item=None):
    """Closed loop over whole passes of the pool until ``seconds`` of item time.

    Only item execution is timed, without the speed sampling that interrupts
    it. The first pass is checked against the construction; later passes
    must repeat the first pass's bytes exactly.
    """
    spans, problems = [], []
    first = [None] * len(items)
    busy, attempted, failed, passes = 0.0, 0, 0, 0
    with SpeedSampler() as sampler:
        while passes < MIN_PASSES or busy < seconds:
            for idx, item in enumerate(items):
                if on_item is not None:
                    on_item(attempted)
                results, crash = [], None
                spent = sampler.spent
                start = perf_counter()
                try:
                    for argv in item.argvs:
                        results.append(execute(argv))
                except Exception:  # a crash inside the program is a failed item, not a stop
                    crash = traceback.format_exc()
                end = perf_counter()
                inside = sampler.spent - spent
                sampler.sample()
                busy += end - start - inside
                spans.append((start, end, inside))
                attempted += 1
                blob = "".join(text for _, text in results).encode("utf-8")
                if crash is not None:
                    found = [f"{item.ident}: raised\n{crash}"]
                elif first[idx] is None:
                    found = [f"{item.ident}: {p}" for p in item.check(results)]
                elif blob != first[idx]:
                    found = [f"{item.ident}: output differs from the first pass"]
                else:
                    found = []
                if first[idx] is None:
                    first[idx] = blob
                if found:
                    failed += 1
                    problems.extend(found)
            passes += 1
    item_digests = [hashlib.sha256(b).hexdigest() for b in first]
    digest = hashlib.sha256(b"".join(first)).hexdigest()
    return LoopResult(calibrate(spans, sampler.references), busy, attempted, failed, passes,
                      item_digests, digest, problems)


def tail_rank(samples, pool_size):
    """0-based index of the tail latency among ``samples`` sorted latencies.

    The percentile is fixed per pool at 1 - 10 / (MIN_PASSES * pool_size): the
    highest one with at least 10 items beyond it in a run of MIN_PASSES
    passes. Runs with more passes keep the same percentile, so the number of
    passes a run happens to need does not move the tail.
    """
    span = MIN_PASSES * pool_size
    rank = -(-samples * (span - 10) // span)  # ceil, exact in integers
    return max(0, rank - 1)
