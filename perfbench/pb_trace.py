"""Spans around the calls into each phinlab layer, installed from outside.

``Tracer.install`` replaces each public function named in ``SPANS`` with a
wrapper, on its defining module and on every phinlab module (the package
included) that imported it by name; methods are wrapped on their class,
aliases such as ``__rmul__ = __mul__`` included. Nothing under ``src/`` is
edited, and ``uninstall`` puts every original back.

A span records its name, start, end, parent span and item id. Self time is
a span's duration minus that of its direct children; calls run on one
thread, so children never overlap. Aggregates are kept for every span; the
spans themselves are kept in memory up to ``span_cap`` and written out when
the run ends.
"""

import json
import re
import sys
from time import perf_counter

LAYERS = ("scalars", "linalg", "partitions", "modules", "weil_deligne", "hecke",
          "interpolation", "sampling", "schema", "cli")

# span name -> (defining module, attribute path) for every wrapped function
SPANS = {
    "scalars.padic_val": [("scalars", "padic_val")],
    "scalars.QExtScalar.mul": [("scalars", "QExtScalar.__mul__")],
    "linalg.rational_eigenvalues": [("linalg", "rational_eigenvalues")],
    "linalg.char_poly": [("linalg", "char_poly")],
    "linalg.det": [("linalg", "det")],
    "linalg.kernel_dim": [("linalg", "kernel_dim")],
    "linalg.jordan_partition": [("linalg", "jordan_partition")],
    "linalg.Subspace.intersect": [("linalg", "Subspace.intersect")],
    "linalg.Subspace.restrict": [("linalg", "Subspace.restrict")],
    "partitions.stratum_member": [("partitions", "stratum_member")],
    "modules.build_module": [("modules", "build_module")],
    "modules.enumerate_stable_subspaces": [("modules", "enumerate_stable_subspaces")],
    "modules.hodge_number": [("modules", "hodge_number")],
    "modules.newton_number": [("modules", "newton_number")],
    "modules.is_weakly_admissible": [("modules", "is_weakly_admissible")],
    "weil_deligne.wd_from_module": [("weil_deligne", "wd_from_module")],
    "weil_deligne.segments_from_wd": [("weil_deligne", "segments_from_wd")],
    "weil_deligne.match_chains": [("weil_deligne", "match_chains")],
    "hecke.theta_closed": [("hecke", "theta_closed")],
    "hecke.theta_enumerated": [("hecke", "theta_enumerated")],
    "hecke.theta_tilde": [("hecke", "theta_tilde")],
    "hecke.coset_classes": [("hecke", "coset_classes")],
    "hecke.spherical_value": [("hecke", "spherical_value")],
    "interpolation.check_integrality": [("interpolation", "check_integrality")],
    "interpolation.consistency_check": [("interpolation", "consistency_check")],
    "interpolation.beta_value": [("interpolation", "beta_value")],
    "sampling.sweep": [("sampling", "sweep")],
    "schema.parse_module": [("schema", "parse_module")],
    # the report builders, one span name for all of them
    "schema.serialize": [("schema", name) for name in (
        "admissibility_json", "character_json", "consistency_json", "integrality_json",
        "partition_function_json", "segments_json", "wd_json")],
    "cli.main": [("cli", "main")],
}

# spans kept in memory per run; aggregates cover every span regardless
SPAN_CAP = 50000

# counts recorded at the span boundaries, from the call's arguments and result
COUNTS = ("modules.masks_tried", "modules.stable_found", "partitions.probes",
          "weil_deligne.segments", "hecke.classes")


def _count_hooks(counts):
    def enumerate_hook(args, result):
        counts["modules.masks_tried"] += 1 << args[0].n
        counts["modules.stable_found"] += len(result)

    def segments_hook(args, result):
        counts["weil_deligne.segments"] += len(result)

    def classes_hook(args, result):
        counts["hecke.classes"] += len(result)

    return {
        "modules.enumerate_stable_subspaces": enumerate_hook,
        "weil_deligne.segments_from_wd": segments_hook,
        "hecke.coset_classes": classes_hook,
    }


class Tracer:
    """Span recorder for one process; install it, run items, then read stats."""

    def __init__(self, span_cap=SPAN_CAP):
        self.span_cap = span_cap
        self.spans = []          # (id, name, start, end, parent id, item id)
        self.stats = {name: [0, 0.0, 0] for name in SPANS}   # calls, self s, errors
        self.counts = dict.fromkeys(COUNTS, 0)
        self.item = None
        self._stack = []         # [span id, child seconds] of open spans
        self._next_id = 0
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        import phinlab.cli  # noqa: F401  (loads every module a CLI run uses)

        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "phinlab" or name.startswith("phinlab."))}
        hooks = _count_hooks(self.counts)
        for span, targets in SPANS.items():
            for mod_name, path in targets:
                owner_name, _, attr = path.rpartition(".")
                owner = modules[f"phinlab.{mod_name}"]
                if owner_name:
                    owner = getattr(owner, owner_name)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapper = self._wrap(span, original, hooks.get(span))
                self._replace_everywhere(original, wrapper, modules)
        cli = modules["phinlab.cli"]
        # partitions_of recurses through its module global, so probes are
        # counted where the CLI calls it, once per partition it yields
        self._set(cli, "partitions_of", self._count_yields(cli.partitions_of, "partitions.probes"))

    def _replace_everywhere(self, original, wrapper, modules):
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)
                elif isinstance(value, type) and value.__module__.startswith("phinlab"):
                    for attr, member in list(vars(value).items()):
                        if member is original:
                            self._set(value, attr, wrapper)

    def _set(self, owner, name, value):
        self._restore.append((owner, name, owner.__dict__[name] if isinstance(owner, type)
                              else getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stats[0] += 1
                stats[1] += duration - frame[1]
                if len(spans) < self.span_cap:
                    spans.append((sid, name, start, end, parent, self.item))
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_yields(self, fn, counter):
        counts = self.counts

        def counted(*args, **kwargs):
            for value in fn(*args, **kwargs):
                counts[counter] += 1
                yield value

        counted.__wrapped__ = fn
        return counted

    # -- results ------------------------------------------------------------

    def snapshot(self):
        return {"stats": self.stats, "counts": self.counts,
                "spans": [list(s) for s in self.spans]}


def merge(into, snap, item):
    """Add one child's snapshot into ``into``; its spans get item id ``item``."""
    for name, (calls, self_s, errors) in snap["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0])
        acc[0] += calls
        acc[1] += self_s
        acc[2] += errors
    for name, value in snap["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + value
    room = SPAN_CAP - len(into["spans"])
    for span in snap["spans"][:max(0, room)]:
        into["spans"].append(span[:5] + [item])


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)\s*$")


def parse_importtime(stderr_text):
    """Self import time in ms per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            out[m.group(2)] = out.get(m.group(2), 0.0) + int(m.group(1)) / 1000.0
    return out


PHINLAB_MODULES = ("phinlab", "phinlab.errors", "phinlab.config", "phinlab.scalars",
                   "phinlab.linalg", "phinlab.partitions", "phinlab.modules",
                   "phinlab.weil_deligne", "phinlab.hecke", "phinlab.interpolation",
                   "phinlab.sampling", "phinlab.schema", "phinlab.cli")


def import_breakdown(per_module):
    """Fold one process's importtime table into the reported import metrics."""
    out = {f"cli.import.{m}_ms": per_module.get(m, 0.0) for m in PHINLAB_MODULES}
    phin = sum(out.values())
    total = sum(per_module.values())
    out["cli.import.other_ms"] = total - phin
    out["cli.import.total_ms"] = total
    return out


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
