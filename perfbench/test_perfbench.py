"""Tests of the benchmark itself: seeded inputs, the correctness gate, tracing."""

import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import pb_check  # noqa: E402
import pb_gen  # noqa: E402
import pb_trace  # noqa: E402
import pb_work  # noqa: E402


@pytest.mark.parametrize("workload", pb_work.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    c = tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    _, blob_a = pb_work.build_pool(workload, 7, str(a))
    _, blob_b = pb_work.build_pool(workload, 7, str(b))
    _, blob_c = pb_work.build_pool(workload, 8, str(c))
    assert blob_a == blob_b
    assert blob_a != blob_c
    assert sorted(os.listdir(a)) == sorted(os.listdir(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_construction_labels_cover_every_verdict():
    cases = pb_gen.report_rank_cases(0) + pb_gen.report_height_cases(0) + pb_gen.cold_cases(0)
    codes = {(pb_check.expected_code(c, "check-admissible"), pb_check.expected_code(c, "consistency"))
             for c in cases}
    assert codes == {(0, 0), (1, 0), (0, 1)}
    assert {c.witness[0] for c in cases if c.witness} == {"full", "line"}
    for case in pb_gen.report_height_cases(0):
        top, bottom = pb_gen.root_search_heights(case.eigen)
        assert 10 ** 8 <= top <= 10 ** 12 and 10 ** 8 <= bottom <= 10 ** 12


# the cheapest items of each pool, by the prefix of their name
CHEAP = {
    "report-rank": ("rank5-chain-",),
    "report-height": ("height2-admissible-", "height2-raised-"),
    "hecke-routes": ("hecke-n6-r1-", "hecke-n6-r2-"),
    "cli-cold": ("check-admissible-cold2-", "hecke-n"),
}


def _cheap_items(workload, tmp_path):
    items, _ = pb_work.build_pool(workload, 3, str(tmp_path))
    cheap = [it for it in items if it.ident.startswith(CHEAP[workload])]
    assert cheap
    return cheap


@pytest.mark.parametrize("workload", ["report-rank", "report-height", "hecke-routes"])
def test_tiny_in_process_run_has_no_failures(workload, tmp_path):
    res = pb_work.run_loop(_cheap_items(workload, tmp_path), pb_work.InProcess(), 0.0)
    assert res.attempted > 0
    assert res.failed == 0, res.problems


def test_gate_rejects_a_wrong_verdict(tmp_path):
    items = _cheap_items("report-rank", tmp_path)
    execute = pb_work.InProcess()
    results = [execute(argv) for argv in items[0].argvs]
    assert items[0].check(results) == []
    code, text = results[0]
    assert items[0].check([(1 - code, text)] + results[1:])
    assert items[0].check([(code, text.replace('"t_n"', '"t_x"', 1))] + results[1:])


def test_tracing_changes_no_output_and_restores_the_package(tmp_path):
    import phinlab.linalg
    import phinlab.modules

    original = phinlab.linalg.rational_eigenvalues
    items = _cheap_items("report-rank", tmp_path)
    plain = pb_work.run_loop(items, pb_work.InProcess(), 0.0)
    tracer = pb_trace.Tracer()
    tracer.install()
    try:
        assert phinlab.modules.rational_eigenvalues is not original
        traced = pb_work.run_loop(items, pb_work.InProcess(), 0.0)
    finally:
        tracer.uninstall()
    assert phinlab.linalg.rational_eigenvalues is original
    assert phinlab.modules.rational_eigenvalues is original
    assert traced.item_digests == plain.item_digests
    assert traced.failed == 0, traced.problems
    stats = tracer.snapshot()["stats"]
    assert stats["modules.enumerate_stable_subspaces"][0] > 0
    assert stats["linalg.Subspace.intersect"][0] > 0
    assert stats["hecke.theta_enumerated"][0] == 0
    assert tracer.counts["modules.masks_tried"] >= tracer.counts["modules.stable_found"] > 0


def test_cold_traced_and_untraced_outputs_match(tmp_path):
    items = _cheap_items("cli-cold", tmp_path)[:2]
    plain = pb_work.run_loop(items, pb_work.ColdProcess(ROOT), 0.0)
    traced_exec = pb_work.ColdProcess(ROOT, trace_dir=str(tmp_path))
    traced = pb_work.run_loop(items, traced_exec, 0.0)
    assert plain.failed == 0, plain.problems
    assert traced.item_digests == plain.item_digests
    assert len(traced_exec.child_stats) == pb_work.MIN_PASSES * len(items)
    assert all(t.get("phinlab.linalg", 0) > 0 for t in traced_exec.child_imports)


def test_digest_reference_is_pinned_to_the_default_seed(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(run, "DIGESTS", str(tmp_path / "digests.json"))
    res = pb_work.LoopResult([0.1], 0.1, 1, 1, 3, ["a"], "d", [])
    assert run.check_digests("hecke-routes", 0, res, False) == 1   # no reference yet
    assert run.check_digests("hecke-routes", 5, res, False) == 0   # no other seed has one
    run.check_digests("hecke-routes", 0, res, True)                 # a failed run records nothing
    assert not (tmp_path / "digests.json").exists()
    res.failed = 0
    run.check_digests("hecke-routes", 0, res, True)
    assert run.check_digests("hecke-routes", 0, res, False) == 0
    res.item_digests, res.digest = ["b"], "e"
    assert run.check_digests("hecke-routes", 0, res, False) == 1
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "hecke-routes", "--seed", "5", "--record-digests"])


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hecke-routes", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
