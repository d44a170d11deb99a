import json
import subprocess
import sys
import time

import pytest

from phinlab.cli import main
from phinlab.errors import SchemaError
from phinlab.scalars import PAdicValuation, TwistedScalar
from phinlab.schema import (
    load_json,
    matrix_json,
    parse_module,
    twisted_json,
    valuation_json,
)
from tests_helpers import child_env

STEINBERG = {
    "field": {"p": 2, "f0": 1, "e": 1, "f": 1, "embeddings": ["k0"]},
    "n": 2,
    "phi": [["1", "0"], ["0", "2"]],
    "monodromy": [["0", "1"], ["0", "0"]],
    "filtration": {"k0": {"flag": [["1", "1"], ["1", "-1"]], "jumps": [1, 0]}},
}


def write_json(tmp_path, obj, name="module.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def variant(**overrides):
    obj = json.loads(json.dumps(STEINBERG))
    obj.update(overrides)
    return obj


def test_parse_module_round_trip():
    d = parse_module(STEINBERG)
    assert d.n == 2
    assert d.field.p == 2
    # columns re-sorted by ascending jump
    assert d.jumps("k0") == (0, 1)
    assert d.flag("k0").column(0) == (1, -1)


def test_parse_module_field_paths():
    with pytest.raises(SchemaError) as exc:
        parse_module(variant(phi=[["1", "0"], ["0"]]))
    assert "phi" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        parse_module(variant(n="2"))
    assert str(exc.value).startswith("n")
    with pytest.raises(SchemaError) as exc:
        parse_module(variant(phi=[["1", "0"], ["0", 2.5]]))
    assert "phi.1.1" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        parse_module(variant(extra=1))
    assert "extra" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        parse_module({k: v for k, v in STEINBERG.items() if k != "monodromy"})
    assert "monodromy" in str(exc.value)
    with pytest.raises(SchemaError) as exc:
        parse_module(variant(phi=[["1", "0"], ["0", "2/0"]]))
    assert "phi.1.1" in str(exc.value)


def test_parse_module_rejects_bool_entries():
    bad = variant()
    bad["filtration"]["k0"]["jumps"] = [True, 0]
    with pytest.raises(SchemaError) as exc:
        parse_module(bad)
    assert "jumps.0" in str(exc.value)


def test_load_json_reports_position():
    with pytest.raises(SchemaError) as exc:
        load_json('{"field": }')
    assert "line 1 column 11" in str(exc.value)


def test_serializers():
    assert valuation_json(PAdicValuation.infinity()) == "inf"
    assert valuation_json(PAdicValuation(-2)) == -2
    assert twisted_json(TwistedScalar(3, -1, 2, 1)) == "3/2"
    assert twisted_json(TwistedScalar(3, -1, 2, 2)) == {"coeff": "3", "pi_exp": -1}
    d = parse_module(STEINBERG)
    assert matrix_json(d.phi) == [["1", "0"], ["0", "2"]]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_check_admissible_steinberg(tmp_path, capsys):
    path = write_json(tmp_path, STEINBERG)
    code, out, _ = run_cli(capsys, ["check-admissible", path])
    assert code == 0
    assert "admissible: yes" in out
    assert "t_H = 1" in out and "t_N = 1" in out
    assert "subspaces checked: 3" in out

    code, out, _ = run_cli(capsys, ["check-admissible", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["admissible"] is True
    assert report["t_h"] == "1" and report["t_n"] == "1"
    assert report["subspaces_checked"] == 3


def test_cli_check_admissible_failure(tmp_path, capsys):
    bad = variant(filtration={"k0": {"flag": [["1", "0"], ["0", "1"]], "jumps": [1, 0]}})
    path = write_json(tmp_path, bad)
    code, out, _ = run_cli(capsys, ["check-admissible", path, "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert report["admissible"] is False
    assert report["witness"]["dim"] == 1


def test_cli_wd_and_segments(tmp_path, capsys):
    path = write_json(tmp_path, STEINBERG)
    code, out, _ = run_cli(capsys, ["wd", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["q"] == 2
    assert report["partition"] == {"k0": [2]}

    code, out, _ = run_cli(capsys, ["segments", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["segments"] == [{"chi": "1", "len": 2}]
    assert report["generic"] is True
    assert report["psi"] == ["2", "1"]


def test_cli_hecke_pinned_example(capsys):
    code, out, _ = run_cli(
        capsys, ["hecke", "--n", "3", "--r", "2", "--q", "2", "--psi", "1,2,4", "--format", "json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["closed"] == "7"
    assert report["enumerated"] == "7"
    assert report["equal"] is True


def test_cli_hecke_rejects_bad_psi(capsys):
    code, _, err = run_cli(capsys, ["hecke", "--n", "2", "--r", "1", "--q", "2", "--psi", "1,x"])
    assert code == 2
    assert "--psi" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_hecke_zero_psi_entry_exits_2_without_a_traceback(fmt):
    done = subprocess.run([sys.executable, "-m", "phinlab.cli", "hecke", "--n", "3", "--r", "2",
                           "--q", "2", "--psi=1,0,2", "--format", fmt],
                          capture_output=True, text=True, timeout=60, env=child_env())
    text = "psi entry 2 is 0; character values must be nonzero"
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    if fmt == "json":
        assert json.loads(done.stderr) == {"error": text}
    else:
        assert done.stderr == f"error: {text}\n"


def test_cli_beta(tmp_path, capsys):
    path = write_json(tmp_path, STEINBERG)
    code, out, _ = run_cli(capsys, ["beta", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert [row["value"] for row in report["rows"]] == ["3", "2"]
    assert report["xi"] == {"k0": [0, 0]}


def test_cli_consistency(tmp_path, capsys):
    path = write_json(tmp_path, STEINBERG)
    code, out, _ = run_cli(capsys, ["consistency", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["rows"][0] == {
        "r": 1, "hecke": "3", "galois": "3", "equal": True, "valuation": 0}


def test_cli_consistency_not_generic(tmp_path, capsys):
    linked = variant(
        phi=[["1", "0"], ["0", "2"]],
        monodromy=[["0", "0"], ["0", "0"]],
        filtration={"k0": {"flag": [["1", "0"], ["0", "1"]], "jumps": [0, 1]}},
    )
    path = write_json(tmp_path, linked)
    code, out, _ = run_cli(capsys, ["consistency", path, "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "not_generic"
    assert report["linked_pair"] == [0, 1]
    assert report["rows"] == []


def test_cli_strata(tmp_path, capsys):
    path = write_json(tmp_path, STEINBERG)
    code, out, _ = run_cli(capsys, ["strata", path, "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["partition"] == {"k0": [2]}
    verdicts = {tuple(s["partition"]): s["member"] for s in report["strata"]}
    # the point's own stratum and everything below it contain it
    assert verdicts[(2,)] is True
    assert verdicts[(1, 1)] is False


def diagonal_module(n):
    """Rank n, phi = diag(1, 2, 4, ...), N = 0 and the standard flag."""
    return {
        "field": {"p": 2},
        "n": n,
        "phi": [[str(2 ** i) if i == j else "0" for j in range(n)] for i in range(n)],
        "monodromy": [["0"] * n for _ in range(n)],
        "filtration": {"k0": {"flag": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
                              "jumps": list(range(n))}},
    }


def test_cli_strata_runs_within_the_work_budget(tmp_path, capsys):
    # p(27) * 27 = 3010 * 27 = 81270 work units, under the budget of 10^5
    path = write_json(tmp_path, diagonal_module(27))
    code, out, err = run_cli(capsys, ["strata", path, "--format", "json"])
    assert (code, err) == (0, "")
    strata = json.loads(out)["strata"]
    assert len(strata) == 3010
    assert all(s["member"] for s in strata)


def test_cli_strata_over_the_work_budget_exits_2_at_once(tmp_path, capsys):
    # p(28) * 28 = 3718 * 28 = 104104 work units
    path = write_json(tmp_path, diagonal_module(28))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["strata", path])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: strata thresholds: 104104 work units exceed the budget of 100000\n"


@pytest.mark.parametrize("entry", ["\u0661/\u0662", "3/\u00b2", "\u00b2"])
def test_cli_non_ascii_digits_are_an_input_error(tmp_path, capsys, entry):
    path = write_json(tmp_path, variant(phi=[["1", "0"], ["0", entry]]))
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, ["check-admissible", path, "--format", fmt])
        assert (code, out) == (2, "")
        message = f"phi.1.1: not a rational literal: {entry!r}"
        assert err == (f"error: {message}\n" if fmt == "text"
                       else json.dumps({"error": message}, indent=2, sort_keys=True) + "\n")


def test_cli_input_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["check-admissible", str(tmp_path / "missing.json")])
    assert code == 2
    assert "cannot read" in err

    bad = tmp_path / "broken.json"
    bad.write_text('{"field": {')
    code, _, err = run_cli(capsys, ["check-admissible", str(bad)])
    assert code == 2
    assert "line 1" in err

    short = variant(phi=[["1"], ["0", "2"]])
    path = write_json(tmp_path, short, "short.json")
    code, _, err = run_cli(capsys, ["check-admissible", path])
    assert code == 2
    assert "phi" in err


def diagonal_module(n, monodromy=None):
    """phi = diag(1, 2, ..., 2^(n-1)) with jumps 0..n-1 on the standard flag,
    admissible for N = 0 and for N the chain e_(n-1) -> ... -> e_0."""
    return {
        "field": {"p": 2, "f0": 1, "e": 1, "f": 1, "embeddings": ["k0"]},
        "n": n,
        "phi": [[str(2 ** i) if i == j else "0" for j in range(n)] for i in range(n)],
        "monodromy": monodromy or [["0"] * n for _ in range(n)],
        "filtration": {"k0": {"flag": [["1" if i == j else "0" for j in range(n)] for i in range(n)],
                              "jumps": list(range(n))}},
    }


def test_cli_respects_enumeration_cap(tmp_path, capsys):
    # N = 0 has 2^n closed sets, n * 2^n work units against a budget of 10^5
    code, out, err = run_cli(capsys, ["check-admissible", write_json(tmp_path, diagonal_module(12))])
    assert code == 0 and err == ""
    assert "subspaces checked: 4096 (enumerated)" in out
    for n, units in ((13, 106496), (40, 40 * 2**40)):
        path = write_json(tmp_path, diagonal_module(n))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["check-admissible", path])
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert err == f"error: stable-subspace enumeration: {units} work units exceed the budget of 100000\n"


def test_cli_decides_a_long_monodromy_chain(tmp_path, capsys):
    n = 20
    chain = [["1" if j == i + 1 else "0" for j in range(n)] for i in range(n)]
    path = write_json(tmp_path, diagonal_module(n, chain))
    code, out, err = run_cli(capsys, ["check-admissible", path])
    assert code == 0 and err == ""
    assert "admissible: yes" in out
    assert "subspaces checked: 21 (enumerated)" in out


def test_cli_reads_no_environment(tmp_path):
    path = write_json(tmp_path, STEINBERG)
    clean = {k: v for k, v in child_env().items() if not k.startswith("PHINLAB_")}
    runs = [subprocess.run([sys.executable, "-m", "phinlab.cli", "check-admissible", path],
                           capture_output=True, timeout=60, env=env)
            for env in (clean, dict(clean, PHINLAB_MAX_N="1", PHINLAB_BACKEND="bogus"))]
    assert runs[0].returncode == 0 and runs[0].stderr == b""
    assert [(r.returncode, r.stdout, r.stderr) for r in runs[1:]] == [
        (runs[0].returncode, runs[0].stdout, runs[0].stderr)]


def test_cli_sweep_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, ["sweep", "--seed", "11", "--format", "json"])
    code2, out2, _ = run_cli(capsys, ["sweep", "--seed", "11", "--format", "json"])
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["passed"] is True
    ids = [c["id"] for c in report["cases"]]
    assert ids == sorted(ids)


@pytest.mark.parametrize("field", [
    {"p": 4},
    {"p": 2, "e": 0},
    {"p": 2, "embeddings": []},
])
def test_cli_bad_field_block_is_an_input_error(tmp_path, capsys, field):
    path = write_json(tmp_path, variant(field=field))
    code, _, err = run_cli(capsys, ["check-admissible", path])
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: field")


@pytest.mark.parametrize("phi, text", [
    ([["1", "0"], ["0", "1"]], "repeated roots: 1 (multiplicity 2)"),
    ([["0", "2"], ["1", "0"]], "irrational factor with coefficients -2, 0, 1"),
])
def test_cli_spectrum_errors_print_no_backend_reprs(tmp_path, capsys, phi, text):
    path = write_json(tmp_path, variant(phi=phi, monodromy=[["0", "0"], ["0", "0"]]))
    code, out, err = run_cli(capsys, ["check-admissible", path])
    assert code == 2
    assert text in err
    assert "Fraction(" not in out + err
    code, out, err = run_cli(capsys, ["beta", path, "--format", "json"])
    assert code == 0
    assert text in json.loads(out)["warning"]
    assert "Fraction(" not in out + err


def test_cli_hecke_negative_first_psi_value(capsys):
    argv = ["hecke", "--n", "3", "--r", "2", "--q", "2", "--format", "json"]
    spaced = run_cli(capsys, argv + ["--psi", "-3/2,1,2"])
    attached = run_cli(capsys, argv + ["--psi=-3/2,1,2"])
    assert spaced == attached
    assert spaced[0] == 0
    assert json.loads(spaced[1])["psi"] == ["-3/2", "1", "2"]


def test_cli_22_digit_entry_gets_a_verdict_in_time(tmp_path):
    # the spectrum of diag(3*(10^21+117), 3): a divisor search up to the
    # square root of the constant term does not finish in minutes
    big = str(3 * (10 ** 21 + 117))
    module = {
        "field": {"p": 3, "f0": 1, "e": 1, "f": 1, "embeddings": ["k0"]},
        "n": 2,
        "phi": [[big, "0"], ["0", "3"]],
        "monodromy": [["0", "0"], ["0", "0"]],
        "filtration": {"k0": {"flag": [["1", "0"], ["0", "1"]], "jumps": [1, 21]}},
    }
    path = write_json(tmp_path, module)
    env = child_env()
    runs = {}
    for command in ("check-admissible", "segments", "beta"):
        done = subprocess.run([sys.executable, "-m", "phinlab.cli", command, path],
                              capture_output=True, text=True, timeout=5, env=env)
        runs[command] = (done.returncode, done.stdout)
    assert runs["check-admissible"][0] == 1
    assert "t_N = 2" in runs["check-admissible"][1]
    assert runs["segments"][0] == 0
    assert f"({big}, 1)" in runs["segments"][1]
    assert runs["beta"][0] == 0


def test_cli_main_reuses_one_parser_across_calls(tmp_path, capsys):
    from phinlab import cli

    path = write_json(tmp_path, STEINBERG)
    calls = [
        ["check-admissible", path],
        ["beta", path, "--format", "json"],
        ["hecke", "--n", "3", "--r", "2", "--q", "2", "--psi", "-3/2,1,2"],
        ["strata", path, "--format", "yaml"],     # argparse rejects the choice
        ["hecke", "--n", "3", "--r", "2", "--q", "2", "--psi", "x"],
        ["segments", path],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    cli._parser.cache_clear()
    shared = [run(argv) for argv in calls]
    assert cli._parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0, 0, 2, 2, 0]


def test_cli_hecke_over_the_class_budget_exits_2_at_once():
    # C(30, 15) = 155117520 coset classes: summing them would take hours
    psi = ",".join(str(i) for i in range(1, 31))
    done = subprocess.run([sys.executable, "-m", "phinlab.cli", "hecke", "--n", "30", "--r", "15",
                           "--q", "2", f"--psi={psi}"],
                          capture_output=True, text=True, timeout=5, env=child_env())
    assert done.returncode == 2
    assert done.stdout == ""
    assert "155117520" in done.stderr and "budget" in done.stderr


def test_cli_beta_reports_an_enumeration_cap_hit_as_undecided(tmp_path, capsys):
    # rank 9 is decided; its rank-13 twin is past the work budget
    path = write_json(tmp_path, diagonal_module(9))
    code, out, err = run_cli(capsys, ["beta", path])
    assert code == 0 and err == ""
    assert "undecided" not in out
    code, out, err = run_cli(capsys, ["check-admissible", path])
    assert code == 0 and err == ""
    assert "subspaces checked: 512 (enumerated)" in out

    n = 13
    path = write_json(tmp_path, diagonal_module(n))
    cap_text = "stable-subspace enumeration: 106496 work units exceed the budget of 100000"
    code, out, err = run_cli(capsys, ["beta", path])
    assert code == 0 and err == ""
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("r=")] == [
        f"r={r}" for r in range(1, n + 1)]
    assert f"warning: admissibility undecided ({cap_text}); valuations reported raw" in out
    code, out, err = run_cli(capsys, ["check-admissible", path])
    assert code == 2 and out == ""
    assert err == f"error: {cap_text}\n"


def test_cli_beta_on_repeated_eigenvalues_is_undecided_despite_a_totals_mismatch(tmp_path, capsys):
    # phi = 2*I: t_N = 2 but the jumps sum to t_H = 1, and the repeated
    # root is reported before the mismatch
    module = variant(phi=[["2", "0"], ["0", "2"]], monodromy=[["0", "0"], ["0", "0"]],
                     filtration={"k0": {"flag": [["1", "0"], ["0", "1"]], "jumps": [0, 1]}})
    path = write_json(tmp_path, module)
    reason = "phi spectrum has repeated roots: 2 (multiplicity 2)"
    code, out, err = run_cli(capsys, ["beta", path])
    assert code == 0 and err == ""
    assert f"warning: admissibility undecided ({reason}); valuations reported raw" in out
    code, out, err = run_cli(capsys, ["check-admissible", path])
    assert (code, out, err) == (2, "", f"error: {reason}\n")


def test_cli_wd_segments_and_consistency_finish_at_a_61_bit_prime(tmp_path):
    # p = 2^61 - 1: splitting q = p by trial division up to sqrt(q) never ends
    p = 2 ** 61 - 1
    module = {
        "field": {"p": p, "f0": 1, "e": 1, "f": 1, "embeddings": ["k0"]},
        "n": 1,
        "phi": [["1"]],
        "monodromy": [["0"]],
        "filtration": {"k0": {"flag": [["1"]], "jumps": [0]}},
    }
    path = write_json(tmp_path, module)
    env = child_env()
    for command in ("wd", "segments", "consistency"):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "phinlab.cli", command, path],
                              capture_output=True, text=True, timeout=10, env=env)
        elapsed = time.perf_counter() - start
        assert done.returncode == 0, (command, done.stdout, done.stderr)
        assert elapsed < 2, (command, elapsed)
        if command == "wd":
            assert f"q = {p}" in done.stdout
