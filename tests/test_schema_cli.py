import json
import os
import subprocess
import sys

import pytest

import phinlab
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


def test_cli_respects_enumeration_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PHINLAB_MAX_N", "1")
    path = write_json(tmp_path, STEINBERG)
    code, _, err = run_cli(capsys, ["check-admissible", path])
    assert code == 2
    monkeypatch.setenv("PHINLAB_MAX_N", "zero")
    code, _, err = run_cli(capsys, ["check-admissible", path])
    assert code == 2
    assert "PHINLAB_MAX_N" in err


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
    src = os.path.dirname(os.path.dirname(phinlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
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
