"""Correctness gate for benchmark items, computed without the code under test.

Every expected value comes from the generator's construction labels and from
``fractions.Fraction`` arithmetic here; each check returns a list of problem
strings, empty when the item is correct.
"""

import json
from fractions import Fraction

from pb_gen import closed_theta, dominates, elementary_symmetric, padic_valuation, partitions_desc

FILE_COMMANDS = ("check-admissible", "wd", "segments", "beta", "consistency", "strata")

# sweep's fixed slate: 10 hecke, 10 strata, 8 + 8 sampled modules, 8 generic
# modules and two deliberate negatives
SWEEP_CASES = 46


def expected_code(case, command):
    if command == "check-admissible":
        return 0 if case.admissible else 1
    if command == "consistency":
        return 0 if case.generic else 1
    return 0


def beta_rows(case):
    """(value, valuation) for r = 1..n: e_r(phi) twisted by the late xi weights."""
    weights = sorted(case.jumps)
    xi = [-w + j for j, w in enumerate(weights)]
    rows = []
    for r in range(1, case.n + 1):
        twist = sum(xi[r - 1:])
        value = elementary_symmetric(case.eigen, r) * Fraction(case.p) ** -twist
        val = "inf" if value == 0 else padic_valuation(value, case.p)
        rows.append((value, val))
    return rows, xi


def _integral(val):
    return val == "inf" or val >= 0


def _expand(segments, q):
    out = []
    for s in segments:
        chi = Fraction(s["chi"])
        out.extend(chi * Fraction(q) ** j for j in range(s["len"]))
    return sorted(out)


def check_module_command(case, command, code, text):
    """Problems with one file subcommand's exit code and JSON report."""
    want = expected_code(case, command)
    if code != want:
        return [f"{command}: exit {code}, expected {want}"]
    try:
        rep = json.loads(text)
    except ValueError:
        return [f"{command}: stdout is not JSON"]
    problems = []
    try:
        _check_report(case, command, rep, problems)
    except (KeyError, TypeError, ValueError) as err:
        problems.append(f"{command}: malformed report ({err!r})")
    return problems


def _check_report(case, command, rep, problems):
    def expect(what, got, wanted):
        if got != wanted:
            problems.append(f"{command}: {what} = {got!r}, expected {wanted!r}")

    if command == "check-admissible":
        expect("admissible", rep["admissible"], case.admissible)
        expect("t_h", rep["t_h"], str(sum(case.jumps)))
        expect("t_n", rep["t_n"], str(sum(case.slopes)))
        expect("subspaces_checked", rep["subspaces_checked"], case.stable_count)
        expect("mode", rep["mode"], "enumerated")
        w = rep["witness"]
        if case.witness is None:
            expect("witness", w, None)
        elif w is None:
            problems.append(f"{command}: no witness for an inadmissible module")
        elif case.witness[0] == "full":
            expect("witness dim", w["dim"], case.n)
            expect("witness t_h", w["t_h"], str(sum(case.jumps)))
        else:
            expect("witness dim", w["dim"], 1)
            expect("witness t_h", w["t_h"], str(case.witness[1]))
            expect("witness t_n", w["t_n"], str(case.witness[2]))
    elif command == "wd":
        fixture = json.loads(case.text)
        expect("q", rep["q"], case.p)
        expect("n", rep["n"], case.n)
        expect("frobenius", rep["frobenius"], fixture["phi"])
        expect("monodromy", rep["monodromy"], fixture["monodromy"])
        expect("partition", rep["partition"], {"k0": list(case.shape)})
    elif command == "segments":
        expect("q", rep["q"], case.p)
        expect("generic", rep["generic"], case.generic)
        expect("lengths", sorted(s["len"] for s in rep["segments"]), sorted(case.shape))
        expect("chain values", _expand(rep["segments"], case.p), sorted(case.eigen))
        expect("psi", sorted(Fraction(v) for v in rep["psi"]), sorted(case.eigen))
        if case.generic:
            got = sorted((Fraction(s["chi"]), s["len"]) for s in rep["segments"])
            expect("segments", got, sorted(case.blocks))
    elif command == "beta":
        rows, xi = beta_rows(case)
        expect("xi", rep["xi"], {"k0": xi})
        expect("admissible", rep["admissible"], case.admissible)
        expect("warning is set", rep["warning"] is not None, not case.admissible)
        expect("rows", [(r["r"], r["value"], r["valuation"], r["integral"]) for r in rep["rows"]],
               [(i + 1, str(v), val, _integral(val)) for i, (v, val) in enumerate(rows)])
        expect("passed", rep["passed"], all(_integral(val) for _, val in rows))
    elif command == "consistency":
        expect("q", rep["q"], case.p)
        if case.generic:
            rows, _ = beta_rows(case)
            expect("status", rep["status"], "pass")
            expect("linked_pair", rep["linked_pair"], None)
            expect("rows", [(r["r"], r["hecke"], r["galois"], r["equal"], r["valuation"])
                            for r in rep["rows"]],
                   [(i + 1, str(v), str(v), True, val) for i, (v, val) in enumerate(rows)])
        else:
            expect("status", rep["status"], "not_generic")
            expect("linked pair found", rep["linked_pair"] is not None, True)
            expect("rows", rep["rows"], [])
    elif command == "strata":
        expect("partition", rep["partition"], {"k0": list(case.shape)})
        want_strata = [
            {
                "partition": list(probe),
                "thresholds": [sum(min(i, x) for x in probe) for i in range(1, case.n + 1)],
                "member": dominates(probe, case.shape),
            }
            for probe in partitions_desc(case.n)
        ]
        expect("strata", rep["strata"], want_strata)


def check_hecke(case, code, text):
    if code != 0:
        return [f"hecke: exit {code}, expected 0"]
    try:
        rep = json.loads(text)
    except ValueError:
        return ["hecke: stdout is not JSON"]
    closed = str(closed_theta(case))
    want = {
        "n": case.n, "q": case.q, "r": case.r,
        "psi": [str(v) for v in case.psi],
        "closed": closed, "enumerated": closed, "equal": True,
    }
    return [f"hecke: {k} = {rep.get(k)!r}, expected {v!r}" for k, v in want.items() if rep.get(k) != v]


def check_sweep(seed, code, text):
    if code != 0:
        return [f"sweep: exit {code}, expected 0"]
    try:
        rep = json.loads(text)
    except ValueError:
        return ["sweep: stdout is not JSON"]
    problems = []
    if rep.get("seed") != seed:
        problems.append(f"sweep: seed {rep.get('seed')!r}, expected {seed}")
    if rep.get("case_count") != SWEEP_CASES or len(rep.get("cases", ())) != SWEEP_CASES:
        problems.append(f"sweep: case_count {rep.get('case_count')!r}, expected {SWEEP_CASES}")
    if rep.get("passed") is not True or not all(c.get("ok") for c in rep.get("cases", ())):
        problems.append("sweep: a case failed")
    return problems
