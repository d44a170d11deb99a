"""Committed mutation checks: each mutant must be killed by the tests named for it.

A mutant is a file under ``src/phinlab``, an exact snippet of it that
occurs once, the snippet's replacement, and the ids of the tests expected
to kill it. The runner copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, checks that the named tests pass there, then for
each mutant applies it to the copy alone and runs its tests with pytest.
The mutant is killed when every named test fails (a parametrized test
fails when one of its cases does), or when the run exceeds its time limit;
a named test that passes is reported, so a refactor that loses a killing
test shows here.

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py NAME ...   # the named ones

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when a
snippet no longer occurs exactly once or a named test fails unmutated.
Standard library and pytest only.
"""

import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

# seconds one test run may take before it counts as killed by a hang; the
# unmutated run of every named test takes a few seconds
RUN_LIMIT = 30


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple


MUTANTS = (
    Mutant("eigenvector-sign-ignored", "linalg.py",
           "x // (g if last > 0 else -g)",
           "x // g",
           ("tests/test_linalg.py::test_eigenvectors_match_the_kernel_vectors",)),
    Mutant("krylov-power-reversed", "linalg.py",
           "sum(map(operator.mul, quotients[i], col))",
           "sum(map(operator.mul, quotients[i][::-1], col))",
           ("tests/test_modules.py::test_integer_eigen_frame_matches_the_fraction_route",
            "tests/test_linalg.py::test_eigenvectors_match_the_kernel_vectors")),
    # the search for a prime with only simple roots never ends on a
    # polynomial with a repeated root, so this mutant is killed by the
    # time limit
    Mutant("no-squarefree-fallback", "linalg.py",
           "h = _exact_quotient(f, _poly_gcd(f, dh))",
           "h = f",
           ("tests/test_linalg.py::test_rational_eigenvalues_of_repeated_roots",)),
    # is_int without its bool clause: True and False pass as ints everywhere
    Mutant("bool-jumps-accepted", "scalars.py",
           "return isinstance(value, int) and not isinstance(value, bool)",
           "return isinstance(value, int)",
           ("tests/test_interpolation.py::test_ht_weights_validation",
            "tests/test_number_rule.py::test_an_int_slot_refuses_a_float_and_a_bool")),
    Mutant("float-becomes-rational", "scalars.py",
           'raise TypeError(f"expected an int, a Fraction or a rational string, got {value!r}")',
           "return Rational(value)",
           ("tests/test_number_rule.py::"
            "test_a_rational_slot_refuses_floats_bools_and_decimal_strings",)),
    # a module with N = 0 and a large f then exits 2 at the budget
    Mutant("scale-gated-before-n-zero", "modules.py",
           "    if monodromy.is_zero:\n"
           "        return\n"
           '    check_work_units(k * p.bit_length(), "commutation scale p^k")\n',
           '    check_work_units(k * p.bit_length(), "commutation scale p^k")\n'
           "    if monodromy.is_zero:\n"
           "        return\n",
           ("tests/test_cli_fuzz.py::test_file_commands_on_large_frobenius_powers",)),
    Mutant("check-phi-n-skips-nilpotency", "modules.py",
           "                jordan_partition(monodromy)\n",
           "",
           ("tests/test_modules.py::test_check_phi_n_rejects_non_nilpotent_monodromy",
            "tests/test_modules.py::test_check_phi_n_names_the_first_error_at_scale_two")),
    Mutant("twist-window-from-r", "hecke.py",
           "range(r - 1, n)",
           "range(r, n)",
           ("tests/test_hecke.py::test_theta_tilde_twist_window",
            "tests/test_interpolation.py::test_beta_value_pinned")),
    Mutant("ht-allows-equal-weights", "interpolation.py",
           "w[i] >= w[i + 1]",
           "w[i] > w[i + 1]",
           ("tests/test_interpolation.py::test_ht_weights_validation",
            "tests/test_interpolation.py::test_ht_from_module_reads_jumps")),
    Mutant("xi-offset-shifted", "interpolation.py",
           "-w[j] + j",
           "-w[j] + j + 1",
           ("tests/test_interpolation.py::test_xi_from_ht_pinned",
            "tests/test_interpolation.py::test_beta_value_pinned",
            "tests/test_interpolation.py::test_beta_top_r_is_twisted_determinant")),
    Mutant("psi-bottom-first", "weil_deligne.py",
           "for j in range(s.length - 1, -1, -1):",
           "for j in range(s.length):",
           ("tests/test_weil_deligne.py::test_psi_from_segments_pinned",
            "tests/test_weil_deligne.py::test_wd_from_segments_matrices_pinned")),
    Mutant("inverse-update-one-minus", "linalg.py",
           "w * (2 - _eval_mod(dh, y, modulus) * w)",
           "w * (1 - _eval_mod(dh, y, modulus) * w)",
           ("tests/test_linalg.py::test_rational_eigenvalues_split_cases",
            "tests/test_linalg.py::test_rational_eigenvalues_rank_8_with_20_digit_entries")),
    Mutant("int-val-skips-last-step", "scalars.py",
           "for k in range(len(powers) - 1, -1, -1):",
           "for k in range(len(powers) - 1, 0, -1):",
           ("tests/test_scalars.py::test_padic_val_basics",
            "tests/test_scalars.py::test_int_val_counts_every_valuation_for_any_base")),
    Mutant("linked-containment", "weil_deligne.py",
           "    if a2 <= a1 and b1 <= b2:\n        return False\n",
           "",
           ("tests/test_weil_deligne.py::test_is_generic_containment_in_both_orders",
            "tests/test_weil_deligne.py::test_segments_cli_on_a_contained_chain")),
    # one copy of each probe's parts, whatever the number of labels
    Mutant("strata-probe-one-label", "cli.py",
           "part_thresholds(probe.parts, d.n, len(point.labels))",
           "part_thresholds(probe.parts, d.n)",
           ("tests/test_schema_cli.py::test_cli_wd_and_strata_copy_the_partition_to_every_label",)),
    Mutant("dominance-fill-zero", "partitions.py",
           "fillvalue=a.total",
           "fillvalue=0",
           ("tests/test_partitions.py::test_dominates_pinned",)),
    Mutant("cap-not-undecided", "errors.py",
           "class EnumerationCapExceeded(Undecided):",
           "class EnumerationCapExceeded(InputError):",
           ("tests/test_modules.py::test_a_totals_mismatch_is_decided_before_the_spectrum",)),
    Mutant("literal-takes-zero-denominator", "scalars.py",
           "0*[1-9][0-9]*",
           "[0-9]+",
           ("tests/test_scalars.py::test_parse_rational_rejects_junk",
            "tests/test_schema_cli.py::test_parse_module_field_paths")),
    # an entry holding a separator shifts every later entry of the text read
    Mutant("matrix-reader-no-separator-count", "schema.py",
           '    if text.count(",") != n * (n - 1) or text.count(";") != n - 1:\n'
           "        return None\n",
           "",
           ("tests/test_schema_text.py::test_the_matrix_reader_agrees_with_rational_literal",
            "tests/test_schema_text.py::test_the_matrix_reader_agrees_with_the_entry_reference")),
    Mutant("writer-keeps-key-order", "schema.py",
           "for key in sorted(value):",
           "for key in value:",
           ("tests/test_schema_text.py::test_dumps_matches_the_standard_library",
            "tests/test_schema_cli.py::test_cli_prints_an_infinite_valuation_as_inf")),
    # correct values from a cache keyed by value, shared by equal matrices
    Mutant("char-poly-shared-by-value", "linalg.py",
           '    poly = getattr(m, "_char_poly", None)\n'
           "    if poly is None:\n"
           "        poly = _newton_char_poly(m), m.den\n"
           '        object.__setattr__(m, "_char_poly", poly)\n',
           "    shared = _int_char_poly.__dict__\n"
           "    poly = shared.get((m.ints, m.den))\n"
           "    if poly is None:\n"
           "        poly = shared[m.ints, m.den] = _newton_char_poly(m), m.den\n",
           ("tests/test_operation_counts.py::"
            "test_equal_but_distinct_matrices_each_form_their_own_polynomial",)),
    Mutant("det-shared-by-value", "linalg.py",
           '    value = getattr(m, "_det", None)\n'
           "    if value is None:\n"
           "        value = _bareiss(m)\n"
           '        object.__setattr__(m, "_det", value)\n',
           "    shared = det.__dict__\n"
           "    value = shared.get((m.ints, m.den))\n"
           "    if value is None:\n"
           "        value = shared[m.ints, m.den] = _bareiss(m)\n",
           ("tests/test_operation_counts.py::"
            "test_equal_but_distinct_matrices_each_form_their_own_determinant",)),
)


def snippet_errors(root=ROOT, mutants=MUTANTS):
    """One line per mutant whose snippet does not occur exactly once."""
    errors = []
    for m in mutants:
        count = (root / "src" / "phinlab" / m.file).read_text().count(m.snippet)
        if count != 1:
            errors.append(f"{m.name}: snippet occurs {count} times in {m.file}")
    return errors


def failing_tests(workdir, tests):
    """The named tests that fail in workdir, or None when the run hits RUN_LIMIT."""
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(argv, cwd=workdir, capture_output=True, text=True, timeout=RUN_LIMIT)
    except subprocess.TimeoutExpired:
        return None
    # a parametrized test fails when one of its cases does
    return {line.split()[1].split("[")[0] for line in done.stdout.splitlines()
            if line.startswith("FAILED ")}


def main(names):
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    errors = [f"unknown mutant {name}" for name in sorted(unknown)] + snippet_errors(mutants=mutants)
    if errors:
        print("\n".join(errors))
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        broken = failing_tests(work, sorted({t for m in mutants for t in m.tests}))
        if broken is None or broken:
            print(f"unmutated, these tests fail or hang: {broken}")
            return 2
        survivors = 0
        for m in mutants:
            path = work / "src" / "phinlab" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            failed = failing_tests(work, m.tests)
            path.write_text(original)
            if failed is None:
                print(f"killed    {m.name} (time limit)")
            elif set(m.tests) <= failed:
                print(f"killed    {m.name}")
            else:
                survivors += 1
                passed = ", ".join(t for t in m.tests if t not in failed)
                print(f"survived  {m.name}: passed {passed}")
    print(f"{len(mutants) - survivors} of {len(mutants)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
