"""Committed mutation checks: each mutant must be killed by the tests named for it.

A mutant is a file under ``src/phinlab``, an exact snippet of it that
occurs once, the snippet's replacement, and the ids of the tests expected
to kill it. The runner copies ``src/``, ``tests/``, ``tools/``,
``perfbench/`` and ``pyproject.toml`` to a temporary directory (the byte
tests load ``tools/golden.py``, which imports ``perfbench``; only the copy
of ``src/`` is ever edited), checks that the named tests pass there, then
for each mutant applies it to the copy alone and runs its tests with pytest.
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
    # the one signed normal form keeps the sign it was given
    Mutant("eigenvector-sign-ignored", "linalg.py",
           "else [-x // g for x in v]",
           "else [x // g for x in v]",
           ("tests/test_linalg.py::test_eigenvectors_match_the_kernel_vectors",)),
    # every factor c + d*x taken as d + c*x: the eigenvectors' P(t) and
    # the Hecke expansion come out reversed
    Mutant("linear-product-factors-swapped", "linalg.py",
           "for k, (c, d) in enumerate(pairs, 1):",
           "for k, (d, c) in enumerate(pairs, 1):",
           ("tests/test_linalg.py::test_eigenvectors_match_the_kernel_vectors",
            "tests/test_hecke.py::test_theta_closed_pinned")),
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
    # the running twist sum takes the weight at position r - 1 for row r,
    # so the window starts one position early
    Mutant("twist-window-from-r", "hecke.py",
           "twist += sum(xi[label][r - 1] for label in field.embeddings)",
           "twist += sum(xi[label][r - 2] for label in field.embeddings)",
           ("tests/test_hecke.py::test_theta_tilde_twist_window",
            "tests/test_interpolation.py::test_beta_value_pinned")),
    # the weight at position r joins the sum after row r is built, so the
    # window starts one position late
    Mutant("twist-added-after-the-row", "hecke.py",
           "        twist += sum(xi[label][r - 1] for label in field.embeddings)\n"
           "        rows.append(TwistedScalar(values[r - 1], -twist, field.p, field.e))\n",
           "        rows.append(TwistedScalar(values[r - 1], -twist, field.p, field.e))\n"
           "        twist += sum(xi[label][r - 1] for label in field.embeddings)\n",
           ("tests/test_hecke_integer_routes.py::"
            "test_theta_tilde_matches_one_expansion_and_one_window_per_r",
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
    # two chains from the same base count as linked, whichever holds the other
    Mutant("linked-containment", "weil_deligne.py",
           "-m * (b1 - b2) > 0",
           "-m * (b1 - b2) >= 0",
           ("tests/test_weil_deligne.py::test_is_generic_containment_in_both_orders",
            "tests/test_weil_deligne.py::test_segments_cli_on_a_contained_chain")),
    # b / a = 1/q^k read as q^0: a chain whose base lies below another's on
    # its q-line is off the line from one side, so the verdict hangs on the order
    Mutant("q-offset-drops-the-denominator", "weil_deligne.py",
           "m = _int_val(ratio.numerator, q) - _int_val(ratio.denominator, q)",
           "m = _int_val(ratio.numerator, q)",
           ("tests/test_weil_deligne.py::test_is_generic_order_independent",)),
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
    # one level per flag column: a tied jump's level is listed twice
    Mutant("level-snapshot-inside-a-tie", "modules.py",
           "sorted(set(d.jumps(label)))",
           "sorted(d.jumps(label))",
           ("tests/test_modules.py::test_filtration_levels_match_fil_subspace_level_by_level",)),
    Mutant("hodge-scan-one-level-early", "modules.py",
           "for i, fil in label_levels:",
           "for i, fil in label_levels[:-1]:",
           ("tests/test_modules.py::test_hodge_scan_matches_the_full_level_scan",)),
    # psi's one check site without its zero test: a zero entry goes on
    # into the expansion and the class sums
    Mutant("psi-zero-unchecked", "hecke.py",
           "    if 0 in psi:\n"
           '        raise InputError(f"psi entry {psi.index(0) + 1} is 0; character values must be nonzero")\n',
           "",
           ("tests/test_hecke_integer_routes.py::test_a_zero_psi_entry_is_an_input_error",
            "tests/test_hecke.py::test_theta_tilde_checks_psi",
            "tests/test_hecke.py::test_spherical_value_refuses_a_zero_psi_entry",
            "tests/test_schema_cli.py::test_cli_hecke_zero_psi_entry_exits_2_without_a_traceback")),
    # t_N from the coefficient of x, not from the constant term +-det(phi)
    Mutant("newton-from-the-trace", "modules.py",
           "Rational(c[-1], den ** d.n)",
           "Rational(c[-2], den ** d.n)",
           ("tests/test_modules.py::test_newton_number_matches_the_valuation_of_the_determinant",
            "tests/test_edge_modules.py::test_edge_module_bytes")),
    # the frame's degrees of a closed set S: t_H from the rows inside S
    # rather than outside, t_N without the valuation of S's first member
    Mutant("frame-t-h-keeps-the-set-rows", "modules.py",
           "outside = [r for r in range(len(self.eigvecs)) if not mask >> r & 1]",
           "outside = [r for r in range(len(self.eigvecs)) if mask >> r & 1]",
           ("tests/test_modules.py::test_frame_degrees_match_the_definitions_on_every_closed_set",
            "tests/test_modules.py::test_eigen_coordinate_verdict_matches_the_subspace_scan")),
    Mutant("frame-t-n-drops-a-member", "modules.py",
           "sum(self.valuations[i] for i in _members(mask))",
           "sum(self.valuations[i] for i in _members(mask)[1:])",
           ("tests/test_modules.py::test_frame_degrees_match_the_definitions_on_every_closed_set",
            "tests/test_modules.py::test_eigen_coordinate_verdict_matches_the_subspace_scan")),
    Mutant("matrix-json-without-gcd", "schema.py",
           "gcds = [math.gcd(x, den) for x in row]",
           "gcds = [1 for x in row]",
           ("tests/test_schema_cli.py::test_matrix_json_prints_the_rational_entries",)),
    # the bare verdict without its totals: unequal totals go on into the
    # frame, which may call the module admissible or raise Undecided
    Mutant("beta-verdict-skips-the-totals", "modules.py",
           "    if hodge_number(d) != newton_number(d):\n"
           "        return False\n",
           "",
           ("tests/test_modules.py::test_the_bare_verdict_matches_the_report_or_its_undecided_text",
            "tests/test_operation_counts.py::test_a_beta_call_on_unequal_totals_builds_no_frame")),
    # arguments the subcommand's parser leaves over are dropped, not refused
    Mutant("dispatch-keeps-leftovers", "cli.py",
           "    if args is None or rest:\n",
           "    if args is None:\n",
           ("tests/test_schema_cli.py::test_cli_dispatch_parses_as_the_top_level_parser_does",)),
    # the canonical file call without its guards: "-h" or "--" taken as the
    # path, or a --format value argparse refuses taken as given
    Mutant("canonical-path-may-lead-with-a-dash", "cli.py",
           ' and argv[1][:1] != "-"',
           "",
           ("tests/test_schema_cli.py::test_cli_dispatch_parses_as_the_top_level_parser_does",)),
    Mutant("canonical-format-unchecked", "cli.py",
           ' and argv[3] in ("text", "json")',
           "",
           ("tests/test_schema_cli.py::test_cli_dispatch_parses_as_the_top_level_parser_does",)),
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
        for part in ("src", "tests", "tools", "perfbench"):
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
