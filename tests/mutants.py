"""Deliberate faults that the tests must catch.

Each entry of MUTANTS names a module of the package, an exact snippet of its
source, the snippet's replacement and the tests that must fail once the
replacement is made. For each entry, src/ is copied to a temporary
directory, the one replacement is made there, and `pytest -x -q` runs the
named tests against the copy. The run fails if a snippet does not occur
exactly once in its module (a refactor must update its mutants), if the
named tests fail on the unchanged source, or if a mutant survives: its tests
pass, or pytest stops for another reason than a failing test.

Run from the root of a source checkout:

    python tests/mutants.py          # every mutant
    python tests/mutants.py NAME ... # the named ones
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, module, snippet, replacement, tests that must kill it)
MUTANTS = [
    # linalg: the one echelon per matrix and the Bareiss determinant
    ("det-ignores-row-swaps", "linalg",
     "m[k], m[piv], sign = m[piv], m[k], -sign",
     "m[k], m[piv], sign = m[piv], m[k], sign",
     ["test_linalg.py::test_int_det_matches_the_leibniz_determinant"]),
    ("minor-table-without-pivot-signs", "linalg",
     "    for k, c in enumerate(pivots):\n        scale *= E[k][c]\n",
     "",
     ["test_linalg.py::test_maximal_minor_signs_match_bareiss_minors"]),
    ("row-basis-keeps-dependent-rows", "linalg",
     "M.row_tuples if len(pivots) == M.rows else tuple(tuple(map(Fraction, row)) for row in E)",
     "M.row_tuples",
     ["test_matroid.py::test_echelon_reads_match_the_bareiss_oracles"]),
    ("gauss-jordan-clears-only-below", "linalg",
     "        for i in range(nr):\n            f = m[i][c]",
     "        for i in range(r + 1, nr):\n            f = m[i][c]",
     ["test_linalg.py::test_rref_matches_fraction_oracle"]),
    ("echelon-not-kept", "linalg",
     "        if self._echelon is None:\n",
     "        if True:\n",
     ["test_linalg.py::test_each_matrix_object_is_eliminated_once"]),
    ("kernel-vector-sign-flipped", "linalg",
     "v[c] = -E[k][f] * (scale // E[k][c])",
     "v[c] = E[k][f] * (scale // E[k][c])",
     ["test_linalg.py::test_kernel_basis_examples"]),
    ("matrix-with-kernel-not-reduced", "linalg",
     "return _seeded(_fraction_rows(*echelon), echelon)",
     "return _seeded(tuple(tuple(map(Fraction, row)) for row in echelon[0]), echelon)",
     ["test_crn.py::test_matrix_with_kernel_matches_the_fraction_construction"]),
    ("subspace-basis-unchecked", "linalg",
     "if rank(M) != len(self.vectors):",
     "if False:",
     ["test_linalg.py::test_matrix_with_kernel_rejects_dependent"]),
    ("kernel-basis-repeats-a-vector", "linalg",
     "return SubspaceBasis._trusted(M.cols, _fraction_rows(_kernel_ints(E, pivots, M.cols), free))",
     "return SubspaceBasis._trusted(M.cols, (lambda vs: vs[:-1] + vs[:1])("
     "_fraction_rows(_kernel_ints(E, pivots, M.cols), free)))",
     ["test_linalg.py::test_kernel_basis_examples",
      "test_linalg.py::test_rank_nullity_and_kernel_roundtrip"]),
    # crn: one elimination per subspace
    ("subspace-echelon-not-kept", "crn",
     "return SubspaceBasis._trusted(ns, _fraction_rows(E, pivots), (tuple(primitive), tuple(pivots)))",
     "return SubspaceBasis._trusted(ns, _fraction_rows(E, pivots))",
     ["test_crn.py::test_each_subspace_is_eliminated_once"]),
    ("subspace-echelon-keeps-negative-pivots", "crn",
     "g = gcd(*row) if row[c] > 0 else -gcd(*row)",
     "g = gcd(*row)",
     ["test_crn.py::test_each_subspace_is_eliminated_once"]),
    # matroid: signs read off the minor table, and the cone's facets
    ("parity-never-flips", "matroid",
     "                odd ^= 1\n",
     "                odd ^= 0\n",
     ["test_matroid.py::test_circuits_cocircuits_match_rref_oracle"]),
    ("cramer-sets-miss-the-last-column", "matroid",
     "else {B | bit for B in table for bit in cols if not B & bit})",
     "else {B | bit for B in table for bit in cols[:-1] if not B & bit})",
     ["test_matroid.py::test_circuits_cocircuits_match_rref_oracle"]),
    ("equal-up-to-sign-ignores-n", "matroid",
     "return (self.W.cols == other.W.cols and a.keys() == b.keys()",
     "return (a.keys() == b.keys()",
     ["test_matroid.py::test_chirotopes_up_to_sign"]),
    ("face-below-skips-a-facet-on-column-0", "matroid",
     "            if t & ~A == 0:\n",
     "            if t & ~A == 0 and t != 1:\n",
     ["test_analyzer.py::test_face_below_is_the_largest_face_and_decides_first_vector"]),
    ("zero-columns-miss-the-last-column", "matroid",
     "zero_columns = bits(full & ~reduce(or_, self.cocircuit_masks, 0))",
     "zero_columns = bits(full >> 1 & ~reduce(or_, self.cocircuit_masks, 0))",
     ["test_matroid.py::test_cone_flags_from_the_table_match_the_matrix_route"]),
    ("column-0-never-interior", "matroid",
     "interior >> i & 1 or self.face_below",
     "i and interior >> i & 1 or self.face_below",
     ["test_matroid.py::test_robustly_generated_matches_signvector_oracle"]),
    # matroid: the one prefix search behind extends, first_vector and i
    ("extends-ignores-the-restriction", "matroid",
     "    if (P ^ N) & ~later:  # a generator inside A\n",
     "    if P ^ N:\n",
     ["test_matroid.py::test_extends_is_membership_in_the_restricted_closure"]),
    ("search-skips-the-generators-inside-A", "matroid",
     "    if (P ^ N) & ~later:  # a generator inside A\n        return None\n",
     "",
     ["test_matroid.py::test_first_vector_and_extends_match_the_pair_scan"]),
    ("search-tests-only-the-lowest-generator", "matroid",
     "j, e = free[k], last[k]\n",
     "j, e = free[k], last[k] & -last[k]\n",
     ["test_matroid.py::test_first_vector_and_extends_match_the_pair_scan",
      "test_analyzer.py::test_sigma_is_the_first_common_covector"]),
    ("search-skips-minus-whenever-the-prefix-is-zero", "matroid",
     "if found is None and y and ((P | m) ^ (N | p)) & e == 0:",
     "if found is None and y ^ x and ((P | m) ^ (N | p)) & e == 0:",
     ["test_matroid.py::test_first_vector_and_extends_match_the_pair_scan"]),
    ("search-never-backs-up", "matroid",
     "found = search(k + 1, y | 1 << j, P | p, N | m)",
     "return search(k + 1, y | 1 << j, P | p, N | m)",
     ["test_analyzer.py::test_joint_search_backs_up_from_a_dead_end"]),
    ("forced-sign-flipped", "matroid",
     "            elif g & (P & m | N & p):\n                add((x | bp, P | p, N | m))",
     "            elif g & (P & p | N & m):\n                add((x | bp, P | p, N | m))",
     ["test_matroid.py::test_orthogonal_masks_match_composition_closure"]),
    ("faces-not-closed-under-or", "matroid",
     "            faces |= {f | t for f in faces}",
     "            faces |= {t}",
     ["test_matroid.py::test_nonneg_covectors_are_closure_of_nonneg_cocircuits"]),
    # matroid: rank-one realizations read off the integer echelon
    ("ray-scaled-by-the-largest-value", "matroid",
     "    m = min(abs(a) for a in values if a)\n",
     "    m = max(abs(a) for a in values if a)\n",
     ["test_matroid.py::test_ray_route_matches_the_lp"]),
    ("ray-never-flipped", "matroid",
     "    if packed_signs(values) != x:\n        m = -m\n",
     "",
     ["test_matroid.py::test_ray_route_matches_the_lp"]),
    ("ray-route-for-circuits", "matroid",
     "if x in self.cocircuit_masks:",
     "if x in self.circuit_masks:",
     ["test_matroid.py::test_ray_route_matches_the_lp"]),
    ("covector-ray-without-row-scales", "matroid",
     "point = ray_point([D * c for c in k], values, x)",
     "point = ray_point(list(k), values, x)",
     ["test_matroid.py::test_ray_route_matches_the_lp"]),
    ("ray-margin-unchecked", "matroid",
     "return packed_signs(values) == x and min(abs(a) for a in values if a) == margin",
     "return packed_signs(values) == x",
     ["test_matroid.py::test_ray_points_are_resubstituted"]),
    ("kernel-ray-off-the-kernel", "matroid",
     "            if any(sum(a * b for a, b in zip(row, ints)) for row in rows):\n                return False\n",
     "",
     ["test_matroid.py::test_ray_points_are_resubstituted"]),
    # matroid: kernel witnesses read off conformal circuits
    ("conformal-divided-by-the-largest-private-entry", "matroid",
     "least = min(abs(k[at[i]]) for i in bits(p))",
     "least = max(abs(k[at[i]]) for i in bits(p))",
     ["test_matroid.py::test_conformal_route_matches_the_lp"]),
    ("conformal-route-without-private-columns", "matroid",
     "        if not all(private):\n            return None\n",
     "",
     ["test_matroid.py::test_conformal_route_matches_the_lp"]),
    ("conformal-route-on-fewer-circuits-than-the-kernel-rank", "matroid",
     "        kernel = _kernel_ints(E, pivots, len(cols))\n        check(",
     "        kernel = _kernel_ints(E, pivots, len(cols))[:-1]\n        (lambda *args: None)(",
     ["test_matroid.py::test_conformal_route_matches_the_lp"]),
    ("conformal-route-without-the-cover-test", "matroid",
     "if conformal is None or reduce(or_, conformal, 0) == x:",
     "if True:",
     ["test_matroid.py::test_conformal_route_matches_the_lp"]),
    # analyzer: the minor forms, the cone form, the class and canonical()
    ("before-as-numeric-order", "analyzer",
     "    return bool(x & -x & a)\n",
     "    return a < b\n",
     ["test_analyzer.py::test_minor_form_verdicts_match_the_fraction_oracle"]),
    ("robust-both-zero-walk-off", "analyzer",
     'if key == "robust_both" and min(len(sw), len(swt)) < comb(n, d):',
     "if False:",
     ["test_analyzer.py::test_minor_form_verdicts_match_the_fraction_oracle"]),
    ("cone-form-skips-the-face-sets", "analyzer",
     '        return FAILS, "face-sets-differ"\n',
     "        pass\n",
     ["test_cli.py::test_robust_coefficients_past_the_n_cap"]),
    ("classify-ignores-iii", "analyzer",
     "    if FAILS in (ii, iii):\n",
     "    if FAILS == ii:\n",
     ["test_analyzer.py::test_analyze_classifications"]),
    ("canonical-returns-its-input", "analyzer",
     "W, Wt = reduced(self.coeff), reduced(self.exponents)",
     "W, Wt = self.coeff, self.exponents",
     ["test_analyzer.py::test_change_of_basis_invariance"]),
    # analyzer: iii's one candidate list, iv, newton and positive dependence
    ("iv-ignores-dependence", "analyzer",
     "tau_t = next((t for t in spec.degeneracy_candidates if om_w.positively_dependent(t & full)), None)",
     "tau_t = next(iter(spec.degeneracy_candidates), None)",
     ["test_analyzer.py::test_packed_picks_match_signvector_oracle_on_random_corpus"]),
    ("candidates-ignore-the-faces-below", "analyzer",
     "covs = _orthogonal_masks(self._om(self.exponents).circuit_masks, n,\n"
     "                                 self._om(self.coeff).nonneg_cocircuit_masks)",
     "covs = _orthogonal_masks(self._om(self.exponents).circuit_masks, n)",
     ["test_analyzer.py::test_iii_skips_only_candidates_without_partitions",
      "test_analyzer.py::test_packed_picks_match_signvector_oracle_on_random_corpus"]),
    ("candidates-pruned-at-a-zero-of-the-facet", "matroid",
     "children = [c for c in children if all(F & ~(c[0] | c[0] >> n) for F in fs)]",
     "children = [c for c in children if all(not F & ~(c[0] | c[0] >> n) for F in fs)]",
     ["test_analyzer.py::test_iii_skips_only_candidates_without_partitions"]),
    ("newton-never-tests-dependence", "analyzer",
     "        if dependent(I):\n",
     "        if False:\n",
     ["test_analyzer.py::test_newton_matches_lp_oracle"]),
    ("iii-counts-blocks-before-skipping", "analyzer",
     "        if not dependent(plus):  # blocks' kernel vectors would sum to one on plus\n"
     "            continue\n"
     "        if plus.bit_count() > caps.max_blocks:\n"
     "            return ConditionResult(INCONCLUSIVE, tag, detail=(\n"
     "                f\"candidate {unpack(tau_t, n)} has {plus.bit_count()} positive components, \"\n"
     "                f\"above max_blocks = {caps.max_blocks}; \"\n"
     "                f\"{len(candidates) - idx} candidates unexplored\"))\n",
     "        if plus.bit_count() > caps.max_blocks:\n"
     "            return ConditionResult(INCONCLUSIVE, tag, detail=\"max_blocks\")\n"
     "        if not dependent(plus):\n"
     "            continue\n",
     ["test_analyzer.py::test_iii_skips_a_candidate_before_counting_its_blocks"]),
    ("iii-settles-a-system-of-rank-below-d", "analyzer",
     "return len(eq) >= dim and len(_rref_ints(_int_rows(eq)[0], dim)[1]) == dim",
     "return len(eq) >= dim - 1 and len(_rref_ints(_int_rows(eq)[0], dim)[1]) >= dim - 1",
     ["test_analyzer.py::test_iii_systems_settled_empty_are_infeasible"]),
    ("dependence-shortcut-on-pointed-cones", "matroid",
     "if I and self.cone.all_plus:",
     "if I and self.cone.pointed:",
     ["test_analyzer.py::test_positive_dependence_without_search_matches_the_prefix_search"]),
    ("iv-holds-on-pointed-cones", "analyzer",
     "    if om_w.cone.all_plus:\n        return ConditionResult(HOLDS, tag)\n",
     "    if om_w.cone.pointed:\n        return ConditionResult(HOLDS, tag)\n",
     ["test_analyzer.py::test_packed_picks_match_signvector_oracle_on_random_corpus"]),
    ("conformal-weight-unsigned", "lp",
     "signs = [(x >> i & 1) - (x >> i + n & 1) for i in range(n)]",
     "signs = [(x >> i & 1) + (x >> i + n & 1) for i in range(n)]",
     ["test_lp.py::test_simplex_matches_fraction_oracle"]),
    ("dependence-memo-restricted-to-I", "matroid",
     "self._dependent[I] = self.extends(I, (1 << self.W.cols) - 1)",
     "self._dependent[I] = self.extends(I, I)",
     ["test_analyzer.py::test_iii_skips_only_candidates_without_partitions"]),
    ("orthogonal-point-over-W-rows", "matroid",
     "rows = _kernel_ints(*_rref_ints(kernel, n), n)",
     "rows = self._common[0]",
     ["test_report_digests.py::test_canonical_reports_hash_as_recorded"]),
    ("orthogonal-point-over-the-first-kernel", "matroid",
     "rows = _kernel_ints(*_rref_ints(kernel, n), n)",
     "rows = kernel",
     ["test_matroid.py::test_orthogonal_point_matches_the_kernel_basis_oracle"]),
    # signs: the string order of packed sign vectors, and the n cap rule
    ("str-order-swaps-zero-and-minus", "signs",
     "k += 2 * table[z & 255] + table[m & 255]",
     "k += table[z & 255] + 2 * table[m & 255]",
     ["test_signs.py::test_str_order_matches_string_order"]),
    ("n-cap-fires-at-n-equal-cap", "signs",
     "if n > cap else None",
     "if n >= cap else None",
     ["test_analyzer.py::test_verdicts_decided_under_caps_match_uncapped",
      "test_matroid.py::test_mask_accessors_are_the_packed_sets"]),
    # report: the verifier's own checks
    ("verifier-skips-the-shape-check", "report",
     'm["n"] == W.cols == Wt.cols and m["d"] == m["d_tilde"] == W.rows == Wt.rows',
     "True",
     ["test_cli.py::test_verify_certificate_rejects_a_map_that_disagrees_with_its_matrices"]),
    ("verifier-skips-the-rref-check", "report",
     '_need(seed_reduced(M), "a canonical matrix',
     '_need(True, "a canonical matrix',
     ["test_cli.py::test_verify_certificate_rejects_a_map_that_disagrees_with_its_matrices"]),
    ("rref-read-off-accepts-any-pivot-entry", "linalg",
     "if c is None or row[c] != 1 or pivots and c <= pivots[-1]:",
     "if c is None or pivots and c <= pivots[-1]:",
     ["test_cli.py::test_verify_certificate_rejects_a_map_that_disagrees_with_its_matrices",
      "test_verifier.py::test_seeded_echelon_is_the_eliminated_one"]),
    ("verifier-shares-one-matroid-for-unequal-matrices", "report",
     "om_wt = om_w if Wt == W else OrientedMatroid(Wt)",
     "om_wt = om_w",
     ["test_cli.py::test_report_verifies_and_tamper_detected"]),
    ("sign-strings-of-any-length", "signs",
     "if not isinstance(s, str) or len(s) != n or",
     "if not isinstance(s, str) or",
     ["test_verifier.py::test_verify_certificate_rejects_sign_strings_of_the_wrong_length"]),
    ("verifier-accepts-any-common-sign-vector", "report",
     "            _need(tau == first_common_sign_vector(",
     "            _need(True or tau == first_common_sign_vector(",
     ["test_verifier.py::test_verify_certificate_requires_the_first_common_sign_vector"]),
    ("verifier-accepts-a-certificate-on-a-holding-i", "report",
     '(cert is None) == (verdict == HOLDS), "i carries a certificate iff it fails")',
     'True, "")',
     ["test_cli.py::test_verify_certificate_checks_i_past_the_cap"]),
    ("verifier-row-space-always-of-Wt", "report",
     "    rows, D = second._common\n",
     "    rows, D = om_wt._common\n",
     ["test_cli.py::test_verify_certificate_checks_each_distinct_closure_certificate"]),
    ("verifier-row-space-skips-a-pivot", "report",
     "for p, row in zip(second.W.echelon()[1], rows):",
     "for p, row in zip(second.W.echelon()[1][1:], rows[1:]):",
     ["test_cli.py::test_verify_certificate_checks_each_distinct_closure_certificate"]),
    ("verifier-raises-on-deep-nesting", "report",
     "            ZeroDivisionError, RecursionError):\n",
     "            ZeroDivisionError):\n",
     ["test_cli.py::test_verify_certificate_rejects_a_closure_certificate_nested_too_deep"]),
]


def _pytest(src: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *(f"tests/{t}" for t in tests)],
                          cwd=ROOT, env=env, capture_output=True, text=True)


def _problem(tmp: Path, mutant) -> str | None:
    """What is wrong with one mutant, or None when its tests kill it."""
    name, module, snippet, replacement, tests = mutant
    src = tmp / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "expbij" / f"{module}.py"
    text = path.read_text()
    if text.count(snippet) != 1:
        return f"the snippet occurs {text.count(snippet)} times in {module}.py"
    path.write_text(text.replace(snippet, replacement))
    proc = _pytest(src, tests)
    if proc.returncode == 0:
        return "survived " + " ".join(tests)
    if proc.returncode != 1:  # 1: a test failed; anything else: collection or usage error
        return f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"
    return None


def main(names) -> int:
    mutants = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    problems = []
    tests = sorted({t for m in mutants for t in m[4]})
    proc = _pytest(ROOT / "src", tests)
    if proc.returncode != 0:
        problems.append(f"the named tests fail on the unchanged source:\n{proc.stdout[-2000:]}")
    with tempfile.TemporaryDirectory() as tmp:
        for mutant in mutants:
            start = time.perf_counter()
            problem = _problem(Path(tmp), mutant)
            print(f"{mutant[0]}: {'killed' if problem is None else 'PROBLEM'} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
            if problem is not None:
                problems.append(f"{mutant[0]}: {problem}")
    for problem in problems:
        print(problem)
    print(f"{len(mutants)} mutants, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
