import importlib.util
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import expbij
from expbij.analyzer import (
    CLASS_BIJECTIVE,
    CLASS_INCONCLUSIVE,
    CLASS_INJECTIVE,
    CLASS_NOT_INJECTIVE,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    Caps,
    ConditionResult,
    DimensionMismatch,
    ExponentialMapSpec,
    _excluded_tope,
    _jvec,
    _ordered_partitions,
    analyze,
    closure_cc,
    closure_cc_prime,
    condition_ii,
    condition_iii_exact,
    condition_iv,
    injectivity_via_minors,
    injectivity_via_signs,
    minor_form,
    newton_polytope_sufficient,
    robust_both,
    robust_coefficients,
    robust_exponents,
)
from expbij.crn import deficiency_zero_gmak, parse_network, robust_deficiency_zero_gmak
from expbij.linalg import RationalMatrix, kernel_basis, matrix_with_kernel, rank, rref, vec
from expbij.lp import (
    Rel,
    feasible,
    make_system,
    positive_kernel_vector,
    realize_kernel_sign,
    realize_sign_vector,
)
from expbij.matroid import OrientedMatroid, covectors, face_lattice, vectors
from expbij.report import build_report, verify_certificate
from expbij.signs import (
    EnumerationCap,
    SignSet,
    SignVector,
    bits,
    composition_closure,
    minimal_support_members,
    pack,
    sign_of,
    str_order,
    unpack,
)
from sign_oracles import (
    closure_excluded,
    column_submatrix,
    extends_by_pairs,
    is_uniform,
    minor_forms,
    nonneg_part,
    ordered_partitions_of_elements,
)

M = RationalMatrix
S = SignVector.from_string


def spec_of(W, Wt):
    return ExponentialMapSpec(M(W), M(Wt))


def sv_example(alpha):
    Wt = [[1, 1, 0, 0, -1, alpha], [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0]]
    W = [[0, 0, 1, 1, -1, 0], [1, -1, 0, 0, 0, -1], [0, 0, 1, -1, 0, 0]]
    return spec_of(W, Wt)


# the alphas at which the tests and the benchmark's iii-search workload run sv_example
SV_ALPHAS = ("1/3", "1/2", "2/3", "1", "4/3", "3/2", "2", "5/2", "3")
EX1 = spec_of([[1, 0, -1], [0, 1, 0]], [[1, 0, -1], [0, 1, -1]])
EX2 = spec_of([[1, 0, -1], [0, 1, 0]], [[1, 1, 0], [0, 1, 1]])
CC_EXAMPLE = spec_of([[1, 1, -1]], [[1, 0, -1]])
FACE_GAP = spec_of([[1, 1, 0], [0, 1, 1]], [[1, 0, -1], [0, 1, 0]])
NONINJ = spec_of([[1, 1]], [[1, -1]])


def block_diagonal(mats):
    """The block-diagonal matrix of mats, in order."""
    n = sum(m.cols for m in mats)
    rows, at = [], 0
    for m in mats:
        rows += [[0] * at + list(r) + [0] * (n - at - m.cols) for r in m.row_tuples]
        at += m.cols
    return RationalMatrix(rows)


def direct_sum(specs):
    return ExponentialMapSpec(block_diagonal([s.coeff for s in specs]),
                              block_diagonal([s.exponents for s in specs]))


def _random_full_rank(rng, d, n, zero_p=0.0):
    # with zero_p = 0 no extra draw is taken, so the corpus stays the same
    while True:
        mat = M([[0 if zero_p and rng.random() < zero_p else rng.randint(-3, 3) for _ in range(n)]
                 for _ in range(d)])
        if rank(mat) == d:
            return mat


# the state pairs (n, d): one random.Random(7) draws W and then Wt for each, in this order
STATE_PAIRS = ((10, 2), (10, 5), (10, 7), (11, 8), (12, 3), (12, 6), (12, 9), (14, 2), (14, 12))


def state_pairs():
    """(label, spec) for each state pair, drawn lazily, so a caller that
    stops early draws no more."""
    rng = random.Random(7)
    for n, d in STATE_PAIRS:
        yield f"({n}, {d})", ExponentialMapSpec(_random_full_rank(rng, d, n), _random_full_rank(rng, d, n))


def run_python(*args):
    """`python *args` in a subprocess that imports expbij from this source tree."""
    src = str(Path(expbij.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


def random_spec(rng):
    d = rng.randint(1, 4)
    n = rng.randint(d, d + 4)
    return ExponentialMapSpec(_random_full_rank(rng, d, n), _random_full_rank(rng, d, n))


def test_spec_validation():
    with pytest.raises(Exception):
        spec_of([[1, 1], [2, 2]], [[1, 0], [0, 1]])  # rank-deficient
    with pytest.raises(Exception):
        spec_of([[1, 0]], [[1, 0, 0]])  # column mismatch
    rect = ExponentialMapSpec(M([[1, 0, -1]]), M([[1, 0, -1], [0, 1, -1]]))
    with pytest.raises(DimensionMismatch):
        rect.require_square()
    with pytest.raises(DimensionMismatch):
        analyze(rect)
    # injectivity still available for d != d~
    assert injectivity_via_signs(rect).verdict in ("holds", "fails")


def test_injectivity_via_signs_examples():
    assert injectivity_via_signs(spec_of([[1, 2, 3], [0, 1, -1]], [[1, 2, 3], [0, 1, -1]])).holds
    assert injectivity_via_signs(sv_example(2)).holds
    res = injectivity_via_signs(NONINJ)
    assert res.fails
    assert res.certificate["common_sign_vector"] in ("+-", "-+")


def test_injectivity_via_minors_examples():
    assert injectivity_via_minors(spec_of([[1, 2, 3], [0, 1, -1]], [[1, 2, 3], [0, 1, -1]])).holds
    res = injectivity_via_minors(EX1)
    assert res.holds
    # recomputed products for this pair: 1, 0, 1 over the three column pairs
    W, Wt = EX1.coeff, EX1.exponents
    prods = []
    for I in ((0, 1), (0, 2), (1, 2)):
        prods.append(column_submatrix(W, I).det() * column_submatrix(Wt, I).det())
    assert prods == [1, 0, 1]
    assert injectivity_via_minors(NONINJ).fails


def test_condition_ii_examples():
    assert condition_ii(EX1).holds  # exponent cone is the whole plane
    res = condition_ii(FACE_GAP)
    assert res.fails
    assert res.certificate["uncovered_face"] == "0+0"
    assert condition_ii(EX2).holds


def test_condition_iii_examples():
    # all-plus coefficient covector short-circuits
    res = condition_iii_exact(spec_of([[1, 0], [0, 1]], [[1, 0], [0, 1]]))
    assert res.holds and "all-plus" in res.detail

    assert condition_iii_exact(sv_example(Fraction(3, 2))).holds
    res = condition_iii_exact(sv_example(2))
    assert res.fails
    cert = res.certificate
    # the witness realizes a single positive level {1, 6}
    assert cert["sign_vector"].count("+") >= 1
    blocks = cert["blocks"]
    assert all(Fraction(b["level"]) > 0 for b in blocks)


def test_condition_iii_caps():
    res = condition_iii_exact(sv_example(2), Caps(max_partition_pairs=0))
    assert res.verdict == "inconclusive" and "max_partition_pairs" in res.detail
    res = condition_iii_exact(sv_example(2), Caps(max_blocks=0))
    assert res.verdict == "inconclusive" and "max_blocks" in res.detail


def test_condition_iv_examples():
    assert condition_iv(CC_EXAMPLE).holds
    assert condition_iv(spec_of([[1, 0], [0, 1]], [[1, 0], [0, 1]])).holds
    assert condition_iv(sv_example(2)).fails


def test_newton_examples():
    assert newton_polytope_sufficient(spec_of([[1, 0], [0, 1]], [[1, 0], [0, 1]])).holds
    res_half = newton_polytope_sufficient(sv_example(Fraction(1, 2)))
    assert res_half.verdict in ("holds", "inconclusive")
    if res_half.verdict == "holds":
        assert condition_iii_exact(sv_example(Fraction(1, 2))).holds
    assert newton_polytope_sufficient(sv_example(2)).verdict == "inconclusive"


def _positive_face_support(exponents, I):
    """(x, level) with w_j.x = level on I, w_j.x < level elsewhere, level > 0."""
    n, d = exponents.cols, exponents.rows
    rows = [(tuple(exponents.column(j)) + (Fraction(-1),), Rel.EQ if j in I else Rel.LT)
            for j in range(n)]
    rows.append((tuple([Fraction(0)] * d) + (Fraction(1),), Rel.GT))
    wit = feasible(make_system(d + 1, rows))
    return wit.point if wit else None


def _lp_newton(spec, caps):
    """Reference form of the positive-face test: faces from the homogenized
    matrix [Wt; 1^T], one LP per face for a positive supporting level, and
    positive_kernel_vector for the dependence of each positive face."""
    hat = M(list(spec.exponents.row_tuples) + [[1] * spec.n])
    try:
        hat_faces = nonneg_part(covectors(hat, caps.max_n_enumeration))
    except EnumerationCap as e:
        return "inconclusive", str(e)
    checked = 0
    for I in sorted({t.zero_set() for t in hat_faces} - {()}):
        if _positive_face_support(spec.exponents, set(I)) is None:
            continue
        if positive_kernel_vector(spec.coeff, I) is not None:
            return "inconclusive", (
                f"positive face {{{','.join(str(i + 1) for i in I)}}} is positively dependent")
        checked += 1
    return "holds", f"{checked} positive faces checked"


def test_newton_matches_lp_oracle():
    rng = random.Random(31337)
    specs = [sv_example(Fraction(a)) for a in ("1/2", "1", "3/2", "2", "3", "0")]
    specs += [EX1, EX2, CC_EXAMPLE, FACE_GAP]
    for k in range(45):
        d = rng.randint(1, 3)
        n = rng.randint(d, d + 3)
        Wt = _random_full_rank(rng, d, n, 0.5)
        if k % 3 == 0:  # 1^T in the row space of Wt: the homogenized matrix loses rank
            Wt = M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(d - 1)] + [[1] * n])
            if rank(Wt) < d:
                continue
        specs.append(ExponentialMapSpec(_random_full_rank(rng, d, n, 0.3), Wt))
    kinds = Counter()
    for spec in specs:
        hat = M(list(spec.exponents.row_tuples) + [[1] * spec.n])
        kinds["rank-deficient hat"] += rank(hat) <= spec.d
        kinds["zero column"] += any(not any(spec.exponents.column(j)) for j in range(spec.n))
        for caps in (Caps(), Caps(max_n_enumeration=spec.n), Caps(max_n_enumeration=spec.n - 1)):
            res = newton_polytope_sufficient(spec, caps)
            assert (res.verdict, res.detail) == _lp_newton(spec, caps), (spec.coeff, spec.exponents)
            kinds[res.detail.split()[0]] += 1  # a face count, "positive" or "covector"
    # both special shapes occur, and every branch: capped, dependent face, faces checked
    assert kinds["rank-deficient hat"] and kinds["zero column"]
    assert kinds["covector"] and kinds["positive"]
    assert any(kinds[str(k)] for k in range(1, 20))


def test_closure_examples():
    same = spec_of([[1, 0, -1], [0, 1, -1]], [[1, 0, -1], [0, 1, -1]])
    assert closure_cc(same).holds and closure_cc_prime(same).holds

    res = closure_cc(CC_EXAMPLE)
    assert res.fails
    assert closure_cc_prime(FACE_GAP).holds

    # certificate substitution: excluded kernel vector and orthogonal witness
    cert = res.certificate
    excluded = S(cert["excluded_sign_vector"])
    v = vec(cert["kernel_vector"])
    assert sign_of(v) == excluded
    assert CC_EXAMPLE.coeff.mat_vec(v) == (0,)
    z = vec(cert["orthogonal_witness"])
    assert not all(x == 0 for x in z)
    assert sign_of(z).leq(excluded)


def test_robust_exponents_examples():
    assert robust_exponents(spec_of([[1, 0], [0, 1]], [[1, 0], [0, 1]])).holds
    assert robust_exponents(CC_EXAMPLE).fails  # bijective yet not robust
    res = robust_exponents(spec_of([[1, 0, -1], [0, 1, -1]], [[1, 0, 0], [0, 1, -1]]))
    assert res.verdict in ("holds", "fails")


def test_robust_coefficients_examples():
    assert robust_coefficients(spec_of([[1, 0], [0, 1]], [[1, 0], [0, 1]])).holds
    assert robust_coefficients(FACE_GAP).fails
    full = spec_of([[1, -1, 0, 0], [0, 0, 1, -1]], [[1, -1, 0, 0], [0, 0, 1, -1]])
    assert robust_coefficients(full).holds
    # equal face sets, but columns 1 and 2 of W share an extreme ray
    not_robust = spec_of([[1, 1, 1], [-2, -2, 1]], [[-2, -2, 2], [-2, -2, -1]])
    assert robust_coefficients(not_robust).certificate == {"reason": "cone-not-robustly-generated"}


def test_robust_both_examples():
    generic = spec_of([[1, 1, -1], [0, 1, 1]], [[1, 1, -1], [0, 1, 1]])
    assert robust_both(generic).holds
    same = spec_of([[1, 0, -1], [0, 1, -1]], [[1, 0, -1], [0, 1, -1]])
    assert robust_both(same).holds  # minors 1,-1,1; products all 1
    assert robust_both(EX1).fails  # a zero product


def test_analyze_classifications():
    assert analyze(spec_of([[1, 0], [0, 1]], [[1, 0], [0, 1]])).classification == CLASS_BIJECTIVE
    assert analyze(sv_example(1)).classification == CLASS_INJECTIVE
    assert analyze(sv_example(Fraction(1, 2))).classification == CLASS_BIJECTIVE
    assert analyze(NONINJ).classification == CLASS_NOT_INJECTIVE


def test_analyze_cone_flags_for_worked_examples():
    rep = analyze(EX1)
    assert rep.cones["exp"].full_space and not rep.cones["coeff"].full_space

    rep = analyze(EX2)
    assert rep.cones["exp"].all_plus and not rep.cones["coeff"].all_plus

    rep = analyze(FACE_GAP)
    assert {str(t) for t in rep.cones["exp"].faces} == {"000", "0+0"}
    assert {str(t) for t in rep.cones["coeff"].faces} == {"000", "0++", "++0", "+++"}


def test_degeneracy_witness_substitution():
    # sv_example(2) has a one-block witness, the second pair a two-block one
    two_levels = spec_of([[0, 0, 0, -3]], [[-2, 0, -3, 0]])
    for spec, n_blocks in ((sv_example(2), 1), (two_levels, 2)):
        cert = condition_iii_exact(spec).certificate
        assert len(cert["blocks"]) == n_blocks
        x = vec(cert["direction"])
        z = spec.exponents.transpose_vec(x)
        assert list(map(str, z)) == cert["z"] or z == vec(cert["z"])
        assert str(sign_of(z)) == cert["sign_vector"]
        levels = [Fraction(b["level"]) for b in cert["blocks"]]
        assert levels == sorted(levels, reverse=True) and min(levels) > 0
        for b in cert["blocks"]:
            idx = [i - 1 for i in b["indices"]]
            for i in idx:
                assert z[i] == Fraction(b["level"])
            kv = vec(b["kernel_vector"])
            assert spec.coeff.mat_vec(kv) == (0,) * spec.d
            assert all(x >= 0 for x in kv)
            assert {i for i, x in enumerate(kv) if x > 0} == set(idx)
        ev = vec(cert["no_cover_evidence"])
        assert spec.coeff.mat_vec(ev) == (0,) * spec.d
        support = [i for i, s in enumerate(cert["sign_vector"]) if s != "0"]
        assert all(ev[i] > 0 for i in support)


CORPUS_SEED = 90125


def _corpus(count):
    rng = random.Random(CORPUS_SEED)
    return [random_spec(rng) for _ in range(count)]


def test_equivalence_oracles_on_random_corpus():
    # sign-form vs minor-form injectivity, its symmetry, closure vs strict
    # minor form, and both strict-perturbation forms; zero disagreements.
    seen = Counter()
    for spec in _corpus(200):
        signs = injectivity_via_signs(spec)
        minors = injectivity_via_minors(spec)
        assert signs.verdict == minors.verdict, (spec.coeff, spec.exponents)

        swapped = ExponentialMapSpec(spec.exponents, spec.coeff)
        assert injectivity_via_signs(swapped).verdict == signs.verdict

        # closure_cc computes the sign form; robust_exponents cross-checks the
        # minor form internally and raises on disagreement
        robust_exponents(spec)
        # robust_both's strict minor form against its sign-vector form: equal
        # kernel sign sets, compared as closures so that the check does not
        # reduce to the minor form, and a uniform matroid of W
        om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
        sign_form = HOLDS if om_w.vector_masks == om_wt.vector_masks and is_uniform(om_w) else FAILS
        assert robust_both(spec).verdict == sign_form, (spec.coeff, spec.exponents)
        seen[sign_form] += 1
    assert seen[HOLDS] and seen[FAILS], seen


def test_sigma_is_the_first_common_covector():
    # the joint prefix search against the enumeration it replaced: the first
    # covector of Wt in string order that is a vector of W, by the pair scan
    seen = Counter()
    for spec in _corpus(200) + _zero_heavy_corpus(60) + _seeded_sums(10):
        om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
        full = (1 << spec.n) - 1
        common = [t for t in om_wt.covector_masks if t and extends_by_pairs(om_w, t, full)]
        want = str(unpack(min(common, key=str_order(spec.n)), spec.n)) if common else None
        i = injectivity_via_signs(spec)
        assert (i.certificate or {}).get("common_sign_vector") == want, (spec.coeff, spec.exponents)
        assert i.verdict == injectivity_via_minors(spec).verdict
        seen[want is None] += 1
    assert seen[True] >= 20 and seen[False] >= 20, seen


def test_joint_search_backs_up_from_a_dead_end():
    # W = Wt = [[1, 1]] on columns 1-2, beside NONINJ on columns 3-4. The
    # prefix + at column 1 is the restriction of the vector +-00 of W and of
    # the covector ++00 of Wt, so no generator rules it out, yet no common
    # sign vector starts with +: at column 2, + and 0 meet the cocircuit ++
    # of W in one sign and - meets the circuit +- of Wt in one sign. The
    # search must back up to column 1 (- is skipped there: the common sign
    # vectors are closed under negation) and find sigma = 00+- after 0
    spec = direct_sum([spec_of([[1, 1]], [[1, 1]]), NONINJ])
    om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
    full = (1 << spec.n) - 1
    assert om_w.extends(1, 1) and any(t & 1 for t in om_wt.covector_masks)
    common = [t for t in om_wt.covector_masks if t and om_w.extends(t, full)]
    assert common and not any(t & 1 for t in common)
    assert injectivity_via_signs(spec).certificate["common_sign_vector"] == "00+-"


def test_closure_conditions_equal_their_strict_minor_forms():
    # cc holds iff every I with det(W_I) != 0 has det(W_I) det(Wt_I) of one
    # strict sign; cc_prime is the same form with W and Wt swapped. The
    # verifier decides both from the minor signs alone, so a counterexample
    # here would show up as a genuine report that fails to verify.
    seen = Counter()
    for spec in _corpus(200) + [sv_example(Fraction(a)) for a in SV_ALPHAS]:
        om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
        assert closure_cc(spec).verdict == minor_form("cc", om_w, om_wt)[0], spec
        ccp = closure_cc_prime(spec).verdict
        assert ccp == minor_form("cc_prime", om_w, om_wt)[0] == minor_form("cc", om_wt, om_w)[0], (
            spec.coeff, spec.exponents)
        seen[ccp] += 1
    assert seen[HOLDS] >= 50 and seen[FAILS] >= 50, seen


def _seeded_sums(count):
    """Direct sums of 2 or 3 seeded small blocks and worked examples, n <= 12."""
    rng = random.Random(11)
    examples = [EX1, EX2, FACE_GAP, CC_EXAMPLE, sv_example(Fraction(1, 2))]
    sums = []
    while len(sums) < count:
        blocks = []
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.3:
                blocks.append(rng.choice(examples))
            else:
                d = rng.randint(1, 3)
                n = rng.randint(d + 1, d + 3)
                blocks.append(ExponentialMapSpec(_random_full_rank(rng, d, n), _random_full_rank(rng, d, n)))
        if sum(b.n for b in blocks) <= 12:
            sums.append(direct_sum(blocks))
    return sums


def test_minor_form_verdicts_match_the_fraction_oracle():
    # the one scan of the analyzer and the verifier against the four rules
    # stated on the exact minors, verdicts and certificates: the scan keeps
    # the first masks in tuple order without sorting, which the oracle takes
    # from the combinations order of the Fraction minors
    seen = Counter()
    specs = _corpus(200) + [sv_example(Fraction(a)) for a in SV_ALPHAS] + _seeded_sums(20)
    for spec in specs:
        om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
        want = minor_forms(spec.coeff, spec.exponents)
        assert {key: minor_form(key, om_w, om_wt) for key in want} == want, (spec.coeff, spec.exponents)
        seen.update((key, v) for key, (v, _) in want.items())
        seen.update(("reason", cert.get("reason")) for _, cert in want.values())
    assert min(seen[key, v] for key in ("i", "cc", "cc_prime", "robust_both")
               for v in (HOLDS, FAILS)) >= 10, seen
    assert all(seen["reason", r] for r in ("zero-product", "zero-product-at-nonzero-minor",
                                           "mixed-product-signs")), seen


def test_iii_shortcuts_agree_with_exact_search_on_random_corpus():
    # every shortcut analyze takes to settle iii must agree with the exact search
    settled = 0
    for spec in _corpus(200):
        om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
        shortcuts = {
            "sign_sets_equal": om_w.vector_masks == om_wt.vector_masks,
            "iv": condition_iv(spec).holds,
            "cc": closure_cc(spec).holds,
            "cc_prime": closure_cc_prime(spec).holds,
            "newton": newton_polytope_sufficient(spec).holds,
        }
        if any(shortcuts.values()):
            settled += 1
            exact = condition_iii_exact(spec)
            assert exact.holds, (spec.coeff, spec.exponents, shortcuts, exact)
    assert settled >= 100


def test_mask_partitions_follow_the_tuple_order():
    # the first block runs over the submasks in increasing order, as the
    # tuple version ran over the subsets of the sorted elements: depositing
    # the bits of a counter into the mask keeps its order
    rng = random.Random(1729)
    admit = {m for m in range(1, 1 << 8) if rng.random() < 0.4}
    total = 0
    for mask in range(1 << 8):
        got = [tuple(bits(b) for b in p) for p in _ordered_partitions(mask, admit.__contains__)]
        want = [tuple(tuple(sorted(b)) for b in p) for p in ordered_partitions_of_elements(
            bits(mask), lambda b: sum(1 << i for i in b) in admit)]
        assert got == want, mask
        total += len(got)
    assert total >= 1000, total


def _candidates_and_dependence(spec):
    """iii's candidates and positive dependence in W, recomputed: the
    covectors of Wt with a + whose support holds no nonzero face of cone(W),
    in string order, and the + on I and 0 elsewhere as a vector of W."""
    n, full = spec.n, (1 << spec.n) - 1
    om_w = spec._om(spec.coeff)
    candidates = sorted((t for t in spec._om(spec.exponents).covector_masks
                         if t & full and om_w.face_below((t | t >> n) & full) == 0), key=str_order(n))
    return candidates, lambda I: om_w.extends(I, full)


def test_iii_skips_only_candidates_without_partitions():
    # condition_iii_exact skips a candidate whose positive part is not
    # positively dependent; _ordered_partitions must yield nothing for it.
    # The spec's list, built by the pass that prunes at the facets of
    # cone(W), and the memoized dependence equal their recomputation from
    # all covectors of Wt, here also on the state pairs (10, 7) and (11, 8)
    skipped = searched = 0
    pairs = [spec for label, spec in islice(state_pairs(), 4) if label in ("(10, 7)", "(11, 8)")]
    for spec in (_corpus(200) + _zero_heavy_corpus(60) + _seeded_sums(10)
                 + [sv_example(Fraction(a)) for a in SV_ALPHAS] + pairs
                 + [direct_sum([sv_example(Fraction(1, 2))] * 2)]):
        om_w = spec._om(spec.coeff)
        full = (1 << spec.n) - 1
        candidates, dependent = _candidates_and_dependence(spec)
        assert spec.degeneracy_candidates == candidates, (spec.coeff, spec.exponents)
        for tau_t in candidates:
            plus = tau_t & full
            assert om_w.positively_dependent(plus) == dependent(plus), (spec.coeff, tau_t)
            if dependent(plus):
                searched += 1
            else:
                skipped += 1
                assert next(_ordered_partitions(plus, dependent), None) is None, (spec.coeff, tau_t)
    assert skipped >= 100 and searched >= 10, (skipped, searched)


def test_iii_skips_a_candidate_before_counting_its_blocks():
    # a candidate whose positive part is not positively dependent has no
    # partition, so it is skipped before max_blocks is compared with its
    # positive components: with max_blocks at the most components of a
    # searched candidate, the search ends as it does uncapped
    seen = 0
    for spec in _corpus(200) + _zero_heavy_corpus(60):
        full = (1 << spec.n) - 1
        candidates, dependent = _candidates_and_dependence(spec)
        blocks = [(t & full).bit_count() for t in candidates if dependent(t & full)]
        skipped = [(t & full).bit_count() for t in candidates if not dependent(t & full)]
        if not spec._om(spec.coeff).cone.all_plus and max(skipped, default=0) > max(blocks, default=0):
            capped = condition_iii_exact(spec, Caps(max_blocks=max(blocks, default=0)))
            assert capped == condition_iii_exact(spec), (spec.coeff, spec.exponents)
            seen += 1
    assert seen >= 20, seen


def _signvector_picks(spec):
    """The first-match picks of i, iv, cc, cc_prime and the iii candidates,
    made on SignVector sets in str order."""
    n = spec.n
    om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
    # the sign sets as closures, independent of the orthogonality that
    # analyze and the package's enumeration both rest on
    V, T, C = (SignSet(composition_closure(gens, n), n) for gens in (
        om_w.circuit_masks, om_wt.circuit_masks, om_wt.cocircuit_masks))
    common = min((t for t in V & C if not t.is_zero()), key=str, default=None)
    iv = None
    for tau_t in sorted((t for t in C if t.plus and SignVector(n, t.plus, 0) in V), key=str):
        rho = min((r for r in V if tau_t.support & ~r.plus == 0), key=str, default=None)
        if rho is not None:
            iv = (str(tau_t), str(rho))
            break
    facets_w = minimal_support_members(om_w.face_lattice.faces)
    candidates = sorted((t for t in C if t.plus
                         and not any(f.support & ~t.support == 0 for f in facets_w)), key=str)
    return {
        "i": None if common is None else str(common),
        "iv": iv,
        "cc": closure_excluded(V, T),
        "cc_prime": closure_excluded(T, V),
        "iii": candidates,
    }


def test_packed_picks_match_signvector_oracle_on_random_corpus():
    # the packed analyzer's str_order key must pick what key=str picked
    seen = Counter()
    for spec in _corpus(200):
        want = _signvector_picks(spec)
        i = injectivity_via_signs(spec)
        assert (i.certificate or {}).get("common_sign_vector") == want["i"]
        iv = condition_iv(spec).certificate
        assert (None if iv is None else (iv["exponent_covector"], iv["dominating_sign_vector"])) == want["iv"]
        for key, cond in (("cc", closure_cc), ("cc_prime", closure_cc_prime)):
            cert = cond(spec).certificate
            assert (None if cert is None else cert["excluded_sign_vector"]) == (
                None if want[key] is None else str(want[key]))
        assert [unpack(t, spec.n) for t in spec.degeneracy_candidates] == want["iii"]
        seen.update(k for k, v in want.items() if v)
        seen["iii order"] += len(want["iii"]) > 1
    # every pick was made on some pair, and some iii candidate lists have an order
    assert all(seen[k] for k in ("i", "iv", "cc", "cc_prime", "iii", "iii order")), seen


def _zero_heavy_corpus(count):
    rng = random.Random(60221)
    specs = []
    for _ in range(count):
        d = rng.randint(1, 4)
        n = rng.randint(d, d + 4)
        specs.append(ExponentialMapSpec(_random_full_rank(rng, d, n, 0.45),
                                        _random_full_rank(rng, d, n, 0.45)))
    return specs


def _closure_condition_ii(spec):
    """condition_ii built from the closures: the facets of cone(Wt) are its
    minimal nonnegative covectors, and each is covered by the first nonzero
    nonnegative covector of W below it in string order."""
    tag = "surjectivity-face-cover"
    full = (1 << spec.n) - 1
    faces_w = SignSet(spec._om(spec.coeff).nonneg_covector_masks, spec.n)
    facets_exp = minimal_support_members(
        SignSet(spec._om(spec.exponents).nonneg_covector_masks, spec.n))
    nonzero_w = sorted((t for t in faces_w if t.support), key=str)
    coverings = []
    for tau_t in sorted(facets_exp, key=str):
        tau = next((t for t in nonzero_w if t.leq(tau_t)), None)
        if tau is None:
            return ConditionResult(FAILS, tag, certificate={
                "uncovered_face": str(tau_t),
                "exponent_functional": _jvec(realize_sign_vector(spec.exponents, pack(tau_t), full)),
                "kernel_interior_evidence": _jvec(
                    realize_kernel_sign(spec.coeff, pack(tau_t), tau_t.support)),
            })
        coverings.append({
            "exponent_face": str(tau_t),
            "coeff_face": str(tau),
            "coeff_functional": _jvec(realize_sign_vector(spec.coeff, pack(tau), full)),
            "exponent_functional": _jvec(realize_sign_vector(spec.exponents, pack(tau_t), full)),
        })
    return ConditionResult(HOLDS, tag, certificate={"coverings": coverings} if coverings else None)


def test_condition_ii_matches_closure_oracle():
    # ii reads facets and covering faces off the nonnegative cocircuits
    seen = Counter()
    for spec in _corpus(200) + _zero_heavy_corpus(100) + [EX1, EX2, FACE_GAP, CC_EXAMPLE]:
        res = condition_ii(spec)
        assert res == _closure_condition_ii(spec), (spec.coeff, spec.exponents)
        seen[res.verdict] += 1
        coverings = (res.certificate or {}).get("coverings", [])
        seen["larger cover"] += any(c["coeff_face"] != c["exponent_face"] for c in coverings)
        seen["smaller cover"] += any(c["coeff_face"].count("+") < c["exponent_face"].count("+")
                                     for c in coverings)
    assert all(seen[k] for k in (HOLDS, FAILS, "larger cover", "smaller cover")), seen


def test_chirotopes_decide_sign_set_equality():
    # analyze reads sign(ker W) = sign(ker Wt) off the two minor tables; the
    # vector closures it no longer builds must agree, including after row
    # changes that flip the table's sign
    rng = random.Random(1618)
    specs = _corpus(200)
    for spec in specs[:60]:
        scaled = M([[rng.choice((-3, -1, Fraction(1, 2), 2)) * x for x in row]
                    for row in spec.coeff.row_tuples])
        specs.append(ExponentialMapSpec(spec.coeff, spec.coeff))
        specs.append(ExponentialMapSpec(spec.coeff, scaled))
    seen = Counter()
    for spec in specs:
        om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
        equal = om_w.vector_masks == om_wt.vector_masks
        assert om_w.equal_up_to_sign(om_wt) == equal, (spec.coeff, spec.exponents)
        assert om_wt.equal_up_to_sign(om_w) == equal
        seen[equal] += 1
        seen["flipped"] += equal and om_w.minor_signs != om_wt.minor_signs
        seen["other kernel"] += equal and spec.canonical().coeff != spec.canonical().exponents
    assert all(seen[k] for k in (True, False, "flipped", "other kernel")), seen
    for spec in specs[:40] + specs[200:240]:
        assert analyze(spec).sign_sets_equal == (
            spec._om(spec.coeff).vector_masks == spec._om(spec.exponents).vector_masks)


def test_verdicts_decided_under_caps_match_uncapped():
    # ii, iii's all-plus test, cc, cc_prime and sign_sets_equal enumerate
    # nothing, so a cap no longer leaves them undecided; whatever is decided
    # must be right. The cap is n > cap alone: at cap n every condition is
    # the uncapped one. analyze never raises EnumerationCap: every cap gives
    # a report that verifies
    seen = Counter()
    for spec in _corpus(200) + _zero_heavy_corpus(40):
        full = analyze(spec)
        at_n = analyze(spec, Caps(max_n_enumeration=spec.n))
        assert (at_n.conditions, at_n.classification, at_n.cones) == (
            full.conditions, full.classification, full.cones), (spec.coeff, spec.exponents)
        for cap in (spec.n - 1, 0):
            capped = analyze(spec, Caps(max_n_enumeration=cap))
            assert verify_certificate(build_report(capped, {}))
            assert capped.sign_sets_equal == full.sign_sets_equal
            assert capped.cones == {"coeff": None, "exp": None}
            for key in ("ii", "cc", "cc_prime"):
                assert capped.conditions[key] == full.conditions[key], (key, spec.coeff, spec.exponents)
            for key, res in capped.conditions.items():
                if res.verdict != INCONCLUSIVE:
                    assert res.verdict == full.conditions[key].verdict, (key, spec.coeff, spec.exponents)
                else:
                    assert res.detail in (f"covector enumeration capped at n <= {cap}, got n = {spec.n}",
                                          full.conditions[key].detail), (key, res.detail)
                seen[key, res.verdict] += 1
            if capped.classification != CLASS_INCONCLUSIVE:
                assert capped.classification == full.classification
            seen[capped.classification] += 1
    assert seen[CLASS_INCONCLUSIVE] and seen[CLASS_BIJECTIVE] and seen[CLASS_INJECTIVE], seen
    assert seen["iii", INCONCLUSIVE] and seen["iii", HOLDS], seen


def test_excluded_tope_matches_closure_route():
    # the tope read off the cocircuits is the first tope outside the closure
    # that the closure route found, in both directions
    seen = Counter()
    for spec in _corpus(200) + _zero_heavy_corpus(100):
        om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
        for first, second in ((om_w, om_wt), (om_wt, om_w)):
            want = closure_excluded(SignSet(composition_closure(first.circuit_masks, spec.n), spec.n),
                                    SignSet(composition_closure(second.circuit_masks, spec.n), spec.n))
            got = _excluded_tope(first, second, spec.n)
            assert (None if got is None else unpack(got, spec.n)) == want, (spec.coeff, spec.exponents)
            seen[want is None] += 1
    assert seen[True] and seen[False], seen


def test_iv_dominating_vector_matches_sorted_closure():
    # first_vector(S, S) is the vector iv took first from W's closure sorted by
    # str_order among those + on the support S, for every dependent covector
    seen = Counter()
    for spec in _corpus(200) + _zero_heavy_corpus(100):
        n, full = spec.n, (1 << spec.n) - 1
        om_w = spec._om(spec.coeff)
        vectors_w = composition_closure(om_w.circuit_masks, n)
        by_order = sorted(vectors_w, key=str_order(n))
        for t in spec._om(spec.exponents).covector_masks:
            if not (t & full and t & full in vectors_w):
                continue
            support = (t | t >> n) & full
            want = next((r for r in by_order if support & ~r == 0), None)
            assert om_w.first_vector(support, support) == want, (spec.coeff, spec.exponents)
            seen[want is None] += 1
    assert seen[True] and seen[False], seen


def test_face_below_is_the_largest_face_and_decides_first_vector():
    # Gordan's alternative, on which iv's failure test rests: no face of
    # cone(W) lies inside A iff a vector of W is + on all of A; face_below(A)
    # is the largest of the enumerated faces inside A
    seen = Counter()
    for spec in _corpus(200) + _zero_heavy_corpus(100):
        for om in (spec._om(spec.coeff), spec._om(spec.exponents)):
            faces = om.nonneg_covector_masks
            for A in range(1 << spec.n):
                face = om.face_below(A)
                assert face in faces and all(f & ~face == 0 for f in faces if f & ~A == 0), (om.W, A)
                assert (face == 0) == (om.first_vector(A, A) is not None), (om.W, A)
                seen[face == 0] += 1
    assert seen[True] and seen[False], seen


def _crn_pool_networks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("crn_pool_workloads", path)
    module = importlib.util.module_from_spec(loader)
    sys.modules[loader.name] = module  # its dataclasses look their module up
    loader.loader.exec_module(module)
    return [parse_network(inst["doc"]) for inst in module.POOLS["crn-networks"]()]


def test_analyze_enumerates_no_vector_set(monkeypatch):
    # every sign(ker .) question of analyze is answered from the cocircuits;
    # only the public vectors API builds the vector set
    built = []

    def vector_masks(om):
        built.append(om)
        return composition_closure(om.circuit_masks, om.W.cols)

    monkeypatch.setattr(OrientedMatroid, "vector_masks", property(vector_masks))
    for spec in _corpus(200):
        analyze(spec)
        assert not built, (spec.coeff, spec.exponents)
    for net in _crn_pool_networks():
        deficiency_zero_gmak(net)
        robust_deficiency_zero_gmak(net)
        assert not built, net
    vectors(M([[1, 2, -1]]))
    assert built  # the patch sees a vector set that is built


def test_circuits_only_for_the_covector_pass(monkeypatch):
    # the faces are the OR-closure of the facets, so the circuit tables
    # analyze builds are the exponent matrix's, for the covectors that iv and
    # iii read and the joint search of i (past the n cap only for a failing
    # i, whose sigma the search finds), and the coefficient matrix's, whose
    # conformal circuits give a kernel witness on all columns; the verifier
    # and face_lattice build none
    built = []
    circuit_masks = OrientedMatroid.circuit_masks.func

    def recorded(om):
        built.append(om)
        return circuit_masks(om)

    monkeypatch.setattr(OrientedMatroid, "circuit_masks", property(recorded))

    def check_report(rep, exponent_table=True):
        matrices = {om.W for om in built}
        assert matrices <= {rep.canonical_exponents, rep.canonical_coeff}, (
            rep.canonical_coeff, rep.canonical_exponents)
        assert rep.canonical_exponents in matrices or not exponent_table, (
            rep.canonical_coeff, rep.canonical_exponents)
        seen["coefficient table"] += rep.canonical_coeff in matrices
        built.clear()
        assert verify_certificate(build_report(rep, {}))
        assert not built, (rep.canonical_coeff, rep.canonical_exponents)

    seen = Counter()
    specs = _corpus(200) + [sv_example(Fraction(a)) for a in SV_ALPHAS]
    for spec in specs:
        check_report(analyze(spec))
        rep = analyze(spec, Caps(max_n_enumeration=spec.n - 1))
        i_fails = rep.conditions["i"].fails
        # past the n cap a holding i leaves only the closure conditions' kernel witnesses
        assert i_fails or not built or rep.conditions["cc"].fails or rep.conditions["cc_prime"].fails
        check_report(rep, exponent_table=i_fails)
        seen[rep.conditions["i"].verdict] += 1
    assert seen[HOLDS] and seen[FAILS] and seen["coefficient table"], seen
    analyzed = 0
    for net in _crn_pool_networks():
        rep = deficiency_zero_gmak(net).analysis
        if rep is not None:
            check_report(rep)
            analyzed += 1
    assert analyzed
    fl = face_lattice(M([[1, 0, 1, 2], [0, 1, 1, -1]]))
    assert len(fl.faces) > 1 and not built
    covectors(M([[1, 2, -1]]))
    assert built  # the patch sees a circuit table that is built


def test_iii_systems_settled_empty_are_infeasible(monkeypatch):
    # a partition system whose equality rows have rank d~ meets them only at
    # x = 0, where its last strict row fails, so iii settles it empty without
    # the LP; the LP must find every such system empty
    settled, solved = [], []
    only_origin = expbij.analyzer._only_origin

    def recorded(rows, dim):
        empty = only_origin(rows, dim)
        (settled if empty else solved).append(make_system(dim, rows))
        return empty

    monkeypatch.setattr(expbij.analyzer, "_only_origin", recorded)
    specs = (_corpus(200) + _zero_heavy_corpus(60) + [sv_example(Fraction(a)) for a in SV_ALPHAS]
             + _seeded_sums(10))
    for spec in specs:
        condition_iii_exact(spec)
    assert all(feasible(system) is None for system in settled)
    assert len(settled) >= 100 and solved, (len(settled), len(solved))


def test_iii_search_solves_no_system_twice(monkeypatch):
    # only infeasible systems can repeat (a feasible one ends the search);
    # a repeat is skipped but still counted as a partition tried
    keys = Counter()

    def counted(system):
        keys[frozenset(zip(system.forms, system.rels))] += 1
        return feasible(system)

    monkeypatch.setattr(expbij.analyzer, "feasible", counted)
    skipped = 0
    for spec in _corpus(200) + [sv_example(a) for a in (-1, Fraction(1, 2), 1, 2, 3)]:
        keys.clear()
        res = condition_iii_exact(spec)
        assert max(keys.values(), default=1) == 1, (spec.coeff, spec.exponents)
        if res.detail and "ordered partitions tried" in res.detail:
            tried = int(res.detail.split(" ordered")[0].split()[-1])
            skipped += tried - (len(keys) - res.fails)  # a failure adds one evidence LP
    assert skipped > 0


def test_realizations_are_solved_once_per_spec(monkeypatch):
    # the realizations that i, ii, iv and the closure conditions share are
    # computed once per analysis, by the LP, read off a line or read off
    # conformal circuits, each witness still checks, and the memo lives on
    # the OrientedMatroids of the analysed (canonical) spec: it holds one
    # entry per LP call, one per ray answer and one per conformal answer
    calls = Counter()
    for name in ("realize_kernel_sign", "realize_sign_vector"):
        solve = getattr(expbij.matroid, name)

        def counted(M, *packed, solve=solve, name=name):
            calls[name, M, packed] += 1
            return solve(M, *packed)

        monkeypatch.setattr(expbij.matroid, name, counted)
    rays = []
    ray_point = expbij.matroid.ray_point
    monkeypatch.setattr(expbij.matroid, "ray_point", lambda *args: rays.append(args) or ray_point(*args))
    conformal = []
    conformal_point = OrientedMatroid._conformal_point

    def read_off(om, x, circuits):
        point = conformal_point(om, x, circuits)
        if point is not None:  # else the LP solves the system
            conformal.append(x)
        return point

    monkeypatch.setattr(OrientedMatroid, "_conformal_point", read_off)
    seen = Counter()
    canonical = []
    make_canonical = ExponentialMapSpec.canonical
    monkeypatch.setattr(ExponentialMapSpec, "canonical",
                        lambda spec: canonical.append(make_canonical(spec)) or canonical[-1])
    # in the last pair ii covers an exponent face by the equal coefficient
    # face: one sign vector realized on two matrices
    shared_face = spec_of([[1, 2, 1], [1, 2, -1]], [[-1, 2, 2], [1, 1, -1]])
    for spec in _corpus(20) + [FACE_GAP, CC_EXAMPLE, NONINJ, EX1, EX2, shared_face]:
        spec = ExponentialMapSpec(spec.coeff, spec.exponents)
        for log in (calls, rays, conformal):
            log.clear()
        rep = analyze(spec)
        assert calls or rays or conformal
        assert max(calls.values(), default=1) == 1
        assert verify_certificate(build_report(rep, {}))
        assert spec._oriented_matroids == {}  # analyze memoizes on its canonical spec
        memo = sum(len(om._vector_points) + len(om._covector_points)
                   for om in canonical[-1]._oriented_matroids.values())
        assert memo == len(calls) + len(rays) + len(conformal)
        seen["lp"] += bool(calls)
        seen["ray"] += bool(rays)
        seen["conformal"] += bool(conformal)
        for log in (calls, rays, conformal):
            log.clear()
        assert analyze(spec).to_json_dict()["conditions"] == rep.to_json_dict()["conditions"]
        assert calls or rays or conformal  # a second analysis solves again
    assert seen["lp"] and seen["ray"] and seen["conformal"], seen


def test_kernel_systems_are_solved_once_per_analysis(monkeypatch):
    # iv's positive dependence, iii's block vectors and the interior evidence
    # of ii and iii are vector_point witnesses of W's OrientedMatroid, memoized
    # per argument, so one analysis solves no system "x in ker W with sign
    # conditions" twice
    keys = Counter()

    def counted(system):
        keys[system.dim, tuple(system.forms), tuple(system.rels)] += 1
        return feasible(system)

    monkeypatch.setattr(expbij.lp, "feasible", counted)
    monkeypatch.setattr(expbij.analyzer, "feasible", counted)
    kinds = Counter()
    for spec in _corpus(200):
        d, n = spec.d, spec.n
        kernels = {c.row_tuples for c in (spec.canonical().coeff, spec.canonical().exponents)}
        keys.clear()
        analyze(spec)
        for (dim, forms, rels), count in keys.items():
            if dim == n and forms[:d] in kernels and set(rels[:d]) == {Rel.EQ}:
                assert count == 1, (spec.coeff, spec.exponents, forms, rels)
                kinds["some coordinate free" if len(forms) < d + n else "every coordinate signed"] += 1
    assert kinds["some coordinate free"] and kinds["every coordinate signed"], kinds


def test_analyze_builds_each_closure_once(monkeypatch):
    # robust_exponents and robust_coefficients reuse the cc and cc_prime results
    calls = Counter()
    build = expbij.analyzer._closure_result

    def counted(spec, swap, tag):
        calls[swap] += 1
        return build(spec, swap, tag)

    monkeypatch.setattr(expbij.analyzer, "_closure_result", counted)
    rep = analyze(CC_EXAMPLE)
    assert calls == {False: 1, True: 1}
    assert rep.conditions["cc"].fails
    assert rep.conditions["robust_exponents"].certificate["closure_form"] == rep.conditions["cc"].certificate


def test_internal_checks_survive_python_O():
    # a point read off a line and its system, a point read off conformal
    # circuits and its system, a block's positive dependence and its kernel
    # vector, the two injectivity forms, cc_prime and its minor form, a face
    # covector and its functional, the two deficiency formulas, and the
    # cocircuits or circuits and the enumerated sign sets are forced to
    # disagree; each module must raise even when asserts are stripped. The
    # block's realization is read off its conformal circuit, so that route
    # and the LP behind it are made to find none
    code = textwrap.dedent("""
        import sys
        from expbij import analyzer, crn, matroid
        from expbij.analyzer import ConditionResult, ExponentialMapSpec
        from expbij.linalg import InternalInconsistency, RationalMatrix as M
        if sys.flags.optimize < 1:
            sys.exit(2)

        def expect_raise(call, code):
            try:
                call()
            except InternalInconsistency:
                return
            sys.exit(code)

        W = [[0, 0, 1, 1, -1, 0], [1, -1, 0, 0, 0, -1], [0, 0, 1, -1, 0, 0]]
        Wt = [[1, 1, 0, 0, -1, 2], [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0]]
        ray_point = matroid.ray_point
        matroid.ray_point = lambda k, values, x: tuple(2 * a for a in ray_point(k, values, x))
        expect_raise(lambda: analyzer.condition_ii(
            ExponentialMapSpec(M([[1, 0], [0, 1]]), M([[1, 0], [0, 1]]))), 11)
        matroid.ray_point = ray_point
        OM = matroid.OrientedMatroid
        conformal_point = OM._conformal_point
        OM._conformal_point = lambda om, x, cs: tuple(2 * a for a in conformal_point(om, x, cs))
        expect_raise(lambda: analyzer.condition_iii_exact(ExponentialMapSpec(M(W), M(Wt))), 12)
        OM._conformal_point = lambda om, x, cs: None
        solve = matroid.realize_kernel_sign
        matroid.realize_kernel_sign = lambda M, x, A: None if A == (1 << M.cols) - 1 else solve(M, x, A)
        expect_raise(lambda: analyzer.condition_iii_exact(ExponentialMapSpec(M(W), M(Wt))), 3)
        minors = analyzer.injectivity_via_minors
        analyzer.injectivity_via_minors = lambda spec: ConditionResult("fails", "flipped")
        expect_raise(lambda: analyzer.analyze(
            ExponentialMapSpec(M([[1, 0], [0, 1]]), M([[1, 0], [0, 1]]))), 4)
        analyzer.injectivity_via_minors = minors
        analyzer.closure_cc_prime = lambda spec: ConditionResult("fails", "flipped")
        expect_raise(lambda: analyzer.analyze(
            ExponentialMapSpec(M([[1, 0], [0, 1]]), M([[1, 0], [0, 1]]))), 10)
        OM.covector_point = lambda om, x: None
        expect_raise(lambda: analyzer.condition_ii(
            ExponentialMapSpec(M([[1, 0], [0, 1]]), M([[1, 0], [0, 1]]))), 5)
        net = crn.parse_network({"species": ["A", "B"], "reactions": [
            {"from": {"stoich": {"A": 1}}, "to": {"stoich": {"B": 1}}, "reversible": True}]})
        crn._deficiency_by_intersection = lambda Y, edges: -1
        expect_raise(lambda: crn.structure(net), 6)
        matroid._orthogonal_masks = lambda gens, n: {0}
        expect_raise(lambda: matroid.covectors(M([[1, 1, -1]])), 7)
        expect_raise(lambda: matroid.vectors(M([[1, 1, -1]])), 8)
        sys.exit(0)
    """)
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)


def test_implication_monotonicity_on_random_corpus():
    rng = random.Random(8128)
    for _ in range(40):
        spec = random_spec(rng)
        rep = analyze(spec)  # _assert_implications runs on every analyze
        c = {k: v.verdict for k, v in rep.conditions.items()}
        if c["cc"] == "holds":
            assert c["i"] == c["ii"] == c["iv"] == c["iii"] == "holds"
        if c["cc_prime"] == "holds":
            assert c["i"] == c["iv"] == c["iii"] == "holds"
        if c["iv"] == "holds":
            assert c["iii"] == "holds"
        if rep.sign_sets_equal:
            assert rep.classification == CLASS_BIJECTIVE
        if c["cc_prime"] == "holds" and c["ii"] == "holds":
            assert rep.cones["coeff"].faces == rep.cones["exp"].faces


def test_change_of_basis_invariance():
    rng = random.Random(1729)
    fixtures = [EX1, EX2, CC_EXAMPLE, FACE_GAP, sv_example(2)]
    for spec in fixtures:
        base = analyze(spec).to_json_dict()
        base.pop("runtimes_ms")
        for _ in range(5):
            U = _random_invertible(rng, spec.d)
            Ut = _random_invertible(rng, spec.d_tilde)
            transformed = ExponentialMapSpec(U.matmul(spec.coeff), Ut.matmul(spec.exponents))
            rep = analyze(transformed).to_json_dict()
            rep.pop("runtimes_ms")
            assert rep == base


def _columns(mat, perm=None, scale=None, sign=1):
    """mat with its columns reordered by perm, each scaled by scale[j], and
    every entry times sign."""
    perm = perm or range(mat.cols)
    return M([[sign * (scale[j] if scale else 1) * row[j] for j in perm] for row in mat.row_tuples])


SYMMETRIES = ("permutation", "positive scaling of W", "negated W", "negated Wt")


def _symmetric_pair(name, rng, W, Wt):
    """(W, Wt) under one of the family's symmetries, drawn from rng."""
    if name == "permutation":
        perm = rng.sample(range(W.cols), W.cols)
        return _columns(W, perm), _columns(Wt, perm)
    if name == "positive scaling of W":
        return _columns(W, scale=[Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(W.cols)]), Wt
    return (_columns(W, sign=-1), Wt) if name == "negated W" else (W, _columns(Wt, sign=-1))


def test_family_symmetries_keep_every_verdict():
    # each relation maps {F_c : c > 0} to itself up to a linear change of
    # variables on either side, so no verdict, class or sign_sets_equal may
    # move, while certificates may; every transformed report must verify. A
    # permutation reorders the minor table against the tuple order of the
    # minor forms' scan, and interleaves the blocks of a direct sum. Swapping
    # W and Wt keeps the symmetric minor forms and exchanges cc and cc_prime.
    rng = random.Random(15)
    specs = (_corpus(200) + _zero_heavy_corpus(60) + [sv_example(Fraction(a)) for a in SV_ALPHAS]
             + [EX1, EX2, FACE_GAP] + _seeded_sums(10))
    seen = Counter()

    def verdicts(spec):
        rep = analyze(spec)
        assert verify_certificate(build_report(rep, {})), (spec.coeff, spec.exponents)
        return ({k: c.verdict for k, c in rep.conditions.items()}, rep.classification, rep.sign_sets_equal)

    for spec in specs:
        base = verdicts(spec)
        # the permutation on every spec, and the other relations in turn
        for name in dict.fromkeys(("permutation", SYMMETRIES[seen["spec"] % len(SYMMETRIES)])):
            assert verdicts(ExponentialMapSpec(*_symmetric_pair(name, rng, spec.coeff, spec.exponents))) == base, (
                name, spec.coeff, spec.exponents)
            seen[name] += 1
        swapped, _, equal = verdicts(ExponentialMapSpec(spec.exponents, spec.coeff))
        assert equal == base[2] and all(swapped[k] == base[0][k] for k in
                                        ("i", "injectivity_minors", "robust_both")), spec
        assert (swapped["cc"], swapped["cc_prime"]) == (base[0]["cc_prime"], base[0]["cc"]), spec
        seen["spec"] += 1
        seen[base[1]] += 1
    assert all(seen[name] >= 60 for name in SYMMETRIES), seen
    assert all(seen[c] >= 10 for c in (CLASS_BIJECTIVE, CLASS_INJECTIVE, CLASS_NOT_INJECTIVE)), seen


def _random_invertible(rng, d):
    while True:
        mat = M([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        if mat.det() != 0:
            return mat


def test_canonical_is_the_matrix_with_the_same_kernel():
    # canonical() takes one RREF; the representative of ker M it must equal is
    # matrix_with_kernel(kernel_basis(M)), including the identity for square M
    rng = random.Random(400)
    square = 0
    for _ in range(150):
        d = rng.randint(1, 4)
        n = rng.randint(d, d + 3)
        mats = []
        for _ in range(2):
            while True:
                mat = M([[rng.choice([0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-4, 3)])
                          for _ in range(n)] for _ in range(d)])
                if rank(mat) == d:
                    mats.append(mat)
                    break
        canon = ExponentialMapSpec(*mats).canonical()
        for mat, got in zip(mats, (canon.coeff, canon.exponents)):
            assert got == matrix_with_kernel(kernel_basis(mat))
        square += d == n
    assert square > 10
    assert spec_of([[2, 1], [1, 1]], [[0, 3], ["1/2", 0]]).canonical() == spec_of(
        [[1, 0], [0, 1]], [[1, 0], [0, 1]])


def test_canonical_shares_one_matrix_when_the_forms_are_equal():
    # equal reduced row echelon forms, as under mass action or whenever
    # n = d, give one matrix object, which _om then finds by identity
    for spec in (spec_of([[2, 1], [1, 1]], [[0, 3], ["1/2", 0]]), spec_of([[1, 1, -1]], [[2, 2, -2]])):
        canon = spec.canonical()
        assert canon.coeff is canon.exponents
        assert canon._om(canon.coeff) is canon._om(canon.exponents)
        assert len(canon._oriented_matroids) == 1
    canon = EX1.canonical()
    assert canon.coeff is not canon.exponents and canon.coeff != canon.exponents
    assert canon == ExponentialMapSpec(M(rref(EX1.coeff)[0]), M(rref(EX1.exponents)[0]))
