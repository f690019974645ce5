"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from expbij.analyzer import (
    CLASS_BIJECTIVE,
    CLASS_INJECTIVE,
    ExponentialMapSpec,
    analyze,
    injectivity_via_minors,
    injectivity_via_signs,
    robust_both,
    robust_exponents,
)
from expbij.crn import (
    deficiency_zero_gmak,
    parse_network,
    robust_deficiency_zero_gmak,
    structure,
)
from expbij.linalg import (
    RationalMatrix,
    SubspaceBasis,
    dot,
    intersection_dim,
    kernel_basis,
    rank,
    row_space_basis,
    vec,
)
from expbij.matroid import (
    chirotope,
    cocircuits,
    cocircuits_from_chirotope,
    conformal_decompose,
    covectors,
    minty_alternative,
    vectors,
)
from expbij.numeric import NumericMapInstance, evaluate, probe_bijectivity, solve
from expbij.report import build_report, canonical_json, verify_certificate
from expbij.signs import SignVector, sign_of
from sign_oracles import all_sign_vectors, orthogonal_set

M = RationalMatrix
S = SignVector.from_string


@contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {number}: PASS - {description} ({dt:.1f}s)")


def spec_of(W, Wt):
    return ExponentialMapSpec(M(W), M(Wt))


def sv_example(alpha):
    Wt = [[1, 1, 0, 0, -1, alpha], [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0]]
    W = [[0, 0, 1, 1, -1, 0], [1, -1, 0, 0, 0, -1], [0, 0, 1, -1, 0, 0]]
    return spec_of(W, Wt)


EX1 = spec_of([[1, 0, -1], [0, 1, 0]], [[1, 0, -1], [0, 1, -1]])
EX2 = spec_of([[1, 0, -1], [0, 1, 0]], [[1, 1, 0], [0, 1, 1]])
CC_EXAMPLE = spec_of([[1, 1, -1]], [[1, 0, -1]])
FACE_GAP = spec_of([[1, 1, 0], [0, 1, 1]], [[1, 0, -1], [0, 1, 0]])


def _random_full_rank(rng, d, n):
    while True:
        mat = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        if rank(mat) == d:
            return mat


def test_criterion_1_worked_example_classification():
    with criterion(1, "classification table for the worked examples"):
        t0 = time.perf_counter()
        rep = analyze(EX1)
        assert rep.classification == CLASS_BIJECTIVE
        assert rep.cones["exp"].full_space and not rep.cones["coeff"].full_space
        assert time.perf_counter() - t0 < 30

        t0 = time.perf_counter()
        rep = analyze(EX2)
        assert rep.classification == CLASS_BIJECTIVE
        assert rep.cones["exp"].all_plus and not rep.cones["coeff"].all_plus
        assert time.perf_counter() - t0 < 30

        for alpha, expected in [
            (Fraction(1, 2), CLASS_BIJECTIVE),
            (Fraction(3, 2), CLASS_BIJECTIVE),
            (Fraction(1), CLASS_INJECTIVE),
            (Fraction(2), CLASS_INJECTIVE),
            (Fraction(3), CLASS_INJECTIVE),
        ]:
            t0 = time.perf_counter()
            assert analyze(sv_example(alpha)).classification == expected, alpha
            assert time.perf_counter() - t0 < 30

        t0 = time.perf_counter()
        rep = analyze(CC_EXAMPLE)
        assert rep.classification == CLASS_BIJECTIVE
        assert rep.conditions["cc"].fails
        assert rep.conditions["iv"].holds
        assert time.perf_counter() - t0 < 30

        t0 = time.perf_counter()
        rep = analyze(FACE_GAP)
        assert rep.conditions["cc_prime"].holds
        assert rep.conditions["ii"].fails
        assert {str(t) for t in rep.cones["exp"].faces} == {"000", "0+0"}
        # the coefficient-side face set also contains the apex covector +++;
        # verified against an independent grid enumeration:
        brute = {sign_of((a, a + b, b)) for a in range(-2, 3) for b in range(-2, 3)
                 if a >= 0 and b >= 0 and sign_of((a, a + b, b)).is_nonneg()}
        assert {str(t) for t in rep.cones["coeff"].faces} == {str(t) for t in brute}
        assert {str(t) for t in rep.cones["coeff"].faces} == {"000", "0++", "++0", "+++"}
        assert time.perf_counter() - t0 < 30


def test_criterion_2_oracle_equivalences():
    with criterion(2, "sign-form vs minor-form equivalences on 200 random pairs"):
        t0 = time.perf_counter()
        rng = random.Random(90125)
        count = 0
        while count < 200:
            d = rng.randint(1, 4)
            n = rng.randint(d, d + 4)
            spec = ExponentialMapSpec(_random_full_rank(rng, d, n), _random_full_rank(rng, d, n))
            signs = injectivity_via_signs(spec)
            minors = injectivity_via_minors(spec)
            assert signs.verdict == minors.verdict
            swapped = ExponentialMapSpec(spec.exponents, spec.coeff)
            assert injectivity_via_signs(swapped).verdict == signs.verdict
            robust_exponents(spec)  # raises if the closure and minor forms disagree
            # the strict minor form against equal kernel sign sets (closures)
            # plus a uniform matroid of W
            om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
            sign_form = om_w.vector_masks() == om_wt.vector_masks() and om_w.uniform
            assert robust_both(spec).holds == sign_form
            count += 1
        assert time.perf_counter() - t0 < 300


def test_criterion_3_oriented_matroid_consistency():
    with criterion(3, "chirotope/cocircuit translation, orthogonality, conformal bound"):
        rng = random.Random(2024)
        for _ in range(60):
            d = rng.randint(1, 4)
            n = rng.randint(d, min(d + 3, 7))
            W = _random_full_rank(rng, d, n)
            assert cocircuits(W) == cocircuits_from_chirotope(chirotope(W))

        for _ in range(15):
            d = rng.randint(1, 3)
            n = rng.randint(d, min(d + 3, 6))
            W = _random_full_rank(rng, d, n)
            V = vectors(W)
            C = covectors(W)
            assert C == orthogonal_set(V, n)
            assert V == orthogonal_set(C, n)
            dim_ker = n - rank(W)
            for tau in V:
                if tau.is_zero():
                    continue
                parts = conformal_decompose(W, tau)
                assert len(parts) <= min(dim_ker, len(tau.support_set()))


def test_criterion_4_minty_totality():
    with criterion(4, "two-branch alternative total and verified over all sign vectors"):
        rng = random.Random(405)
        for _ in range(6):
            n = rng.randint(2, 5)
            dim = rng.randint(0, n)
            basis_rows = ()
            while dim:
                mat = M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(dim)])
                if rank(mat) == dim:
                    basis_rows = mat.row_tuples
                    break
            basis = SubspaceBasis(n, basis_rows)
            for sigma in all_sign_vectors(n):
                if sigma.is_zero():
                    continue
                wit = minty_alternative(basis, sigma)
                if wit.branch == "subspace":
                    assert basis.contains(wit.vector)
                    assert all(wit.vector[i] > 0 for i in sigma.plus_set())
                    assert all(wit.vector[i] < 0 for i in sigma.minus_set())
                else:
                    assert any(x != 0 for x in wit.vector)
                    assert sign_of(wit.vector).leq(sigma)
                    assert all(dot(wit.vector, b) == 0 for b in basis.vectors)


def test_criterion_5_implication_monotonicity():
    with criterion(5, "condition implications hold on every analyzed instance"):
        rng = random.Random(64)
        fixtures = [EX1, EX2, CC_EXAMPLE, FACE_GAP,
                    sv_example(Fraction(1, 2)), sv_example(1), sv_example(2)]
        for _ in range(30):
            d = rng.randint(1, 3)
            n = rng.randint(d, d + 3)
            fixtures.append(ExponentialMapSpec(
                _random_full_rank(rng, d, n), _random_full_rank(rng, d, n)))
        for spec in fixtures:
            rep = analyze(spec)  # theorem-level assertions also run inside
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


def test_criterion_6_change_of_basis_invariance():
    with criterion(6, "50 random basis changes per fixture leave reports unchanged"):
        rng = random.Random(1729)

        def random_invertible(d):
            while True:
                mat = M([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
                if mat.det() != 0:
                    return mat

        fixtures = [EX1, EX2, CC_EXAMPLE, FACE_GAP,
                    sv_example(Fraction(3, 2)), sv_example(2)]
        for spec in fixtures:
            base = canonical_json(build_report(analyze(spec), inputs={}))
            for _ in range(50):
                U = random_invertible(spec.d)
                Ut = random_invertible(spec.d_tilde)
                transformed = ExponentialMapSpec(U.matmul(spec.coeff), Ut.matmul(spec.exponents))
                assert canonical_json(build_report(analyze(transformed), inputs={})) == base


def test_criterion_7_numeric_cross_checks():
    with criterion(7, "Birch round trips, probe consistency, witness re-verification"):
        rng = random.Random(30301)
        np_rng = np.random.default_rng(30301)
        done = 0
        while done < 100:
            d = rng.randint(1, 4)
            n = rng.randint(d, d + 4)
            W = _random_full_rank(rng, d, n)
            spec = ExponentialMapSpec(W, W)
            inst = NumericMapInstance.from_spec(spec, np.exp(np_rng.uniform(-1, 1, n)))
            x_star = np_rng.uniform(-1.5, 1.5, d)
            y = evaluate(inst, x_star)
            res = solve(inst, y)
            assert res.converged
            assert res.residual <= 1e-10 * (1 + float(np.linalg.norm(y)))
            assert float(np.max(np.abs(res.x - x_star))) <= 1e-6
            done += 1

        for spec, trials in [(EX1, 20), (EX2, 20), (CC_EXAMPLE, 20),
                             (sv_example(Fraction(1, 2)), 12), (sv_example(2), 12)]:
            report = probe_bijectivity(spec, trials=trials, seed=4242)
            assert report.consistent, report.contradictions

        report = build_report(analyze(sv_example(2)), inputs={})
        as_json = json.loads(canonical_json(report))
        assert as_json["conditions"]["iii"]["verdict"] == "fails"
        assert verify_certificate(as_json)


def test_criterion_8_reaction_network_layer():
    with criterion(8, "deficiency-zero layer on the worked networks"):
        ab = parse_network({
            "species": ["A", "B"],
            "reactions": [{"from": {"stoich": {"A": 1}}, "to": {"stoich": {"B": 1}},
                           "reversible": True}],
        })
        assert deficiency_zero_gmak(ab).verdict == "holds"

        chain = parse_network({
            "species": ["A", "B"],
            "reactions": [{"from": {"stoich": {"A": 1}}, "to": {"stoich": {"B": 1}}}],
        })
        res = deficiency_zero_gmak(chain)
        assert res.verdict == "fails" and not res.weakly_reversible

        cc_network = parse_network({
            "species": ["A", "B", "C"],
            "reactions": [
                {"from": {"stoich": {}, "kinetic": {}},
                 "to": {"stoich": {"A": 1, "C": 1}, "kinetic": {"A": 1, "C": 1}}},
                {"from": {"stoich": {"A": 1, "C": 1}, "kinetic": {"A": 1, "C": 1}},
                 "to": {"stoich": {"A": 1, "B": 1, "C": 2}, "kinetic": {"A": 1, "B": 1, "C": 1}}},
                {"from": {"stoich": {"A": 1, "B": 1, "C": 2}, "kinetic": {"A": 1, "B": 1, "C": 1}},
                 "to": {"stoich": {}, "kinetic": {}}},
            ],
        })
        res = deficiency_zero_gmak(cc_network)
        assert res.verdict == "holds"
        assert res.analysis.classification == CLASS_BIJECTIVE
        robust = robust_deficiency_zero_gmak(cc_network)
        assert robust.verdict == "fails" and robust.closure.fails

        for net in (ab, chain, cc_network):
            s = structure(net)
            alt = intersection_dim(kernel_basis(s.stoich_complexes),
                                   row_space_basis(s.incidence.transpose()))
            assert s.deficiency == alt == s.stoich_complexes.cols - s.num_components - s.stoich_subspace.dim
