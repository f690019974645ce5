import dataclasses
import gc
import operator
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import expbij.matroid
from expbij.analyzer import ExponentialMapSpec, condition_ii
from expbij.linalg import (
    InputError,
    InternalInconsistency,
    RationalMatrix,
    SubspaceBasis,
    dot,
    kernel_basis,
    maximal_minor_signs,
    maximal_minors,
    rank,
    vec,
)
from expbij.matroid import (
    OrientedMatroid,
    _orthogonal_masks,
    chirotope,
    circuits,
    cocircuits,
    cocircuits_from_chirotope,
    covectors,
    face_lattice,
    minty_alternative,
    oriented_matroid,
    vectors,
)
from expbij.lp import realize_kernel_sign, realize_sign_vector
from expbij.signs import (
    EnumerationCap,
    SignSet,
    SignVector,
    bits,
    composition_closure,
    minimal_support_members,
    pack,
    sign_of,
    unpack,
)
from sign_oracles import (
    all_sign_vectors,
    bareiss_rank,
    bareiss_row_basis,
    column_submatrix,
    cone_flags_from_faces,
    conformal_decompose,
    extends_by_pairs,
    first_vector_greedy,
    is_uniform,
    nonneg_part,
    orthogonal_masks_tree,
    orthogonal_set,
    orthogonal_witness_oracle,
    row_space_basis,
    subspace_contains,
)
from test_acceptance import minty_bases
from test_analyzer import _corpus, _random_full_rank, _zero_heavy_corpus
from test_report_digests import _analyses

S = SignVector.from_string
M = RationalMatrix


def _rref_row_basis(mat):
    basis = row_space_basis(mat)
    return mat if basis.dim == mat.rows else M(basis.vectors)


def _rref_cocircuits(mat):
    """Reference oracle: one exact kernel per rank-(d-1) column subset."""
    W = _rref_row_basis(mat)
    d, n = W.rows, W.cols
    if d == 1:
        sv = sign_of(W.row(0))
        return {sv, -sv}
    out = set()
    cols = [W.column(j) for j in range(n)]
    for I in combinations(range(n), d - 1):
        ker = kernel_basis(M([cols[i] for i in I]))  # rows w^i, i in I
        if ker.dim != 1:
            continue  # columns in I do not span a hyperplane
        sv = sign_of(W.transpose_vec(ker.vectors[0]))
        if not sv.is_zero():
            out |= {sv, -sv}
    return out


def _rref_circuits(mat):
    """Reference oracle: minimal column subsets with a one-dimensional,
    nowhere-zero kernel, by exact kernels in order of size."""
    W = _rref_row_basis(mat)
    d, n = W.rows, W.cols
    out = set()
    found_supports = []
    for size in range(1, min(d + 1, n) + 1):
        for J in combinations(range(n), size):
            if any(s <= set(J) for s in found_supports):
                continue
            ker = kernel_basis(column_submatrix(W, J))
            if ker.dim != 1 or any(x == 0 for x in ker.vectors[0]):
                continue  # no dependency, or not minimal on J; handled by a subset
            comps = [Fraction(0)] * n
            for pos, j in enumerate(J):
                comps[j] = ker.vectors[0][pos]
            sv = sign_of(comps)
            out |= {sv, -sv}
            found_supports.append(set(J))
    return out


def test_circuits_cocircuits_match_rref_oracle():
    # seeded random matrices, a third of them rank-deficient, with zero entries
    # and zero columns
    rng = random.Random(31337)
    deficient = 0
    for _ in range(400):
        d = rng.randint(1, 4)
        n = rng.randint(1, 7)
        rows = [[rng.choice((-2, -1, 0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(d)]
        if d > 1 and rng.random() < 0.35:
            rows[-1] = [a - b for a, b in zip(rows[0], rows[-2])]
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        W = M(rows)
        if rank(W) == 0:
            continue
        deficient += rank(W) < d
        assert circuits(W) == _rref_circuits(W), W
        assert cocircuits(W) == _rref_cocircuits(W), W
    assert deficient >= 80


def _value_cocircuits(chi):
    """Reference oracle: cocircuits read through Chirotope.value, which sorts
    each tuple and counts its inversions."""
    out = set()
    for I in combinations(range(chi.n), chi.d - 1):
        sv = SignVector.from_components(chi.value(I + (j,)) for j in range(chi.n))
        if not sv.is_zero():
            out |= {sv, -sv}
    return out


def _value_circuits(chi):
    """Reference oracle: Cramer's rule through Chirotope.value."""
    out = set()
    for J in combinations(range(chi.n), chi.d + 1):
        comps = [0] * chi.n
        for k, j in enumerate(J):
            comps[j] = (-1) ** k * chi.value(J[:k] + J[k + 1:])
        sv = SignVector.from_components(comps)
        if not sv.is_zero():
            out |= {sv, -sv}
    return out


def _random_matrix(rng, max_n):
    """Seeded matrix with zero entries, often rank-deficient or with a zero column."""
    n = rng.randint(1, max_n)
    d = rng.randint(1, min(n, 5))
    rows = [[rng.choice((-2, -1, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(d)]
    if d > 1 and rng.random() < 0.3:
        rows[-1] = [a + b for a, b in zip(rows[0], rows[-2])]
    if n > 1 and rng.random() < 0.3:
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return M(rows)


def test_direct_chirotope_reads_match_value_route():
    rng = random.Random(16180)
    checked = 0
    while checked < 150:
        W = _random_matrix(rng, 8)
        if rank(W) < W.rows:
            continue
        chi = chirotope(W)
        assert cocircuits_from_chirotope(chi) == _value_cocircuits(chi), W
        assert circuits(W) == _value_circuits(chi), W
        checked += 1


def test_nonneg_covectors_are_closure_of_nonneg_cocircuits():
    rng = random.Random(14142)
    kinds = set()
    checked = 0
    while checked < 300:
        W = _random_matrix(rng, 7)
        if rank(W) == 0:
            continue
        if checked % 3 == 0:  # the lifted form [[W, 0], [1^T, 1]] that newton reads
            W = M([list(r) + [0] for r in W.row_tuples] + [[1] * (W.cols + 1)])
            kinds.add("lifted")
        kinds.add("deficient" if rank(W) < W.rows else "full rank")
        om, n = OrientedMatroid(W), W.cols
        nonneg = SignSet(om.nonneg_covector_masks, n)
        assert nonneg == SignSet(composition_closure(om.nonneg_cocircuit_masks, n), n), W
        assert om.face_lattice.faces == nonneg
        checked += 1
    assert kinds == {"lifted", "deficient", "full rank"}
    with pytest.raises(EnumerationCap, match="^covector enumeration capped at n <= 2, got n = 3$"):
        face_lattice(M([[1, 2, 3]]), cap=2)


def test_nonneg_cocircuits_are_the_minimal_nonneg_covectors():
    # the facets that ii and iii read without a closure,
    # and uniformity read off the cocircuits, against the closures they replace
    rng = random.Random(27182)
    kinds = Counter()
    checked = 0
    while checked < 300:
        W = _random_matrix(rng, 7)
        if rank(W) == 0:
            continue
        if checked % 3 == 0:  # the lifted form newton reads
            W = M([list(r) + [0] for r in W.row_tuples] + [[1] * (W.cols + 1)])
            kinds["lifted"] += 1
        kinds["deficient" if rank(W) < W.rows else "full rank"] += 1
        kinds["zero column"] += any(all(x == 0 for x in W.column(j)) for j in range(W.cols))
        om = OrientedMatroid(W)
        # the minimal faces of the circuit route, which the package does not take
        faces = orthogonal_masks_tree(om.circuit_masks, W.cols, (1 << W.cols) - 1)
        facets = {pack(t) for t in minimal_support_members(SignSet(faces, W.cols))}
        assert om.nonneg_cocircuit_masks == facets, W
        kinds["no facet"] += not facets
        d, n = om.W.rows, W.cols
        C = SignSet(om.covector_masks, n)
        with_d_minus_1_zeros = {t for t in C if t.support and n - len(t.support_set()) == d - 1}
        assert is_uniform(om) == (minimal_support_members(C) == with_d_minus_1_zeros), W
        assert is_uniform(om) == all(m != 0 for m in maximal_minors(om.W).values()), W
        kinds["uniform" if is_uniform(om) else "not uniform"] += 1
        checked += 1
    assert all(kinds[k] for k in ("lifted", "deficient", "full rank", "zero column", "no facet",
                                  "uniform", "not uniform")), kinds


def test_chirotopes_up_to_sign():
    # the minor tables of the two matrices agree up to one global sign
    om = oriented_matroid(M([[1, 0, -1], [0, 1, 1]]))
    assert om.equal_up_to_sign(om)
    assert om.equal_up_to_sign(oriented_matroid(M([[0, 1, 1], [1, 0, -1]])))  # rows swapped: -chi
    assert om.equal_up_to_sign(oriented_matroid(M([[2, 1, -1], [0, 3, 3]])))
    assert not om.equal_up_to_sign(oriented_matroid(M([[1, 0, 1], [0, 1, 1]])))
    # another n, with the same nonzero minors, and another d
    assert not om.equal_up_to_sign(oriented_matroid(M([[1, 0, -1, 0], [0, 1, 1, 0]])))
    assert not om.equal_up_to_sign(oriented_matroid(M([[1, 0, -1]])))


def test_mask_accessors_are_the_packed_sets():
    rng = random.Random(16180)
    for _ in range(40):
        W = _random_matrix(rng, 7)
        if rank(W) == 0:
            continue
        om = OrientedMatroid(W)
        n = W.cols
        for masks, svs in ((om.circuit_masks, circuits(W)), (om.cocircuit_masks, cocircuits(W)),
                           (om.vector_masks, vectors(W)), (om.covector_masks, covectors(W)),
                           (om.nonneg_covector_masks, face_lattice(W).faces)):
            assert masks == {pack(t) for t in svs}, W
            assert all(unpack(x, n) == SignVector(n, x & ((1 << n) - 1), x >> n) for x in masks)
    # the n cap is the module functions' alone: n > cap raises, n = cap does not
    W = M([[1, 2, 3]])
    for enumerate_, what in ((vectors, "vector"), (covectors, "covector"), (face_lattice, "covector")):
        with pytest.raises(EnumerationCap) as raised:
            enumerate_(W, cap=2)
        assert str(raised.value) == f"{what} enumeration capped at n <= 2, got n = 3"
        enumerate_(W, cap=3)


def test_orthogonal_masks_match_composition_closure():
    """The one-pass enumeration against its definition: the covectors are the
    composition closure of the cocircuits and are orthogonal to the circuits,
    and the vectors the other way round; each equals the whole prefix tree
    and is closed under negation. The faces, the OR-closure of the facets,
    are the nonnegative covectors by two routes the package does not take:
    the prefix tree over the circuits with only + allowed, and the
    composition closure of the nonnegative cocircuits."""
    rng = random.Random(57721)
    kinds = Counter()
    for _ in range(120):
        n = rng.randint(1, 9)
        d = rng.randint(1, n)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
        if d > 1 and rng.random() < 0.3:
            rows[-1] = [a - b for a, b in zip(rows[0], rows[-2])]
        if n > 1 and rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        W = M(rows)
        if rank(W) == 0:
            continue
        om = OrientedMatroid(W)
        full = (1 << n) - 1
        kinds["rank-deficient"] += rank(W) < d
        kinds["zero column"] += any(not any(W.column(j)) for j in range(n))
        kinds["coloop"] += bool(om.circuit_masks) and any(
            bin((c | c >> n) & full).count("1") == 1 for c in om.cocircuit_masks)
        kinds["no circuits"] += not om.circuit_masks
        kinds["n = 9"] += n == 9
        kinds["n = 1"] += n == 1
        every = (1 << 2 * n) - 1
        for gens, dual in ((om.circuit_masks, om.cocircuit_masks), (om.cocircuit_masks, om.circuit_masks)):
            got = _orthogonal_masks(gens, n)
            assert got == composition_closure(dual, n) == orthogonal_masks_tree(gens, n, every), W
            assert {x >> n | (x & full) << n for x in got} == got, W
        faces = om.nonneg_covector_masks
        assert faces == orthogonal_masks_tree(om.circuit_masks, n, full), W
        assert faces == composition_closure(om.nonneg_cocircuit_masks, n), W
    assert all(kinds[k] >= 5 for k in ("rank-deficient", "zero column", "coloop", "no circuits",
                                       "n = 9", "n = 1")), kinds


def _oracle_matrices(count):
    """Seeded matrices with n <= 6: zero entries, rational entries, and often
    rank-deficient or with a zero column."""
    rng = random.Random(27182)
    kinds = Counter()
    out = []
    while len(out) < count:
        n = rng.randint(1, 6)
        d = rng.randint(1, min(n, 4))
        rows = [[rng.choice((-2, -1, 0, 0, 1, 2, Fraction(1, 2), Fraction(-2, 3))) for _ in range(n)]
                for _ in range(d)]
        if d > 1 and rng.random() < 0.3:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[-2])]
        if n > 1 and rng.random() < 0.3:
            j = rng.randrange(n)
            for row in rows:
                row[j] = 0
        W = M(rows)
        if rank(W) == 0:
            continue
        kinds["rank-deficient"] += rank(W) < d
        kinds["zero column"] += any(not any(W.column(j)) for j in range(n))
        kinds["rational"] += any(x.denominator != 1 for row in W.row_tuples for x in row)
        out.append(W)
    assert all(kinds[k] >= 20 for k in ("rank-deficient", "zero column", "rational")), kinds
    return out


def _packed_on(A, n, comps):
    """The packed sign vector with the given signs on the positions of A."""
    x = 0
    for j, s in zip(bits(A), comps):
        if s > 0:
            x |= 1 << j
        elif s < 0:
            x |= 1 << j + n
    return x


def test_extends_is_membership_in_the_restricted_closure():
    # extends(x, A) against the restrictions to A of every vector of the
    # closure of the circuits, for every sign vector x on A
    rng = random.Random(4669)
    for W in _oracle_matrices(220):
        om, n = OrientedMatroid(W), W.cols
        full = (1 << n) - 1
        vectors_w = composition_closure(om.circuit_masks, n)
        for A in {full, rng.randrange(1 << n), rng.randrange(1 << n)}:
            both = A | A << n
            restricted = {v & both for v in vectors_w}
            for comps in product((1, -1, 0), repeat=len(bits(A))):
                x = _packed_on(A, n, comps)
                assert om.extends(x, A) == (x in restricted), (W, unpack(x, n), bits(A))


def test_witnesses_exist_iff_the_oracles_say_so():
    # on the matrices of the extends test with n <= 4 (one LP per x; n = 5
    # and 6 would add some 100,000 LPs): vector_point(x, A) is a point of
    # ker W with the signs of x on A iff extends(x, A), and covector_point(x)
    # is a y with sign(W^T y) = x iff x is a covector
    rng = random.Random(4669)
    seen = Counter()
    for W in _oracle_matrices(220):
        om, n = OrientedMatroid(W), W.cols
        if n > 4:
            continue
        seen["rank-deficient"] += om.W.rows < W.rows
        seen["zero column"] += any(not any(W.column(j)) for j in range(n))
        seen["rational"] += any(x.denominator != 1 for row in W.row_tuples for x in row)
        full = (1 << n) - 1
        covectors_w = om.covector_masks
        for A in {full, rng.randrange(1 << n), rng.randrange(1 << n)}:
            both = A | A << n
            for comps in product((1, -1, 0), repeat=len(bits(A))):
                x = _packed_on(A, n, comps)
                v = om.vector_point(x, A)
                assert (v is not None) == om.extends(x, A), (W, unpack(x, n), bits(A))
                if v is not None:
                    assert not any(W.mat_vec(v)) and pack(sign_of(v)) & both == x, (W, v)
                seen["vector", A == full, v is not None] += 1
                if A == full:
                    y = om.covector_point(x)
                    assert (y is not None) == (x in covectors_w), (W, unpack(x, n))
                    if y is not None:
                        assert pack(sign_of(om.W.transpose_vec(y))) == x, (W, y)
                    seen["covector", y is not None] += 1
    assert all(seen["vector", on_full, found] for on_full in (True, False) for found in (True, False)), seen
    assert seen["covector", True] and seen["covector", False], seen
    assert all(seen[k] >= 10 for k in ("rank-deficient", "zero column", "rational")), seen


def test_ray_route_matches_the_lp(monkeypatch):
    # covector_point(x) against the LP system it replaces,
    # lp.realize_sign_vector on the row basis, for every nonzero sign vector
    # x of the oracle matrices with n <= 5, and for every cocircuit of both
    # matrices of a corpus (n <= 8): the answer, point or None, must be the
    # LP's byte for byte, and it is read off a line exactly for a cocircuit,
    # so the line route never answers None
    rays = []
    ray_point = expbij.matroid.ray_point

    def recorded(k, values, x):
        rays.append(ray_point(k, values, x))
        return rays[-1]

    monkeypatch.setattr(expbij.matroid, "ray_point", recorded)
    seen = Counter()

    def compare(om, x):
        rays.clear()
        got, want = om.covector_point(x), realize_sign_vector(om.W, x, (1 << om.W.cols) - 1)
        assert got == want, (om.W, unpack(x, om.W.cols))
        assert all(type(a) is Fraction for a in got or ())
        assert bool(rays) == (x in om.cocircuit_masks), (om.W, unpack(x, om.W.cols))
        seen["ray" if rays else "lp", got is not None] += 1

    for W in _oracle_matrices(100):
        om, n = OrientedMatroid(W), W.cols
        if n > 5:
            continue
        seen["rank-deficient"] += om.W.rows < W.rows
        seen["zero column"] += any(not any(W.column(j)) for j in range(n))
        seen["rational"] += any(x.denominator != 1 for row in W.row_tuples for x in row)
        seen["d = 1"] += om.W.rows == 1
        seen["d = n"] += om.W.rows == n
        for comps in product((1, -1, 0), repeat=n):
            x = _packed_on((1 << n) - 1, n, comps)
            if x:
                compare(om, x)
    for spec in _corpus(30):
        for W in (spec.coeff, spec.exponents):
            om = OrientedMatroid(W)
            for x in om.cocircuit_masks:
                compare(om, x)
    assert all(seen[k] >= 100 for k in (("ray", True), ("lp", True), ("lp", False))), seen
    assert all(seen[k] >= 10 for k in ("rank-deficient", "zero column", "rational", "d = 1", "d = n")), seen


def test_conformal_route_matches_the_lp(monkeypatch):
    # vector_point(x, all columns) against the LP system it replaces,
    # lp.realize_kernel_sign on the row basis, for every nonzero sign vector
    # x of the oracle matrices with n <= 5 and every vector of both matrices
    # of a corpus (n <= 8): a point read off x's conformal circuits, and a
    # None found without the LP, must be the LP's answer byte for byte. The
    # LP is asked only about vectors, since x is one iff its conformal
    # circuits cover it, and circuits of disjoint supports, each column
    # private to one, always give the point without it
    solved = []
    solve = expbij.matroid.realize_kernel_sign
    monkeypatch.setattr(expbij.matroid, "realize_kernel_sign",
                        lambda *args: solved.append(args) or solve(*args))
    seen = Counter()

    def compare(om, x):
        solved.clear()
        n = om.W.cols
        full = (1 << n) - 1
        got, want = om.vector_point(x, full), realize_kernel_sign(om.W, x, full)
        assert got == want, (om.W, unpack(x, n))
        assert all(type(a) is Fraction for a in got or ())
        route = "lp" if solved else "conformal" if got is not None else "none"
        assert route != "lp" or got is not None, (om.W, unpack(x, n))
        supports = [(c | c >> n) & full for c in om.circuit_masks if not c & ~x]
        if got is not None and sum(map(int.bit_count, supports)) == ((x | x >> n) & full).bit_count():
            assert route == "conformal", (om.W, unpack(x, n))
            seen["disjoint"] += 1
        seen[route] += 1

    for W in _oracle_matrices(100):
        om, n = OrientedMatroid(W), W.cols
        if n > 5:
            continue
        seen["rank-deficient"] += om.W.rows < W.rows
        seen["zero column"] += any(not any(W.column(j)) for j in range(n))
        seen["rational"] += any(x.denominator != 1 for row in W.row_tuples for x in row)
        for comps in product((1, -1, 0), repeat=n):
            x = _packed_on((1 << n) - 1, n, comps)
            if x:
                compare(om, x)
    for spec in _corpus(30):
        for W in (spec.coeff, spec.exponents):
            om = OrientedMatroid(W)
            for x in om.vector_masks:
                if x:
                    compare(om, x)
    assert all(seen[k] >= 100 for k in ("conformal", "none", "lp", "disjoint")), seen
    assert all(seen[k] >= 10 for k in ("rank-deficient", "zero column", "rational")), seen


def test_ray_points_are_resubstituted(monkeypatch):
    # a point read off a line or off conformal circuits is put back into W
    # over its common denominator before it is kept: a point off the kernel,
    # with a sign flipped or with a margin other than 1 is an internal
    # inconsistency
    W = M([[1, 1, -1], ["1/2", 0, "2/3"]])
    n, full = 3, 7
    x = _packed_on(full, n, [2, -3, -4])  # the signs of the kernel line (4, -7, -3) of W
    y = _packed_on(full, n, [1, 0, 1])  # sign(W^T (0, 1)), on the line orthogonal to column 1
    assert OrientedMatroid(W).vector_point(x, full) and OrientedMatroid(W).covector_point(y)
    ray_point = expbij.matroid.ray_point
    conformal_point = OrientedMatroid._conformal_point
    for forge in (lambda p: tuple(2 * a for a in p), lambda p: tuple(-a for a in p),
                  lambda p: p[:1] + (p[1] - 1,) + p[2:]):
        monkeypatch.setattr(expbij.matroid, "ray_point", lambda *args: forge(ray_point(*args)))
        monkeypatch.setattr(OrientedMatroid, "_conformal_point", lambda *args: forge(conformal_point(*args)))
        with pytest.raises(InternalInconsistency):
            OrientedMatroid(W).vector_point(x, full)
        with pytest.raises(InternalInconsistency):
            OrientedMatroid(W).covector_point(y)


def test_first_vector_is_the_first_of_the_sorted_closure():
    # against the closure sorted by the strings of its members: the first
    # vector agreeing with x on A, and the first tope agreeing with x on A
    rng = random.Random(1729)
    seen = Counter()
    for W in _oracle_matrices(220):
        om, n = OrientedMatroid(W), W.cols
        full = (1 << n) - 1
        by_str = sorted(composition_closure(om.circuit_masks, n), key=lambda v: str(unpack(v, n)))
        union = 0
        for v in by_str:
            union |= (v | v >> n) & full
        for _ in range(6):
            A = rng.randrange(1 << n)
            x = _packed_on(A, n, [rng.choice((1, -1, 0)) for _ in bits(A)])
            both = A | A << n
            want = next((v for v in by_str if v & both == x), None)
            assert om.first_vector(x, A) == want, (W, unpack(x, n), bits(A))
            seen["vector", want is not None] += 1
            # topes: x nonzero on S inside the union U, zero off U
            S = rng.randrange(1 << n) & union
            A = S | full & ~union
            x = _packed_on(S, n, [rng.choice((1, -1)) for _ in bits(S)])
            both = A | A << n
            want = next((v for v in by_str if (v | v >> n) & full == union and v & both == x), None)
            assert om.first_vector(x, A) == want, (W, unpack(x, n), bits(A))
            seen["tope", want is not None] += 1
    assert all(seen[k, found] for k in ("vector", "tope") for found in (True, False)), seen


def test_first_vector_and_extends_match_the_pair_scan():
    # the prefix search over the cocircuit index against the scan of the
    # cocircuit pairs and the greedy search it replaced, on the oracle
    # matrices and both matrices of the corpora, with seeded (x, A), x = 0
    # on A = 0, and A = every column, on a vector and on a seeded x
    rng = random.Random(5040)
    specs = _corpus(200) + _zero_heavy_corpus(60)
    seen = Counter()
    for W in _oracle_matrices(220) + [mat for spec in specs for mat in (spec.coeff, spec.exponents)]:
        om, n = OrientedMatroid(W), W.cols
        full = (1 << n) - 1
        cases = [(0, 0)]
        for A in (full, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(1 << n)):
            cases.append((_packed_on(A, n, [rng.choice((1, -1, 0)) for _ in bits(A)]), A))
        cases.append((first_vector_greedy(om, *cases[-1]) or 0, full))
        for x, A in cases:
            want = first_vector_greedy(om, x, A)
            assert om.first_vector(x, A) == want, (W, unpack(x, n), bits(A))
            assert om.extends(x, A) == extends_by_pairs(om, x, A) == (want is not None), (W, x, A)
            seen[A == full, x == 0, want is not None] += 1
    assert all(seen[True, False, found] for found in (True, False)), seen
    assert seen[False, False, True] and seen[False, False, False] and seen[False, True, True], seen


def _robustly_generated_oracle(W, fl) -> bool:
    """d = 1, or every generator spans its own extreme-ray face (a face zero
    at it only) or is + on every nonzero face, on SignVector faces."""
    if rank(W) == 1 or fl.full_space:
        return True
    if fl.zero_columns:
        return False
    nonzero = [t for t in fl.faces if not t.is_zero()]
    return all(any(t.zero_set() == (i,) for t in nonzero) or all(t[i] == 1 for t in nonzero)
               for i in range(W.cols))


def _cone_matrices(count):
    """Seeded nonzero matrices, often rank-deficient or with a zero column,
    and with opposite columns, a lineality space that is often the full space."""
    rng = random.Random(31415)
    out = []
    while len(out) < count:
        W = _random_matrix(rng, 6)
        if rank(W) == 0:
            continue
        if rng.random() < 0.3:  # opposite columns
            k = rng.randint(1, W.cols)
            W = M([list(r) + [-x for x in r[:k]] for r in W.row_tuples])
        out.append(W)
    return out


def test_cone_flags_from_the_table_match_the_matrix_route():
    """The zero columns and the lineality rank that face_lattice reads off the
    cocircuits and the minor table, against the entries: a zero column is all
    zero, and the lineality space is spanned by the columns in no nonzero
    face, whose rank is that of their column submatrix."""
    kinds = Counter()
    for W in _cone_matrices(400):
        n = W.cols
        fl = face_lattice(W)
        zero_columns = tuple(j for j in range(n) if not any(row[j] for row in W.row_tuples))
        top = 0
        for t in fl.faces:
            top |= t.plus
        L = [j for j in range(n) if not top >> j & 1]
        lineality_dim = rank(column_submatrix(W, L)) if L else 0
        assert fl.zero_columns == zero_columns, W
        assert fl.lineality_dim == lineality_dim and fl.pointed == (lineality_dim == 0), W
        assert fl.full_space == (lineality_dim == rank(W)), W
        kinds["rank-deficient"] += rank(W) < W.rows
        kinds["zero column"] += bool(zero_columns)
        kinds["full space"] += fl.full_space
        kinds["lineality"] += 0 < lineality_dim < rank(W)
        kinds["pointed"] += fl.pointed
    assert all(kinds[k] >= 10 for k in ("rank-deficient", "zero column", "full space", "lineality",
                                        "pointed")), kinds


def test_cone_flags_from_the_facets_match_the_face_walk():
    # OrientedMatroid.cone reads these three flags off the facets alone; the
    # oracle walks every enumerated face
    kinds = Counter()
    for W in _cone_matrices(400):
        om = OrientedMatroid(W)
        cone = om.cone
        flags = (cone.full_space, cone.all_plus, cone.robustly_generated)
        assert flags == cone_flags_from_faces(om), W
        kinds.update(name for name, flag in zip(("full space", "all plus", "robust"), flags) if flag)
        kinds["not robust"] += not cone.robustly_generated
        kinds["robust, d > 1, pointed"] += cone.robustly_generated and rank(W) > 1 and cone.pointed
    assert min(kinds.values()) >= 10 and len(kinds) == 5, kinds


def test_robustly_generated_matches_signvector_oracle():
    rng = random.Random(4242)
    seen = set()
    for _ in range(150):
        W = _random_matrix(rng, 6)
        if rank(W) == 0:
            continue
        fl = face_lattice(W)
        assert fl.robustly_generated == _robustly_generated_oracle(W, fl), W
        seen.add(fl.robustly_generated)
    assert seen == {True, False}


def test_chirotope_examples():
    chi = chirotope(M([[1, 0, -1], [0, 1, -1]]))
    assert chi.value((0, 1)) == 1
    assert chi.value((0, 2)) == -1
    assert chi.value((1, 2)) == 1
    assert chi.value((1, 0)) == -1  # alternating
    assert chi.value((0, 0)) == 0

    chi = chirotope(M([[1, 0], [0, 1]]))
    assert chi.value((0, 1)) == 1

    chi = chirotope(M([[1, 1, -1]]))
    assert [chi.value((j,)) for j in range(3)] == [1, 1, -1]

    with pytest.raises(Exception):
        chirotope(M([[1, 1], [1, 1]]))


def test_chirotope_value_rejects_bad_tuples():
    chi = chirotope(M([[1, 0, -1], [0, 1, -1]]))
    for tup in ((0, 5), (3, 1), (-1, 0), (0, 1, 2)):
        with pytest.raises(InputError):
            chi.value(tup)


def test_cocircuits_from_chirotope_examples():
    chi = chirotope(M([[1, 0, -1], [0, 1, -1]]))
    assert cocircuits_from_chirotope(chi) == {
        S("0+-"), S("0-+"), S("-0+"), S("+0-"), S("+-0"), S("-+0"),
    }
    chi = chirotope(M([[1, 1, -1]]))
    assert cocircuits_from_chirotope(chi) == {S("++-"), S("--+")}
    chi = chirotope(M([[1, 0], [0, 1]]))
    assert cocircuits_from_chirotope(chi) == {S("+0"), S("-0"), S("0+"), S("0-")}


def test_circuits_examples():
    assert circuits(M([[1, 1, -1]])) == {
        S("+0+"), S("-0-"), S("0++"), S("0--"), S("+-0"), S("-+0"),
    }
    assert circuits(M([[1, 0], [0, 1]])) == set()
    assert circuits(M([[1, 0, -1], [0, 1, -1]])) == {S("+++"), S("---")}


def test_circuits_cocircuits_duality_random():
    rng = random.Random(2718)
    for _ in range(30):
        d = rng.randint(1, 4)
        n = rng.randint(d, min(d + 3, 7))
        W = _random_full_rank(rng, d, n)
        assert cocircuits(W) == cocircuits_from_chirotope(chirotope(W))
        ker = kernel_basis(W)
        if ker.dim:
            K = M(ker.vectors)
            assert circuits(W) == cocircuits(K)  # sign(ker W) = sign(im K^T)


def test_vector_enumeration_against_grid():
    W = M([[1, 1, -1]])
    vecs = vectors(W)
    grid = set()
    for a, b in product(range(-2, 3), repeat=2):
        grid.add(sign_of([a, b, a + b]))
    assert vecs == grid
    assert len(vecs) == 13  # 12 nonzero plus zero

    assert covectors(M([[1, 0], [0, 1]])) == set(all_sign_vectors(2))
    assert covectors(W) == orthogonal_set(vecs, 3)


def test_vectors_covectors_orthogonal_pairs_random():
    rng = random.Random(321)
    for _ in range(12):
        d = rng.randint(1, 3)
        n = rng.randint(d, min(d + 3, 6))
        W = _random_full_rank(rng, d, n)
        V = vectors(W)
        C = covectors(W)
        assert C == orthogonal_set(V, n)
        assert V == orthogonal_set(C, n)
        assert minimal_support_members(V) == circuits(W)
        assert minimal_support_members(C) == cocircuits(W)
        for a in V:
            assert -a in V
            for b in V:
                assert a.compose(b) in V


def test_oriented_matroid_consistency():
    W = M([[1, 0, -1], [0, 1, -1]])
    om = oriented_matroid(W)
    assert circuits(W) == {S("+++"), S("---")}
    assert cocircuits(W) == cocircuits_from_chirotope(om.chirotope)
    assert SignVector.zero(3) in vectors(W) and SignVector.zero(3) in covectors(W)
    assert om.face_lattice.faces == nonneg_part(covectors(W))
    # each piece is computed once and then shared
    assert om.covector_masks is om.covector_masks and om.face_lattice is om.face_lattice
    # a rank-deficient matrix has the data of its row space
    assert circuits(M([[1, 0, -1], [0, 1, -1], [1, 1, -2]])) == circuits(W)


def test_conformal_decompose_examples():
    W = M([[1, 1, -1]])
    assert conformal_decompose(W, SignVector.zero(3)) == []

    out = conformal_decompose(W, S("+0+"))
    assert out == [S("+0+")]

    out = conformal_decompose(W, S("+++"))
    assert sorted(map(str, out)) == ["+0+", "0++"]
    composed = out[0]
    for rho in out[1:]:
        assert rho.leq(S("+++")) or rho == S("+++")
        composed = composed.compose(rho)
    assert composed == S("+++")

    with pytest.raises(Exception):
        conformal_decompose(W, S("++0"))  # not a kernel sign vector


def test_conformal_decompose_bound_random():
    rng = random.Random(555)
    for _ in range(10):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, min(d + 3, 6))
        W = _random_full_rank(rng, d, n)
        dim_ker = n - d
        for tau in vectors(W):
            if tau.is_zero():
                continue
            parts = conformal_decompose(W, tau)
            assert len(parts) <= min(dim_ker, len(tau.support_set()))
            for rho in parts:
                assert rho.leq(tau)


def _check_sign_set(view, other):
    """view is a SignSet; other is a sign set of the same length."""
    members = list(view)
    plain = frozenset(members)
    assert len(members) == len(plain) == len(view)  # each member once
    assert all(type(t) is SignVector and t.n == view.n for t in members)
    for same in (plain, set(members), SignSet(view.masks, view.n)):
        assert view == same and same == view
        assert not view != same and not same != view
    assert hash(view) == hash(plain)
    assert all(t in view for t in members)
    wrong_length = SignVector.zero(view.n + 1)
    assert wrong_length not in view and 0 not in view and "0" * view.n not in view
    for near in (plain | {wrong_length}, plain - set(members[:1])):
        if near != plain:
            assert view != near and near != view and not view == near
    other_plain = frozenset(other)
    assert (view == other) == (plain == other_plain)
    for op in (operator.and_, operator.or_, operator.sub, operator.xor):
        for a, b, pa, pb in ((view, other, plain, other_plain), (view, other_plain, plain, other_plain),
                             (other_plain, view, other_plain, plain), (set(other), view, other_plain, plain)):
            got = op(a, b)
            assert type(got) is frozenset and got == op(pa, pb)


def test_sign_sets_are_views_that_act_as_sets_of_sign_vectors():
    rng = random.Random(31415)
    kinds = Counter()
    for _ in range(40):
        W = _random_matrix(rng, 7)
        if rank(W) == 0:
            continue
        kinds["deficient" if rank(W) < W.rows else "full rank"] += 1
        kinds["zero column"] += any(all(x == 0 for x in W.column(j)) for j in range(W.cols))
        fl = face_lattice(W)
        views = [circuits(W), cocircuits(W), covectors(W), vectors(W), fl.faces,
                 cocircuits_from_chirotope(oriented_matroid(W).chirotope)]
        assert all(type(v) is SignSet and v.n == W.cols for v in views)
        for view, other in zip(views, views[1:] + views[:1]):
            _check_sign_set(view, other)
        # a lattice with plain faces equals and hashes as the one with the view
        plain = dataclasses.replace(fl, faces=frozenset(fl.faces))
        assert fl == plain and plain == fl and hash(fl) == hash(plain)
    assert kinds["deficient"] and kinds["full rank"] and kinds["zero column"], kinds
    # empty sets are equal whatever their lengths, as frozensets of sign vectors are
    empty2, empty3 = circuits(M([[1, 0], [0, 1]])), circuits(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert empty2 == empty3 == frozenset() and hash(empty2) == hash(empty3) == hash(frozenset())
    assert SignSet(frozenset({0}), 2) != SignSet(frozenset({0}), 3)
    assert frozenset({S("00")}) != frozenset({S("000")})


def test_face_lattice_examples():
    # quadrant: all four faces, pointed, robustly generated
    fl = face_lattice(M([[1, 0], [0, 1]]))
    assert fl.faces == frozenset({S("00"), S("+0"), S("0+"), S("++")})
    assert fl.pointed and fl.robustly_generated and fl.all_plus
    assert fl.lineality_dim == 0 and not fl.full_space

    # full plane: only the zero face
    fl = face_lattice(M([[1, -1, 0, 0], [0, 0, 1, -1]]))
    assert fl.faces == frozenset({S("0000")})
    assert fl.full_space and fl.lineality_dim == 2 and not fl.pointed

    # first-quadrant cone with three generators
    fl = face_lattice(M([[1, 1, 0], [0, 1, 1]]))
    assert fl.faces == frozenset({S("000"), S("0++"), S("++0"), S("+++")})
    assert fl.pointed and fl.all_plus

    # half-plane: lineality line, not robustly generated
    fl = face_lattice(M([[1, 0, -1], [0, 1, 0]]))
    assert fl.faces == frozenset({S("000"), S("0+0")})
    assert fl.lineality_dim == 1 and not fl.pointed and not fl.robustly_generated


def test_robustly_generated_cases():
    # duplicated generator on an extreme ray
    fl = face_lattice(M([[1, 0, 2], [0, 1, 0]]))
    assert not fl.robustly_generated
    # interior generator is fine
    fl = face_lattice(M([[1, 0, 1], [0, 1, 1]]))
    assert fl.robustly_generated
    # d = 1 short-circuits
    fl = face_lattice(M([[1, 1, -1]]))
    assert fl.robustly_generated
    # zero column in a pointed cone
    fl = face_lattice(M([[1, 0, 0], [0, 1, 0]]))
    assert not fl.robustly_generated


def test_face_order_reversal_random():
    rng = random.Random(777)
    for _ in range(10):
        d = rng.randint(2, 3)
        n = rng.randint(d, min(d + 3, 6))
        W = _random_full_rank(rng, d, n)
        fl = face_lattice(W)
        for t1 in fl.faces:
            for t2 in fl.faces:
                face1 = set(t1.zero_set())
                face2 = set(t2.zero_set())
                if t2.leq(t1):
                    assert face1 <= face2  # order reversed


def test_minty_examples():
    ker = kernel_basis(M([[1, 1, -1]]))
    wit = minty_alternative(ker, S("++-"))
    assert wit.branch == "orthogonal"
    assert sign_of(wit.vector).leq(S("++-"))
    assert dot(wit.vector, vec([1, 0, 1])) == 0 and dot(wit.vector, vec([0, 1, 1])) == 0

    full = SubspaceBasis(2, (vec([1, 0]), vec([0, 1])))
    wit = minty_alternative(full, S("+-"))
    assert wit.branch == "subspace" and wit.vector[0] > 0 and wit.vector[1] < 0

    wit = minty_alternative(SubspaceBasis(1, ()), S("+"))
    assert wit.branch == "orthogonal" and wit.vector[0] > 0


def test_minty_totality_random():
    rng = random.Random(909)
    for _ in range(8):
        n = rng.randint(2, 4)
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
                assert subspace_contains(basis, wit.vector)
                for i in sigma.plus_set():
                    assert wit.vector[i] > 0
                for i in sigma.minus_set():
                    assert wit.vector[i] < 0
            else:
                assert not all(x == 0 for x in wit.vector)
                assert sign_of(wit.vector).leq(sigma)
                for b in basis.vectors:
                    assert dot(wit.vector, b) == 0


def test_public_calls_share_one_table_per_matrix_object(monkeypatch):
    built = []

    def counted(W):
        built.append(W)
        return maximal_minor_signs(W)

    monkeypatch.setattr(expbij.matroid, "maximal_minor_signs", counted)
    W = M([[1, 0, -1, 2], [0, 1, 1, -1]])
    om = oriented_matroid(W)
    chi = chirotope(W)
    results = (covectors(W), vectors(W), face_lattice(W), cocircuits(W), circuits(W))
    assert len(built) == 1 and oriented_matroid(W) is om and chi is om.chirotope
    assert results[3] == cocircuits_from_chirotope(chi)
    # an equal but distinct matrix object gets its own OrientedMatroid and table
    twin = M(W.row_tuples)
    assert twin == W and oriented_matroid(twin) is not om
    assert chirotope(twin) == chi and covectors(twin) == results[0]
    assert len(built) == 2
    # OrientedMatroid itself keeps no cache outside the object
    assert OrientedMatroid(W).chirotope == chi and len(built) == 3


def test_shared_oriented_matroid_dies_with_its_matrix():
    # no reference cycle: without the cyclic collector the OrientedMatroid
    # goes when the matrix does, and a spec's go when the spec does
    enabled = gc.isenabled()
    gc.disable()
    try:
        W = M([[1, 0, -1, 2], [0, 1, 1, -1]])
        covectors(W)
        ref = weakref.ref(oriented_matroid(W))
        del W
        assert ref() is None
        spec = ExponentialMapSpec(M([[1, 0, -1], [0, 1, -1]]), M([[1, 0, -1], [0, 1, -1]]))
        condition_ii(spec)
        ref = weakref.ref(spec._om(spec.exponents))
        assert spec._om(spec.coeff) is ref()  # W = Wt: one object, by value
        del spec
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_echelon_reads_match_the_bareiss_oracles():
    # rank, the row basis and so every sign set come from one integer
    # echelon per matrix; the Bareiss elimination they replaced must agree
    mats = [m for spec in _corpus(200) + _zero_heavy_corpus(60) for m in (spec.coeff, spec.exponents)]
    for W in _oracle_matrices(120):  # and the same with a zero row inserted
        mats += [W, M(W.row_tuples[:1] + ((0,) * W.cols,) + W.row_tuples[1:])]
    kinds = Counter()
    for W in mats + [M([[0, 0, 0], [0, 0, 0]])]:
        r = rank(W)
        assert r == bareiss_rank(W), W
        if r == 0:
            with pytest.raises(InputError):
                OrientedMatroid(W)
            continue
        om, ref = OrientedMatroid(W), OrientedMatroid(bareiss_row_basis(W))
        assert om.W.rows == ref.W.rows == r and om.d == W.rows
        assert om.circuit_masks == ref.circuit_masks, W
        assert om.cocircuit_masks == ref.cocircuit_masks, W
        assert om.covector_masks == ref.covector_masks, W
        assert om.vector_masks == ref.vector_masks, W
        assert om.nonneg_covector_masks == ref.nonneg_covector_masks, W
        kinds["rank-deficient" if r < W.rows else "full rank"] += 1
        kinds["zero row"] += any(not any(row) for row in W.row_tuples)
        kinds["fraction"] += any(x.denominator > 1 for row in W.row_tuples for x in row)
    assert all(kinds[k] >= 30 for k in ("rank-deficient", "full rank", "zero row", "fraction")), kinds


def test_orthogonal_point_matches_the_kernel_basis_oracle():
    # the closure witness of every failing cc and cc_prime in the digest
    # corpora, and minty_alternative's orthogonal branch on the acceptance
    # suite's subspaces, are exactly the LP's answer over the Fraction kernel
    # basis of the kernel basis
    seen = Counter()
    for key, rep in _analyses().items():
        for cond, second in (("cc", rep.canonical_exponents), ("cc_prime", rep.canonical_coeff)):
            result = rep.conditions[cond]
            if not result.fails:
                continue
            x = pack(SignVector.from_string(result.certificate["excluded_sign_vector"]))
            w = OrientedMatroid(second).orthogonal_point(x)
            assert w == orthogonal_witness_oracle(kernel_basis(second), x), (key, cond)
            assert [str(a) for a in w] == result.certificate["orthogonal_witness"], (key, cond)
            seen[cond] += 1
    for basis in minty_bases():
        for sigma in all_sign_vectors(basis.ambient_dim):
            if sigma.is_zero():
                continue
            wit = minty_alternative(basis, sigma)
            if wit.branch == "orthogonal":
                assert wit.vector == orthogonal_witness_oracle(basis, pack(sigma)), (basis, sigma)
                seen["minty" if basis.dim else "minty, empty basis"] += 1
    assert len(seen) == 4, seen
