import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from expbij.linalg import RationalMatrix, SubspaceBasis, dot, kernel_basis, rank, row_space_basis, vec
from expbij.matroid import (
    OrientedMatroid,
    chirotope,
    circuits,
    cocircuits,
    cocircuits_from_chirotope,
    conformal_decompose,
    covectors,
    face_lattice,
    is_interior_point,
    minty_alternative,
    vectors,
)
from expbij.signs import (
    EnumerationCap,
    SignVector,
    all_sign_vectors,
    minimal_support_members,
    nonneg_part,
    orthogonal_set,
    sign_of,
)

S = SignVector.from_string
M = RationalMatrix


def _random_full_rank(rng, d, n):
    while True:
        mat = M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)])
        if rank(mat) == d:
            return mat


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
            ker = kernel_basis(W.column_submatrix(J))
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
        assert OrientedMatroid(W).circuits == _value_circuits(chi), W
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
        om = OrientedMatroid(W)
        assert om.nonneg_covectors() == nonneg_part(om.covectors()), W
        assert om.face_lattice().faces == om.nonneg_covectors()
        checked += 1
    assert kinds == {"lifted", "deficient", "full rank"}
    with pytest.raises(EnumerationCap):
        OrientedMatroid(M([[1, 2, 3]])).nonneg_covectors(cap=2)


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
    om = OrientedMatroid(M([[1, 0, -1], [0, 1, -1]]))
    assert om.circuits == {S("+++"), S("---")}
    assert om.cocircuits == cocircuits_from_chirotope(om.chirotope)
    assert SignVector.zero(3) in om.vectors() and SignVector.zero(3) in om.covectors()
    assert om.face_lattice().faces == nonneg_part(om.covectors())
    # each piece is computed once and then shared
    assert om.covectors() is om.covectors() and om.face_lattice() is om.face_lattice()
    # a rank-deficient matrix has the data of its row space
    assert OrientedMatroid(M([[1, 0, -1], [0, 1, -1], [1, 1, -2]])).circuits == om.circuits


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
        circ = circuits(W)
        dim_ker = n - d
        for tau in vectors(W):
            if tau.is_zero():
                continue
            parts = conformal_decompose(W, tau, circ)
            assert len(parts) <= min(dim_ker, len(tau.support_set()))
            for rho in parts:
                assert rho.leq(tau)


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
                assert basis.contains(wit.vector)
                for i in sigma.plus_set():
                    assert wit.vector[i] > 0
                for i in sigma.minus_set():
                    assert wit.vector[i] < 0
            else:
                assert not all(x == 0 for x in wit.vector)
                assert sign_of(wit.vector).leq(sigma)
                for b in basis.vectors:
                    assert dot(wit.vector, b) == 0


def test_is_interior_point_examples():
    ident = M([[1, 0], [0, 1]])
    assert is_interior_point(ident, vec([1, 1]))
    assert not is_interior_point(ident, vec([1, 0]))
    assert not is_interior_point(ident, vec([-1, 1]))

    W = M([[1, 0, -1], [0, 1, 0]])
    assert is_interior_point(W, vec([0, 1]))
    assert not is_interior_point(W, vec([1, 0]))

    # full space: everything is interior
    assert is_interior_point(M([[1, -1, 0, 0], [0, 0, 1, -1]]), vec([5, -7]))
