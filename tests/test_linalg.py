import json
import random
from collections import Counter
from fractions import Fraction

import pytest

import expbij.linalg
from expbij.analyzer import analyze
from expbij.linalg import (
    InputError,
    RationalMatrix,
    SubspaceBasis,
    _int_det,
    dot,
    frac,
    frac_str,
    kernel_basis,
    matrix_with_kernel,
    maximal_minor_signs,
    maximal_minors,
    rank,
    rref,
    vec,
)
from expbij.matroid import OrientedMatroid, chirotope, covectors, oriented_matroid
from expbij.report import build_report, canonical_json, verify_certificate
from sign_oracles import (
    bareiss_rank,
    intersection_dim,
    leibniz_det,
    row_space_basis,
    same_subspace,
    subspace_contains,
)
from test_analyzer import EX1, _corpus, _random_full_rank


def M(entries):
    return RationalMatrix(entries)


def test_frac_parsing():
    assert frac(3) == Fraction(3)
    assert frac("2/4") == Fraction(1, 2)  # normalized on load
    assert frac("-7/3") == Fraction(-7, 3)
    assert frac_str(Fraction(-7, 3)) == "-7/3"
    assert frac_str(Fraction(4, 2)) == "2"
    with pytest.raises(InputError):
        frac("1/0")
    with pytest.raises(InputError):
        frac("1/-2")
    for bad in ("x", "1_000", "\u0663", "3/0_1", "1//2", "1/2/3", "", "+", "1/", "9" * 5000):
        with pytest.raises(InputError):
            frac(bad)
    assert frac(" -3/+6 ") == Fraction(-1, 2)


def test_rank_examples():
    assert rank(M([[1, 0], [0, 1]])) == 2
    assert rank(M([[1, 1, -1]])) == 1
    # third row is the sum of the first two
    assert rank(M([[1, 0, -1], [0, 1, -1], [1, 1, -2]])) == 2


def test_kernel_basis_examples():
    B = kernel_basis(M([[1, 1, -1]]))
    assert B.dim == 2
    for v in B.vectors:
        assert M([[1, 1, -1]]).mat_vec(v) == (0,)
    # same subspace as the stated basis
    assert same_subspace(B, SubspaceBasis(3, (vec([1, 0, 1]), vec([0, 1, 1]))))

    assert kernel_basis(M([[1, 0], [0, 1]])).dim == 0

    B2 = kernel_basis(M([[1, 0, -1]]))
    assert B2.dim == 2
    assert subspace_contains(B2, vec([1, 0, 1]))
    assert subspace_contains(B2, vec([0, 1, 0]))


def test_row_space_basis_examples():
    B = row_space_basis(M([[1, 1, -1]]))
    assert B.dim == 1 and subspace_contains(B, vec([1, 1, -1]))

    B = row_space_basis(M([[1, 0], [0, 1]]))
    assert B.vectors == (vec([1, 0]), vec([0, 1]))

    W = M([[1, 0, -1], [0, 1, -1]])
    rows = row_space_basis(W)
    ker = kernel_basis(W)
    assert rows.dim == 2 and ker.dim == 1
    for u in rows.vectors:
        for v in ker.vectors:
            assert sum(a * b for a, b in zip(u, v)) == 0


def test_maximal_minors_examples():
    mins = maximal_minors(M([[1, 0, -1], [0, 1, -1]]))
    assert mins == {(0, 1): 1, (0, 2): -1, (1, 2): 1}

    assert maximal_minors(M([[1, 0], [0, 1]])) == {(0, 1): 1}

    mins = maximal_minors(M([[1, 1, -1]]))
    assert mins == {(0,): 1, (1,): 1, (2,): -1}

    # cofactor oracle on the first example
    W = M([[1, 0, -1], [0, 1, -1]])
    for (i, j), val in maximal_minors(W).items():
        a, b = W.column(i), W.column(j)
        assert val == a[0] * b[1] - a[1] * b[0]


def test_maximal_minor_signs_match_bareiss_minors():
    # the integer table against the signs of the Bareiss minors, on matrices
    # of every shape the package hands it
    rng = random.Random(27182)
    kinds = Counter()
    for t in range(320):
        d = rng.randint(1, 6)
        n = d if t % 6 == 0 else rng.randint(d, 10)
        rational = t % 4 == 1
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if rational else rng.randint(-2, 2)
                 for _ in range(n)] for _ in range(d)]
        if n > 1 and t % 5 == 2:
            j, k = rng.sample(range(n), 2)
            for row in rows:
                row[j] = 0 if t % 2 else row[k]
        if t % 7 == 3 and n < 10:  # the lifted form newton reads, [[Wt, 0], [1^T, 1]]
            rows = [row + [0] for row in rows] + [[1] * (n + 1)]
            kinds["lifted"] += 1
        mat = M(rows)
        signs = maximal_minor_signs(mat)
        minors = maximal_minors(mat)
        # keyed by column mask, one entry per nonzero minor and none for a zero one
        assert signs == {sum(1 << j for j in I): (m > 0) - (m < 0) for I, m in minors.items() if m}, mat
        assert all(type(s) is int and s in (1, -1) for s in signs.values())
        kinds["zero minor"] += len(signs) < len(minors)
        kinds[f"d={min(mat.rows, 6)}"] += 1
        kinds["square" if mat.rows == mat.cols else "wide"] += 1
        kinds["rational" if rational else "integer"] += 1
        columns = [mat.column(j) for j in range(mat.cols)]
        kinds["zero column"] += any(not any(c) for c in columns)
        kinds["repeated column"] += len(set(columns)) < len(columns)
        kinds["full rank" if rank(mat) == mat.rows else "rank-deficient"] += 1
    assert all(kinds[k] for k in ("lifted", "square", "wide", "rational", "integer", "zero column",
                                  "zero minor", "repeated column", "full rank", "rank-deficient",
                                  *(f"d={d}" for d in range(1, 7)))), kinds
    with pytest.raises(InputError):
        maximal_minor_signs(M([[1], [2]]))


def test_matrix_with_kernel_examples():
    B = SubspaceBasis(3, (vec([1, 0, 1]), vec([0, 1, 1])))
    W = matrix_with_kernel(B)
    assert W.rows == 1 and W.cols == 3
    for v in B.vectors:
        assert W.mat_vec(v) == (0,)
    # proportional to (1,1,-1)
    r = W.row(0)
    assert r[0] != 0 and (r[1] / r[0], r[2] / r[0]) == (1, -1)

    W = matrix_with_kernel(SubspaceBasis(2, ()))
    assert W.rows == 2 and W.det() != 0

    W = matrix_with_kernel(SubspaceBasis(2, (vec([1, 1]),)))
    assert W.rows == 1
    assert W.row(0)[0] == -W.row(0)[1] != 0


def test_matrix_with_kernel_rejects_dependent():
    with pytest.raises(InputError):
        SubspaceBasis(3, (vec([1, 0, 1]), vec([2, 0, 2])))


def test_rank_nullity_and_kernel_roundtrip():
    rng = random.Random(20240811)
    for _ in range(60):
        d = rng.randint(1, 4)
        n = rng.randint(d, d + 4)
        mat = _random_full_rank(rng, d, n)
        ker = kernel_basis(mat)
        assert rank(mat) + ker.dim == n  # rank-nullity, exact
        assert ker.dim == 0 or bareiss_rank(RationalMatrix(ker.vectors)) == ker.dim  # independent
        for v in ker.vectors:
            assert all(x == 0 for x in mat.mat_vec(v))
        if ker.dim < n:
            W2 = matrix_with_kernel(ker)
            assert same_subspace(kernel_basis(W2), ker)


def test_minors_row_permutation_single_global_sign():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(2, 4)
        n = rng.randint(d, d + 3)
        mat = _random_full_rank(rng, d, n)
        perm = list(range(d))
        rng.shuffle(perm)
        permuted = M([mat.row(i) for i in perm])
        base = maximal_minors(mat)
        other = maximal_minors(permuted)
        ratios = {key for key in base if base[key] != 0}
        signs = {1 if other[key] / base[key] > 0 else -1 for key in ratios}
        assert len(signs) <= 1
        for key in base:
            if base[key] == 0:
                assert other[key] == 0


def test_det_bareiss_against_cofactor():
    rng = random.Random(99)
    for _ in range(40):
        d = rng.randint(1, 3)
        mat = M([[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)])
        if d == 1:
            expected = mat.entry(0, 0)
        elif d == 2:
            expected = mat.entry(0, 0) * mat.entry(1, 1) - mat.entry(0, 1) * mat.entry(1, 0)
        else:
            expected = (
                mat.entry(0, 0) * (mat.entry(1, 1) * mat.entry(2, 2) - mat.entry(1, 2) * mat.entry(2, 1))
                - mat.entry(0, 1) * (mat.entry(1, 0) * mat.entry(2, 2) - mat.entry(1, 2) * mat.entry(2, 0))
                + mat.entry(0, 2) * (mat.entry(1, 0) * mat.entry(2, 1) - mat.entry(1, 1) * mat.entry(2, 0))
            )
        assert mat.det() == expected and type(mat.det()) is Fraction
        assert all(type(v) is Fraction for v in maximal_minors(mat).values())


def test_int_det_matches_the_leibniz_determinant():
    # square integer matrices whose Bareiss elimination must swap rows (a zero
    # in the first pivot place) and singular ones (a row combining others, or
    # a zero row)
    rng = random.Random(39)
    kinds = Counter()
    for k in range(240):
        d = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(d)] for _ in range(d)]
        if d > 1 and k % 4 == 0:
            rows[0][0] = 0
        elif d > 1 and k % 4 == 1:
            a, b = rng.sample(range(d), 2)
            rows[a] = [2 * x - 3 * y for x, y in zip(rows[b], rows[rng.randrange(d)])]
        want = leibniz_det(M(rows))
        assert _int_det(rows) == want, rows
        kinds["singular" if want == 0 else "nonsingular"] += 1
        kinds["swap"] += rows[0][0] == 0 and want != 0  # the first pivot needs a swap
    assert _int_det([[0, 1], [1, 0]]) == -1 and _int_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert all(kinds[key] >= 30 for key in ("singular", "nonsingular", "swap")), kinds


def test_matrix_json_roundtrip_and_validation():
    mat = M([[1, "1/2"], ["-3/4", 0]])
    obj = mat.to_json_dict()
    assert obj == {"rows": 2, "cols": 2, "entries": [[1, "1/2"], ["-3/4", 0]]}
    assert RationalMatrix.from_json_dict(obj) == mat
    with pytest.raises(InputError):
        RationalMatrix.from_json_dict({"rows": 3, "cols": 2, "entries": [[1, 2]]})
    with pytest.raises(InputError):
        RationalMatrix.from_json_dict({"entries": [[1, "1/0"]]})
    with pytest.raises(InputError):
        RationalMatrix.from_json_dict({"entries": []})


def test_intersection_dim():
    A = SubspaceBasis(3, (vec([1, 0, 0]), vec([0, 1, 0])))
    B = SubspaceBasis(3, (vec([0, 1, 0]), vec([0, 0, 1])))
    assert intersection_dim(A, B) == 1
    assert intersection_dim(A, SubspaceBasis(3, ())) == 0


# Reference oracle: the Fraction Gauss-Jordan that the integer-row rref
# replaced. The reduced row echelon form is unique, so both must agree exactly.

def _fraction_rref(M):
    m = [list(r) for r in M.row_tuples]
    nr, nc = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def _random_rref_input(rng):
    """A random matrix of one of the shapes the elimination must handle."""
    kind = rng.choice(["tall", "wide", "square", "deficient", "zero-lines", "rational"])
    d, n = rng.randint(1, 5), rng.randint(1, 6)
    if kind == "tall":
        d = n + rng.randint(1, 3)
    elif kind == "wide":
        n = d + rng.randint(1, 4)
    elif kind == "square":
        n = d
    entry = lambda: rng.randint(-4, 4)
    if kind == "rational":
        entry = lambda: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 6]))
    rows = [[entry() for _ in range(n)] for _ in range(d)]
    if kind == "deficient" and d > 1:  # a combination of two other rows
        f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows[rng.randrange(d)] = [a + f * b for a, b in zip(rows[0], rows[-1])]
    if kind == "zero-lines":
        rows[rng.randrange(d)] = [0] * n
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    return kind, M(rows)


def test_rref_matches_fraction_oracle():
    rng = random.Random(19680101)
    kinds = set()
    for _ in range(360):
        kind, mat = _random_rref_input(rng)
        got = rref(mat)
        assert got == _fraction_rref(mat), mat
        assert all(type(x) is Fraction for row in got[0] for x in row)
        # the canonical kernel vectors: 1 at a free column f, minus the
        # reduced entries of column f at the pivot columns
        rows, pivots = got
        want = tuple(tuple(-rows[pivots.index(j)][f] if j in pivots else Fraction(j == f) for j in range(mat.cols))
                     for f in range(mat.cols) if f not in pivots)
        kernel = kernel_basis(mat).vectors
        assert kernel == want and all(type(x) is Fraction for v in kernel for x in v), mat
        kinds.add(kind)
        if rank(mat) < min(mat.rows, mat.cols):
            kinds.add("rank-deficient")
        if any(x.denominator > 1 for row in mat.row_tuples for x in row):
            kinds.add("has-fractions")
    assert kinds == {"tall", "wide", "square", "deficient", "zero-lines", "rational",
                     "rank-deficient", "has-fractions"}


def test_products_match_fraction_sums():
    rng = random.Random(31)
    entry = lambda: rng.choice([0, 0, 1, -2, Fraction(1, 2), Fraction(-5, 6), Fraction(7, 4)])
    assert dot((), ()) == 0 and type(dot((), ())) is Fraction
    zero = dot(vec([0, 0]), vec(["1/2", 3]))
    assert zero == 0 and type(zero) is Fraction
    with pytest.raises(InputError):
        dot(vec([1]), vec([1, 2]))
    for _ in range(200):
        d, n, k = rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 4)
        A = M([[entry() for _ in range(n)] for _ in range(d)])
        B = M([[entry() for _ in range(k)] for _ in range(n)])
        u, x = vec([entry() for _ in range(n)]), vec([entry() for _ in range(d)])
        got = dot(A.row(0), u)
        assert type(got) is Fraction and got == sum(a * b for a, b in zip(A.row(0), u))
        assert A.mat_vec(u) == tuple(sum(a * b for a, b in zip(row, u)) for row in A.row_tuples)
        want = tuple(sum(A.entry(i, j) * x[i] for i in range(d)) for j in range(n))
        got = A.transpose_vec(x)
        assert got == want and all(type(t) is Fraction for t in got)
        prod = A.matmul(B)
        assert prod == M([[sum(A.entry(i, l) * B.entry(l, j) for l in range(n)) for j in range(k)]
                          for i in range(d)])
        assert hash(prod) == hash(M(prod.row_tuples))


def test_each_matrix_object_is_eliminated_once(monkeypatch):
    # rank, rref, kernel_basis, the minor table, the row basis and the
    # oriented matroid all read one echelon per matrix object; a kernel basis
    # is independent by construction, so its own matrix is eliminated only
    # when it is read
    calls = []
    core = expbij.linalg._rref_ints
    monkeypatch.setattr(expbij.linalg, "_rref_ints", lambda m, nc: calls.append(nc) or core(m, nc))
    for W in (M([[1, 0, -1, 2], [0, 1, 1, -1]]), M([[2, 4, 6], [1, 2, 3]]), M([["1/2", 0], [0, 3]]),
              M([[0, 0, 0], [1, -1, 0], [0, 0, 0]])):
        calls.clear()
        rank(W), rref(W), maximal_minor_signs(W), covectors(W)
        for om in (OrientedMatroid(W), oriented_matroid(W)):
            om.minor_signs, om.cocircuit_masks, om.covector_masks, om.cone
        if rank(W) == W.rows:
            chirotope(W)
        assert len(calls) == 1, W
        ker = kernel_basis(W)
        assert len(calls) == 1, W
        if ker.dim:  # the basis of the kernel's complement that a closure witness uses
            kernel_basis(ker.matrix)
        assert len(calls) == 1 + (ker.dim > 0), W

    # whole operations: the canonical matrices share the input matrices'
    # echelons, the verifier eliminates each matrix it reads once, and each
    # failing closure certificate eliminates the matrix of one kernel basis
    for spec, pins in ((EX1, (2, 0, 2)), (_corpus(3)[2], (3, 0, 2))):
        calls.clear()
        counts = []
        rep = analyze(spec)
        counts.append(len(calls))
        report = json.loads(canonical_json(build_report(rep, {})))
        counts.append(len(calls) - sum(counts))
        assert verify_certificate(report)
        counts.append(len(calls) - sum(counts))
        assert all(got <= pin for got, pin in zip(counts, pins)), (counts, pins)
