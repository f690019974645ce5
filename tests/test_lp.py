import random
from fractions import Fraction
from itertools import product

from expbij.linalg import RationalMatrix, vec
from expbij.lp import (
    Rel,
    SignSystem,
    check_witness,
    feasible,
    make_system,
    positive_kernel_vector,
    realize_kernel_sign,
    realize_sign_vector,
    simplex_max,
)
from expbij.signs import SignVector, all_sign_vectors, sign_of

S = SignVector.from_string


def test_simplex_basic():
    # max x subject to x <= 5 (x + s = 5)
    status, x, val = simplex_max([[1, 1]], [5], [1, 0])
    assert status == "optimal" and val == 5 and x[0] == 5

    # infeasible: x = -1, x >= 0
    status, _, _ = simplex_max([[1]], [-1], [0])
    # b is sign-flipped to 1 with row -x = 1, infeasible over x >= 0
    assert status == "infeasible"

    # unbounded: max x, no constraints binding
    status, _, _ = simplex_max([[1, -1]], [0], [1, 0])
    assert status == "unbounded"


def test_feasible_examples():
    # {x1 > 0, x1 < 0} infeasible
    sys_ = make_system(1, [((1,), Rel.GT), ((1,), Rel.LT)])
    assert feasible(sys_) is None

    # {x1 > 0} feasible with slack
    wit = feasible(make_system(1, [((1,), Rel.GT)]))
    assert wit is not None and wit.point[0] >= wit.slack > 0

    # realize covector (0,+,-) for rows of [[1,0,-1],[0,1,-1]]
    W = RationalMatrix([[1, 0, -1], [0, 1, -1]])
    x = realize_sign_vector(W, S("0+-"))
    assert x is not None
    assert sign_of(W.transpose_vec(x)) == S("0+-")


def test_feasible_with_equality_groups():
    # rows must share a value, ordered above a third row; the shared value is
    # an explicit EQ difference row
    sys_ = make_system(2, [((1, -1), Rel.EQ), ((1, 0), Rel.GT), ((0, 1), Rel.GT),
                           ((1, 1), Rel.GT)])
    wit = feasible(sys_)
    assert wit is not None and check_witness(sys_, wit)
    assert wit.point[0] == wit.point[1] > 0


def test_witness_tamper_detection():
    sys_ = make_system(2, [((1, 0), Rel.GT), ((0, 1), Rel.EQ)])
    wit = feasible(sys_)
    assert wit is not None and check_witness(sys_, wit)
    bad = type(wit)((wit.point[0], wit.point[1] + 1), wit.slack)
    assert not check_witness(sys_, bad)


def test_realize_sign_vector_examples():
    ident = RationalMatrix([[1, 0], [0, 1]])
    x = realize_sign_vector(ident, S("+-"))
    assert x is not None and x[0] > 0 and x[1] < 0

    row = RationalMatrix([[1, 1, -1]])
    x = realize_sign_vector(row, S("++-"))
    assert x is not None and x[0] > 0

    W = RationalMatrix([[1, 0, -1], [0, 1, -1]])
    assert realize_sign_vector(W, S("+00")) is None  # not a covector


def test_realize_matches_grid_enumeration():
    # covectors of a 2x3 configuration, brute-forced over a rational grid
    W = RationalMatrix([[1, 0, -1], [0, 1, -1]])
    grid_covectors = set()
    for a, b in product(range(-3, 4), repeat=2):
        grid_covectors.add(sign_of(W.transpose_vec(vec([a, b]))))
    for tau in all_sign_vectors(3):
        x = realize_sign_vector(W, tau)
        if tau in grid_covectors:
            assert x is not None and sign_of(W.transpose_vec(x)) == tau
        else:
            assert x is None


def test_positive_kernel_vector():
    W = RationalMatrix([[1, 1, -1]])
    v = positive_kernel_vector(W, {0, 2})
    assert v is not None
    assert W.mat_vec(v) == (0,) and v[0] > 0 and v[1] == 0 and v[2] > 0
    assert positive_kernel_vector(W, {0}) is None
    assert positive_kernel_vector(W, {0, 1}) is None


def test_realize_kernel_sign():
    W = RationalMatrix([[1, 1, -1]])
    v = realize_kernel_sign(W, S("+-0"))
    assert v is not None and sign_of(v) == S("+-0") and W.mat_vec(v) == (0,)
    assert realize_kernel_sign(W, S("++0")) is None


def test_random_strict_systems_sound_and_grid_complete():
    rng = random.Random(424242)
    for _ in range(40):
        dim = rng.randint(1, 3)
        nrows = rng.randint(1, 4)
        forms = [vec([rng.randint(-2, 2) for _ in range(dim)]) for _ in range(nrows)]
        rels = [rng.choice([Rel.EQ, Rel.GT, Rel.LT, Rel.GE, Rel.LE]) for _ in range(nrows)]
        sys_ = SignSystem(dim, tuple(forms), tuple(rels))
        wit = feasible(sys_)
        if wit is not None:
            assert check_witness(sys_, wit)
        else:
            # one-sided completeness: no grid point may satisfy the system
            for point in product([Fraction(k, 2) for k in range(-4, 5)], repeat=dim):
                vals = [sum(a * p for a, p in zip(f, point)) for f in forms]
                ok = all(
                    (r is Rel.EQ and v == 0)
                    or (r is Rel.GE and v >= 0)
                    or (r is Rel.LE and v <= 0)
                    or (r is Rel.GT and v > 0)
                    or (r is Rel.LT and v < 0)
                    for v, r in zip(vals, rels)
                )
                assert not ok, f"grid point {point} satisfies a system reported infeasible"
