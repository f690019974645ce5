import random
from fractions import Fraction
from itertools import product

import pytest

from expbij.signs import (
    EnumerationCap,
    SignVector,
    all_sign_vectors,
    closure,
    composition_closure,
    minimal_support_members,
    nonneg_part,
    orthogonal_set,
    sign_of,
)

S = SignVector.from_string


def test_sign_of():
    assert sign_of([3, 0, Fraction(-1, 2)]) == S("+0-")
    assert sign_of([0, 0]) == S("00")
    assert sign_of([1, 1, -1]) == S("++-")


def test_string_roundtrip_and_validation():
    assert str(S("+0-")) == "+0-"
    with pytest.raises(ValueError):
        S("+x")


def test_leq_examples():
    assert S("0+0").leq(S("-++"))
    assert not S("+00").leq(S("-++"))
    for tau in all_sign_vectors(3):
        assert SignVector.zero(3).leq(tau)


def test_compose_examples():
    assert S("+0-").compose(S("0-+")) == S("+--")
    for rho in all_sign_vectors(2):
        assert SignVector.zero(2).compose(rho) == rho
        assert rho.compose(rho) == rho


def test_orthogonality_examples():
    assert S("++0").is_orthogonal(S("00+"))
    assert S("+-0").is_orthogonal(S("++0"))
    assert not S("++0").is_orthogonal(S("+00"))


def test_orthogonal_set_examples():
    assert len(orthogonal_set([SignVector.zero(2)], 2)) == 9
    assert orthogonal_set([S("++")], 2) == {S("00"), S("+-"), S("-+")}
    assert orthogonal_set(all_sign_vectors(1), 1) == {S("0")}
    with pytest.raises(EnumerationCap):
        list(all_sign_vectors(13, cap=12))


def test_closure_examples():
    assert closure([S("++")]) == {S("00"), S("+0"), S("0+"), S("++")}
    assert closure([S("0")]) == {S("0")}
    rng = random.Random(5)
    for _ in range(20):
        T = {SignVector.from_components([rng.choice((-1, 0, 1)) for _ in range(4)])
             for _ in range(rng.randint(1, 5))}
        c = closure(T)
        assert closure(c) == c  # idempotent
        assert T <= c


def test_closure_monotone():
    rng = random.Random(11)
    for _ in range(20):
        T2 = {SignVector.from_components([rng.choice((-1, 0, 1)) for _ in range(3)])
              for _ in range(rng.randint(1, 4))}
        c2 = closure(T2)
        T1 = set(rng.sample(sorted(c2, key=str), k=min(2, len(c2))))
        assert closure(T1) <= c2


def test_nonneg_part():
    assert nonneg_part([S("+-0"), S("0++")]) == {S("0++")}
    assert nonneg_part([]) == set()
    # row space of [[1,1,0],[0,1,1]] is {(a, a+b, b)}; nonneg covectors
    members = set()
    for a, b in product(range(-2, 3), repeat=2):
        members.add(sign_of([a, a + b, b]))
    assert nonneg_part(members) == {S("000"), S("0++"), S("++0"), S("+++")}


def test_minimal_support_members():
    assert minimal_support_members([S("+00"), S("++0")]) == {S("+00")}
    circuits = {S("+0+"), S("-0-"), S("0++"), S("0--"), S("+-0"), S("-+0")}
    assert minimal_support_members(circuits) == circuits
    assert minimal_support_members([S("+-0")]) == {S("+-0")}


def test_order_and_composition_algebra_exhaustive():
    all3 = list(all_sign_vectors(3))
    for tau in all3:
        assert tau.leq(tau)
    rng = random.Random(3)
    sample = rng.sample(all3, 12)
    for a in sample:
        for b in sample:
            if a.leq(b) and b.leq(a):
                assert a == b
            for c in sample:
                assert a.compose(b).compose(c) == a.compose(b.compose(c))
                if a.leq(b) and b.leq(c):
                    assert a.leq(c)


def test_subspace_orthogonal_complement_identity():
    # sign(S_perp) = sign(S)^perp for S = ker(1,1,-1), enumerated on a grid
    vectors = set()
    for a, b in product(range(-2, 3), repeat=2):
        vectors.add(sign_of([a, b, a + b]))
    covectors = set()
    for x in range(-2, 3):
        covectors.add(sign_of([x, x, -x]))
    assert orthogonal_set(vectors, 3) == covectors
    assert orthogonal_set(covectors, 3) == vectors


def test_composition_closure_generators():
    gens = {S("+0+"), S("-0-"), S("0++"), S("0--"), S("+-0"), S("-+0")}
    closed = composition_closure(gens, 3)
    # sign vectors of ker(1,1,-1): 12 nonzero + 0
    expected = set()
    for a, b in product(range(-3, 4), repeat=2):
        expected.add(sign_of([a, b, a + b]))
    assert closed == expected
    assert len(closed) == 13


def _signvector_closure(generators, n):
    """Reference oracle: the SignVector-object sweep that the packed-int
    composition_closure replaced."""
    gens = list(set(generators))
    out = {SignVector.zero(n)} | set(gens)
    frontier = list(out)
    while frontier:
        new = []
        for tau in frontier:
            for g in gens:
                c = tau.compose(g)
                if c not in out:
                    out.add(c)
                    new.append(c)
        frontier = new
    return out


def test_composition_closure_matches_signvector_oracle():
    from expbij.linalg import RationalMatrix
    from expbij.matroid import OrientedMatroid

    rng = random.Random(31337)
    kinds = set()
    for _ in range(60):
        n = rng.randint(1, 6)
        d = rng.randint(1, n)
        rows = [[rng.choice([0, 0, 1, -1, 2, -2, 3]) for _ in range(n)] for _ in range(d)]
        if rng.random() < 0.3:  # rank-deficient: add a dependent row
            rows.append([a - 2 * b for a, b in zip(rows[0], rows[-1])])
            kinds.add("dependent")
        if n > 1 and rng.random() < 0.3:
            zero = rng.randrange(n)
            for row in rows:
                row[zero] = 0
            kinds.add("zero column")
        if not any(any(row) for row in rows):
            continue
        om = OrientedMatroid(RationalMatrix(rows))
        for gens in (om.circuits, om.cocircuits):
            assert composition_closure(gens, n) == _signvector_closure(gens, n)
    assert kinds == {"dependent", "zero column"}
    assert composition_closure(set(), 2) == _signvector_closure(set(), 2) == {S("00")}
    with pytest.raises(ValueError):
        composition_closure({S("+0")}, 3)


def _packed_bfs_closure(generators, n):
    """Reference oracle: the packed-int sweep that composed every frontier
    element with every generator, before the per-zero-set restrictions."""
    full = (1 << n) - 1
    gens = [g.plus | g.minus << n for g in set(generators)]
    out = {0, *gens}
    frontier = list(out)
    while frontier:
        new = []
        for x in frontier:
            s = (x | x >> n) & full
            keep = ~(s | s << n)
            for g in gens:
                c = x | (g & keep)
                if c not in out:
                    out.add(c)
                    new.append(c)
        frontier = new
    return {SignVector(n, x & full, x >> n) for x in out}


def test_composition_closure_matches_packed_bfs_oracle():
    from expbij.linalg import RationalMatrix, rank
    from expbij.matroid import OrientedMatroid

    rng = random.Random(271828)
    kinds = set()
    for _ in range(70):
        n = rng.randint(1, 9)
        d = rng.randint(1, min(n, 5))
        rows = [[rng.choice([0, 0, 1, -1, 2, -2, 3]) for _ in range(n)] for _ in range(d)]
        if d > 1 and rng.random() < 0.3:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[-2])]
        if n > 1 and rng.random() < 0.3:
            zero = rng.randrange(n)
            for row in rows:
                row[zero] = 0
            kinds.add("zero column")
        W = RationalMatrix(rows)
        if rank(W) == 0:
            continue
        if rank(W) < d:
            kinds.add("dependent")
        if n == 9:
            kinds.add("n = 9")
        om = OrientedMatroid(W)
        for gens in (om.circuits, om.cocircuits):
            assert composition_closure(gens, n) == _packed_bfs_closure(gens, n)
    assert kinds == {"dependent", "zero column", "n = 9"}
    # arbitrary generator sets: the sweep assumes nothing about them
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = [SignVector.from_components(rng.choice((-1, 0, 0, 1)) for _ in range(n))
                for _ in range(rng.randint(0, 6))]
        assert composition_closure(gens, n) == _packed_bfs_closure(gens, n), gens
