import random
import textwrap
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

import pytest

from expbij import analyzer, lp
from expbij.linalg import InputError, InternalInconsistency, RationalMatrix, vec
from expbij.lp import (
    Rel,
    SignSystem,
    check_witness,
    feasible,
    make_system,
    positive_kernel_vector,
    realize_conformal_covector,
    realize_kernel_sign,
    realize_sign_vector,
)
from expbij.signs import SignVector, pack, sign_of
from sign_oracles import all_sign_vectors
from test_analyzer import SV_ALPHAS, _corpus, run_python, sv_example
from test_golden import PKG, wl

S = SignVector.from_string


def _point(T, basis, n):
    """The n-variable point of lp._simplex's final basis rows."""
    x = [Fraction(0)] * n
    for row, j in zip(T, basis):
        x[j] = Fraction(row[-1], row[j])
    return x


def test_simplex_basic():
    # max x subject to x + s = 5
    T, basis = lp._simplex([[1, 1, 5]], [1, 0])
    assert _point(T, basis, 2) == [5, 0]
    # no system feasible builds is infeasible (-x = 1 over x >= 0) or
    # unbounded (max x subject to x - y = 0)
    for rows, c in (([[-1, 1]], [0]), ([[1, -1, 0]], [1, 0])):
        with pytest.raises(InternalInconsistency):
            lp._simplex(rows, c)


def test_feasible_examples():
    # {x1 > 0, x1 < 0} infeasible
    sys_ = make_system(1, [((1,), Rel.GT), ((1,), Rel.LT)])
    assert feasible(sys_) is None

    # {x1 > 0} feasible with slack
    wit = feasible(make_system(1, [((1,), Rel.GT)]))
    assert wit is not None and wit.point[0] >= wit.slack > 0

    # realize covector (0,+,-) for rows of [[1,0,-1],[0,1,-1]]
    W = RationalMatrix([[1, 0, -1], [0, 1, -1]])
    x = realize_sign_vector(W, pack(S("0+-")), 0b111)
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
    x = realize_sign_vector(ident, pack(S("+-")), 0b11)
    assert x is not None and x[0] > 0 and x[1] < 0

    row = RationalMatrix([[1, 1, -1]])
    x = realize_sign_vector(row, pack(S("++-")), 0b111)
    assert x is not None and x[0] > 0

    W = RationalMatrix([[1, 0, -1], [0, 1, -1]])
    assert realize_sign_vector(W, pack(S("+00")), 0b111) is None  # not a covector
    y = realize_sign_vector(W, pack(S("+00")), 0b001)  # columns 2 and 3 free
    assert y is not None and W.transpose_vec(y)[0] > 0
    # a nonzero covector conformal to +-+, and none conformal to ++0
    y = realize_conformal_covector(W, pack(S("+-+")))
    assert y is not None and any(W.transpose_vec(y)) and sign_of(W.transpose_vec(y)).leq(S("+-+"))
    assert realize_conformal_covector(W, pack(S("++0"))) is None
    for bad in (1 << 6, 1 | 1 << 3):  # a bit beyond 2n; + and - at position 0
        with pytest.raises(InputError):
            realize_sign_vector(W, bad, 0b111)


def test_realize_matches_grid_enumeration():
    # covectors of a 2x3 configuration, brute-forced over a rational grid
    W = RationalMatrix([[1, 0, -1], [0, 1, -1]])
    grid_covectors = set()
    for a, b in product(range(-3, 4), repeat=2):
        grid_covectors.add(sign_of(W.transpose_vec(vec([a, b]))))
    for tau in all_sign_vectors(3):
        x = realize_sign_vector(W, pack(tau), 0b111)
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
    v = realize_kernel_sign(W, pack(S("+-0")), 0b111)
    assert v is not None and sign_of(v) == S("+-0") and W.mat_vec(v) == (0,)
    assert realize_kernel_sign(W, pack(S("++0")), 0b111) is None


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


# Reference oracle: the Fraction-tableau Bland simplex that the integer core
# replaced. Both must take the same pivots and reach the same optimum, and the
# core must raise wherever the oracle finds no optimum.

def _fraction_pivot(A, b, obj, basis, r, j):
    inv = A[r][j]
    A[r] = [x / inv for x in A[r]]
    b[r] /= inv
    for i in range(len(A)):
        if i != r and A[i][j] != 0:
            f = A[i][j]
            A[i] = [x - f * y for x, y in zip(A[i], A[r])]
            b[i] -= f * b[r]
    f = obj[j]
    obj[:] = [x - f * y for x, y in zip(obj, A[r])]
    basis[r] = j


def _fraction_run_simplex(A, b, obj, basis):
    while True:
        enter = next((j for j in range(len(obj)) if obj[j] > 0), None)
        if enter is None:
            return "optimal"
        ratios = [(b[r] / A[r][enter], basis[r], r) for r in range(len(A)) if A[r][enter] > 0]
        if not ratios:
            return "unbounded"
        _fraction_pivot(A, b, obj, basis, min(ratios)[2], enter)


def _fraction_simplex_max(A_rows, b_vals, c_vals):
    """max c.x subject to A x = b, x >= 0: (status, x, value)."""
    m, n = len(A_rows), len(c_vals)
    A = [[Fraction(x) for x in row] for row in A_rows]
    b = [Fraction(x) for x in b_vals]
    for r in range(m):
        if b[r] < 0:
            A[r], b[r] = [-x for x in A[r]], -b[r]
        A[r] += [Fraction(int(i == r)) for i in range(m)]
    basis = list(range(n, n + m))
    obj = [sum(row[j] for row in A) for j in range(n)] + [Fraction(0)] * m
    _fraction_run_simplex(A, b, obj, basis)
    if any(basis[r] >= n and b[r] > 0 for r in range(m)):
        return "infeasible", None, None
    r = 0
    while r < len(A):
        if basis[r] >= n:
            j = next((j for j in range(n) if A[r][j] != 0), None)
            if j is None:
                del A[r], b[r], basis[r]
                continue
            _fraction_pivot(A, b, obj, basis, r, j)
        r += 1
    A = [row[:n] for row in A]
    obj = [Fraction(c) for c in c_vals]
    for row, j in zip(A, basis):
        f = obj[j]
        obj = [x - f * y for x, y in zip(obj, row)]
    if _fraction_run_simplex(A, b, obj, basis) == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        x[j] = b[r]
    return "optimal", x, sum(Fraction(c) * v for c, v in zip(c_vals, x))


def _random_lp(rng):
    """A random standard-form LP, shaped to hit degenerate, redundant-row and
    rational-entry cases as well as the three outcomes."""
    m, n = rng.randint(1, 5), rng.randint(1, 7)
    entry = lambda: rng.choice([0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    A = [[entry() for _ in range(n)] for _ in range(m)]
    shape = rng.choice(["free", "degenerate", "redundant", "feasible"])
    if shape == "feasible":  # b = A x0 for some x0 >= 0
        x0 = [rng.choice([0, 0, 1, 2, Fraction(1, 3)]) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    elif shape == "degenerate":
        b = [0] * m
    else:
        b = [rng.randint(-3, 3) for _ in range(m)]
    if shape == "redundant":  # repeat a combination of the rows, rhs included
        k = rng.choice([1, -2, Fraction(3, 2)])
        i, j = rng.randrange(m), rng.randrange(m)
        A.append([k * x + y for x, y in zip(A[i], A[j])])
        b.append(k * b[i] + b[j])
    c = [entry() for _ in range(n)]
    return A, b, c, shape


def _rational_lp(rows, c):
    """The (A, b, c) of the oracle for the int rows [A_r | b_r] of lp._simplex."""
    return [row[:-1] for row in rows], [row[-1] for row in rows], c


def _int_lp(A, b, c):
    """The int rows and costs of lp._simplex for the rational LP (A, b, c):
    every row times one lcm of the denominators in A and b, negated where
    b < 0, and the costs times the lcm of theirs. This scales every
    artificial variable alike, so the pivots are the oracle's."""
    entries = [x for row in A for x in row] + list(b)
    scale = lcm(*(Fraction(x).denominator for x in entries))
    rows = [[int(x * (scale if r >= 0 else -scale)) for x in (*row, r)] for row, r in zip(A, b)]
    scale = lcm(*(Fraction(x).denominator for x in c))
    return rows, [int(x * scale) for x in c]


@cache
def _analyzer_systems():
    """The sign systems analyze solves on sv_example at nine alphas and on the
    first 24 pairs of the random corpus (seed 90125), each with the LP that
    feasible builds for it, as (system, (A, b, c)). The kernel systems of
    realize_kernel_sign among them have dim = n and n + d forms, so n + d + 1
    LP rows; the 24th pair is the first with n = 8."""
    out, lps = [], []
    core = lp._simplex

    def recording(system):
        wit = feasible(system)
        out.append((system, lps.pop()))
        return wit

    def solve(rows, c):
        lps.append(_rational_lp(rows, c))
        return core(rows, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "_simplex", solve)
        for module in (lp, analyzer):
            mp.setattr(module, "feasible", recording)
        for spec in [sv_example(Fraction(a)) for a in SV_ALPHAS] + _corpus(24):
            analyzer.analyze(spec)
    return out


@pytest.fixture
def same_pivots(monkeypatch):
    """Records the pivots (row, entering column) of the int core and of the
    Fraction oracle, and returns a check that both took the same ones, in the
    same order, since its last call."""
    _analyzer_systems()  # solved before the recorders go in
    log = {"int": [], "fraction": []}

    def recording(pivot, key):
        def wrapped(*args):
            log[key].append(args[-2:])
            return pivot(*args)
        return wrapped

    monkeypatch.setattr(lp, "_pivot", recording(lp._pivot, "int"))
    monkeypatch.setitem(globals(), "_fraction_pivot", recording(_fraction_pivot, "fraction"))

    def check():
        same = log["int"] == log["fraction"]
        log["int"].clear()
        log["fraction"].clear()
        return same
    return check


def test_simplex_matches_fraction_oracle(same_pivots):
    # same pivots and optimum on random LPs and on the LPs feasible builds for
    # the analyzer's systems; an error where the oracle finds no optimum
    rng = random.Random(20180417)
    cases = [_random_lp(rng) for _ in range(600)]
    cases += [(A, b, c, "analyzer") for _, (A, b, c) in _analyzer_systems()]
    seen = set()
    for A, b, c, shape in cases:
        status, x, _ = _fraction_simplex_max(A, b, c)
        if status == "optimal":
            T, basis = lp._simplex(*_int_lp(A, b, c))
            assert _point(T, basis, len(c)) == x, (A, b, c)
            assert all(sum(a * xj for a, xj in zip(row, x)) == rhs for row, rhs in zip(A, b))
        else:
            with pytest.raises(InternalInconsistency):
                lp._simplex(*_int_lp(A, b, c))
        assert same_pivots(), (A, b, c)
        seen.add((shape, status))
    for shape in ("degenerate", "redundant", "feasible", "analyzer"):
        assert (shape, "optimal") in seen
    for shape in ("degenerate", "redundant"):
        assert (shape, "unbounded") in seen
    assert ("redundant", "infeasible") in seen


def test_feasible_systems_match_fraction_oracle(monkeypatch):
    # the LPs feasible() itself builds: split free variables, slacks, a margin
    calls = []
    core = lp._simplex

    def both(rows, c):
        got = T, basis = core(rows, c)
        x = _point(T, basis, len(c))
        assert ("optimal", x) == _fraction_simplex_max(*_rational_lp(rows, c))[:2]
        calls.append(got)
        return got

    monkeypatch.setattr(lp, "_simplex", both)
    rng = random.Random(8128)
    outcomes = set()
    for _ in range(150):
        dim = rng.randint(1, 4)
        nrows = rng.randint(1, 6)
        forms = [vec([rng.choice([0, 1, -1, 2, "1/2", "-3/2"]) for _ in range(dim)])
                 for _ in range(nrows)]
        rels = [rng.choice(list(Rel)) for _ in range(nrows)]
        sys_ = SignSystem(dim, tuple(forms), tuple(rels))
        wit = feasible(sys_)
        assert wit is None or check_witness(sys_, wit)
        outcomes.add(wit is not None)
    assert len(calls) == 150 and outcomes == {True, False}


# Reference construction: the Fraction rows feasible() built before its rows
# became column-scaled ints, solved by the Fraction oracle. Scaling a column by
# a positive constant leaves Bland's pivots unchanged, so both must take the
# same pivots and return the same (point, slack).

def _fraction_feasible(system):
    dim = system.dim
    strict = any(rel in lp.STRICT for rel in system.rels)
    n_slack = sum(1 for rel in system.rels if rel is not Rel.EQ)
    t_col, slack_at = 2 * dim, 2 * dim + strict
    width = slack_at + n_slack + strict
    rows, k = [], 0
    for form, rel in zip(system.forms, system.rels):
        row = [*form, *(-a for a in form)] + [Fraction(0)] * (width - 2 * dim)
        if rel is not Rel.EQ:
            row[slack_at + k] = Fraction(-1 if rel in (Rel.GE, Rel.GT) else 1)
            k += 1
        if rel is Rel.GT:
            row[t_col] = Fraction(-1)
        elif rel is Rel.LT:
            row[t_col] = Fraction(1)
        rows.append(row)
    if strict:
        row = [Fraction(0)] * width
        row[t_col] = row[slack_at + k] = Fraction(1)
        rows.append(row)
    b = [0] * len(system.forms) + [1] * strict
    c = [Fraction(int(strict and j == t_col)) for j in range(width)]
    status, x, value = _fraction_simplex_max(rows, b, c)
    if status != "optimal" or (strict and value <= 0):
        return None
    return tuple(x[j] - x[dim + j] for j in range(dim)), value if strict else Fraction(1)


def test_feasible_matches_fraction_row_construction(same_pivots):
    # random systems, then the analyzer's own, with the same pivots on both
    # constructions
    analyzer_systems = [sys_ for sys_, _ in _analyzer_systems()]

    def outcome(sys_):
        wit = feasible(sys_)
        got = None if wit is None else (wit.point, wit.slack)
        assert got == _fraction_feasible(sys_), sys_
        assert same_pivots(), sys_
        return wit is not None, any(x.denominator > 1 for f in sys_.forms for x in f)

    rng = random.Random(1968)
    entries = [0, 0, 1, -1, 2, "1/2", "-3/2", "2/3", "-1/5", "7/6"]
    outcomes = set()
    for _ in range(400):
        dim = rng.randint(1, 5)
        nrows = rng.randint(1, 7)
        forms = [vec([rng.choice(entries) for _ in range(dim)]) for _ in range(nrows)]
        rels = [rng.choice(list(Rel)) for _ in range(nrows)]
        outcomes.add(outcome(SignSystem(dim, tuple(forms), tuple(rels))))
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}
    outcomes = {outcome(sys_) for sys_ in analyzer_systems}
    assert outcomes >= {(True, True), (False, True), (True, False)}
    # the kernel systems of sv_example (n = 6, d = 3) and of an n = 8, d = 4 pair
    shapes = {(s.dim, len(s.forms)) for s in analyzer_systems}
    assert {(6, 6 + 3), (8, 8 + 4)} <= shapes


def test_witness_check_survives_python_O():
    # the re-substitution of the witness, and the simplex's checks that its LP
    # is feasible and bounded, must raise even when asserts are stripped
    code = textwrap.dedent("""
        import sys
        from expbij import lp
        from expbij.linalg import InputError, InternalInconsistency
        if sys.flags.optimize < 1 or issubclass(InternalInconsistency, InputError):
            sys.exit(2)

        def raises(f, *args):
            try:
                f(*args)
            except InternalInconsistency:
                return True
            return False

        # infeasible (-x = 1 over x >= 0) and unbounded (max x, x - y = 0)
        if not (raises(lp._simplex, [[-1, 1]], [0]) and raises(lp._simplex, [[1, -1, 0]], [1, 0])):
            sys.exit(1)
        # final basis rows [x+, x-, t, slack, margin slack | rhs] with x- = t = 1,
        # so the point is -1 against a required margin of 1
        lp._simplex = lambda rows, c: ([[0, 1, 0, 0, 0, 1], [0, 0, 1, 0, 0, 1]], [1, 2])
        sys.exit(0 if raises(lp.feasible, lp.make_system(1, [((1,), lp.Rel.GT)])) else 1)
    """)
    proc = run_python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr


# lp.feasible calls in one pass over each benchmark pool: every rank-one
# realization, a circuit's or a cocircuit's among them, is read off a line,
# so the reaction-network pass solves no LP at all
LP_CALLS_PER_PASS = {"analyze-random": 43, "iii-search": 96, "enumerate": 0, "crn-networks": 0}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_lp_calls_per_benchmark_pass(workload, monkeypatch):
    # one pass as tests/test_golden.py replays it, reading perfbench/ only
    calls = []
    for module in (lp, analyzer):
        monkeypatch.setattr(module, "feasible", lambda system: calls.append(system) or feasible(system))
    op, check = wl.operation(workload)
    for inst in wl.make_inputs(workload, 0):
        assert check(inst, op(PKG, inst)).problems == [], inst["key"]
    assert len(calls) <= LP_CALLS_PER_PASS[workload], len(calls)
