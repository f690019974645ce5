"""Exact rational feasibility for homogeneous systems of strict/weak linear constraints.

Strict inequalities are handled by slack maximization: maximize t subject to
strict rows having margin >= t and t <= 1. Over the rationals with Bland's
pivoting rule the simplex method terminates, so feasibility is decided
exactly and every witness is an exact rational point.

One integer simplex core, `_simplex`, solves every LP. `feasible` hands it
the int rows it builds and reads the witness off the final basis rows. Those
LPs are homogeneous apart from the margin row t + s = 1, so the origin is
feasible and the margin is at most 1: every one has an optimum, and `_simplex`
treats an infeasible or unbounded LP as an internal inconsistency.

Every realization LP is built here, by one of three builders that take sign
vectors as packed ints (`plus | minus << n`, see `signs`):
`realize_kernel_sign` builds the kernel systems and `realize_sign_vector` the
covector systems, each signed on an index mask and free elsewhere, and
`realize_conformal_covector` the orthogonal branch of Minty's alternative, a
nonzero covector conformal to a sign vector (`OrientedMatroid.orthogonal_point`
reads its rows off an integer echelon). `matroid.OrientedMatroid` memoizes the
first two per argument and calls them only where this module's answer is not
known in closed form: a covector system whose points lie on one line is read
off it (`matroid.ray_point`), and a kernel system on all columns off the
circuits conformal to its sign vector when they span a simplicial cone whose
least point has margin 1 (the least point of the optimal face, so the only
vertex Bland's rule can stop at), or answered None when they do not cover it
(`matroid.OrientedMatroid._conformal_point`). `matroid` builds no LP rows itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .linalg import _ZERO, InputError, RationalMatrix, Vec, check, dot
from .signs import bits


class Rel(Enum):
    EQ = "=0"
    GT = ">0"
    LT = "<0"
    GE = ">=0"
    LE = "<=0"


STRICT = (Rel.GT, Rel.LT)


@dataclass(frozen=True)
class SignSystem:
    """Rows are linear forms over R^dim; each row carries a sign requirement."""

    dim: int
    forms: tuple[Vec, ...]
    rels: tuple[Rel, ...]

    def __post_init__(self):
        if len(self.forms) != len(self.rels):
            raise InputError("one requirement per row is required")
        for f in self.forms:
            if len(f) != self.dim:
                raise InputError("form length differs from the system dimension")


@dataclass(frozen=True)
class FeasibilityWitness:
    point: Vec
    slack: Fraction


def make_system(dim, rows) -> SignSystem:
    """rows: iterable of (form, Rel). A form's entries are ints or Fractions,
    stored as given: `feasible` and `dot` read only their numerators and
    denominators."""
    forms = tuple(tuple(f) for f, _ in rows)
    rels = tuple(r for _, r in rows)
    return SignSystem(dim, forms, rels)


def _eliminate(row: list[int], f: int, pj: int, nz) -> None:
    """Set row, in place, to a positive multiple of row - (f / pj) p, where p
    is the pivot row, pj > 0 its pivot entry and nz its nonzero (column,
    entry) pairs. Only those columns change, unless pj does not divide f:
    then the row is first scaled by pj / gcd(pj, f) and divided by its gcd
    after."""
    q, rem = divmod(f, pj)
    if rem:
        g = gcd(f, pj)
        q, a = f // g, pj // g
        row[:] = [a * x for x in row]
    for k, x in nz:
        row[k] -= q * x
    if rem:
        g = gcd(*row)
        if g > 1:
            row[:] = [x // g for x in row]


def _pivot(T, obj, basis, r, j):
    """Make column j basic in row r. Every row of T is a positive integer
    multiple of the rational tableau row (right-hand side last) with a
    positive basic entry, and obj a positive multiple of the reduced costs,
    so the signs and ratios the pivoting rule reads are those of the rational
    tableau."""
    if T[r][j] < 0:
        T[r] = [-x for x in T[r]]
    p = T[r]
    pj = p[j]
    nz = [(k, x) for k, x in enumerate(p) if x]
    for i, row in enumerate(T):
        f = row[j]
        if f and i != r:
            _eliminate(row, f, pj, nz)
    f = obj[j]
    if f:  # obj has no right-hand side entry
        _eliminate(obj, f, pj, nz[:-1] if p[-1] else nz)
    basis[r] = j


def _run_simplex(T, obj, basis) -> None:
    """Maximize by Bland's rule: the first column with a positive reduced cost
    enters; the smallest ratio leaves, ties broken by smallest basic index.
    Every LP `feasible` builds is bounded, so some row always leaves."""
    while True:
        enter = next((j for j, cost in enumerate(obj) if cost > 0), None)
        if enter is None:
            return
        leave = None
        for r, row in enumerate(T):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, la, lb = r, a, row[-1]
                    continue
                lhs, rhs = row[-1] * la, lb * a  # row[-1] / a against lb / la
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave, la, lb = r, a, row[-1]
        check(leave is not None, "simplex unbounded: the margin is at most 1")
        _pivot(T, obj, basis, leave, enter)


def _simplex(rows: list[list[int]], c: list[int]):
    """max c.x subject to A x = b, x >= 0, on ints, by the two-phase simplex
    with Bland's rule, for the systems `feasible` builds.

    rows[r] is [A_r | b_r] with b_r >= 0. Each row gets an artificial column
    with coefficient 1, and phase 1 maximizes minus their sum. The input lists
    are not modified.

    Every such system is homogeneous apart from the margin row t + s = 1, so
    x = 0 with s = 1 is feasible and phase 1 reaches 0, and phase 2 maximizes
    the margin t <= 1 (or the zero cost), so it is bounded. Either failing is
    an `InternalInconsistency`.

    Returns (T, basis): T holds the final basis rows [A | b], without
    redundant rows, and variable basis[r] takes the value
    T[r][-1] / T[r][basis[r]] (the denominator is positive); every nonbasic
    variable is 0."""
    m, n = len(rows), len(c)
    # phase 1: artificial columns n..n+m-1 form the starting basis
    T = [row[:-1] + [0] * r + [1] + [0] * (m - 1 - r) + row[-1:] for r, row in enumerate(rows)]
    basis = list(range(n, n + m))
    # reduced costs of max(-sum artificials): the column sums of the rows
    obj = [sum(col) for col in zip(*rows)][:n] + [0] * m
    _run_simplex(T, obj, basis)
    check(all(basis[r] < n or T[r][-1] == 0 for r in range(m)),
          "simplex infeasible: the origin satisfies every system feasible builds")
    # drive artificials out of the basis; drop redundant rows
    r = 0
    while r < len(T):
        if basis[r] >= n:
            j = next((j for j in range(n) if T[r][j] != 0), None)
            if j is None:
                del T[r], basis[r]
                continue
            _pivot(T, obj, basis, r, j)
        r += 1
    T = [row[:n] + row[-1:] for row in T]
    # phase 2: price out the basic columns
    obj = list(c)
    for row, j in zip(T, basis):
        f = obj[j]
        if f:
            _eliminate(obj, f, row[j], [(k, x) for k, x in enumerate(row[:n]) if x])
    _run_simplex(T, obj, basis)
    return T, basis


def feasible(system: SignSystem) -> FeasibilityWitness | None:
    """Exact witness for the open/closed system, or None if it has no solution.

    The LP splits each free variable as x+ - x-, gives every inequality a
    slack and every strict row a shared margin t <= 1, and maximizes t. Its
    rows are built as ints: column j of the forms is scaled by the lcm of its
    denominators, a positive change of variables that leaves every sign and
    ratio Bland's rule reads, and so the pivots, unchanged. Each coordinate of
    the point, and t, is read off the one basis row where it is basic, as an
    int over the lcm of those rows' basic entries, and put back into the int
    rows through `check`, which `python -O` keeps; `check_witness`, on the
    forms as given, is the tests' oracle."""
    dim = system.dim
    strict = any(rel in STRICT for rel in system.rels)
    scales = [lcm(*(form[j].denominator for form in system.forms)) for j in range(dim)]
    n_slack = sum(1 for rel in system.rels if rel is not Rel.EQ)
    t_col = 2 * dim
    slack_at = t_col + strict
    width = slack_at + n_slack + strict

    rows: list[list[int]] = []
    k = 0
    for form, rel in zip(system.forms, system.rels):
        ints = [a.numerator * (m // a.denominator) for a, m in zip(form, scales)]
        row = ints + [-a for a in ints] + [0] * (width - t_col + 1)
        if rel is not Rel.EQ:
            row[slack_at + k] = -1 if rel in (Rel.GE, Rel.GT) else 1
            k += 1
        if rel is Rel.GT:
            row[t_col] = -1
        elif rel is Rel.LT:
            row[t_col] = 1
        rows.append(row)
    c = [0] * width
    if strict:
        row = [0] * (width + 1)
        row[t_col] = row[slack_at + k] = row[-1] = 1
        rows.append(row)
        c[t_col] = 1
    T, basis = _simplex(rows, c)
    # the values of the scaled coordinates u (x_j = scales[j] u_j) and of t,
    # each times the lcm D of their denominators
    D = lcm(*(row[j] for row, j in zip(T, basis) if j < t_col or strict and j == t_col))
    u, t = [0] * dim, 0 if strict else D
    for row, j in zip(T, basis):
        if j < dim:
            u[j] = row[-1] * (D // row[j])
        elif j < t_col:
            u[j - dim] = -row[-1] * (D // row[j])
        elif strict and j == t_col:
            t = row[-1] * (D // row[j])
    if t <= 0:
        return None
    # re-substituted into the int rows over D: each form's value times D,
    # negated for an upper bound, is 0, >= 0 or >= the margin t
    for row, rel in zip(rows, system.rels):
        v = sum(a * b for a, b in zip(row, u) if b)
        if rel is Rel.LE or rel is Rel.LT:
            v = -v
        check(v == 0 if rel is Rel.EQ else v >= (t if rel in STRICT else 0),
              "simplex returned a point violating the system")
    point = tuple(Fraction(m * a, D) if a else _ZERO for m, a in zip(scales, u))
    return FeasibilityWitness(point, Fraction(t, D))


def check_witness(system: SignSystem, witness: FeasibilityWitness) -> bool:
    """Re-substitute the witness; strict rows must clear the stated slack."""
    for form, rel in zip(system.forms, system.rels):
        v = dot(form, witness.point)
        if rel is Rel.EQ and v != 0:
            return False
        if rel is Rel.GE and v < 0:
            return False
        if rel is Rel.LE and v > 0:
            return False
        if rel is Rel.GT and v < witness.slack:
            return False
        if rel is Rel.LT and v > -witness.slack:
            return False
    return True


def _rel(x: int, i: int, n: int) -> Rel:
    """The requirement of the packed sign vector x at position i."""
    return Rel.GT if x >> i & 1 else Rel.LT if x >> i + n & 1 else Rel.EQ


def realize_kernel_sign(M: RationalMatrix, x: int, A: int) -> Vec | None:
    """v with M v = 0 whose signs agree with the packed sign vector x on the
    index mask A, the other coordinates free, or None. This builds every
    kernel system: the rows of M as EQ, then one int unit row for each i in
    A, in increasing i, with the sign of x at i."""
    n = M.cols
    rows = [(M.row(i), Rel.EQ) for i in range(M.rows)]
    rows += [(tuple(int(j == i) for j in range(n)), _rel(x, i, n)) for i in bits(A)]
    wit = feasible(make_system(n, rows))
    return wit.point if wit else None


def _check_packed(x: int, n: int) -> None:
    if x >> 2 * n or x & x >> n:
        raise InputError(f"{x} is not a packed sign vector of length {n}")


def realize_sign_vector(M: RationalMatrix, x: int, A: int) -> Vec | None:
    """y whose functional values (M^T y)_i have the signs of the packed sign
    vector x at every column i in the index mask A, the others free, or None.
    This builds every covector system: one row per i in A, in increasing i.
    With A = all columns it asks for sign(M^T y) = x, and None says that x is
    not a covector of M."""
    n = M.cols
    _check_packed(x, n)
    rows = [(M.column(i), _rel(x, i, n)) for i in bits(A)]
    wit = feasible(make_system(M.rows, rows))
    return wit.point if wit else None


def realize_conformal_covector(M: RationalMatrix, x: int) -> Vec | None:
    """y with M^T y nonzero and sign(M^T y) <= the packed sign vector x, or
    None: one weak row per column, >= 0, <= 0 or = 0 by the sign of x there,
    then the x-signed sum of the columns > 0, whose entries `dot` sums on
    ints."""
    n = M.cols
    _check_packed(x, n)
    weak = {Rel.GT: Rel.GE, Rel.LT: Rel.LE, Rel.EQ: Rel.EQ}
    rows = [(M.column(i), weak[_rel(x, i, n)]) for i in range(n)]
    signs = [(x >> i & 1) - (x >> i + n & 1) for i in range(n)]
    rows.append((tuple(dot(r, signs) for r in M.row_tuples), Rel.GT))
    wit = feasible(make_system(M.rows, rows))
    return wit.point if wit else None


def positive_kernel_vector(M: RationalMatrix, support) -> Vec | None:
    """v >= 0 with M v = 0 and supp(v) exactly the given index set, or None."""
    x = sum(1 << i for i in set(support))
    return realize_kernel_sign(M, x, (1 << M.cols) - 1)
