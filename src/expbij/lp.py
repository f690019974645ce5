"""Exact rational feasibility for homogeneous systems of strict/weak linear constraints.

Strict inequalities are handled by slack maximization: maximize t subject to
strict rows having margin >= t and t <= 1. Over the rationals with Bland's
pivoting rule the simplex method terminates, so feasibility is decided
exactly and every witness is an exact rational point.

One integer simplex core, `_simplex`, solves every LP. `feasible` hands it
the int rows it builds and reads the witness off the final basis rows;
`simplex_max` is the Fraction interface to the same core.

Every realization system is built here, by one of three builders that take
sign vectors as packed ints (`plus | minus << n`, see `signs`):
`realize_kernel_sign` builds the kernel systems and `realize_sign_vector` the
covector systems, each signed on an index mask and free elsewhere, and
`realize_conformal_covector` the orthogonal branch of Minty's alternative, a
nonzero covector conformal to a sign vector. `matroid.OrientedMatroid`
memoizes the first two per argument; `matroid` builds no LP rows itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from math import gcd, lcm

from .linalg import InputError, InternalInconsistency, RationalMatrix, Vec, dot
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


def _run_simplex(T, obj, basis) -> str:
    """Maximize by Bland's rule: the first column with a positive reduced cost
    enters; the smallest ratio leaves, ties broken by smallest basic index."""
    while True:
        enter = next((j for j, cost in enumerate(obj) if cost > 0), None)
        if enter is None:
            return "optimal"
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
        if leave is None:
            return "unbounded"
        _pivot(T, obj, basis, leave, enter)


def _simplex(rows: list[list[int]], c: list[int]):
    """max c.x subject to A x = b, x >= 0, on ints, by the two-phase simplex
    with Bland's rule.

    rows[r] is [A_r | b_r] with b_r >= 0. Each row gets an artificial column
    with coefficient 1, and phase 1 maximizes minus their sum. The input lists
    are not modified.

    Returns (status, T, basis), status in {"optimal", "infeasible",
    "unbounded"}. On "optimal", T holds the final basis rows [A | b], without
    redundant rows: variable basis[r] takes the value T[r][-1] / T[r][basis[r]]
    (the denominator is positive) and every nonbasic variable is 0."""
    m, n = len(rows), len(c)
    # phase 1: artificial columns n..n+m-1 form the starting basis
    T = []
    for r, row in enumerate(rows):
        t = row[:-1] + [0] * m
        t[n + r] = 1
        t.append(row[-1])
        T.append(t)
    basis = list(range(n, n + m))
    # reduced costs of max(-sum artificials): the column sums of the rows
    obj = [sum(row[j] for row in rows) for j in range(n)] + [0] * m
    status = _run_simplex(T, obj, basis)
    if status != "optimal" or any(basis[r] >= n and T[r][-1] > 0 for r in range(m)):
        return "infeasible", None, None
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
    if _run_simplex(T, obj, basis) == "unbounded":
        return "unbounded", None, None
    return "optimal", T, basis


def _basic_solution(T, basis, n: int) -> list[Fraction]:
    """The n-variable point of `_simplex`'s final basis rows."""
    x = [Fraction(0)] * n
    for row, j in zip(T, basis):
        x[j] = Fraction(row[-1], row[j])
    return x


def simplex_max(A_rows, b_vals, c_vals):
    """max c.x subject to A x = b, x >= 0 over exact rationals.

    Entries are ints or Fractions. Returns (status, x, value) with status in
    {"optimal", "infeasible", "unbounded"}. Every row goes to `_simplex` as
    ints, times one scale L, the lcm of all denominators in A and b, and
    negated where b < 0; the costs are scaled by the lcm of theirs. This is
    the rational tableau with each artificial variable scaled by L, so the
    signs and ratios Bland's rule reads, and so the pivots, are the rational
    tableau's.
    """
    scale = lcm(*(x.denominator for row in A_rows for x in row),
                *(b.denominator for b in b_vals))
    rows = []
    for row, b in zip(A_rows, b_vals):
        s = -scale if b < 0 else scale
        rows.append([x.numerator * (s // x.denominator) for x in (*row, b)])
    scale = lcm(*(c.denominator for c in c_vals))
    status, T, basis = _simplex(rows, [c.numerator * (scale // c.denominator) for c in c_vals])
    if status != "optimal":
        return status, None, None
    x = _basic_solution(T, basis, len(c_vals))
    value = sum((Fraction(c_vals[j]) * x[j] for j in basis), Fraction(0))
    return "optimal", x, value


_ZERO, _ONE = Fraction(0), Fraction(1)


def feasible(system: SignSystem) -> FeasibilityWitness | None:
    """Exact witness for the open/closed system, or None if it has no solution.

    The LP splits each free variable as x+ - x-, gives every inequality a
    slack and every strict row a shared margin t <= 1, and maximizes t. Its
    rows are built as ints: column j of the forms is scaled by the lcm of its
    denominators, a positive change of variables that leaves every sign and
    ratio Bland's rule reads, and so the pivots, unchanged. Each coordinate of
    the point, and t, is read off the one basis row where it is basic."""
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
    status, T, basis = _simplex(rows, c)
    if status != "optimal":
        return None
    point = [_ZERO] * dim
    slack = _ZERO if strict else _ONE
    for row, j in zip(T, basis):
        if j < dim:
            point[j] = Fraction(scales[j] * row[-1], row[j])
        elif j < t_col:
            point[j - dim] = Fraction(-scales[j - dim] * row[-1], row[j])
        elif strict and j == t_col:
            slack = Fraction(row[-1], row[j])
    if slack <= 0:
        return None
    witness = FeasibilityWitness(tuple(point), slack)
    if not check_witness(system, witness):
        raise InternalInconsistency("simplex returned a point violating the system")
    return witness


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


@cache
def unit_vectors(n: int) -> tuple[Vec, ...]:
    """The n unit vectors of Q^n. They are shared between calls, which is
    safe because the tuples are immutable."""
    return tuple(tuple(Fraction(int(j == i)) for j in range(n)) for i in range(n))


def _rel(x: int, i: int, n: int) -> Rel:
    """The requirement of the packed sign vector x at position i."""
    return Rel.GT if x >> i & 1 else Rel.LT if x >> i + n & 1 else Rel.EQ


def realize_kernel_sign(M: RationalMatrix, x: int, A: int) -> Vec | None:
    """v with M v = 0 whose signs agree with the packed sign vector x on the
    index mask A, the other coordinates free, or None. This builds every
    kernel system: the rows of M as EQ, then one unit row for each i in A, in
    increasing i, with the sign of x at i."""
    n = M.cols
    unit = unit_vectors(n)
    rows = [(M.row(i), Rel.EQ) for i in range(M.rows)]
    rows += [(unit[i], _rel(x, i, n)) for i in bits(A)]
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
    then the x-signed sum of the columns > 0."""
    n = M.cols
    _check_packed(x, n)
    weak = {Rel.GT: Rel.GE, Rel.LT: Rel.LE, Rel.EQ: Rel.EQ}
    rows = [(M.column(i), weak[_rel(x, i, n)]) for i in range(n)]
    plus, minus = bits(x & ((1 << n) - 1)), bits(x >> n)
    weight = tuple(sum(r[i] for i in plus) - sum(r[i] for i in minus) for r in M.row_tuples)
    rows.append((weight, Rel.GT))
    wit = feasible(make_system(M.rows, rows))
    return wit.point if wit else None


def positive_kernel_vector(M: RationalMatrix, support) -> Vec | None:
    """v >= 0 with M v = 0 and supp(v) exactly the given index set, or None."""
    x = sum(1 << i for i in set(support))
    return realize_kernel_sign(M, x, (1 << M.cols) - 1)
