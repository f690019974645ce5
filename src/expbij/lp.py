"""Exact rational feasibility for homogeneous systems of strict/weak linear constraints.

Strict inequalities are handled by slack maximization: maximize t subject to
strict rows having margin >= t and t <= 1. Over the rationals with Bland's
pivoting rule the simplex method terminates, so feasibility is decided
exactly and every witness is an exact rational point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm

from .linalg import InputError, InternalInconsistency, RationalMatrix, Vec, _reduce, dot, vec


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
    """rows: iterable of (form, Rel)."""
    forms = tuple(vec(f) for f, _ in rows)
    rels = tuple(r for _, r in rows)
    return SignSystem(dim, forms, rels)


def _pivot(T, obj, basis, r, j):
    """Make column j basic in row r. Every row of T is a positive integer
    multiple of the rational tableau row (right-hand side last) with a
    positive basic entry, and obj a positive multiple of the reduced costs,
    so the signs and ratios the pivoting rule reads are those of the rational
    tableau."""
    p = T[r] if T[r][j] > 0 else [-x for x in T[r]]
    pj = p[j]
    T[r] = p
    for i, row in enumerate(T):
        f = row[j]
        if f and i != r:
            T[i] = _reduce([pj * x - f * y for x, y in zip(row, p)])
    f = obj[j]
    if f:
        obj[:] = _reduce([pj * x - f * y for x, y in zip(obj, p)])
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


def simplex_max(A_rows, b_vals, c_vals):
    """max c.x subject to A x = b, x >= 0 over exact rationals.

    Entries are ints or Fractions. Returns (status, x, value) with status in
    {"optimal", "infeasible", "unbounded"}. The tableau is kept fraction-free,
    one primitive integer row per constraint, and pivoted by Bland's rule.
    """
    m = len(A_rows)
    n = len(c_vals)
    # phase 1: artificial columns n..n+m-1 form the starting basis
    T = []
    for r, (row, b) in enumerate(zip(A_rows, b_vals)):
        scale = lcm(b.denominator, *(x.denominator for x in row))
        unit = [0] * m
        unit[r] = scale
        if b < 0:  # negate the constraint, not the artificial column
            scale = -scale
        ints = [x.numerator * (scale // x.denominator) for x in row]
        T.append(_reduce(ints + unit + [b.numerator * (scale // b.denominator)]))
    basis = list(range(n, n + m))
    # reduced costs of max(-sum artificials): the column sums of the rows
    # divided by their artificial entries
    scale = lcm(*(T[r][n + r] for r in range(m)))
    obj = _reduce([sum(scale // T[r][n + r] * T[r][j] for r in range(m)) for j in range(n)]
                  + [0] * m)
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
    # phase 2
    scale = lcm(*(c.denominator for c in c_vals))
    obj = _reduce([c.numerator * (scale // c.denominator) for c in c_vals])
    for row, j in zip(T, basis):
        f = obj[j]
        if f:
            obj = _reduce([row[j] * x - f * y for x, y in zip(obj, row)])
    if _run_simplex(T, obj, basis) == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for row, j in zip(T, basis):
        x[j] = Fraction(row[-1], row[j])
    value = sum((Fraction(c_vals[j]) * x[j] for j in basis), Fraction(0))
    return "optimal", x, value


def feasible(system: SignSystem) -> FeasibilityWitness | None:
    """Exact witness for the open/closed system, or None if it has no solution.

    The LP splits each free variable as x+ - x-, gives every inequality a
    slack and every strict row a shared margin t <= 1, and maximizes t. Its
    rows are built as ints: column j of the forms is scaled by the lcm of its
    denominators, a positive change of variables that leaves every sign and
    ratio Bland's rule reads, and so the pivots, unchanged."""
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
        row = ints + [-a for a in ints] + [0] * (width - t_col)
        if rel is not Rel.EQ:
            row[slack_at + k] = -1 if rel in (Rel.GE, Rel.GT) else 1
            k += 1
        if rel is Rel.GT:
            row[t_col] = -1
        elif rel is Rel.LT:
            row[t_col] = 1
        rows.append(row)
    b = [0] * len(rows)
    c = [0] * width
    if strict:
        row = [0] * width
        row[t_col] = row[slack_at + k] = 1
        rows.append(row)
        b.append(1)
        c[t_col] = 1
    status, x, value = simplex_max(rows, b, c)
    if status != "optimal":
        return None
    if strict and value <= 0:
        return None
    point = tuple(m * (x[j] - x[dim + j]) for j, m in enumerate(scales))
    slack = value if strict else Fraction(1)
    witness = FeasibilityWitness(point, slack)
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


def _unit(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


_REL_OF_SIGN = {1: Rel.GT, -1: Rel.LT, 0: Rel.EQ}


def realize_kernel_sign(M: RationalMatrix, tau) -> Vec | None:
    """v with M v = 0 and sign(v) = tau, or None."""
    n = M.cols
    rows = [(M.row(i), Rel.EQ) for i in range(M.rows)]
    rows += [(_unit(n, i), _REL_OF_SIGN[tau[i]]) for i in range(n)]
    wit = feasible(make_system(n, rows))
    return wit.point if wit else None


def realize_sign_vector(M: RationalMatrix, tau) -> Vec | None:
    """x with sign(M^T x) = tau, or None (tau is then not a covector of M)."""
    if tau.n != M.cols:
        raise InputError(f"sign vector length {tau.n} differs from column count {M.cols}")
    rows = [(M.column(i), _REL_OF_SIGN[tau[i]]) for i in range(M.cols)]
    wit = feasible(make_system(M.rows, rows))
    return wit.point if wit else None


def positive_kernel_vector(M: RationalMatrix, support) -> Vec | None:
    """v >= 0 with M v = 0 and supp(v) exactly the given index set, or None."""
    support = set(support)
    return realize_kernel_sign(M, [int(i in support) for i in range(M.cols)])
