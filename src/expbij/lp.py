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

from .linalg import InputError, RationalMatrix, Vec, dot, vec


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


def _pivot(A, b, obj, basis, r, j):
    inv = A[r][j]
    A[r] = [x / inv for x in A[r]]
    b[r] /= inv
    for i in range(len(A)):
        if i != r and A[i][j] != 0:
            f = A[i][j]
            A[i] = [x - f * y for x, y in zip(A[i], A[r])]
            b[i] -= f * b[r]
    if obj[j] != 0:
        f = obj[j]
        for k in range(len(obj)):
            obj[k] -= f * A[r][k]
        obj_val = f * b[r]
    else:
        obj_val = Fraction(0)
    basis[r] = j
    return obj_val


def _run_simplex(A, b, obj, basis, allowed):
    """Maximize; obj holds reduced costs. Returns accumulated objective gain."""
    gain = Fraction(0)
    while True:
        enter = next((j for j in range(len(obj)) if allowed[j] and obj[j] > 0), None)
        if enter is None:
            return gain, "optimal"
        ratios = [(b[r] / A[r][enter], basis[r], r) for r in range(len(A)) if A[r][enter] > 0]
        if not ratios:
            return gain, "unbounded"
        # Bland: smallest ratio, ties broken by smallest basic variable index
        _, _, leave = min(ratios, key=lambda t: (t[0], t[1]))
        gain += _pivot(A, b, obj, basis, leave, enter)


def simplex_max(A_rows, b_vals, c_vals):
    """max c.x subject to A x = b, x >= 0 over exact rationals.

    Returns (status, x, value) with status in {"optimal", "infeasible", "unbounded"}.
    """
    m = len(A_rows)
    n = len(c_vals)
    A = [[Fraction(x) for x in row] for row in A_rows]
    b = [Fraction(x) for x in b_vals]
    for r in range(m):
        if b[r] < 0:
            A[r] = [-x for x in A[r]]
            b[r] = -b[r]
    # phase 1: artificial columns n..n+m-1 form the starting basis
    for r in range(m):
        for i in range(m):
            A[i].append(Fraction(1 if i == r else 0))
    basis = list(range(n, n + m))
    obj = [Fraction(0)] * (n + m)
    for j in range(n):
        obj[j] = sum(A[r][j] for r in range(m))  # reduced costs of max(-sum artificials)
    value = -sum(b)
    allowed = [True] * (n + m)
    gain, status = _run_simplex(A, b, obj, basis, allowed)
    value += gain
    if status != "optimal" or value < 0:
        return "infeasible", None, None
    # drive artificials out of the basis; drop redundant rows
    r = 0
    while r < len(A):
        if basis[r] >= n:
            j = next((j for j in range(n) if A[r][j] != 0), None)
            if j is None:
                del A[r], b[r], basis[r]
                continue
            _pivot(A, b, obj, basis, r, j)
        r += 1
    A = [row[:n] for row in A]
    # phase 2
    obj = [Fraction(c) for c in c_vals]
    value = Fraction(0)
    for r in range(len(A)):
        if obj[basis[r]] != 0:
            f = obj[basis[r]]
            for k in range(n):
                obj[k] -= f * A[r][k]
            value += f * b[r]
    allowed = [True] * n
    gain, status = _run_simplex(A, b, obj, basis, allowed)
    value += gain
    if status == "unbounded":
        return "unbounded", None, None
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        x[j] = b[r]
    return "optimal", x, value


def feasible(system: SignSystem) -> FeasibilityWitness | None:
    """Exact witness for the open/closed system, or None if it has no solution."""
    dim = system.dim
    strict = any(rel in STRICT for rel in system.rels)
    rows: list[list[Fraction]] = []
    b: list[Fraction] = []

    n_slack = sum(1 for rel in system.rels if rel is not Rel.EQ)
    width = 2 * dim + (1 if strict else 0) + n_slack + (1 if strict else 0)
    t_col = 2 * dim if strict else None
    slack_at = 2 * dim + (1 if strict else 0)

    def blank():
        return [Fraction(0)] * width

    k = 0
    for form, rel in zip(system.forms, system.rels):
        row = blank()
        for j, a in enumerate(form):
            row[j] = a
            row[dim + j] = -a
        if rel is not Rel.EQ:
            sgn = -1 if rel in (Rel.GE, Rel.GT) else 1
            row[slack_at + k] = Fraction(sgn)
            k += 1
        if rel is Rel.GT:
            row[t_col] = Fraction(-1)
        elif rel is Rel.LT:
            row[t_col] = Fraction(1)
        rows.append(row)
        b.append(Fraction(0))
    if strict:
        row = blank()
        row[t_col] = Fraction(1)
        row[slack_at + k] = Fraction(1)
        rows.append(row)
        b.append(Fraction(1))

    c = [Fraction(0)] * width
    if strict:
        c[t_col] = Fraction(1)
    status, x, value = simplex_max(rows, b, c)
    if status != "optimal":
        return None
    if strict and value <= 0:
        return None
    point = tuple(x[j] - x[dim + j] for j in range(dim))
    slack = value if strict else Fraction(1)
    witness = FeasibilityWitness(point, slack)
    assert check_witness(system, witness), "simplex returned a point violating the system"
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
    n = M.cols
    support = set(support)
    rows = [(M.row(i), Rel.EQ) for i in range(M.rows)]
    rows += [(_unit(n, i), Rel.GT if i in support else Rel.EQ) for i in range(n)]
    wit = feasible(make_system(n, rows))
    return wit.point if wit else None
