"""Exact rational vectors, matrices, and the elimination kernel.

All entries are `fractions.Fraction` (always reduced, positive denominator).
Determinants and ranks use fraction-free Bareiss elimination on integer-scaled
rows; kernels and row spaces come from the reduced row echelon form, which is
unique and therefore gives reproducible bases and certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

Vec = tuple[Fraction, ...]


class InputError(ValueError):
    """Malformed external input (JSON schemas, dimension mismatches)."""


class InternalInconsistency(RuntimeError):
    """A result failed its own re-check: a bug in the package, never a verdict
    or an input error. Raised explicitly, so `python -O` keeps the check."""


def check(ok: bool, what: str):
    """Internal consistency check that `python -O` keeps."""
    if not ok:
        raise InternalInconsistency(what)


def frac(value) -> Fraction:
    """Parse an entry: int, Fraction, or a string "p/q" with q > 0."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"boolean is not a rational entry: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        parts = value.strip().split("/")
        try:
            if len(parts) == 1:
                return Fraction(int(parts[0]))
            if len(parts) == 2:
                p, q = int(parts[0]), int(parts[1])
                if q <= 0:
                    raise InputError(f"denominator must be positive in {value!r}")
                return Fraction(p, q)
        except ValueError as exc:
            raise InputError(f"not a rational: {value!r}") from exc
        raise InputError(f"not a rational: {value!r}")
    raise InputError(f"unsupported rational entry of type {type(value).__name__}: {value!r}")


def frac_str(x: Fraction) -> str:
    """Lowest-terms string form, "p" or "p/q"."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(values) -> Vec:
    return tuple(frac(v) for v in values)


def dot(u: Vec, v: Vec) -> Fraction:
    if len(u) != len(v):
        raise InputError(f"dot: length mismatch {len(u)} vs {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))

def vec_scale(t, v: Vec) -> Vec:
    t = frac(t)
    return tuple(t * x for x in v)

def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def _int_rows(rows: list[list[Fraction]]) -> tuple[list[list[int]], Fraction]:
    """Scale each row to integers; return (int rows, product of the row scales)."""
    out = []
    scale = Fraction(1)
    for row in rows:
        m = 1
        for x in row:
            m = m * x.denominator // gcd(m, x.denominator)
        out.append([int(x * m) for x in row])
        scale *= m
    return out, scale


def _bareiss_echelon(rows: list[list[int]]) -> tuple[list[list[int]], int, int]:
    """Fraction-free elimination. Returns (echelon rows, rank, sign of row swaps)."""
    m = [row[:] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    rank = 0
    sign = 1
    col = 0
    while rank < nr and col < nc:
        piv = next((i for i in range(rank, nr) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        for i in range(rank + 1, nr):
            for j in range(col + 1, nc):
                m[i][j] = (m[rank][col] * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = m[rank][col]
        rank += 1
        col += 1
    return m, rank, sign


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    ech, rank, sign = _bareiss_echelon(rows)
    return sign * ech[-1][-1] if rank == len(rows) else 0


class RationalMatrix:
    """Immutable d x n matrix of exact rationals (d, n >= 1)."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, entries):
        data = tuple(tuple(frac(x) for x in row) for row in entries)
        if not data or not data[0]:
            raise InputError("matrix must have at least one row and one column")
        if any(len(row) != len(data[0]) for row in data):
            raise InputError("matrix rows must all have the same length")
        self._data = data
        self.rows = len(data)
        self.cols = len(data[0])

    def entry(self, i: int, j: int) -> Fraction:
        return self._data[i][j]

    def row(self, i: int) -> Vec:
        return self._data[i]

    def column(self, j: int) -> Vec:
        return tuple(row[j] for row in self._data)

    @property
    def row_tuples(self) -> tuple[Vec, ...]:
        return self._data

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self._data))

    def mat_vec(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise InputError(f"mat_vec: expected length {self.cols}, got {len(v)}")
        return tuple(dot(row, v) for row in self._data)

    def transpose_vec(self, x: Vec) -> Vec:
        """M^T x without materializing the transpose."""
        if len(x) != self.rows:
            raise InputError(f"transpose_vec: expected length {self.rows}, got {len(x)}")
        return tuple(sum((self._data[i][j] * x[i] for i in range(self.rows)), Fraction(0))
                     for j in range(self.cols))

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise InputError("matmul: inner dimensions differ")
        cols = [other.column(j) for j in range(other.cols)]
        return RationalMatrix([[dot(row, c) for c in cols] for row in self._data])

    def column_submatrix(self, idx) -> "RationalMatrix":
        idx = tuple(idx)
        return RationalMatrix([[row[j] for j in idx] for row in self._data])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise InputError("det: matrix is not square")
        ints, scale = _int_rows([list(r) for r in self._data])
        return _int_det(ints) / scale

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __repr__(self):
        body = "; ".join(" ".join(frac_str(x) for x in row) for row in self._data)
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[x.numerator if x.denominator == 1 else frac_str(x) for x in row]
                        for row in self._data],
        }

    @classmethod
    def from_json_dict(cls, obj) -> "RationalMatrix":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise InputError('matrix JSON must be an object with an "entries" field')
        mat = cls(obj["entries"])
        for key, want in (("rows", mat.rows), ("cols", mat.cols)):
            if key in obj and obj[key] != want:
                raise InputError(f'matrix JSON field "{key}"={obj[key]} does not match entries ({want})')
        return mat


def rank(M: RationalMatrix) -> int:
    ints, _ = _int_rows([list(r) for r in M.row_tuples])
    _, r, _ = _bareiss_echelon(ints)
    return r


def rref(M: RationalMatrix) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form over Fractions. Returns (rows, pivot columns)."""
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


@dataclass(frozen=True)
class SubspaceBasis:
    """A linearly independent spanning set for a subspace of R^n (possibly empty)."""

    ambient_dim: int
    vectors: tuple[Vec, ...]

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InputError("ambient dimension must be >= 1")
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise InputError("basis vector length differs from ambient dimension")
        if self.vectors:
            if rank(RationalMatrix(self.vectors)) != len(self.vectors):
                raise InputError("basis vectors are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, v: Vec) -> bool:
        if is_zero_vec(v):
            return True
        if not self.vectors:
            return False
        base = RationalMatrix(self.vectors)
        ext = RationalMatrix(self.vectors + (vec(v),))
        return rank(ext) == rank(base)

    def same_subspace(self, other: "SubspaceBasis") -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return all(other.contains(v) for v in self.vectors)


def kernel_basis(M: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of ker M (one vector per free column of the RREF)."""
    rows, pivots = rref(M)
    n = M.cols
    free = [c for c in range(n) if c not in pivots]
    out = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -rows[k][f]
        out.append(tuple(v))
    return SubspaceBasis(n, tuple(out))


def row_space_basis(M: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of im M^T: the nonzero rows of the RREF."""
    rows, pivots = rref(M)
    return SubspaceBasis(M.cols, tuple(rows[: len(pivots)]))


def matrix_with_kernel(B: SubspaceBasis) -> RationalMatrix:
    """Full-rank matrix whose kernel is span(B), in reduced row echelon form."""
    n = B.ambient_dim
    if B.dim == n:
        raise InputError("kernel equals the whole space; a matrix needs at least one row")
    if B.dim == 0:
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        return RationalMatrix(ident)
    complement = kernel_basis(RationalMatrix(B.vectors))
    rows, pivots = rref(RationalMatrix(complement.vectors))
    return RationalMatrix(rows[: len(pivots)])


def maximal_minors(M: RationalMatrix) -> dict[tuple[int, ...], Fraction]:
    """det(M_I) for every column subset I of size d, keys sorted ascending (0-based)."""
    d, n = M.rows, M.cols
    if d > n:
        raise InputError("maximal_minors requires d <= n")
    ints, scale = _int_rows([list(r) for r in M.row_tuples])
    return {I: _int_det([[row[j] for j in I] for row in ints]) / scale
            for I in combinations(range(n), d)}


def intersection_dim(A: SubspaceBasis, B: SubspaceBasis) -> int:
    """dim(span A ∩ span B), via dim A + dim B - dim(A + B)."""
    if A.ambient_dim != B.ambient_dim:
        raise InputError("intersection_dim: ambient dimensions differ")
    if A.dim == 0 or B.dim == 0:
        return 0
    stacked = RationalMatrix(A.vectors + B.vectors)
    return A.dim + B.dim - rank(stacked)
