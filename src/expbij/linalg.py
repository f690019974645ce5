"""Exact rational vectors, matrices, and the elimination kernel.

All entries are `fractions.Fraction` (always reduced, positive denominator).
Inside the kernel the arithmetic runs on Python ints: determinants and ranks
use fraction-free Bareiss elimination on integer-scaled rows, the reduced row
echelon form runs Gauss-Jordan on primitive integer rows, and products
accumulate one numerator and one denominator. A `Fraction` is built only for
a value that leaves the kernel. Kernels and row spaces come from the reduced
row echelon form, which is unique and therefore gives reproducible bases and
certificates. The signs of all maximal minors, which is what the analyzer
reads, come from one integer table per matrix (`maximal_minor_signs`: one
echelon form, one Bareiss determinant, then Laplace expansion without
division); the certificate verifier keeps one Bareiss determinant per minor
(`maximal_minors`) as an independent route.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

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


_INTEGER = re.compile(r"[+-]?[0-9]+")


def frac(value) -> Fraction:
    """Parse an entry: int, Fraction, or a string "p" or "p/q" with q > 0,
    where p and q are an optional sign and ASCII digits; whitespace may
    surround the string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"boolean is not a rational entry: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        parts = value.strip().split("/")
        if len(parts) > 2 or not all(_INTEGER.fullmatch(part) for part in parts):
            raise InputError(f"not a rational: {value!r}")
        try:
            p, q = int(parts[0]), int(parts[1]) if len(parts) == 2 else 1
        except ValueError as exc:  # more digits than the int-string limit
            raise InputError(f"not a rational: {value!r}") from exc
        if q <= 0:
            raise InputError(f"denominator must be positive in {value!r}")
        return Fraction(p, q)
    raise InputError(f"unsupported rational entry of type {type(value).__name__}: {value!r}")


def frac_str(x: Fraction) -> str:
    """Lowest-terms string form, "p" or "p/q"."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(values) -> Vec:
    return tuple(frac(v) for v in values)


def dot(u: Vec, v: Vec) -> Fraction:
    """Exact u . v; the sum is kept as one int numerator over one int denominator."""
    if len(u) != len(v):
        raise InputError(f"dot: length mismatch {len(u)} vs {len(v)}")
    num, den = 0, 1
    for a, b in zip(u, v):
        if a and b:
            q = a.denominator * b.denominator
            if q == den:
                num += a.numerator * b.numerator
            else:
                m = lcm(den, q)
                num = num * (m // den) + a.numerator * b.numerator * (m // q)
                den = m
    return Fraction(num, den)


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))

def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def _reduce(row: list[int]) -> list[int]:
    """Divide an int row by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _int_rows(rows: list[list[Fraction]]) -> tuple[list[list[int]], int]:
    """Scale each row to integers; return (int rows, product of the row scales)."""
    out = []
    scale = 1
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row])
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
    """Immutable d x n matrix of exact rationals (d, n >= 1).

    `_om` holds the matrix's `matroid.OrientedMatroid` once a `matroid`
    function has built it, so that it lives exactly as long as this object."""

    __slots__ = ("rows", "cols", "_data", "_hash", "_om")

    def __init__(self, entries):
        data = tuple(tuple(frac(x) for x in row) for row in entries)
        if not data or not data[0]:
            raise InputError("matrix must have at least one row and one column")
        if any(len(row) != len(data[0]) for row in data):
            raise InputError("matrix rows must all have the same length")
        self._data = data
        self._hash = None
        self._om = None
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
        return tuple(dot(col, x) for col in zip(*self._data))

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise InputError("matmul: inner dimensions differ")
        cols = list(zip(*other._data))
        return RationalMatrix([[dot(row, c) for c in cols] for row in self._data])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise InputError("det: matrix is not square")
        ints, scale = _int_rows([list(r) for r in self._data])
        return Fraction(_int_det(ints), scale)

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self._data == other._data

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._data)
        return self._hash

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
        entries = obj.get("entries") if isinstance(obj, dict) else None
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise InputError('matrix JSON must be an object whose "entries" is a list of rows')
        mat = cls(entries)
        for key, want in (("rows", mat.rows), ("cols", mat.cols)):
            if key in obj and obj[key] != want:
                raise InputError(f'matrix JSON field "{key}"={obj[key]} does not match entries ({want})')
        return mat


def rank(M: RationalMatrix) -> int:
    ints, _ = _int_rows([list(r) for r in M.row_tuples])
    _, r, _ = _bareiss_echelon(ints)
    return r


def _int_rref(M: RationalMatrix) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on integer rows: each elimination p_c * row - f * p is
    divided by its gcd. Returns (rows, pivot columns); row k is p_k times
    the k-th row of the reduced row echelon form, where p_k is its entry in
    pivot column k, and rows past the rank are zero."""
    m, _ = _int_rows([list(r) for r in M.row_tuples])
    nr, nc = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r]
        pc = p[c]
        for i in range(nr):
            f = m[i][c]
            if i != r and f != 0:
                m[i] = _reduce([pc * a - f * b for a, b in zip(m[i], p)])
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def rref(M: RationalMatrix) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form. Returns (rows, pivot columns).

    The integer rows of `_int_rref` are divided by their pivots only when
    they leave as Fractions."""
    m, pivots = _int_rref(M)
    nc, r = M.cols, len(pivots)
    rows = tuple(tuple(Fraction(x, m[k][c]) for x in m[k]) for k, c in enumerate(pivots))
    return rows + ((Fraction(0),) * nc,) * (M.rows - r), tuple(pivots)


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
    return {I: Fraction(_int_det([[row[j] for j in I] for row in ints]), scale)
            for I in combinations(range(n), d)}


def maximal_minor_signs(M: RationalMatrix) -> dict[tuple[int, ...], int]:
    """sign det(M_I) for every column subset I of size d, keys sorted ascending
    (0-based), from one integer table.

    Let R be the reduced row echelon form of M and B its pivot columns. Then
    M = M_B R, so det(M_I) = det(M_B) det(R_I). Row k of the integer echelon
    form E of `_int_rref` is p_k times row k of R, so det(R_I) has the sign
    of det(E_I) times the signs of the p_k. The minors of E on its first k
    rows follow from those on its first k - 1 rows by Laplace expansion along
    row k, on ints and without division; a zero entry or a zero smaller minor
    adds no term, so the identity block of E costs little. One Bareiss
    determinant gives the sign of det(M_B). A matrix of rank below d has
    every maximal minor zero."""
    d, n = M.rows, M.cols
    if d > n:
        raise InputError("maximal_minor_signs requires d <= n")
    E, pivots = _int_rref(M)
    if len(pivots) < d:
        return dict.fromkeys(combinations(range(n), d), 0)
    ints, _ = _int_rows([[row[j] for j in pivots] for row in M.row_tuples])
    scale = _int_det(ints)
    for k, c in enumerate(pivots):
        scale *= E[k][c]
    # minors of E on its first k rows, keyed by their column sets as bitmasks;
    # the empty minor carries the sign that turns det(E_I) into det(M_I)
    table = {0: 1 if scale > 0 else -1}
    for k, row in enumerate(E):
        entries = [(j, a) for j, a in enumerate(row) if a]
        nxt: dict[int, int] = {}
        for cols, v in table.items():
            for j, a in entries:
                bit = 1 << j
                if cols & bit:
                    continue
                # cofactor sign (-1)^(k + p), p the place of j in cols | bit
                if (k + (cols & (bit - 1)).bit_count()) & 1:
                    nxt[cols | bit] = nxt.get(cols | bit, 0) - a * v
                else:
                    nxt[cols | bit] = nxt.get(cols | bit, 0) + a * v
        table = {cols: v for cols, v in nxt.items() if v}
    out = {}
    for I in combinations(range(n), d):
        v = table.get(sum(1 << j for j in I), 0)
        out[I] = (v > 0) - (v < 0)
    return out


def intersection_dim(A: SubspaceBasis, B: SubspaceBasis) -> int:
    """dim(span A ∩ span B), via dim A + dim B - dim(A + B)."""
    if A.ambient_dim != B.ambient_dim:
        raise InputError("intersection_dim: ambient dimensions differ")
    if A.dim == 0 or B.dim == 0:
        return 0
    stacked = RationalMatrix(A.vectors + B.vectors)
    return A.dim + B.dim - rank(stacked)
