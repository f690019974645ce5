"""Exact rational vectors, matrices, and the elimination kernel.

All entries are `fractions.Fraction` (always reduced, positive denominator).
Inside the kernel the arithmetic runs on Python ints: determinants and ranks
use fraction-free Bareiss elimination on integer-scaled rows, the reduced row
echelon form runs Gauss-Jordan on primitive integer rows, and products
accumulate one numerator and one denominator. A `Fraction` is built only for
a value that leaves the kernel. Kernels and row spaces come from the reduced
row echelon form, which is unique and therefore gives reproducible bases and
certificates; one Gauss-Jordan core on int rows (`_rref_ints`) computes it,
and callers that hold int rows, such as `crn`, call the core directly. The
signs of all maximal minors, which is what the analyzer and the certificate
verifier read, come from one integer table per matrix
(`maximal_minor_signs`: one echelon form, one Bareiss determinant, then
Laplace expansion; one entry per nonzero minor, keyed by column bitmask).
`maximal_minors`, one Bareiss determinant per minor, is the tests' oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

Vec = tuple[Fraction, ...]
_ZERO, _ONE = Fraction(0), Fraction(1)


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
        data = tuple(tuple(map(frac, row)) for row in entries)
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
    return _bareiss_echelon(_int_rows(M.row_tuples)[0])[1]


def _rref_ints(m: list[list[int]], nc: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on int rows of length nc, in place: each elimination
    p_c * row - f * p is divided by its gcd. Returns (rows, pivot columns);
    row k is p_k times the k-th row of the reduced row echelon form, where
    p_k is its entry in pivot column k, and rows past the rank are zero."""
    nr = len(m)
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
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
    return m, pivots


def _int_rref(M: RationalMatrix) -> tuple[list[list[int]], list[int]]:
    """`_rref_ints` on the integer-scaled rows of M."""
    return _rref_ints(_int_rows(M.row_tuples)[0], M.cols)


def _fraction_rows(E: list[list[int]], pivots: list[int]) -> tuple[Vec, ...]:
    """Row k of E divided by its entry in column pivots[k], for each k: the
    nonzero rows of the reduced row echelon form from the rows and pivots of
    `_rref_ints`, or the canonical kernel vectors from the rows of
    `_kernel_ints` and the free columns. Most entries are 0 or that divisor,
    and share one Fraction each."""
    out = []
    for k, c in enumerate(pivots):
        row, p = E[k], E[k][c]
        out.append(tuple(_ONE if x == p else Fraction(x, p) if x else _ZERO for x in row))
    return tuple(out)


def _kernel_ints(E: list[list[int]], pivots: list[int], nc: int) -> list[list[int]]:
    """Integer rows spanning the kernel of the integer echelon rows E of
    `_rref_ints`, one per free column f, in order: the canonical kernel
    vector of `kernel_basis` (1 at f, minus the reduced entry in column f at
    each pivot column) times the lcm of the pivot entries it divides by."""
    pivot_set = set(pivots)
    out = []
    for f in range(nc):
        if f in pivot_set:
            continue
        hits = [(k, c) for k, c in enumerate(pivots) if E[k][f]]
        scale = lcm(*(E[k][c] for k, c in hits))
        v = [0] * nc
        v[f] = scale
        for k, c in hits:
            v[c] = -E[k][f] * (scale // E[k][c])
        out.append(v)
    return out


def rref(M: RationalMatrix) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form. Returns (rows, pivot columns).

    The integer rows of `_int_rref` are divided by their pivots only when
    they leave as Fractions."""
    m, pivots = _int_rref(M)
    return _fraction_rows(m, pivots) + ((_ZERO,) * M.cols,) * (M.rows - len(pivots)), tuple(pivots)


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


def kernel_basis(M: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of ker M: one vector per free column f of the RREF,
    1 at f and minus the reduced entry in column f at each pivot column."""
    E, pivots = _int_rref(M)
    free = [c for c in range(M.cols) if c not in pivots]
    return SubspaceBasis(M.cols, _fraction_rows(_kernel_ints(E, pivots, M.cols), free))


def matrix_with_kernel(B: SubspaceBasis) -> RationalMatrix:
    """Full-rank matrix whose kernel is span(B), in reduced row echelon form:
    the kernel of B's rows and then its echelon form, both on integer rows
    (the identity when B is empty)."""
    n = B.ambient_dim
    if B.dim == n:
        raise InputError("kernel equals the whole space; a matrix needs at least one row")
    E, pivots = _rref_ints(_int_rows(B.vectors)[0], n)
    K, kernel_pivots = _rref_ints(_kernel_ints(E, pivots, n), n)
    return RationalMatrix(_fraction_rows(K, kernel_pivots))


def maximal_minors(M: RationalMatrix) -> dict[tuple[int, ...], Fraction]:
    """det(M_I) for every column subset I of size d, keys sorted ascending (0-based),
    one Bareiss determinant each: the tests' oracle for `maximal_minor_signs`."""
    d, n = M.rows, M.cols
    if d > n:
        raise InputError("maximal_minors requires d <= n")
    ints, scale = _int_rows([list(r) for r in M.row_tuples])
    return {I: Fraction(_int_det([[row[j] for j in I] for row in ints]), scale)
            for I in combinations(range(n), d)}


def maximal_minor_signs(M: RationalMatrix) -> dict[int, int]:
    """sign det(M_I) for every column subset I of size d with a nonzero
    minor, keyed by the bitmask of I (bit j for column j); a subset with a
    zero minor has no entry.

    Let R be the reduced row echelon form of M and B its pivot columns. Then
    M = M_B R, so det(M_I) = det(M_B) det(R_I). Row k of the integer echelon
    form E of `_int_rref` is p_k times row k of R, so det(R_I) has the sign
    of det(E_I) times the signs of the p_k. The minors of E on its first k
    rows follow from those on its first k - 1 rows by Laplace expansion along
    row k, on ints and without division; a zero entry or a zero smaller minor
    adds no term, so the identity block of E costs little. One Bareiss
    determinant gives the sign of det(M_B). A matrix of rank below d has
    every maximal minor zero, and so an empty table."""
    d, n = M.rows, M.cols
    if d > n:
        raise InputError("maximal_minor_signs requires d <= n")
    E, pivots = _int_rref(M)
    if len(pivots) < d:
        return {}
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
    return {cols: 1 if v > 0 else -1 for cols, v in table.items()}
