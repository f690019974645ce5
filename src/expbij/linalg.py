"""Exact rational vectors, matrices, and the elimination kernel.

All entries are `fractions.Fraction` (always reduced, positive denominator).
Inside the kernel the arithmetic runs on Python ints, and products
accumulate one numerator and one denominator; a `Fraction` is built only for
a value that leaves the kernel. One Gauss-Jordan core on primitive int rows
(`_rref_ints`) does all elimination: a matrix runs it once, on first use,
and keeps the result (`RationalMatrix.echelon`), which its rank, reduced row
echelon form, kernel basis, row basis and table of maximal minor signs all
read. The reduced row echelon form is unique, so bases and certificates are
reproducible. Callers that hold int rows, such as `crn`, call the core
directly. Bareiss elimination only computes determinants (`_int_det`). The
signs of the maximal minors, which the analyzer and the certificate verifier
read, form one integer table per matrix (`maximal_minor_signs`: the echelon,
one Bareiss determinant, then Laplace expansion; one entry per nonzero
minor, keyed by column bitmask). `maximal_minors`, one Bareiss determinant
per minor, is the tests' oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

Vec = tuple[Fraction, ...]
_ZERO, _ONE = Fraction(0), Fraction(1)
_UNITS = (_ZERO, _ONE, -_ONE)  # indexed by 0, 1 and -1


class InputError(ValueError):
    """Malformed external input (JSON schemas, dimension mismatches)."""


class InternalInconsistency(RuntimeError):
    """A result failed its own re-check: a bug in the package, never a verdict
    or an input error. Raised explicitly, so `python -O` keeps the check."""


def check(ok: bool, what: str):
    """Internal consistency check that `python -O` keeps."""
    if not ok:
        raise InternalInconsistency(what)


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?")


@lru_cache(maxsize=1024)
def _str_ratio(value: str) -> tuple[int, int]:
    """`_ratio` of a string; the few strings a report repeats, such as "0"
    and "1", are parsed once. The cache is bounded and its values are
    immutable."""
    match = _RATIONAL.fullmatch(value.strip())
    if match is None:
        raise InputError(f"not a rational: {value!r}")
    p, q = match.groups()
    try:
        p, q = int(p), 1 if q is None else int(q)
    except ValueError as exc:  # more digits than the int-string limit
        raise InputError(f"not a rational: {value!r}") from exc
    if q <= 0:
        raise InputError(f"denominator must be positive in {value!r}")
    return p, q


def _ratio(value) -> tuple[int, int]:
    """(p, q) with q > 0 for an entry that `frac` accepts, not necessarily in
    lowest terms; InputError for any other."""
    if isinstance(value, str):
        return _str_ratio(value)
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise InputError(f"boolean is not a rational entry: {value!r}")
    if isinstance(value, int):
        return value, 1
    raise InputError(f"unsupported rational entry of type {type(value).__name__}: {value!r}")


def frac(value) -> Fraction:
    """Parse an entry: int, Fraction, or a string "p" or "p/q" with q > 0,
    where p and q are an optional sign and ASCII digits; whitespace may
    surround the string. The ints 0, 1 and -1 share one Fraction each."""
    if type(value) is int:  # not a bool
        return _UNITS[value] if -1 <= value <= 1 else Fraction(value)
    if isinstance(value, Fraction):
        return value
    p, q = _ratio(value)
    return Fraction(p, q) if q != 1 else Fraction(p)


def frac_str(x: Fraction) -> str:
    """Lowest-terms string form, "p" or "p/q"."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vec(values) -> Vec:
    return tuple(frac(v) for v in values)


def vec_ints(values) -> tuple[list[int], int]:
    """The entries of `vec(values)` as ints over one positive denominator D,
    the lcm of the entries' denominators as written: entry i is ints[i] / D.
    It accepts and rejects exactly what `vec` does, and builds no Fraction."""
    ints, D = [], 1
    for v in values:
        p, q = _str_ratio(v) if type(v) is str else _ratio(v)
        if D % q:
            m = lcm(D, q)
            ints = [a * (m // D) for a in ints]
            D = m
        ints.append(p * (D // q))
    return ints, D


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


def _int_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Scale each row of Fractions to integers by the lcm of its
    denominators; return (int rows, the row scales)."""
    out, scales = [], []
    for row in rows:
        m = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row])
        scales.append(m)
    return out, scales


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination; each row swap negates it."""
    m = [row[:] for row in rows]
    sign, prev = 1, 1
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv], sign = m[piv], m[k], -sign
        p = m[k]
        for r in m[k + 1:]:
            for j in range(k + 1, len(m)):
                r[j] = (p[k] * r[j] - r[k] * p[j]) // prev
        prev = p[k]
    return sign * prev


class RationalMatrix:
    """Immutable d x n matrix of exact rationals (d, n >= 1).

    `_echelon` holds the matrix's integer echelon form once `echelon` has
    computed it, and `_om` its `matroid.OrientedMatroid` once a `matroid`
    function has built it, so that each lives exactly as long as this object."""

    __slots__ = ("rows", "cols", "_data", "_hash", "_om", "_echelon")

    def __init__(self, entries):
        data = tuple(tuple(map(frac, row)) for row in entries)
        if not data or not data[0]:
            raise InputError("matrix must have at least one row and one column")
        if any(len(row) != len(data[0]) for row in data):
            raise InputError("matrix rows must all have the same length")
        self._data = data
        self._hash = self._om = self._echelon = None
        self.rows = len(data)
        self.cols = len(data[0])

    @classmethod
    def _of(cls, data: tuple[Vec, ...]) -> "RationalMatrix":
        """The matrix of rows that are already tuples of Fractions, nonempty
        and of one length: nothing is parsed or checked. Public input goes
        through the constructor."""
        M = object.__new__(cls)
        M._data = data
        M._hash = M._om = M._echelon = None
        M.rows = len(data)
        M.cols = len(data[0])
        return M

    def echelon(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """(E, pivots): the nonzero rows and the pivot columns of `_rref_ints`
        on the integer-scaled rows, computed on first use. Row k of E is p_k
        times row k of the reduced row echelon form, where p_k = E[k][pivots[k]]."""
        if self._echelon is None:
            E, pivots = _rref_ints(_int_rows(self._data)[0], self.cols)
            self._echelon = tuple(map(tuple, E[:len(pivots)])), tuple(pivots)
        return self._echelon

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
        return RationalMatrix._of(tuple(zip(*self._data)))

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
        return RationalMatrix._of(tuple(tuple(dot(row, c) for c in cols) for row in self._data))

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise InputError("det: matrix is not square")
        ints, scales = _int_rows(self._data)
        return Fraction(_int_det(ints), prod(scales))

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
            if key in obj and (type(obj[key]) is not int or obj[key] != want):
                raise InputError(f'matrix JSON field "{key}"={obj[key]} does not match entries ({want})')
        return mat


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
                row = [pc * a - f * b for a, b in zip(m[i], p)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return m, pivots


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


def _seeded(rows: tuple[Vec, ...], echelon) -> RationalMatrix:
    """The matrix of rows of Fractions, which have the given echelon form."""
    M = RationalMatrix._of(rows)
    M._echelon = echelon
    return M


def rank(M: RationalMatrix) -> int:
    return len(M.echelon()[1])


def rref(M: RationalMatrix) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Reduced row echelon form. Returns (rows, pivot columns): the integer
    echelon rows divided by their pivots, then the zero rows."""
    E, pivots = M.echelon()
    return _fraction_rows(E, pivots) + ((_ZERO,) * M.cols,) * (M.rows - len(pivots)), pivots


def reduced(M: RationalMatrix) -> RationalMatrix:
    """The nonzero rows of the reduced row echelon form of M, as a matrix
    sharing M's echelon: M itself when it already is that matrix."""
    rows, pivots = rref(M)
    return M if rows == M.row_tuples else _seeded(rows[:len(pivots)], M.echelon())


def seed_reduced(M: RationalMatrix) -> bool:
    """Whether M is a full-rank reduced row echelon form, read off its
    entries: each row's first nonzero entry is 1, lies right of the previous
    row's, and is alone in its column. If so, M's echelon is set from its
    rows over their denominators, with no elimination: those rows are
    primitive, and `_rref_ints` would neither swap nor change them."""
    rows, pivots = M.row_tuples, []
    for row in rows:
        c = next((j for j, a in enumerate(row) if a), None)
        if c is None or row[c] != 1 or pivots and c <= pivots[-1]:
            return False
        pivots.append(c)
    if any(row[c] for k, c in enumerate(pivots) for row in rows[:k]):
        return False
    if M._echelon is None:
        M._echelon = tuple(map(tuple, _int_rows(rows)[0])), tuple(pivots)
    return True


def row_basis(M: RationalMatrix) -> RationalMatrix:
    """Full-rank matrix with the row space of M, and so with its kernel: a
    copy of M when M has full rank, else the rows of its integer echelon
    form. It shares M's echelon and holds no reference to M."""
    E, pivots = M.echelon()
    if not pivots:
        raise InputError("zero matrix has no vector configuration")
    rows = M.row_tuples if len(pivots) == M.rows else tuple(tuple(map(Fraction, row)) for row in E)
    return _seeded(rows, (E, pivots))


@dataclass(frozen=True)
class SubspaceBasis:
    """A linearly independent spanning set for a subspace of R^n (possibly
    empty). `matrix` has the vectors as rows (None when there are none) and
    keeps the echelon that the independence check computed."""

    ambient_dim: int
    vectors: tuple[Vec, ...]
    matrix: RationalMatrix | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise InputError("ambient dimension must be >= 1")
        for v in self.vectors:
            if len(v) != self.ambient_dim:
                raise InputError("basis vector length differs from ambient dimension")
        if self.vectors:
            M = RationalMatrix(self.vectors)
            if rank(M) != len(self.vectors):
                raise InputError("basis vectors are linearly dependent")
            object.__setattr__(self, "matrix", M)

    @classmethod
    def _trusted(cls, ambient_dim: int, vectors: tuple[Vec, ...], echelon=None) -> "SubspaceBasis":
        """For vectors of Fractions independent by construction: no check, and
        the matrix's echelon is the given one, if any, else left to its first
        use."""
        B = object.__new__(cls)
        B.__dict__.update(ambient_dim=ambient_dim, vectors=vectors,
                          matrix=RationalMatrix._of(vectors) if vectors else None)
        if echelon is not None and vectors:
            B.matrix._echelon = echelon
        return B

    @property
    def dim(self) -> int:
        return len(self.vectors)


def kernel_basis(M: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of ker M: one vector per free column f of the RREF,
    1 at f and minus the reduced entry in column f at each pivot column."""
    E, pivots = M.echelon()
    free = [c for c in range(M.cols) if c not in pivots]
    return SubspaceBasis._trusted(M.cols, _fraction_rows(_kernel_ints(E, pivots, M.cols), free))


def matrix_with_kernel(B: SubspaceBasis) -> RationalMatrix:
    """Full-rank matrix whose kernel is span(B), in reduced row echelon form:
    the echelon form of the integer kernel rows of B's matrix (the identity
    when B is empty)."""
    n = B.ambient_dim
    if B.dim == n:
        raise InputError("kernel equals the whole space; a matrix needs at least one row")
    E, pivots = B.matrix.echelon() if B.dim else ((), ())
    E, pivots = _rref_ints(_kernel_ints(E, pivots, n), n)
    echelon = tuple(map(tuple, E[:len(pivots)])), tuple(pivots)
    return _seeded(_fraction_rows(*echelon), echelon)


def maximal_minors(M: RationalMatrix) -> dict[tuple[int, ...], Fraction]:
    """det(M_I) for every column subset I of size d, keys sorted ascending (0-based),
    one Bareiss determinant each: the tests' oracle for `maximal_minor_signs`."""
    d, n = M.rows, M.cols
    if d > n:
        raise InputError("maximal_minors requires d <= n")
    ints, scales = _int_rows(M.row_tuples)
    scale = prod(scales)
    return {I: Fraction(_int_det([[row[j] for j in I] for row in ints]), scale)
            for I in combinations(range(n), d)}


def maximal_minor_signs(M: RationalMatrix) -> dict[int, int]:
    """sign det(M_I) for every column subset I of size d with a nonzero
    minor, keyed by the bitmask of I (bit j for column j); a subset with a
    zero minor has no entry.

    Let R be the reduced row echelon form of M and B its pivot columns. Then
    M = M_B R, so det(M_I) = det(M_B) det(R_I). Row k of the integer echelon
    form E of `M.echelon` is p_k times row k of R, so det(R_I) has the sign
    of det(E_I) times the signs of the p_k. The minors of E on its first k
    rows follow from those on its first k - 1 rows by Laplace expansion along
    row k, on ints and without division; a zero entry or a zero smaller minor
    adds no term, so the identity block of E costs little. One Bareiss
    determinant gives the sign of det(M_B). A matrix of rank below d has
    every maximal minor zero, and so an empty table."""
    d, n = M.rows, M.cols
    if d > n:
        raise InputError("maximal_minor_signs requires d <= n")
    E, pivots = M.echelon()
    if len(pivots) < d:
        return {}
    scale = _int_det(_int_rows([[row[j] for j in pivots] for row in M.row_tuples])[0])
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
