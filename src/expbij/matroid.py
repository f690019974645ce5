"""Oriented-matroid data of a rational vector configuration.

All of it comes from one table per matrix: the signs of the nonzero maximal
minors of a full-rank row basis (`linalg.row_basis`), keyed by column
bitmask (`linalg.maximal_minor_signs`); the row basis and the table read the
matrix's one echelon form. The cocircuits are read off each basis minus one
column and the circuits off each basis plus one column (`_signed_masks`).
The covectors are the sign vectors orthogonal to every circuit, and the
vectors those orthogonal to every cocircuit. Both prefix routines read one
per-column index of the generators (`_prefix_index`): `_orthogonal_masks`
enumerates such a set breadth first, and the depth-first `first_orthogonal`
finds its first member in string order with given signs on given columns,
which answers `extends`, `first_vector` and, over two families, condition
i. The faces of the cone of the columns are the OR-closure of its facets,
the nonnegative cocircuits, which decide every flag of the cone (`cone`).
`OrientedMatroid` holds all of this for one matrix, as packed ints. The
module functions are the `SignVector` API: they share one `OrientedMatroid`
per matrix object, return `SignSet` views and raise `EnumerationCap` past
the n cap (`signs.over_cap`). The benchmark's `enumerate` workload binds
`Chirotope` and `cocircuits_from_chirotope`, thin views of the table, by
name. Minty's alternative also lives here; its orthogonal branch, which is
also the closure certificates' witness, is `orthogonal_point`.

The witnesses of `OrientedMatroid.vector_point` (on all columns) and
`covector_point` are `lp`'s answers, read off the integer echelon where the
LP's answer is known in closed form. The LP maximizes a margin t <= 1, so
every optimum has t = 1, and Bland's rule stops at a basic optimum.

A kernel point of the packed x vanishes off the support S of x, so the
LP's optimal face is P = {v in ker W : v = 0 off S, x_i v_i >= 1 on S}. No
coordinate changes sign on P, so a basic optimum of the split LP (v = v+ -
v-) is a vertex of P. By conformal decomposition (Rockafellar 1969) x is a
vector iff the circuits conformal to it, those whose + and - lie in x's,
cover S, and then they span ker W_S: for v with signs x and any w in
ker W_S, v and v + eps w both have signs x for a small eps > 0, so both are
positive combinations of those circuits. When each of them has a private
column, one that no other touches, they are independent, a basis of
ker W_S, and the coefficient of a circuit c in a v in P is at least
1 / |c_p| at each private column p of c. So P lies in m + cone(circuits), m
the sum of the circuits, each oriented to x and divided by its least
|entry| on its private columns. When m's least |entry| on S is 1, m lies in
P and is its only vertex, the LP's answer (`_conformal_point`); a kernel
line, one circuit, is the case where every column is private. Circuits that
do not cover S answer None with no LP.

A covector's y is orthogonal to the columns in the zero set Z of x. A
covector whose Z has rank d - 1 is +-a cocircuit, and x is one exactly when
it is in `cocircuit_masks`; then eliminating W's integer rows on Z leaves
one free column, and the candidate points are the multiples of one integer
vector, so every optimum is lambda k with lambda >= lambda0, k the line's
vector oriented to x and lambda0 k of least |value| 1 on supp x. For
lambda > lambda0 the nonzero LP columns (the coordinates, the strict slacks
and t) are dependent along k, so lambda0 k is the only basic optimum,
whichever path Bland's rule takes (`ray_point`). Both closed forms read one
integer view of W, its rows times the lcm D of all its denominators
(`_common`): a positive row scaling keeps the kernel, each conformal circuit
is divided by its own least private entry, and the covector point is
rescaled by D. Each closed-form point is re-substituted into that view, in
ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from math import lcm
from operator import and_, or_

from .linalg import (
    _ZERO,
    InputError,
    RationalMatrix,
    SubspaceBasis,
    Vec,
    _kernel_ints,
    _rref_ints,
    check,
    matrix_with_kernel,
    maximal_minor_signs,
    row_basis,
)
from .lp import realize_conformal_covector, realize_kernel_sign, realize_sign_vector
from .signs import MAX_N_ENUMERATION, EnumerationCap, SignSet, SignVector, bits, over_cap, pack, packed_signs


class Chirotope:
    """Sign of det(W_I) on d-tuples, extended alternately to all tuples: a view
    of the minor table {column mask: +-1} of an `OrientedMatroid`."""

    def __init__(self, d: int, n: int, signs: dict[int, int]):
        self.d = d
        self.n = n
        self._signs = signs  # shared with the OrientedMatroid that built it

    def value(self, tup) -> int:
        tup = tuple(tup)
        if len(tup) != self.d:
            raise InputError(f"chirotope takes {self.d}-tuples, got {len(tup)}")
        if not all(0 <= i < self.n for i in tup):
            raise InputError(f"chirotope column indices lie in 0..{self.n - 1}, got {tup}")
        if len(set(tup)) < len(tup):
            return 0
        inversions = sum(a > b for k, a in enumerate(tup) for b in tup[k + 1:])
        return (-1) ** inversions * self._signs.get(sum(1 << i for i in tup), 0)

    def sorted_items(self) -> list[tuple[tuple[int, ...], int]]:
        """(I, sign det(W_I)) for every sorted d-tuple I, ascending, zeros included."""
        get = self._signs.get
        return [(I, get(sum(1 << i for i in I), 0)) for I in combinations(range(self.n), self.d)]

    def __eq__(self, other):
        return (isinstance(other, Chirotope)
                and (self.d, self.n, self._signs) == (other.d, other.n, other._signs))


def cocircuits_from_chirotope(chi: Chirotope) -> SignSet:
    """The cocircuits read off the chirotope's minor table."""
    return SignSet(_signed_masks(chi._signs, chi.n, cocircuits=True), chi.n)


def _signed_masks(table: dict[int, int], n: int, cocircuits: bool) -> frozenset[int]:
    """The cocircuits or the circuits, packed, from the minor table {basis
    mask: +-1}. Each hyperplane, a basis minus one column, gives a cocircuit,
    and each basis plus one column holds one circuit. For such a set S the
    sign vector is j -> table[S ^ j] times (-1) to the number k of elements
    of S below j, with its negative. For a basis plus one this is Cramer's
    vector, (-1)^k chi(S minus j) at the k-th element j of S, which spans
    the kernel of W_S. For a hyperplane it is chi(S, j) up to the sign
    (-1)^(d-1), since the elements above j are the transpositions that sort
    j into place."""
    cols = [1 << j for j in range(n)]
    sets = ({B ^ bit for B in table for bit in cols if B & bit} if cocircuits
            else {B | bit for B in table for bit in cols if not B & bit})
    get = table.get
    out: set[int] = set()
    for S in sets:
        plus = minus = 0
        odd = 0  # parity of the elements of S below the column
        for bit in cols:
            s = get(S ^ bit)
            if s is not None:
                if (s > 0) != odd:
                    plus |= bit
                else:
                    minus |= bit
            if S & bit:
                odd ^= 1
        out.add(plus | minus << n)
        out.add(minus | plus << n)
    return frozenset(out)


def _prefix_index(gens, n: int) -> tuple[list[int], list[int], list[int]]:
    """Per position, the generators (one per opposite pair, as bit i of an
    int) that are + there, that are - there, and whose support ends there."""
    full = (1 << n) - 1
    signs, ends = [0] * 2 * n, [0] * n  # + at j is bit j of a packed g, - at j bit n + j
    for i, g in enumerate(g for g in gens if g < (g >> n | (g & full) << n)):
        b = 1 << i
        ends[((g | g >> n) & full).bit_length() - 1] |= b
        while g:
            low = g & -g
            signs[low.bit_length() - 1] |= b
            g ^= low
    return signs[:n], signs[n:], ends


def first_orthogonal(index, n: int, x: int = 0, A: int = 0) -> int | None:
    """The first packed sign vector in string order orthogonal to every
    indexed generator that agrees with x on the index mask A (x is zero off
    A), or None. P and N hold the generators met with a + and with a -
    product; orthogonal ones are met in both or neither. Those inside A are
    tested first; the free positions are set in order, + before - before 0,
    each generator is tested at its last one, and a dead end backs up (never
    over one matroid's cocircuits, where a passing prefix is a restriction
    of a vector). While x and the prefix are zero, - is skipped by symmetry."""
    pos, neg, _ = index
    full = (1 << n) - 1
    P = N = 0
    for j in bits(x & full):
        P, N = P | pos[j], N | neg[j]
    for j in bits(x >> n):
        P, N = P | neg[j], N | pos[j]
    free = bits(full & ~A)
    last, later = [], 0
    for j in reversed(free):
        last.insert(0, (pos[j] | neg[j]) & ~later)
        later |= pos[j] | neg[j]
    if (P ^ N) & ~later:  # a generator inside A
        return None

    def search(k, y, P, N):
        if k == len(free):
            return y
        j, e = free[k], last[k]
        p, m, found = pos[j], neg[j], None
        if ((P | p) ^ (N | m)) & e == 0:
            found = search(k + 1, y | 1 << j, P | p, N | m)
        if found is None and y and ((P | m) ^ (N | p)) & e == 0:
            found = search(k + 1, y | 1 << j + n, P | m, N | p)
        if found is None and (P ^ N) & e == 0:
            found = search(k + 1, y, P, N)
        return found

    return search(0, x, P, N)


def _orthogonal_masks(gens, n: int, facets=()) -> frozenset[int]:
    """Every packed sign vector of length n orthogonal to all of gens: the
    covectors when gens are the circuits, the vectors when they are the
    cocircuits. Both sets are closed under negation, so the pass builds the
    members whose first nonzero sign is + and adds their negatives. Given
    column masks as facets, it keeps only the members whose support holds
    none of them: at a facet's last column every prefix nonzero on all of it
    is dropped. The rule reads only the support, so the half and the
    negation stay valid, and a column that ends no facet costs nothing.

    Positions are set in order 0..n-1, breadth first. The prefixes kept after
    position k are the sign vectors of the first k+1 columns orthogonal to
    every generator whose support lies in 0..k, and each extends to k+1 in
    exactly one way or in all three (a face lies on one side of a new
    hyperplane, inside it, or is cut by it). A node (x, P, N) is as in
    `first_orthogonal`. At position k the lowest generator that ends there
    and is not in P & N fixes the sign: 0 when x does not meet it yet, else
    the sign whose product at k is the missing one. The zero prefix leaves
    zero, to +, only where no generator ends; it is kept outside the node
    list. Distinct prefixes end in distinct sign vectors, so the members are
    collected in a list and frozen once."""
    full = (1 << n) - 1
    pos, neg, ends = _prefix_index(gens, n)
    closing = [[F for F in facets if F.bit_length() == k + 1] for k in range(n)]  # by last column
    nodes = []
    for k in range(n - 1):
        p, m, e, bp, bm = pos[k], neg[k], ends[k], 1 << k, 1 << k + n
        children = []
        add = children.append
        for x, P, N in nodes:
            g = e & ~(P & N)
            if not g:
                add((x, P, N))
                add((x | bp, P | p, N | m))
                add((x | bm, P | m, N | p))
                continue
            g &= -g
            if not g & (P | N):
                add((x, P, N))
            elif g & (P & m | N & p):
                add((x | bp, P | p, N | m))
            else:
                add((x | bm, P | m, N | p))
        if not e:  # the zero prefix leaves zero
            add((bp, p, m))
        if fs := closing[k]:
            children = [c for c in children if all(F & ~(c[0] | c[0] >> n) for F in fs)]
        nodes = children
    # the same step at the last position, where only the signs are kept
    p, m, e, bp, bm = pos[-1], neg[-1], ends[-1], 1 << n - 1, 1 << 2 * n - 1
    out = []
    add = out.append
    for x, P, N in nodes:
        g = e & ~(P & N)
        if not g:
            out += (x, x | bp, x | bm)
            continue
        g &= -g
        if not g & (P | N):
            add(x)
        elif g & (P & m | N & p):
            add(x | bp)
        else:
            add(x | bm)
    if not e:
        add(bp)
    if fs := closing[-1]:
        out = [x for x in out if all(F & ~(x | x >> n) for F in fs)]
    out += [x >> n | (x & full) << n for x in out]
    out.append(0)
    return frozenset(out)


def _line(rows: list[list[int]], nc: int) -> list[int]:
    """The integer kernel vector of int rows of length nc whose kernel is a
    line, one free column of `_rref_ints`. The rows are eliminated in place."""
    E, pivots = _rref_ints(rows, nc)
    return _kernel_ints(E, pivots, nc)[0]


def ray_point(k: list[int], values: list[int], x: int) -> Vec:
    """The LP's answer to the realization of the packed cocircuit x, whose
    points lie on the line through the integer vector k with values W^T k of
    signs +-x: k oriented to x and divided by the least |value|, so that the
    margin is 1."""
    m = min(abs(a) for a in values if a)
    if packed_signs(values) != x:
        m = -m
    return tuple(Fraction(a, m) for a in k)


@dataclass(frozen=True)
class Cone:
    """What the facets of cone(columns) decide; d is the matrix's row count."""

    n: int
    d: int
    pointed: bool
    lineality_dim: int
    robustly_generated: bool
    full_space: bool
    all_plus: bool
    zero_columns: tuple[int, ...]


@dataclass(frozen=True)
class FaceLattice(Cone):
    """The cone with its faces, the nonnegative covectors, in reverse order:
    face(tau) is contained in face(tau') iff tau' <= tau."""

    faces: SignSet


class OrientedMatroid:
    """Oriented-matroid data of the columns of M, filled lazily.

    Everything is derived from the signs of the maximal minors of a
    full-rank matrix W with the row space of M (`linalg.row_basis`: a copy
    of M when M has full rank, sharing its echelon), and each piece is
    computed at most once, a witness once per argument. Sign vectors are
    packed ints (see `signs`) and sign sets frozen sets of them, shared with
    callers. It holds data only: the sets are built whole when read, and
    the n cap on enumerations is the callers' (`signs.over_cap`).
    """

    def __init__(self, M: RationalMatrix):
        self.d = M.rows  # W has rank(M) rows
        self.W = row_basis(M)
        self._vector_points: dict[tuple[int, int], Vec | None] = {}
        self._covector_points: dict[int, Vec | None] = {}
        self._dependent: dict[int, bool] = {}

    @cached_property
    def minor_signs(self) -> dict[int, int]:
        """sign det(W_I) for every d-subset I with a nonzero minor, keyed by
        the column mask of I: the bases. Every piece of oriented-matroid data
        is read off this one table, so it must not be changed."""
        return maximal_minor_signs(self.W)

    def equal_up_to_sign(self, other: "OrientedMatroid") -> bool:
        """The two minor tables agree up to one global sign: the
        configurations have the same vectors, and the same covectors."""
        a, b = self.minor_signs, other.minor_signs
        return (self.W.cols == other.W.cols and a.keys() == b.keys()
                and len({s * b[I] for I, s in a.items()}) <= 1)

    @cached_property
    def chirotope(self) -> Chirotope:
        return Chirotope(self.W.rows, self.W.cols, self.minor_signs)

    @cached_property
    def cocircuit_masks(self) -> frozenset[int]:
        """Minimal-support sign vectors of im W^T, packed."""
        return _signed_masks(self.minor_signs, self.W.cols, cocircuits=True)

    @cached_property
    def _cocircuit_index(self) -> tuple[list[int], list[int], list[int]]:
        return _prefix_index(self.cocircuit_masks, self.W.cols)

    def first_vector(self, x: int, A: int) -> int | None:
        """The first vector of ker W in `str_order` that agrees with x on A, or
        None: the vectors are the sign vectors orthogonal to every cocircuit."""
        return first_orthogonal(self._cocircuit_index, self.W.cols, x, A)

    def extends(self, x: int, A: int) -> bool:
        """Some vector of ker W agrees with the packed x on the index mask A."""
        return self.first_vector(x, A) is not None

    def positively_dependent(self, I: int) -> bool:
        """Some v >= 0 in ker W has support exactly the index mask I: the sign
        vector + on I and 0 elsewhere is a vector. Memoized per I. When the
        facets cover every column (`cone.all_plus`) some y has W^T y > 0, so by
        Gordan's alternative no nonzero I is, and no search runs."""
        if I and self.cone.all_plus:
            return False
        if I not in self._dependent:
            self._dependent[I] = self.extends(I, (1 << self.W.cols) - 1)
        return self._dependent[I]

    @cached_property
    def _common(self) -> tuple[list[list[int]], int]:
        """W times the lcm D of all its denominators, as int rows, and D: the
        one integer view of W that the closed forms eliminate and that their
        points are re-substituted into."""
        rows = self.W.row_tuples
        D = lcm(*(a.denominator for row in rows for a in row))
        return [[a.numerator * (D // a.denominator) for a in row] for row in rows], D

    def _resubstituted(self, point: Vec, x: int, kernel: bool) -> bool:
        """A closed-form point p times the lcm q of its denominators, put into
        W over its common denominator D: W p = 0 with sign(p) = x for a kernel
        point, sign(W^T p) = x for a covector point, and the least |value| on
        supp x is the margin 1 (q for p, q D for W^T p)."""
        rows, D = self._common
        q = lcm(*(a.denominator for a in point))
        ints = [a.numerator * (q // a.denominator) for a in point]
        if kernel:
            if any(sum(a * b for a, b in zip(row, ints)) for row in rows):
                return False
            values, margin = ints, q
        else:
            values = [sum(a * b for a, b in zip(col, ints)) for col in zip(*rows)]
            margin = q * D
        return packed_signs(values) == x and min(abs(a) for a in values if a) == margin

    def vector_point(self, x: int, A: int) -> Vec | None:
        """A point of ker W whose signs agree with the packed x on the index
        mask A, the other coordinates free, or None: the witness of
        extends(x, A). With A = all columns the points are zero off the
        support of x, and x's conformal circuits decide the system: when they
        do not cover x it is not a vector, and when they span a simplicial
        cone the LP's answer is read off them (`_conformal_point`, see the
        module docstring). Any other system is solved by the LP, whose simplex
        is deterministic. Either way it is computed once per argument."""
        key = (x, A)
        if key not in self._vector_points:
            point = conformal = None
            if A == (1 << self.W.cols) - 1 and x:
                conformal = [c for c in self.circuit_masks if not c & ~x]
            if conformal is None or reduce(or_, conformal, 0) == x:  # else x is not a vector
                point = self._conformal_point(x, conformal) if conformal else None
                if point is None:
                    point = realize_kernel_sign(self.W, x, A)
                else:
                    check(self._resubstituted(point, x, kernel=True),
                          "a kernel point read off conformal circuits violates its system")
            self._vector_points[key] = point
        return self._vector_points[key]

    def _conformal_point(self, x: int, conformal: list[int]) -> Vec | None:
        """The LP's answer for the packed vector x, read off the circuits
        conformal to it, which cover its support S, or None when they do not
        span a simplicial cone or the cone's least point is not the answer
        (see the module docstring). Each circuit needs a private column, one
        that no other touches. Eliminating W on S with one private column of
        each circuit last leaves exactly those columns free, so the kernel
        rows of the echelon are the circuits. The point is their sum, each
        oriented to x and divided by its least |entry| on its private
        columns, over the lcm L of those divisors; it is the answer iff its
        least |entry| is 1."""
        n = self.W.cols
        S = (x | x >> n) & ((1 << n) - 1)
        supports = [(c | c >> n) & S for c in conformal]
        once = twice = 0
        for s in supports:
            twice |= once & s
            once |= s
        private = [s & ~twice for s in supports]
        if not all(private):
            return None
        last = [(p & -p).bit_length() - 1 for p in private]
        cols = [*bits(S & ~sum(1 << j for j in last)), *last]
        E, pivots = _rref_ints([[row[j] for j in cols] for row in self._common[0]], len(cols))
        kernel = _kernel_ints(E, pivots, len(cols))
        check(len(kernel) == len(conformal), "conformal circuits with private columns are not a kernel basis")
        at = {j: i for i, j in enumerate(cols)}
        divisors = []  # each row's least |entry| on its private columns, signed to orient it to x
        for k, j, p in zip(kernel, last, private):
            least = min(abs(k[at[i]]) for i in bits(p))
            divisors.append(least if x >> j & 1 else -least)
        L = lcm(*divisors)
        m = [sum(k[i] * (L // q) for k, q in zip(kernel, divisors)) for i in range(len(cols))]
        if min(map(abs, m)) != L:
            return None
        point = [_ZERO] * n
        for j, a in zip(cols, m):
            point[j] = Fraction(a, L)
        return tuple(point)

    def covector_point(self, x: int) -> Vec | None:
        """y with sign(W^T y) = x for the packed x, or None when x is not a
        covector. Such y vanish on the columns of W in the zero set Z of x;
        for a cocircuit they form a line, and the LP's answer is read off it
        (`ray_point`), else the LP is solved. Computed once per argument."""
        if x not in self._covector_points:
            n = self.W.cols
            if x in self.cocircuit_masks:
                rows, D = self._common
                zero = bits(((1 << n) - 1) & ~(x | x >> n))
                k = _line([[row[i] for row in rows] for i in zero], self.W.rows)
                # k solves D W_Z^T y = 0 with values D W^T k, so the point is D k over them
                values = [sum(a * c for a, c in zip(col, k)) for col in zip(*rows)]
                point = ray_point([D * c for c in k], values, x)
                check(self._resubstituted(point, x, kernel=False),
                      "a covector point read off a line violates its system")
            else:
                point = realize_sign_vector(self.W, x, (1 << n) - 1)
            self._covector_points[x] = point
        return self._covector_points[x]

    def orthogonal_point(self, x: int) -> Vec | None:
        """Nonzero w = C^T y in the row space of W with sign(w) <= the packed x,
        or None (`lp.realize_conformal_covector`). C's rows, positive multiples
        of the kernel basis of the kernel basis (scales that leave Bland's
        pivots and w unchanged), are read off W's echelon; unmemoized."""
        n = self.W.cols
        kernel = _kernel_ints(*self.W.echelon(), n)
        rows = _kernel_ints(*_rref_ints(kernel, n), n)
        C = RationalMatrix._of(tuple(tuple(map(Fraction, row)) for row in rows))
        y = realize_conformal_covector(C, x)
        return None if y is None else C.transpose_vec(y)

    @cached_property
    def nonneg_cocircuit_masks(self) -> frozenset[int]:
        """The cocircuits in {0,+}^n, packed (a nonnegative packed int has no
        bits above n): the minimal nonzero nonnegative covectors, i.e. the
        facets of cone(columns)."""
        n = self.W.cols
        return frozenset(c for c in self.cocircuit_masks if not c >> n)

    def face_below(self, A: int) -> int:
        """The largest face of cone(columns) inside the index mask A, packed:
        the OR of the facets inside A. By Gordan's alternative it is 0 iff a
        vector of ker W is + on all of A (first_vector(A, A) is not None)."""
        face = 0
        for t in self.nonneg_cocircuit_masks:
            if t & ~A == 0:
                face |= t
        return face

    @cached_property
    def circuit_masks(self) -> frozenset[int]:
        """Minimal-support sign vectors of ker W, packed, by Cramer's rule on
        each basis plus one column (`_signed_masks`); every circuit lies in
        such a set."""
        return _signed_masks(self.minor_signs, self.W.cols, cocircuits=False)

    @cached_property
    def covector_masks(self) -> frozenset[int]:
        """All of sign(im W^T), packed: the sign vectors orthogonal to every
        circuit, by one pass over the columns (`_orthogonal_masks`)."""
        covs = _orthogonal_masks(self.circuit_masks, self.W.cols)
        # the cocircuits and the circuits are read off the table by two walks
        check(self.cocircuit_masks <= covs, "a cocircuit is not orthogonal to every circuit")
        return covs

    @cached_property
    def vector_masks(self) -> frozenset[int]:
        """All of sign(ker W), packed: the sign vectors orthogonal to every
        cocircuit, by one pass over the columns (`_orthogonal_masks`)."""
        vecs = _orthogonal_masks(self.cocircuit_masks, self.W.cols)
        check(self.circuit_masks <= vecs, "a circuit is not orthogonal to every cocircuit")
        return vecs

    @cached_property
    def nonneg_covector_masks(self) -> frozenset[int]:
        """sign(im W^T) within {0,+}^n, packed (each is its own positive part):
        the faces of cone(columns). Every nonnegative covector is the
        composition of the nonnegative cocircuits conformal to it, and
        nonnegative sign vectors compose by OR, so the faces are the
        OR-closure of the facets: starting from {0}, each facet is ORed into
        every face found so far. No circuit is needed."""
        faces = {0}
        for t in self.nonneg_cocircuit_masks:
            faces |= {f | t for f in faces}
        return frozenset(faces)

    @cached_property
    def cone(self) -> Cone:
        """Read off the facets F and the cocircuits; nothing is enumerated, so
        no cap applies. Every nonzero face is the OR of the facets below it:
        the cone is the full space iff F is empty, and face_below(full), the
        OR of F, is the largest face, all + iff the lineality space, spanned
        by the columns off it, is zero. The rank of a column set L is the
        largest |I & L| over the bases I, the d-sets with a nonzero minor; the
        zero columns are in no cocircuit's support. Robustly generated: d = 1,
        the full space, or no zero column and each column interior (+ on
        every facet) or alone on an extreme ray (the largest face zero at it
        is zero nowhere else)."""
        d, n = self.W.rows, self.W.cols
        full = (1 << n) - 1
        facets = self.nonneg_cocircuit_masks
        lineality = full & ~self.face_below(full)
        lineality_dim = max((B & lineality).bit_count() for B in self.minor_signs) if lineality else 0
        zero_columns = bits(full & ~reduce(or_, self.cocircuit_masks, 0))
        interior = reduce(and_, facets, full)
        robust = d == 1 or not facets or not zero_columns and all(
            interior >> i & 1 or self.face_below(full ^ 1 << i) == full ^ 1 << i
            for i in range(n))
        return Cone(n=n, d=self.d, pointed=lineality_dim == 0, lineality_dim=lineality_dim,
                    robustly_generated=robust, full_space=not facets, all_plus=not lineality,
                    zero_columns=zero_columns)

    @cached_property
    def face_lattice(self) -> FaceLattice:
        """The cone with its faces, the only part that is enumerated."""
        return FaceLattice(faces=SignSet(self.nonneg_covector_masks, self.W.cols), **vars(self.cone))


def first_common_sign_vector(om_w: OrientedMatroid, om_wt: OrientedMatroid) -> int:
    """The first sign vector in string order orthogonal to W's cocircuits and
    Wt's circuits, so in sign(ker W) and sign(im Wt^T), packed; 0 comes last."""
    n = om_w.W.cols
    return first_orthogonal(_prefix_index(om_wt.circuit_masks | om_w.cocircuit_masks, n), n)


def oriented_matroid(M: RationalMatrix) -> OrientedMatroid:
    """The OrientedMatroid of M, built once per matrix object and kept on it.

    Its row basis is a copy of M, so that it holds no reference back to M and
    dies with M without waiting for the cyclic garbage collector. An equal
    but distinct matrix object gets its own."""
    if M._om is None:
        M._om = OrientedMatroid(M)
    return M._om


def chirotope(W: RationalMatrix) -> Chirotope:
    """The chirotope of a full-rank W; the rank is that of the row basis the
    OrientedMatroid builds, so W is eliminated once."""
    d, n = W.rows, W.cols
    if d > n:
        raise InputError("chirotope needs d <= n")
    if not any(any(row) for row in W.row_tuples) or oriented_matroid(W).W.rows < d:
        raise InputError("chirotope needs a full-rank configuration")
    return oriented_matroid(W).chirotope


def cocircuits(M: RationalMatrix) -> SignSet:
    """Minimal-support sign vectors of im M^T."""
    return SignSet(oriented_matroid(M).cocircuit_masks, M.cols)


def circuits(M: RationalMatrix) -> SignSet:
    """Minimal-support sign vectors of ker M: minimal dependent column sets."""
    return SignSet(oriented_matroid(M).circuit_masks, M.cols)


def _enumerable(M: RationalMatrix, what: str, cap: int) -> OrientedMatroid:
    """The OrientedMatroid of M, or EnumerationCap when M has more than cap columns."""
    if capped := over_cap(what, M.cols, cap):
        raise EnumerationCap(capped)
    return oriented_matroid(M)


def covectors(M: RationalMatrix, cap: int = MAX_N_ENUMERATION) -> SignSet:
    """All of sign(im M^T): the sign vectors orthogonal to every circuit."""
    return SignSet(_enumerable(M, "covector", cap).covector_masks, M.cols)


def vectors(M: RationalMatrix, cap: int = MAX_N_ENUMERATION) -> SignSet:
    """All of sign(ker M): the sign vectors orthogonal to every cocircuit."""
    return SignSet(_enumerable(M, "vector", cap).vector_masks, M.cols)


def face_lattice(W: RationalMatrix, cap: int = MAX_N_ENUMERATION) -> FaceLattice:
    return _enumerable(W, "covector", cap).face_lattice


@dataclass(frozen=True)
class MintyWitness:
    """branch "subspace": x in S, strictly signed on supp(sigma) as sigma demands.
    branch "orthogonal": nonzero x in S-perp with sign(x) <= sigma."""

    branch: str
    vector: Vec


def minty_alternative(basis: SubspaceBasis, sigma: SignVector) -> MintyWitness:
    """Exactly one of the two branches holds; returns its rational witness."""
    n = basis.ambient_dim
    if sigma.n != n:
        raise InputError("sign vector length differs from the ambient dimension")
    if sigma.is_zero():
        raise InputError("the alternative needs a nonzero sign vector")
    x = pack(sigma)
    if basis.dim:
        y = realize_sign_vector(basis.matrix, x, sigma.support)
        if y is not None:
            return MintyWitness("subspace", basis.matrix.transpose_vec(y))
    dual = OrientedMatroid(matrix_with_kernel(basis)).orthogonal_point(x)
    check(dual is not None, "both branches of the alternative failed")
    return MintyWitness("orthogonal", dual)
