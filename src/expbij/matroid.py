"""Oriented-matroid data of a rational vector configuration.

All of it comes from one table per matrix, the signs of its maximal minors
(`linalg.maximal_minor_signs`, an integer table built from one echelon form).
That table is the chirotope; the cocircuits are read off the chirotope on
(d-1)-subsets, and the circuits on (d+1)-subsets by Cramer's rule. The full
covector set is the sign vectors orthogonal to every circuit, and the full
vector set those orthogonal to every cocircuit; `_orthogonal_masks` builds
either in one pass over the columns. Both are closed under negation, so the
pass builds only the members whose first nonzero sign is + and adds their
negatives at the end. The faces of the cone spanned by the columns are the
nonnegative covectors, which the same pass builds when it allows only + at
every position, but only to print them: the facets, the
nonnegative cocircuits, decide every flag of the cone (`cone`) and whether
two cones have the same faces. Every sign set the module enumerates comes
from that one routine; the matrix is read only to build the minor table and
to solve for witnesses. Two configurations have equal vector sets iff their
chirotopes agree up to sign, so that needs no enumeration either. Nor do
questions about single vectors: a sign vector is a vector iff it is
orthogonal to every cocircuit, which `extends` tests on a restriction and
`first_vector` uses to find the first vector with given signs by prefix
search; `vector_point` and `covector_point` return the rational witnesses
of such questions. `OrientedMatroid` holds these for one
matrix, as packed ints, and computes each at most once. The module
functions are the `SignVector` API: they share one `OrientedMatroid` per
matrix object (`oriented_matroid`) and return its sets as `SignSet` views,
which build a `SignVector` only for a caller that iterates. The two-branch
alternative for sign vectors against a subspace also lives here. This module
builds no LP rows: every system it solves comes from a builder in `lp`, on
packed sign vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import and_, or_

from .linalg import (
    InputError,
    RationalMatrix,
    SubspaceBasis,
    Vec,
    _bareiss_echelon,
    _int_rows,
    check,
    kernel_basis,
    maximal_minor_signs,
)
from .lp import realize_conformal_covector, realize_kernel_sign, realize_sign_vector, unit_vectors
from .signs import (
    EnumerationCap,
    SignSet,
    SignVector,
    bits,
    pack,
)


def _row_basis(M: RationalMatrix) -> RationalMatrix:
    """Full-rank matrix with the same row space (and hence the same kernel):
    M itself, or the nonzero rows of its fraction-free echelon form."""
    ints, _ = _int_rows([list(r) for r in M.row_tuples])
    echelon, r, _ = _bareiss_echelon(ints)
    if r == 0:
        raise InputError("zero matrix has no vector configuration")
    return M if r == M.rows else RationalMatrix(echelon[:r])


def _perm_sign(tup) -> int:
    inv = 0
    for i in range(len(tup)):
        for j in range(i + 1, len(tup)):
            if tup[i] > tup[j]:
                inv += 1
            elif tup[i] == tup[j]:
                return 0
    return -1 if inv % 2 else 1


class Chirotope:
    """Sign of det(W_I) on sorted d-tuples, extended alternately to all tuples."""

    def __init__(self, d: int, n: int, signs: dict[tuple[int, ...], int]):
        self.d = d
        self.n = n
        self._signs = signs  # shared with the OrientedMatroid that built it

    def value(self, tup) -> int:
        tup = tuple(tup)
        if len(tup) != self.d:
            raise InputError(f"chirotope takes {self.d}-tuples, got {len(tup)}")
        if not all(0 <= i < self.n for i in tup):
            raise InputError(f"chirotope column indices lie in 0..{self.n - 1}, got {tup}")
        s = _perm_sign(tup)
        if s == 0:
            return 0
        return s * self._signs[tuple(sorted(tup))]

    def sorted_items(self):
        return sorted(self._signs.items())

    def __eq__(self, other):
        return (isinstance(other, Chirotope)
                and (self.d, self.n, self._signs) == (other.d, other.n, other._signs))

    def equal_up_to_sign(self, other: "Chirotope") -> bool:
        """chi = +-other: the two configurations have the same vectors."""
        return self._signs in (other._signs, {I: -s for I, s in other._signs.items()})


def cocircuits_from_chirotope(chi: Chirotope) -> SignSet:
    """The nonzero sign vectors j -> chi(I + j) over sorted (d-1)-tuples I, and
    their negatives."""
    return SignSet(_cocircuit_masks(chi), chi.n)


def _cocircuit_masks(chi: Chirotope) -> frozenset[int]:
    """cocircuits_from_chirotope as packed ints. For j not in I, inserting j
    into I at position k sorts the tuple with len(I) - k transpositions."""
    signs, n, m = chi._signs, chi.n, chi.d - 1
    out: set[int] = set()
    for I in combinations(range(n), m):
        plus = minus = 0
        k = 0
        for j in range(n):
            if k < m and I[k] == j:
                k += 1
                continue
            s = signs[I[:k] + (j,) + I[k:]]
            if (m - k) & 1:
                s = -s
            if s > 0:
                plus |= 1 << j
            elif s < 0:
                minus |= 1 << j
        if plus | minus:
            out.add(plus | minus << n)
            out.add(minus | plus << n)
    return frozenset(out)


def _orthogonal_masks(gens, n: int, allowed: int) -> frozenset[int]:
    """Every packed sign vector of length n orthogonal to all of gens whose
    nonzero signs lie in `allowed`, a packed mask of the signs each position
    may take (zero is always allowed): the covectors when gens are the
    circuits and every sign is allowed, the vectors when they are the
    cocircuits, and the nonnegative covectors when only + is allowed.

    Positions are set in order 0..n-1. The prefixes kept after position k are
    the allowed sign vectors of the first k+1 columns, those orthogonal to
    every generator whose support lies in 0..k, and each extends to position
    k+1 in exactly one way or in all three (a face lies on one side of a new
    hyperplane, inside it, or is cut by it); an extension by a sign that is
    not allowed is dropped. A node (x, P, N) carries the generators, one per
    opposite pair and as bit i of an int, that x already meets with a +
    product (P) and with a - product (N). At position k only the generators
    whose support ends there and are not in P & N can forbid a sign; the
    lowest of them fixes it: 0 when x does not meet it yet, else the sign
    whose product at k is the missing one.

    The zero prefix meets no generator, so it stays zero wherever a
    generator ends and may leave zero only where none does; it is kept
    outside the node list. When `allowed` is closed under negation, so is
    the result (X is orthogonal to Y iff -X is), and the pass builds only
    the prefixes whose first nonzero sign is +, then adds their negatives.
    Distinct prefixes end in distinct sign vectors, so the members are
    collected in a list and frozen once."""
    full = (1 << n) - 1
    symmetric = allowed & full == allowed >> n
    pos, neg, ends = [0] * n, [0] * n, [0] * n
    reps = (g for g in gens if g < (g >> n | (g & full) << n))
    for i, g in enumerate(reps):
        b = 1 << i
        for j in bits(g & full):
            pos[j] |= b
        for j in bits(g >> n):
            neg[j] |= b
        ends[((g | g >> n) & full).bit_length() - 1] |= b
    nodes = []
    for k in range(n - 1):
        p, m, e, bp, bm = pos[k], neg[k], ends[k], 1 << k, 1 << k + n
        plus_ok, minus_ok = allowed & bp, allowed & bm
        children = []
        add = children.append
        for x, P, N in nodes:
            g = e & ~(P & N)
            if not g:
                add((x, P, N))
                if plus_ok:
                    add((x | bp, P | p, N | m))
                if minus_ok:
                    add((x | bm, P | m, N | p))
                continue
            g &= -g
            if not g & (P | N):
                add((x, P, N))
            elif g & (P & m | N & p):
                if plus_ok:
                    add((x | bp, P | p, N | m))
            elif minus_ok:
                add((x | bm, P | m, N | p))
        if not e:  # the zero prefix leaves zero
            if plus_ok:
                add((bp, p, m))
            if minus_ok and not symmetric:
                add((bm, m, p))
        nodes = children
    # the same step at the last position, where only the signs are kept
    p, m, e, bp, bm = pos[-1], neg[-1], ends[-1], 1 << n - 1, 1 << 2 * n - 1
    bp, bm = allowed & bp, allowed & bm  # a sign that is not allowed adds nothing
    out = []
    add = out.append
    for x, P, N in nodes:
        g = e & ~(P & N)
        if not g:
            add(x)
            if bp:
                add(x | bp)
            if bm:
                add(x | bm)
            continue
        g &= -g
        if not g & (P | N):
            add(x)
        elif g & (P & m | N & p):
            if bp:
                add(x | bp)
        elif bm:
            add(x | bm)
    if not e:
        if bp:
            add(bp)
        if bm and not symmetric:
            add(bm)
    if symmetric:
        out += [x >> n | (x & full) << n for x in out]
    out.append(0)
    return frozenset(out)


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
    full-rank matrix W with the row space of M (W is M when M has full
    rank), and each piece is computed at most once. Sign vectors are packed
    ints (see `signs`) and sign sets are frozen sets of them, because callers
    share them; the module functions wrap them in `SignSet` views. Beside
    its two oracles, `extends` for sign(ker W) and the covector sets for
    sign(im W^T), it hands out their rational witnesses, `vector_point` and
    `covector_point`, each solved once per argument.
    """

    def __init__(self, M: RationalMatrix):
        self.d = M.rows  # W has rank(M) rows
        self.W = _row_basis(M)
        self._vector_points: dict[tuple[int, int], Vec | None] = {}
        self._covector_points: dict[int, Vec | None] = {}

    @cached_property
    def minor_signs(self) -> dict[tuple[int, ...], int]:
        """sign det(W_I) for every sorted d-subset I, in ascending order; the
        chirotope reads this table, so it must not be changed."""
        return maximal_minor_signs(self.W)

    @cached_property
    def chirotope(self) -> Chirotope:
        return Chirotope(self.W.rows, self.W.cols, self.minor_signs)

    @cached_property
    def cocircuit_masks(self) -> frozenset[int]:
        """Minimal-support sign vectors of im W^T, packed."""
        return _cocircuit_masks(self.chirotope)

    @cached_property
    def _cocircuit_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """(c, -c, supp c), packed, once per opposite pair of cocircuits."""
        n, full = self.W.cols, (1 << self.W.cols) - 1
        pairs = ((c, c >> n | (c & full) << n) for c in self.cocircuit_masks)
        return tuple((c, neg, (c | neg) & full) for c, neg in pairs if c < neg)

    def extends(self, x: int, A: int) -> bool:
        """Some vector of ker W agrees with the packed sign vector x on the
        index mask A (x is zero off A). The restrictions of ker W to A are the
        kernel of the contraction to A, whose cocircuits are the cocircuits
        with support inside A; a sign vector is a vector iff it is orthogonal
        to every cocircuit. x is not orthogonal to c iff it meets exactly one
        of c and -c. extends(x, full) is membership in sign(ker W)."""
        for c, neg, support in self._cocircuit_pairs:
            if support & ~A == 0 and (x & c == 0) != (x & neg == 0):
                return False
        return True

    def first_vector(self, x: int, A: int) -> int | None:
        """The first vector of ker W in `str_order` that agrees with x on A, or
        None. Each position outside A is fixed in turn to the first of +, -, 0
        that still `extends`, so at most 2n + 1 orthogonality sweeps replace
        the sort of sign(ker W)."""
        n = self.W.cols
        if not self.extends(x, A):
            return None
        for j in bits(((1 << n) - 1) & ~A):
            A |= 1 << j
            for s in (1 << j, 1 << j + n):
                if self.extends(x | s, A):
                    x |= s
                    break
        return x

    def vector_point(self, x: int, A: int) -> Vec | None:
        """A point of ker W whose signs agree with the packed x on the index
        mask A, the other coordinates free, or None: the witness of
        extends(x, A). The simplex is deterministic, so it is solved once per
        argument."""
        key = (x, A)
        if key not in self._vector_points:
            self._vector_points[key] = realize_kernel_sign(self.W, x, A)
        return self._vector_points[key]

    def covector_point(self, x: int) -> Vec | None:
        """y with sign(W^T y) = x for the packed x, or None when x is not a
        covector; solved once per argument."""
        if x not in self._covector_points:
            self._covector_points[x] = realize_sign_vector(self.W, x, (1 << self.W.cols) - 1)
        return self._covector_points[x]

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
        """Minimal-support sign vectors of ker W, packed, by Cramer's rule: for
        sorted J = (j_0..j_d) the vector with entry (-1)^k chi(J minus j_k) at
        j_k spans the kernel of W_J when it is nonzero, and it is zero when W_J
        has rank below d. Every circuit lies in some J of rank d."""
        chi = self.chirotope
        signs, n = chi._signs, chi.n
        out: set[int] = set()
        for J in combinations(range(n), chi.d + 1):
            plus = minus = 0
            for k, j in enumerate(J):
                s = signs[J[:k] + J[k + 1:]]  # already sorted
                if k & 1:
                    s = -s
                if s > 0:
                    plus |= 1 << j
                elif s < 0:
                    minus |= 1 << j
            if plus | minus:
                out.add(plus | minus << n)
                out.add(minus | plus << n)
        return frozenset(out)

    def check_cap(self, what: str, cap: int):
        """Raise EnumerationCap when the configuration has more than cap columns."""
        if self.W.cols > cap:
            raise EnumerationCap(f"{what} enumeration capped at n <= {cap}, got n = {self.W.cols}")

    @cached_property
    def _covector_masks(self) -> frozenset[int]:
        n = self.W.cols
        covs = _orthogonal_masks(self.circuit_masks, n, (1 << 2 * n) - 1)
        # the cocircuits come from the chirotope directly, the circuits by Cramer
        check(self.cocircuit_masks <= covs, "a cocircuit is not orthogonal to every circuit")
        return covs

    @cached_property
    def _vector_masks(self) -> frozenset[int]:
        n = self.W.cols
        vecs = _orthogonal_masks(self.cocircuit_masks, n, (1 << 2 * n) - 1)
        check(self.circuit_masks <= vecs, "a circuit is not orthogonal to every cocircuit")
        return vecs

    @cached_property
    def _nonneg_covector_masks(self) -> frozenset[int]:
        n = self.W.cols
        faces = _orthogonal_masks(self.circuit_masks, n, (1 << n) - 1)
        check(self.nonneg_cocircuit_masks <= faces,
              "a nonnegative cocircuit is not orthogonal to every circuit")
        return faces

    def covector_masks(self, cap: int = 12) -> frozenset[int]:
        """All of sign(im W^T), packed: the sign vectors orthogonal to every
        circuit, by one pass over the columns (`_orthogonal_masks`)."""
        self.check_cap("covector", cap)
        return self._covector_masks

    def vector_masks(self, cap: int = 12) -> frozenset[int]:
        """All of sign(ker W), packed: the sign vectors orthogonal to every
        cocircuit, by one pass over the columns (`_orthogonal_masks`)."""
        self.check_cap("vector", cap)
        return self._vector_masks

    def nonneg_covector_masks(self, cap: int = 12) -> frozenset[int]:
        """sign(im W^T) within {0,+}^n, packed (each is its own positive part):
        the sign vectors in {0,+}^n orthogonal to every circuit, by the pass
        of `_orthogonal_masks` that allows only +."""
        self.check_cap("covector", cap)
        return self._nonneg_covector_masks

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
        lineality_dim = max(sum(lineality >> i & 1 for i in I)
                            for I, s in self.minor_signs.items() if s) if lineality else 0
        zero_columns = bits(full & ~reduce(or_, self.cocircuit_masks, 0))
        interior = reduce(and_, facets, full)
        robust = d == 1 or not facets or not zero_columns and all(
            interior >> i & 1 or self.face_below(full ^ 1 << i) == full ^ 1 << i
            for i in range(n))
        return Cone(n=n, d=self.d, pointed=lineality_dim == 0, lineality_dim=lineality_dim,
                    robustly_generated=robust, full_space=not facets, all_plus=not lineality,
                    zero_columns=zero_columns)

    def face_lattice(self, cap: int = 12) -> FaceLattice:
        self.check_cap("covector", cap)
        return self._face_lattice

    @cached_property
    def _face_lattice(self) -> FaceLattice:
        """The cone with its faces, the only part that is enumerated."""
        return FaceLattice(faces=SignSet(self._nonneg_covector_masks, self.W.cols), **vars(self.cone))


def oriented_matroid(M: RationalMatrix) -> OrientedMatroid:
    """The OrientedMatroid of M, built once per matrix object and kept on it.

    It is built on an equal copy of M, so that it holds no reference back to
    M and dies with M without waiting for the cyclic garbage collector. An
    equal but distinct matrix object gets its own."""
    if M._om is None:
        M._om = OrientedMatroid(RationalMatrix(M.row_tuples))
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


def covectors(M: RationalMatrix, cap: int = 12) -> SignSet:
    """All of sign(im M^T): the sign vectors orthogonal to every circuit."""
    return SignSet(oriented_matroid(M).covector_masks(cap), M.cols)


def vectors(M: RationalMatrix, cap: int = 12) -> SignSet:
    """All of sign(ker M): the sign vectors orthogonal to every cocircuit."""
    return SignSet(oriented_matroid(M).vector_masks(cap), M.cols)


def face_lattice(W: RationalMatrix, cap: int = 12) -> FaceLattice:
    return oriented_matroid(W).face_lattice(cap)


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
        B = RationalMatrix(basis.vectors)
        y = realize_sign_vector(B, x, sigma.support)
        if y is not None:
            return MintyWitness("subspace", B.transpose_vec(y))
    dual = orthogonal_witness(basis, x)
    check(dual is not None, "both branches of the alternative failed")
    return MintyWitness("orthogonal", dual)


def orthogonal_witness(basis: SubspaceBasis, x: int) -> Vec | None:
    """Nonzero v in S-perp with sign(v) <= the packed sign vector x, or None:
    the orthogonal branch of the alternative on its own. S-perp is spanned by
    the kernel basis of the basis matrix, which fixes the LP and so the
    witness."""
    n = basis.ambient_dim
    comp = kernel_basis(RationalMatrix(basis.vectors)).vectors if basis.dim else unit_vectors(n)
    if not comp:
        return None
    C = RationalMatrix(comp)
    y = realize_conformal_covector(C, x)
    return None if y is None else C.transpose_vec(y)
