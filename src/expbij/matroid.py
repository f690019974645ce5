"""Oriented-matroid data of a rational vector configuration.

All of it comes from one table per matrix: the signs of its nonzero maximal
minors, keyed by column bitmask (`linalg.maximal_minor_signs`), whose keys
are the bases. The cocircuits are read off the hyperplanes, each a basis
minus one column, and the circuits off each basis plus one column by
Cramer's rule, in one routine (`_signed_masks`). The covectors are the sign
vectors orthogonal to every circuit, and the vectors those orthogonal to
every cocircuit; `_orthogonal_masks` builds either in one pass over the
columns, only the half whose first nonzero sign is +, and adds the
negatives. The faces of the cone spanned by the columns are the OR-closure
of its facets, the nonnegative cocircuits, and are enumerated only to be
printed: the facets decide every flag of the cone (`cone`). Two
configurations have equal vector sets iff their tables agree up to sign. A
sign vector is a vector iff it is orthogonal to every cocircuit: `extends`
tests that on a restriction, `first_vector` finds the first vector with
given signs by prefix search, and `vector_point` and `covector_point` return
rational witnesses. `OrientedMatroid` holds these for one matrix, as packed
ints, and computes each at most once. The module functions are the
`SignVector` API: they share one `OrientedMatroid` per matrix object and
return its sets as `SignSet` views. `Chirotope` and
`cocircuits_from_chirotope` are thin views of the table, kept for the
benchmark's `enumerate` workload, which binds them by name. The two-branch
alternative for sign vectors against a subspace also lives here; every
system it solves comes from a builder in `lp`.
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


def _orthogonal_masks(gens, n: int) -> frozenset[int]:
    """Every packed sign vector of length n orthogonal to all of gens: the
    covectors when gens are the circuits, the vectors when they are the
    cocircuits. Both sets are closed under negation (X is orthogonal to Y
    iff -X is), so the pass builds only the members whose first nonzero sign
    is +, then adds their negatives.

    Positions are set in order 0..n-1. The prefixes kept after position k are
    the sign vectors of the first k+1 columns orthogonal to every generator
    whose support lies in 0..k, and each extends to position k+1 in exactly
    one way or in all three (a face lies on one side of a new hyperplane,
    inside it, or is cut by it). A node (x, P, N) carries the generators,
    one per opposite pair and as bit i of an int, that x already meets with
    a + product (P) and with a - product (N). At position k only the
    generators whose support ends there and are not in P & N can forbid a
    sign; the lowest of them fixes it: 0 when x does not meet it yet, else
    the sign whose product at k is the missing one.

    The zero prefix meets no generator, so it stays zero wherever a
    generator ends and may leave zero, to +, only where none does; it is
    kept outside the node list. Distinct prefixes end in distinct sign
    vectors, so the members are collected in a list and frozen once."""
    full = (1 << n) - 1
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
        """Minimal-support sign vectors of ker W, packed, by Cramer's rule on
        each basis plus one column (`_signed_masks`); every circuit lies in
        such a set."""
        return _signed_masks(self.minor_signs, self.W.cols, cocircuits=False)

    def check_cap(self, what: str, cap: int):
        """Raise EnumerationCap when the configuration has more than cap columns."""
        if self.W.cols > cap:
            raise EnumerationCap(f"{what} enumeration capped at n <= {cap}, got n = {self.W.cols}")

    @cached_property
    def _covector_masks(self) -> frozenset[int]:
        covs = _orthogonal_masks(self.circuit_masks, self.W.cols)
        # the cocircuits and the circuits are read off the table by two walks
        check(self.cocircuit_masks <= covs, "a cocircuit is not orthogonal to every circuit")
        return covs

    @cached_property
    def _vector_masks(self) -> frozenset[int]:
        vecs = _orthogonal_masks(self.cocircuit_masks, self.W.cols)
        check(self.circuit_masks <= vecs, "a circuit is not orthogonal to every cocircuit")
        return vecs

    @cached_property
    def _nonneg_covector_masks(self) -> frozenset[int]:
        faces = {0}
        for t in self.nonneg_cocircuit_masks:
            faces |= {f | t for f in faces}
        return frozenset(faces)

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
        the faces of cone(columns). Every nonnegative covector is the
        composition of the nonnegative cocircuits conformal to it, and
        nonnegative sign vectors compose by OR, so the faces are the
        OR-closure of the facets: starting from {0}, each facet is ORed into
        every face found so far. No circuit is needed."""
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
        lineality_dim = max((B & lineality).bit_count() for B in self.minor_signs) if lineality else 0
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
