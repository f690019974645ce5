"""Oriented-matroid data of a rational vector configuration.

All of it comes from one table per matrix, the signs of its maximal minors
(`linalg.maximal_minor_signs`, an integer table built from one echelon form).
That table is the chirotope; the cocircuits are read off the chirotope on
(d-1)-subsets, and the circuits on (d+1)-subsets by Cramer's rule. The full
vector and covector sets are the composition closures of the circuits and
cocircuits. The face lattice of the cone spanned by the columns is the
nonnegative part of the covectors, which is the closure of the nonnegative
cocircuits alone, since every covector is the composition of the cocircuits
conformal to it. The facets of that cone are the nonnegative cocircuits, and
two configurations have equal vector sets iff their chirotopes agree up to
sign, so neither needs a closure. Nor do questions about single vectors: a
sign vector is a vector iff it is orthogonal to every cocircuit, which
`extends` tests on a restriction and `first_vector` uses to find the first
vector with given signs by prefix search; `vector_point` and `covector_point`
return the rational witnesses of such questions. `OrientedMatroid` holds these
for one matrix, as packed ints, and computes each at most once. The module
functions are the `SignVector` API: they share one `OrientedMatroid` per
matrix object (`oriented_matroid`) and unpack its sets. Conformal
decomposition, interior membership, and the two-branch alternative for sign
vectors against a subspace also live here. This module builds no LP rows:
every system it solves comes from a builder in `lp`, on packed sign vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import combinations
from operator import or_

from .linalg import (
    InputError,
    RationalMatrix,
    SubspaceBasis,
    Vec,
    _bareiss_echelon,
    _int_rows,
    check,
    dot,
    is_zero_vec,
    kernel_basis,
    maximal_minor_signs,
    rank,
    vec_scale,
    vec_sub,
)
from .lp import realize_conformal_covector, realize_kernel_sign, realize_sign_vector, unit_vectors
from .signs import (
    EnumerationCap,
    SignVector,
    bits,
    composition_closure,
    pack,
    sign_of,
    str_order,
    unpack,
    unpack_all,
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


def cocircuits_from_chirotope(chi: Chirotope) -> set[SignVector]:
    """The nonzero sign vectors j -> chi(I + j) over sorted (d-1)-tuples I, and
    their negatives."""
    return set(unpack_all(_cocircuit_masks(chi), chi.n))


def _cocircuit_masks(chi: Chirotope) -> set[int]:
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
    return out


@dataclass(frozen=True)
class FaceLattice:
    """Nonnegative covectors of cone(columns), with the face order reversed:
    face(tau) is contained in face(tau') iff tau' <= tau."""

    n: int
    d: int
    faces: frozenset[SignVector]
    pointed: bool
    lineality_dim: int
    robustly_generated: bool
    full_space: bool
    all_plus: bool
    zero_columns: tuple[int, ...]


class OrientedMatroid:
    """Oriented-matroid data of the columns of M, filled lazily.

    Everything is derived from the signs of the maximal minors of a
    full-rank matrix W with the row space of M (W is M when M has full
    rank), and each piece is computed at most once. Sign vectors are packed
    ints (see `signs`) and sign sets are frozen sets of them, because callers
    share them; the module functions convert them to `SignVector`s. Beside
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
        return frozenset(_cocircuit_masks(self.chirotope))

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

    @cached_property
    def uniform(self) -> bool:
        """Every d-subset of columns is a basis: every cocircuit has exactly
        d-1 zeros, since a dependent d-subset lies in some cocircuit's zeros."""
        n, full = self.W.cols, (1 << self.W.cols) - 1
        return all(bin(full & ~(c | c >> n)).count("1") == self.W.rows - 1 for c in self.cocircuit_masks)

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
        return composition_closure(self.cocircuit_masks, self.W.cols)

    @cached_property
    def _vector_masks(self) -> frozenset[int]:
        return composition_closure(self.circuit_masks, self.W.cols)

    @cached_property
    def _nonneg_covector_masks(self) -> frozenset[int]:
        # a covector is the composition of the cocircuits conformal to it
        return composition_closure(self.nonneg_cocircuit_masks, self.W.cols)

    def covector_masks(self, cap: int = 12) -> frozenset[int]:
        """All of sign(im W^T), packed: composition closure of the cocircuits."""
        self.check_cap("covector", cap)
        return self._covector_masks

    def vector_masks(self, cap: int = 12) -> frozenset[int]:
        """All of sign(ker W), packed: composition closure of the circuits."""
        self.check_cap("vector", cap)
        return self._vector_masks

    def nonneg_covector_masks(self, cap: int = 12) -> frozenset[int]:
        """sign(im W^T) within {0,+}^n, packed (each is its own positive part):
        composition closure of the nonnegative cocircuits."""
        self.check_cap("covector", cap)
        return self._nonneg_covector_masks

    def face_lattice(self, cap: int = 12) -> FaceLattice:
        self.check_cap("covector", cap)
        return self._face_lattice

    @cached_property
    def _face_lattice(self) -> FaceLattice:
        W, n = self.W, self.W.cols
        full = (1 << n) - 1
        masks = self._nonneg_covector_masks
        full_space = masks == {0}
        top = 0
        for tau in masks:
            top |= tau
        lineality_cols = bits(full & ~top)
        if full_space:
            lineality_dim = W.rows
        elif lineality_cols:
            lineality_dim = rank(W.column_submatrix(lineality_cols))
        else:
            lineality_dim = 0
        zero_columns = tuple(j for j in range(n) if is_zero_vec(W.column(j)))
        return FaceLattice(
            n=n,
            d=self.d,
            faces=unpack_all(masks, n),
            pointed=(lineality_dim == 0),
            lineality_dim=lineality_dim,
            robustly_generated=_robustly_generated(W, masks, full_space, zero_columns),
            full_space=full_space,
            all_plus=full in masks,
            zero_columns=zero_columns,
        )


def _robustly_generated(W, faces, full_space, zero_columns) -> bool:
    """Either d = 1, or every extreme ray carries a unique generator and all
    remaining generators are interior. W has full row rank; faces are the
    packed nonnegative covectors."""
    if W.rows == 1:
        return True
    if full_space:
        return True
    if zero_columns:
        return False
    full = (1 << W.cols) - 1
    nonzero_faces = [t for t in faces if t]
    # generator i spans its own extreme-ray face when a face is zero at i only
    extreme = {full & ~t for t in nonzero_faces}
    interior = full  # generator i is interior when every nonzero face is + at i
    for t in nonzero_faces:
        interior &= t
    return all(1 << i in extreme or interior >> i & 1 for i in range(W.cols))


def oriented_matroid(M: RationalMatrix) -> OrientedMatroid:
    """The OrientedMatroid of M, built once per matrix object and kept on it.

    It is built on an equal copy of M, so that it holds no reference back to
    M and dies with M without waiting for the cyclic garbage collector. An
    equal but distinct matrix object gets its own."""
    if M._om is None:
        M._om = OrientedMatroid(RationalMatrix(M.row_tuples))
    return M._om


def chirotope(W: RationalMatrix) -> Chirotope:
    d, n = W.rows, W.cols
    if d > n:
        raise InputError("chirotope needs d <= n")
    if rank(W) < d:
        raise InputError("chirotope needs a full-rank configuration")
    return oriented_matroid(W).chirotope


def cocircuits(M: RationalMatrix) -> frozenset[SignVector]:
    """Minimal-support sign vectors of im M^T."""
    return unpack_all(oriented_matroid(M).cocircuit_masks, M.cols)


def circuits(M: RationalMatrix) -> frozenset[SignVector]:
    """Minimal-support sign vectors of ker M: minimal dependent column sets."""
    return unpack_all(oriented_matroid(M).circuit_masks, M.cols)


def covectors(M: RationalMatrix, cap: int = 12) -> frozenset[SignVector]:
    """All of sign(im M^T): composition closure of the cocircuits."""
    return unpack_all(oriented_matroid(M).covector_masks(cap), M.cols)


def vectors(M: RationalMatrix, cap: int = 12) -> frozenset[SignVector]:
    """All of sign(ker M): composition closure of the circuits."""
    return unpack_all(oriented_matroid(M).vector_masks(cap), M.cols)


def face_lattice(W: RationalMatrix, cap: int = 12) -> FaceLattice:
    return oriented_matroid(W).face_lattice(cap)


def conformal_decompose(M: RationalMatrix, tau: SignVector) -> list[SignVector]:
    """Circuits rho_k <= tau composing to tau, at most min(dim ker, |supp tau|)
    of them. Each step takes the first circuit in string order conformal to
    the remaining kernel vector."""
    n = M.cols
    if tau.n != n:
        raise InputError("sign vector length differs from the column count")
    if tau.is_zero():
        return []
    full = (1 << n) - 1
    target = pack(tau)
    x = realize_kernel_sign(M, target, full)
    if x is None:
        raise InputError(f"{tau} is not a sign vector of the kernel")
    ordered = sorted(oriented_matroid(M).circuit_masks, key=str_order(n))
    out: list[int] = []
    while not is_zero_vec(x):
        sx = pack(sign_of(x))
        rho = next((c for c in ordered if c & ~sx == 0), None)
        check(rho is not None, "nonzero kernel vector without a conformal circuit")
        J = bits((rho | rho >> n) & full)
        ker = kernel_basis(M.column_submatrix(J))
        check(ker.dim == 1, f"circuit {unpack(rho, n)} without a one-dimensional kernel")
        u = [Fraction(0)] * n
        for pos, j in enumerate(J):
            u[j] = ker.vectors[0][pos]
        u = tuple(u)
        if pack(sign_of(u)) != rho:
            u = vec_scale(-1, u)
        check(pack(sign_of(u)) == rho, f"kernel vector of circuit {unpack(rho, n)} has another sign")
        t = min(x[j] / u[j] for j in J)
        x = vec_sub(x, vec_scale(t, u))
        out.append(rho)
    # sign vectors conformal to one another compose by OR
    composed = reduce(or_, out)
    check(composed == target, f"circuits of {tau} compose to {unpack(composed, n)}")
    return [unpack(rho, n) for rho in out]


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


def is_interior_point(W: RationalMatrix, y: Vec) -> bool:
    """y in the interior of cone(columns of W): strictly positive at every
    facet's supporting functional. The facets are the nonnegative cocircuits.
    A cone whose columns do not span the ambient space has no interior."""
    if len(y) != W.rows:
        raise InputError("point dimension differs from the cone's ambient dimension")
    om = oriented_matroid(W)
    if om.W.rows < W.rows:
        return False
    for tau in om.nonneg_cocircuit_masks:
        x = om.covector_point(tau)
        check(x is not None, f"face covector {unpack(tau, W.cols)} without a supporting functional")
        if dot(x, y) <= 0:
            return False
    return True
