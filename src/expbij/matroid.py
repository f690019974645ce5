"""Oriented-matroid data of a rational vector configuration.

All of it comes from one table per matrix, its maximal minors. The chirotope
is the table's signs; the cocircuits are read off the chirotope on
(d-1)-subsets, and the circuits on (d+1)-subsets by Cramer's rule. The full
vector and covector sets are the composition closures of the circuits and
cocircuits. The face lattice of the cone spanned by the columns is the
nonnegative part of the covectors, which is the closure of the nonnegative
cocircuits alone, since every covector is the composition of the cocircuits
conformal to it. `OrientedMatroid` holds these for one
matrix and computes each at most once. Conformal decomposition, interior
membership, and the two-branch alternative for sign vectors against a
subspace also live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

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
    maximal_minors,
    rank,
    vec_scale,
    vec_sub,
)
from .lp import Rel, feasible, make_system, realize_kernel_sign, realize_sign_vector
from .signs import (
    EnumerationCap,
    SignVector,
    composition_closure,
    minimal_support_members,
    nonneg_part,
    sign_of,
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
        self._signs = dict(signs)

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


def cocircuits_from_chirotope(chi: Chirotope) -> set[SignVector]:
    """The nonzero sign vectors j -> chi(I + j) over sorted (d-1)-tuples I, and
    their negatives. For j not in I, inserting j into I at position k sorts
    the tuple with len(I) - k transpositions."""
    signs, n, m = chi._signs, chi.n, chi.d - 1
    out: set[SignVector] = set()
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
            out.add(SignVector(n, plus, minus))
            out.add(SignVector(n, minus, plus))
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

    def facet_covectors(self) -> set[SignVector]:
        return minimal_support_members(self.faces)


class OrientedMatroid:
    """Oriented-matroid data of the columns of M, filled lazily.

    Everything is derived from the maximal minors of a full-rank matrix W with
    the row space of M (W is M when M has full rank), and each piece is
    computed at most once. The sets are frozen because callers share them.
    """

    def __init__(self, M: RationalMatrix):
        self.M = M
        self.W = _row_basis(M)

    @cached_property
    def minors(self) -> dict[tuple[int, ...], Fraction]:
        return maximal_minors(self.W)

    @cached_property
    def chirotope(self) -> Chirotope:
        return Chirotope(self.W.rows, self.W.cols,
                         {I: (m > 0) - (m < 0) for I, m in self.minors.items()})

    @cached_property
    def cocircuits(self) -> frozenset[SignVector]:
        """Minimal-support sign vectors of im W^T."""
        return frozenset(cocircuits_from_chirotope(self.chirotope))

    @cached_property
    def circuits(self) -> frozenset[SignVector]:
        """Minimal-support sign vectors of ker W, by Cramer's rule: for sorted
        J = (j_0..j_d) the vector with entry (-1)^k chi(J minus j_k) at j_k
        spans the kernel of W_J when it is nonzero, and it is zero when W_J
        has rank below d. Every circuit lies in some J of rank d."""
        chi = self.chirotope
        signs, n = chi._signs, chi.n
        out: set[SignVector] = set()
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
                out.add(SignVector(n, plus, minus))
                out.add(SignVector(n, minus, plus))
        return frozenset(out)

    def check_cap(self, what: str, cap: int):
        """Raise EnumerationCap when the configuration has more than cap columns."""
        if self.W.cols > cap:
            raise EnumerationCap(f"{what} enumeration capped at n <= {cap}, got n = {self.W.cols}")

    @cached_property
    def _covectors(self) -> frozenset[SignVector]:
        return frozenset(composition_closure(self.cocircuits, self.W.cols))

    @cached_property
    def _vectors(self) -> frozenset[SignVector]:
        return frozenset(composition_closure(self.circuits, self.W.cols))

    @cached_property
    def _nonneg_covectors(self) -> frozenset[SignVector]:
        # a covector is the composition of the cocircuits conformal to it
        return frozenset(composition_closure(nonneg_part(self.cocircuits), self.W.cols))

    def covectors(self, cap: int = 12) -> frozenset[SignVector]:
        """All of sign(im W^T): composition closure of the cocircuits."""
        self.check_cap("covector", cap)
        return self._covectors

    def vectors(self, cap: int = 12) -> frozenset[SignVector]:
        """All of sign(ker W): composition closure of the circuits."""
        self.check_cap("vector", cap)
        return self._vectors

    def nonneg_covectors(self, cap: int = 12) -> frozenset[SignVector]:
        """sign(im W^T) within {0,+}^n: composition closure of the nonnegative
        cocircuits."""
        self.check_cap("covector", cap)
        return self._nonneg_covectors

    def face_lattice(self, cap: int = 12) -> FaceLattice:
        self.check_cap("covector", cap)
        return self._face_lattice

    @cached_property
    def _face_lattice(self) -> FaceLattice:
        W, n = self.W, self.W.cols
        faces = self._nonneg_covectors
        full_space = faces == {SignVector.zero(n)}
        top = SignVector.zero(n)
        for tau in faces:
            top = top.compose(tau)
        lineality_cols = top.zero_set()
        if full_space:
            lineality_dim = W.rows
        elif lineality_cols:
            lineality_dim = rank(W.column_submatrix(lineality_cols))
        else:
            lineality_dim = 0
        zero_columns = tuple(j for j in range(n) if is_zero_vec(W.column(j)))
        return FaceLattice(
            n=n,
            d=self.M.rows,
            faces=faces,
            pointed=(lineality_dim == 0),
            lineality_dim=lineality_dim,
            robustly_generated=_robustly_generated(W, faces, full_space, zero_columns),
            full_space=full_space,
            all_plus=(SignVector(n, (1 << n) - 1, 0) in faces),
            zero_columns=zero_columns,
        )


def _robustly_generated(W, faces, full_space, zero_columns) -> bool:
    """Either d = 1, or every extreme ray carries a unique generator and all
    remaining generators are interior. W has full row rank."""
    if W.rows == 1:
        return True
    if full_space:
        return True
    if zero_columns:
        return False
    n = W.cols
    nonzero_faces = [t for t in faces if not t.is_zero()]
    singleton_zero_sets = {t.zero_set()[0] for t in nonzero_faces if len(t.zero_set()) == 1}
    for i in range(n):
        if i in singleton_zero_sets:
            continue  # generator i spans its own extreme-ray face
        if all(t[i] == 1 for t in nonzero_faces):
            continue  # generator i is interior
        return False
    return True


def chirotope(W: RationalMatrix) -> Chirotope:
    d, n = W.rows, W.cols
    if d > n:
        raise InputError("chirotope needs d <= n")
    if rank(W) < d:
        raise InputError("chirotope needs a full-rank configuration")
    return OrientedMatroid(W).chirotope


def cocircuits(M: RationalMatrix) -> frozenset[SignVector]:
    """Minimal-support sign vectors of im M^T."""
    return OrientedMatroid(M).cocircuits


def circuits(M: RationalMatrix) -> frozenset[SignVector]:
    """Minimal-support sign vectors of ker M: minimal dependent column sets."""
    return OrientedMatroid(M).circuits


def covectors(M: RationalMatrix, cap: int = 12) -> frozenset[SignVector]:
    """All of sign(im M^T): composition closure of the cocircuits."""
    return OrientedMatroid(M).covectors(cap)


def vectors(M: RationalMatrix, cap: int = 12) -> frozenset[SignVector]:
    """All of sign(ker M): composition closure of the circuits."""
    return OrientedMatroid(M).vectors(cap)


def face_lattice(W: RationalMatrix, cap: int = 12) -> FaceLattice:
    return OrientedMatroid(W).face_lattice(cap)


def conformal_decompose(M: RationalMatrix, tau: SignVector,
                        circuit_set: set[SignVector] | None = None) -> list[SignVector]:
    """Circuits rho_k <= tau composing to tau, at most min(dim ker, |supp tau|) of them."""
    if tau.n != M.cols:
        raise InputError("sign vector length differs from the column count")
    if tau.is_zero():
        return []
    x = realize_kernel_sign(M, tau)
    if x is None:
        raise InputError(f"{tau} is not a sign vector of the kernel")
    if circuit_set is None:
        circuit_set = circuits(M)
    ordered = sorted(circuit_set, key=str)
    out: list[SignVector] = []
    while not is_zero_vec(x):
        sx = sign_of(x)
        rho = next((c for c in ordered if c.leq(sx)), None)
        check(rho is not None, "nonzero kernel vector without a conformal circuit")
        J = rho.support_set()
        ker = kernel_basis(M.column_submatrix(J))
        check(ker.dim == 1, f"circuit {rho} without a one-dimensional kernel")
        u = [Fraction(0)] * M.cols
        for pos, j in enumerate(J):
            u[j] = ker.vectors[0][pos]
        u = tuple(u)
        if sign_of(u) != rho:
            u = vec_scale(-1, u)
        check(sign_of(u) == rho, f"kernel vector of circuit {rho} has another sign")
        t = min(x[j] / u[j] for j in J)
        x = vec_sub(x, vec_scale(t, u))
        out.append(rho)
    composed = out[0]
    for rho in out[1:]:
        composed = composed.compose(rho)
    check(composed == tau, f"circuits of {tau} compose to {composed}")
    return out


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
    primal = _signed_point_in_span(basis.vectors, sigma, strict=True)
    if primal is not None:
        return MintyWitness("subspace", primal)
    dual = orthogonal_witness(basis, sigma)
    check(dual is not None, "both branches of the alternative failed")
    return MintyWitness("orthogonal", dual)


def orthogonal_witness(basis: SubspaceBasis, sigma: SignVector) -> Vec | None:
    """Nonzero x in S-perp with sign(x) <= sigma, or None: the orthogonal
    branch of the alternative on its own."""
    n = basis.ambient_dim
    comp = kernel_basis(RationalMatrix(basis.vectors)) if basis.dim else None
    comp_vectors = comp.vectors if comp is not None else tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    )
    return _nonzero_conformal_point(comp_vectors, sigma)


def _signed_point_in_span(span_vectors, sigma, strict: bool):
    if not span_vectors:
        return None
    k = len(span_vectors)
    rows = []
    for i in sigma.plus_set():
        rows.append((tuple(v[i] for v in span_vectors), Rel.GT if strict else Rel.GE))
    for i in sigma.minus_set():
        rows.append((tuple(v[i] for v in span_vectors), Rel.LT if strict else Rel.LE))
    wit = feasible(make_system(k, rows))
    if wit is None:
        return None
    point = tuple(
        sum((wit.point[j] * span_vectors[j][i] for j in range(k)), Fraction(0))
        for i in range(sigma.n)
    )
    return point


def _nonzero_conformal_point(span_vectors, sigma):
    if not span_vectors:
        return None
    k = len(span_vectors)
    n = sigma.n
    rows = []
    weight = [Fraction(0)] * k
    for i in range(n):
        form = tuple(v[i] for v in span_vectors)
        s = sigma[i]
        if s > 0:
            rows.append((form, Rel.GE))
            weight = [w + f for w, f in zip(weight, form)]
        elif s < 0:
            rows.append((form, Rel.LE))
            weight = [w - f for w, f in zip(weight, form)]
        else:
            rows.append((form, Rel.EQ))
    rows.append((tuple(weight), Rel.GT))
    wit = feasible(make_system(k, rows))
    if wit is None:
        return None
    return tuple(
        sum((wit.point[j] * span_vectors[j][i] for j in range(k)), Fraction(0))
        for i in range(n)
    )


def is_interior_point(W: RationalMatrix, y: Vec, cap: int = 12) -> bool:
    """y in the interior of cone(columns of W): strictly positive at every
    facet's supporting functional."""
    if len(y) != W.rows:
        raise InputError("point dimension differs from the cone's ambient dimension")
    facets = minimal_support_members(OrientedMatroid(W).nonneg_covectors(cap))
    for tau in facets:
        x = realize_sign_vector(W, tau)
        check(x is not None, f"face covector {tau} without a supporting functional")
        if dot(x, y) <= 0:
            return False
    return True
