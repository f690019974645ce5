"""Sign-vector routines that the tests use as oracles.

The package keeps sign sets as packed ints; most of these work on
`SignVector` objects by their definitions, with no packing, so the packed
code can be checked against them. `conformal_decompose` and `is_uniform`
read an `OrientedMatroid` instead: the package itself needs neither.
`minor_forms` states the four maximal-minor rules and their certificates on
the Fraction minors,
and `ordered_partitions_of_elements` the iii search's partitions on tuples.
`orthogonal_masks_tree` builds a sign set from the whole prefix tree, both
halves of a set closed under negation, and with only + allowed builds the
faces over the circuits, a route the package does not take. `cone_flags_from_faces` reads the
cone flags off the enumerated faces, and `subspace_contains` and
`same_subspace` test subspaces by rank. `structure_oracle` builds a reaction
network's structure in `Fraction` arithmetic, from `row_space_basis`,
`kernel_basis` and `intersection_dim`, and `matrix_with_kernel_oracle` the
matrix with a given kernel through an intermediate `SubspaceBasis` and
`RationalMatrix` (`kernel_basis`, then `rref`); the package computes both on
int rows.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_, or_

from expbij.crn import GeneralizedNetwork, NetworkStructure, _weak_components, is_weakly_reversible
from expbij.linalg import (
    InputError,
    RationalMatrix,
    SubspaceBasis,
    Vec,
    check,
    kernel_basis,
    maximal_minors,
    rank,
    rref,
    vec,
    vec_sub,
)
from expbij.lp import realize_kernel_sign
from expbij.matroid import oriented_matroid
from expbij.signs import EnumerationCap, SignVector, bits, pack, sign_of, str_order, unpack


def is_zero_vec(v: Vec) -> bool:
    return all(x == 0 for x in v)


def subspace_contains(basis: SubspaceBasis, v: Vec) -> bool:
    """v lies in the span of the basis: appending it keeps the rank."""
    if is_zero_vec(v):
        return True
    if not basis.vectors:
        return False
    return rank(RationalMatrix(basis.vectors + (vec(v),))) == basis.dim


def same_subspace(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    if a.ambient_dim != b.ambient_dim or a.dim != b.dim:
        return False
    return all(subspace_contains(b, v) for v in a.vectors)


def row_space_basis(M: RationalMatrix) -> SubspaceBasis:
    """Canonical basis of im M^T: the nonzero rows of the RREF."""
    rows, pivots = rref(M)
    return SubspaceBasis(M.cols, tuple(rows[: len(pivots)]))


def intersection_dim(A: SubspaceBasis, B: SubspaceBasis) -> int:
    """dim(span A ∩ span B), via dim A + dim B - dim(A + B)."""
    if A.ambient_dim != B.ambient_dim:
        raise InputError("intersection_dim: ambient dimensions differ")
    if A.dim == 0 or B.dim == 0:
        return 0
    stacked = RationalMatrix(A.vectors + B.vectors)
    return A.dim + B.dim - rank(stacked)


def matrix_with_kernel_oracle(B: SubspaceBasis) -> RationalMatrix:
    """Full-rank matrix whose kernel is span(B), in reduced row echelon form:
    the RREF of the Fraction kernel basis of B's rows, or the identity."""
    n = B.ambient_dim
    if B.dim == 0:
        return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])
    complement = kernel_basis(RationalMatrix(B.vectors))
    rows, pivots = rref(RationalMatrix(complement.vectors))
    return RationalMatrix(rows[: len(pivots)])


def structure_oracle(network: GeneralizedNetwork) -> NetworkStructure:
    """The network's structure in Fraction arithmetic: reaction vectors by
    `vec_sub`, both subspaces by `row_space_basis`, and the deficiency
    formulas checked against each other with `intersection_dim`."""
    ns, m = network.num_species, network.num_vertices
    Y = RationalMatrix([[network.vertices[j][0][i] for j in range(m)] for i in range(ns)])
    Yt = RationalMatrix([[network.vertices[j][1][i] for j in range(m)] for i in range(ns)])
    ne = len(network.edges)
    inc = [[Fraction(0)] * ne for _ in range(m)]
    for e, (u, v) in enumerate(network.edges):
        inc[u][e] -= 1
        inc[v][e] += 1
    incidence = RationalMatrix(inc)

    laplacian = None
    if all(k is not None for k in network.rate_constants):
        lap = [[Fraction(0)] * m for _ in range(m)]
        for (u, v), k in zip(network.edges, network.rate_constants):
            lap[v][u] += k
            lap[u][u] -= k
        laplacian = RationalMatrix(lap)

    comps = _weak_components(m, network.edges)

    def reactions(side: int) -> RationalMatrix:
        return RationalMatrix([vec_sub(network.vertices[v][side], network.vertices[u][side])
                               for u, v in network.edges])

    S = row_space_basis(reactions(0))
    St = row_space_basis(reactions(1))
    ell = len(comps)
    deficiency = m - ell - S.dim
    kinetic_deficiency = m - ell - St.dim
    check(deficiency >= 0 and kinetic_deficiency >= 0, "negative deficiency")
    check(deficiency == intersection_dim(kernel_basis(Y), row_space_basis(incidence.transpose())),
          "the two deficiency formulas disagree")
    return NetworkStructure(
        stoich_complexes=Y,
        kinetic_complexes=Yt,
        incidence=incidence,
        laplacian=laplacian,
        components=tuple(tuple(c) for c in comps),
        weakly_reversible=is_weakly_reversible(network, comps),
        stoich_subspace=S,
        kinetic_subspace=St,
        deficiency=deficiency,
        kinetic_deficiency=kinetic_deficiency,
    )


def column_submatrix(M: RationalMatrix, idx) -> RationalMatrix:
    """The columns idx of M, in that order."""
    return RationalMatrix([[row[j] for j in idx] for row in M.row_tuples])


def all_sign_vectors(n: int, cap: int = 12):
    """Iterate all of {-,0,+}^n; refuses to run for n above the cap."""
    if n > cap:
        raise EnumerationCap(f"3^{n} enumeration exceeds cap n <= {cap}")
    for comps in product((-1, 0, 1), repeat=n):
        yield SignVector.from_components(comps)


def orthogonal_set(members, n: int, cap: int = 12) -> set[SignVector]:
    """All sign vectors orthogonal to every member (brute force over 3^n)."""
    members = list(members)
    return {tau for tau in all_sign_vectors(n, cap)
            if all(tau.is_orthogonal(rho) for rho in members)}


def closure(members) -> set[SignVector]:
    """All tau with tau <= rho for some member rho (the down-set)."""
    seen: set[SignVector] = set()
    ordered = sorted(set(members), key=lambda t: bin(t.support).count("1"), reverse=True)
    for rho in ordered:
        if rho in seen:
            continue  # its down-set was added with an earlier, larger member
        supp = rho.support_set()
        for k in range(1 << len(supp)):
            drop = 0
            for bit, idx in enumerate(supp):
                if k >> bit & 1:
                    drop |= 1 << idx
            seen.add(SignVector(rho.n, rho.plus & ~drop, rho.minus & ~drop))
    return seen


def nonneg_part(members) -> set[SignVector]:
    """Members with no negative component (T_plus = T intersected with {0,+}^n)."""
    return {t for t in members if t.is_nonneg()}


def closure_excluded(V, T) -> SignVector | None:
    """First member of V (tope reduction), in string order, outside the
    down-closure of T, or None: the SignVector form of the analyzer's packed
    search. Maximal members of a subspace sign set all have the same support,
    and a tope pi is below r iff r agrees with pi on pi's support."""
    union = 0
    for t in V:
        union |= t.support
    below = {(r.plus & union, r.minus & union) for r in T}
    return min((pi for pi in V if pi.support == union and (pi.plus, pi.minus) not in below),
               key=str, default=None)


def minor_forms(W: RationalMatrix, Wt: RationalMatrix) -> dict[str, tuple[str, dict]]:
    """Each minor form's verdict and certificate from the exact minors of W
    and Wt. The form holds iff the products sign det(W_I) det(Wt_I) share one
    nonzero sign over its subsets I, which are the nonzero products for i,
    every I with det(W_I) != 0 for cc, every I with det(Wt_I) != 0 for
    cc_prime, and all I for robust_both. The certificate names the first, in
    `combinations` order, of three kinds of subset: a nonzero product (the
    reference), a zero product the form covers, and a product of the other
    sign than the reference."""
    sw = {I: (x > 0) - (x < 0) for I, x in maximal_minors(W).items()}
    swt = {I: (x > 0) - (x < 0) for I, x in maximal_minors(Wt).items()}
    covers = {"i": lambda I: sw[I] * swt[I], "cc": lambda I: sw[I], "cc_prime": lambda I: swt[I],
              "robust_both": lambda I: True}
    ref = next((I for I in sw if sw[I] * swt[I]), None)
    sign = sw[ref] * swt[ref] if ref else 0
    other = next((I for I in sw if sw[I] * swt[I] == -sign), None) if ref else None

    def one(I):
        return [i + 1 for i in I]

    out = {}
    for key, over in covers.items():
        holds = {sw[I] * swt[I] for I in sw if over(I)} in ({1}, {-1})
        zero = next((I for I in sw if over(I) and not sw[I] * swt[I]), None)
        if holds:
            cert = {"reference_sign": "+" if sign > 0 else "-"}
            if key != "robust_both":
                cert["reference_subset"] = one(ref)
        elif ref is None and zero is None:
            cert = {"reason": "all-products-zero"}
        elif key == "robust_both":
            cert = ({"violating_subset": one(zero), "reason": "zero-product"} if zero is not None else
                    {"positive_subset": one(ref if sign > 0 else other),
                     "negative_subset": one(other if sign > 0 else ref), "reason": "mixed-product-signs"})
        elif zero is not None and (other is None or zero < other):
            cert = {"violating_subset": one(zero), "reason": "zero-product-at-nonzero-minor"}
        else:
            cert = {"reference_subset": one(ref), "violating_subset": one(other),
                    **({"reference_sign": "+" if sign > 0 else "-"} if key == "i"
                       else {"reason": "mixed-product-signs"})}
        out[key] = ("holds" if holds else "fails", cert)
    return out


def cone_flags_from_faces(om, cap: int = 12) -> tuple[bool, bool, bool]:
    """full_space, all_plus and robustly_generated of cone(columns), read off
    every enumerated face (nonnegative covector) and the matrix entries: the
    full space has only the zero face, all_plus is the all-+ face, and the
    cone is robustly generated when d = 1, it is the full space, or it has no
    zero column and every generator spans its own extreme-ray face (a face
    zero at it only) or is + on every nonzero face."""
    d, n = om.W.rows, om.W.cols
    full = (1 << n) - 1
    faces = om.nonneg_covector_masks(cap)
    full_space, all_plus = faces == {0}, full in faces
    if d == 1 or full_space:
        return full_space, all_plus, True
    if any(not any(row[j] for row in om.W.row_tuples) for j in range(n)):
        return full_space, all_plus, False
    nonzero = [t for t in faces if t]
    extreme = {full & ~t for t in nonzero}
    interior = reduce(and_, nonzero, full)
    return full_space, all_plus, all(1 << i in extreme or interior >> i & 1 for i in range(n))


def ordered_partitions_of_elements(elements: tuple[int, ...], admissible):
    """Ordered partitions of the element set into admissible blocks, each a
    frozenset: the first block runs over the subsets of the sorted elements
    in the order of their bit patterns."""
    if not elements:
        yield ()
        return
    elems = tuple(sorted(elements))
    k = len(elems)
    for mask in range(1, 1 << k):
        block = frozenset(elems[i] for i in range(k) if mask >> i & 1)
        if not admissible(block):
            continue
        rest = tuple(e for e in elems if e not in block)
        for tail in ordered_partitions_of_elements(rest, admissible):
            yield (block,) + tail


def is_uniform(om) -> bool:
    """Every d-subset of columns is a basis: every cocircuit has exactly
    d-1 zeros, since a dependent d-subset lies in some cocircuit's zeros."""
    n, full = om.W.cols, (1 << om.W.cols) - 1
    return all(bin(full & ~(c | c >> n)).count("1") == om.W.rows - 1 for c in om.cocircuit_masks)


def conformal_decompose(M, tau: SignVector) -> list[SignVector]:
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
        ker = kernel_basis(column_submatrix(M, J))
        check(ker.dim == 1, f"circuit {unpack(rho, n)} without a one-dimensional kernel")
        u = [Fraction(0)] * n
        for pos, j in enumerate(J):
            u[j] = ker.vectors[0][pos]
        if pack(sign_of(u)) != rho:
            u = [-a for a in u]
        check(pack(sign_of(u)) == rho, f"kernel vector of circuit {unpack(rho, n)} has another sign")
        t = min(x[j] / u[j] for j in J)
        x = tuple(a - t * b for a, b in zip(x, u))
        out.append(rho)
    # sign vectors conformal to one another compose by OR
    composed = reduce(or_, out)
    check(composed == target, f"circuits of {tau} compose to {unpack(composed, n)}")
    return [unpack(rho, n) for rho in out]


def orthogonal_masks_tree(gens, n: int, allowed: int) -> frozenset[int]:
    """The packed sign vectors of length n orthogonal to all of gens whose
    nonzero signs lie in `allowed`, by the whole prefix tree: both halves of
    a set closed under negation are built, and every member is put into a
    set as it is found. A node (x, P, N) is a prefix x with the generators,
    one per opposite pair, that it meets with a + product (P) and with a -
    product (N); at position k the lowest generator that ends there and is
    not in P & N fixes the sign, and with no such generator all three signs
    extend x."""
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
    nodes = [(0, 0, 0)]
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
        nodes = children
    # the same step at the last position, where only the signs are kept
    p, m, e, bp, bm = pos[-1], neg[-1], ends[-1], 1 << n - 1, 1 << 2 * n - 1
    bp, bm = allowed & bp, allowed & bm  # a sign that is not allowed adds nothing
    out: set[int] = set()
    for x, P, N in nodes:
        g = e & ~(P & N)
        if not g:
            out.update((x, x | bp, x | bm))
            continue
        g &= -g
        if not g & (P | N):
            out.add(x)
        elif g & (P & m | N & p):
            if bp:
                out.add(x | bp)
        elif bm:
            out.add(x | bm)
    return frozenset(out)
