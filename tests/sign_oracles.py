"""Sign-vector routines that the tests use as oracles.

The package keeps sign sets as packed ints; most of these work on
`SignVector` objects by their definitions, with no packing, so the packed
code can be checked against them. `conformal_decompose` and `is_uniform`
read an `OrientedMatroid` instead: the package itself needs neither.
"""

from fractions import Fraction
from functools import reduce
from itertools import product
from operator import or_

from expbij.linalg import InputError, RationalMatrix, check, is_zero_vec, kernel_basis
from expbij.lp import realize_kernel_sign
from expbij.matroid import oriented_matroid
from expbij.signs import EnumerationCap, SignVector, bits, pack, sign_of, str_order, unpack


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
