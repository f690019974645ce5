"""Brute-force sign-vector routines that the tests use as oracles.

The package keeps sign sets as packed ints; these work on `SignVector`
objects by their definitions, with no packing, so the packed code can be
checked against them.
"""

from itertools import product

from expbij.signs import EnumerationCap, SignVector


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

