"""The {-,0,+}^n sign-vector algebra.

Sign vectors are stored as two bitmasks (positive positions, negative
positions), which makes the partial order (0 < -, 0 < +), composition, and
orthogonality O(1) bit operations. Lengths are capped at 64.
"""

from __future__ import annotations

from itertools import product

MAX_LEN = 64


class EnumerationCap(RuntimeError):
    """A brute-force enumeration would exceed its configured cap."""


class SignVector:
    __slots__ = ("n", "plus", "minus")

    def __init__(self, n: int, plus: int, minus: int):
        if not 1 <= n <= MAX_LEN:
            raise ValueError(f"sign vector length must be in 1..{MAX_LEN}, got {n}")
        mask = (1 << n) - 1
        if plus & ~mask or minus & ~mask or plus & minus:
            raise ValueError("invalid sign masks")
        self.n = n
        self.plus = plus
        self.minus = minus

    @classmethod
    def zero(cls, n: int) -> "SignVector":
        return cls(n, 0, 0)

    @classmethod
    def from_components(cls, comps) -> "SignVector":
        comps = list(comps)
        plus = minus = 0
        for i, c in enumerate(comps):
            if c > 0:
                plus |= 1 << i
            elif c < 0:
                minus |= 1 << i
        return cls(len(comps), plus, minus)

    @classmethod
    def from_string(cls, s: str) -> "SignVector":
        table = {"+": 1, "0": 0, "-": -1}
        try:
            return cls.from_components(table[ch] for ch in s)
        except KeyError as exc:
            raise ValueError(f"sign vector strings use only +, 0, -: {s!r}") from exc

    def __getitem__(self, i: int) -> int:
        bit = 1 << i
        if self.plus & bit:
            return 1
        if self.minus & bit:
            return -1
        return 0

    def components(self) -> tuple[int, ...]:
        return tuple(self[i] for i in range(self.n))

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in self.components())

    def __repr__(self) -> str:
        return f"SignVector({str(self)!r})"

    def __eq__(self, other):
        return (isinstance(other, SignVector)
                and (self.n, self.plus, self.minus) == (other.n, other.plus, other.minus))

    def __hash__(self):
        return hash((self.n, self.plus, self.minus))

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.minus, self.plus)

    @property
    def support(self) -> int:
        return self.plus | self.minus

    def support_set(self) -> tuple[int, ...]:
        return _bits(self.support)

    def plus_set(self) -> tuple[int, ...]:
        return _bits(self.plus)

    def minus_set(self) -> tuple[int, ...]:
        return _bits(self.minus)

    def zero_set(self) -> tuple[int, ...]:
        mask = (1 << self.n) - 1
        return _bits(mask & ~self.support)

    def is_zero(self) -> bool:
        return self.support == 0

    def is_nonneg(self) -> bool:
        return self.minus == 0

    def leq(self, other: "SignVector") -> bool:
        """Componentwise order with 0 < - and 0 < +."""
        _check(self, other)
        return (self.plus & ~other.plus) == 0 and (self.minus & ~other.minus) == 0

    __le__ = leq

    def __ge__(self, other):
        return other.leq(self)

    def compose(self, other: "SignVector") -> "SignVector":
        """(self o other)_i = self_i if nonzero else other_i."""
        _check(self, other)
        keep = ~self.support
        return SignVector(self.n, self.plus | (other.plus & keep), self.minus | (other.minus & keep))

    def is_orthogonal(self, other: "SignVector") -> bool:
        """All products zero, or both a - and a + among the products."""
        _check(self, other)
        pos = (self.plus & other.plus) | (self.minus & other.minus)
        neg = (self.plus & other.minus) | (self.minus & other.plus)
        return (pos == 0 and neg == 0) or (pos != 0 and neg != 0)


def _bits(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def _check(a: SignVector, b: SignVector):
    if a.n != b.n:
        raise ValueError(f"sign vector length mismatch: {a.n} vs {b.n}")


def sign_of(values) -> SignVector:
    """Componentwise sign of a rational (or integer) vector."""
    return SignVector.from_components((0 if x == 0 else (1 if x > 0 else -1)) for x in values)


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


def minimal_support_members(members) -> set[SignVector]:
    """Nonzero members whose support strictly contains no other nonzero member's support."""
    nonzero = [t for t in members if not t.is_zero()]
    supports = {t.support for t in nonzero}
    out = set()
    for t in nonzero:
        s = t.support
        if not any(o != s and (o & ~s) == 0 for o in supports):
            out.add(t)
    return out


def composition_closure(generators, n: int) -> set[SignVector]:
    """Smallest composition-closed set containing 0 and the generators.

    Every element is a finite left-to-right composition of generators, so a
    breadth-first sweep composing frontier elements with generators suffices.
    The sweep runs on one packed int `plus | minus << n` per sign vector:
    composing x with g is `x | (g & (z | z << n))` for the zero set z of x.
    That depends only on g's entries on z, so each zero set gets the distinct
    nonzero restrictions of the generators once, and x is composed with those
    only; a full-support element gets none.
    """
    full = (1 << n) - 1
    gens = set()
    for g in set(generators):
        if g.n != n:
            raise ValueError(f"sign vector length mismatch: {n} vs {g.n}")
        gens.add(g.plus | g.minus << n)
    out = {0, *gens}
    restrictions: dict[int, tuple[int, ...]] = {}
    frontier = list(out)
    while frontier:
        new = []
        for x in frontier:
            z = full & ~(x | x >> n)
            rs = restrictions.get(z)
            if rs is None:
                zz = z | z << n
                rs = restrictions[z] = tuple({g & zz for g in gens} - {0})
            for r in rs:
                c = x | r
                if c not in out:
                    out.add(c)
                    new.append(c)
        frontier = new
    return {SignVector(n, x & full, x >> n) for x in out}
