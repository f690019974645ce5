"""The {-,0,+}^n sign-vector algebra.

Sign vectors are stored as two bitmasks (positive positions, negative
positions), which makes the partial order (0 < -, 0 < +), composition, and
orthogonality bit operations on Python ints, for any length.

Inside the exact layer a sign vector of length n is one packed int,
`plus | minus << n`: `x <= y` is `x & ~y == 0`, the support is
`(x | x >> n) & (2^n - 1)`, and sets of sign vectors are sets of ints.
A set crosses the API as a `SignSet`, a read-only view of its frozen set of
ints: length, membership, equality and hashing stay int operations, a
`SignVector` is built only when a caller iterates, and `strings()` sorts and
formats the ints with no `SignVector` at all (`str_order`, `sign_string`).
"""

from __future__ import annotations

from collections.abc import Set
from functools import cache


class EnumerationCap(RuntimeError):
    """A brute-force enumeration would exceed its configured cap."""


class SignVector:
    __slots__ = ("n", "plus", "minus")

    def __init__(self, n: int, plus: int, minus: int):
        if n < 1:
            raise ValueError(f"sign vector length must be positive, got {n}")
        mask = (1 << n) - 1
        if plus & ~mask or minus & ~mask or plus & minus:
            raise ValueError("invalid sign masks")
        self.n = n
        self.plus = plus
        self.minus = minus

    @classmethod
    def _trusted(cls, n: int, plus: int, minus: int) -> "SignVector":
        """No validation: for masks that are valid by construction."""
        t = object.__new__(cls)
        t.n, t.plus, t.minus = n, plus, minus
        return t

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

    def __str__(self) -> str:
        return sign_string(self.plus | self.minus << self.n, self.n)

    def __repr__(self) -> str:
        return f"SignVector({str(self)!r})"

    def __eq__(self, other):
        return (isinstance(other, SignVector)
                and (self.n, self.plus, self.minus) == (other.n, other.plus, other.minus))

    def __hash__(self):
        return hash(self.plus | self.minus << self.n)

    def __neg__(self) -> "SignVector":
        return SignVector(self.n, self.minus, self.plus)

    @property
    def support(self) -> int:
        return self.plus | self.minus

    def support_set(self) -> tuple[int, ...]:
        return bits(self.support)

    def plus_set(self) -> tuple[int, ...]:
        return bits(self.plus)

    def minus_set(self) -> tuple[int, ...]:
        return bits(self.minus)

    def zero_set(self) -> tuple[int, ...]:
        mask = (1 << self.n) - 1
        return bits(mask & ~self.support)

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


def bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits, in increasing order."""
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


def pack(t: SignVector) -> int:
    return t.plus | t.minus << t.n


def unpack(x: int, n: int) -> SignVector:
    """The sign vector of a packed int that is valid by construction."""
    return SignVector._trusted(n, x & ((1 << n) - 1), x >> n)


# the string of a 4-position chunk, indexed by its plus bits | minus bits << 4
# (None where a position would be both + and -)
_CHUNK = [None if p & m else "".join("+" if p >> i & 1 else "-" if m >> i & 1 else "0" for i in range(4))
          for m in range(16) for p in range(16)]


def sign_string(x: int, n: int) -> str:
    """The string of the packed sign vector x of length n, position 0 first,
    four positions at a time from one table."""
    plus, minus = x & ((1 << n) - 1), x >> n
    return "".join([_CHUNK[(plus >> k & 15) | (minus >> k & 15) << 4] for k in range(0, n, 4)])[:n]


class SignSet(Set):
    """A read-only set of sign vectors of length n over a frozen set of packed
    ints, which it wraps without copying. Length, membership, equality and the
    hash are int operations; the hash equals that of the frozenset of the
    members. Iteration builds one `SignVector` at a time, the set operators
    return frozensets of them, and `strings()` builds none."""

    __slots__ = ("masks", "n")

    def __init__(self, masks: frozenset[int], n: int):
        self.masks = masks
        self.n = n

    def __len__(self) -> int:
        return len(self.masks)

    def __contains__(self, t) -> bool:
        return isinstance(t, SignVector) and t.n == self.n and pack(t) in self.masks

    def __iter__(self):
        n, full, trusted = self.n, (1 << self.n) - 1, SignVector._trusted
        for x in self.masks:
            yield trusted(n, x & full, x >> n)

    @classmethod
    def _from_iterable(cls, it) -> frozenset[SignVector]:
        return frozenset(it)

    def __eq__(self, other):
        if isinstance(other, SignSet):
            # sign vectors of different lengths differ; empty sets are equal
            return self.masks == other.masks and (self.n == other.n or not self.masks)
        if isinstance(other, Set):
            return len(self) == len(other) and all(t in self for t in other)
        return NotImplemented

    def __hash__(self):
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"SignSet({self.strings()!r})"

    def strings(self) -> list[str]:
        """The members' strings in string order."""
        n = self.n
        return [sign_string(x, n) for x in sorted(self.masks, key=str_order(n))]


@cache
def str_order(n: int):
    """Key on packed sign vectors of length n that sorts them as their
    strings do: position 0 most significant and + < - < 0. Position i is the
    base-4 digit 2 z_i + m_i (z the zero mask, m the minus mask) at weight
    4^(n-1-i); the digits are summed a byte of z and m at a time from
    per-byte tables."""
    full = (1 << n) - 1
    tables = []
    for base in range(0, n, 8):
        weight = [4 ** (n - 1 - i) if i < n else 0 for i in range(base, base + 8)]
        table = [0] * 256
        for b in range(1, 256):
            low = b & -b
            table[b] = table[b ^ low] + weight[low.bit_length() - 1]
        tables.append(table)

    def key(x: int) -> int:
        m = x >> n
        z = full & ~(x | m)
        k = 0
        for table in tables:
            k += 2 * table[z & 255] + table[m & 255]
            z >>= 8
            m >>= 8
        return k

    return key


def minimal_support_members(members) -> set[SignVector]:
    """Nonzero members whose support strictly contains no other nonzero member's support."""
    nonzero = [t for t in members if t.support]
    supports = {t.support for t in nonzero}
    minimal = {s for s in supports if not any(o != s and o & ~s == 0 for o in supports)}
    return {t for t in nonzero if t.support in minimal}


def composition_closure(generators, n: int) -> frozenset[int]:
    """Smallest composition-closed set containing 0 and the generators, all
    packed ints `plus | minus << n`.

    Every element is a finite left-to-right composition of generators, so a
    breadth-first sweep composing frontier elements with generators suffices.
    Composing x with g is `x | (g & (z | z << n))` for the zero set z of x.
    That depends only on g's entries on z, so each zero set gets the distinct
    nonzero restrictions of the generators once, and x is composed with those
    only; a full-support element gets none.

    The package enumerates its signed sets with `matroid._orthogonal_masks`
    and its faces as the OR-closure of the facets (the composition of
    nonnegative sign vectors is their OR), and does not call this; it stays
    as the definition those sets are tested against, and because the
    benchmark's tracer names it.
    """
    full = (1 << n) - 1
    gens = set(generators)
    for g in gens:
        if g < 0 or g >> 2 * n or g & g >> n:
            raise ValueError(f"{g} is not a packed sign vector of length {n}")
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
    return frozenset(out)
