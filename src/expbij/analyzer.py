"""Decision procedures for the map family F_c(x) = W (c o exp(Wt^T x)), c > 0.

Verdicts are three-valued: "holds", "fails", or "inconclusive" (the last only
when an enumeration cap fires; the detail names the cap). Every "fails"
carries a certificate whose claims re-verify by exact substitution:

  - injectivity failure: a sign vector realized in ker W and in im Wt^T;
  - face-cover failure: an uncovered exponent-side face plus a kernel vector
    of W strictly positive on its support (which rules out any covering face);
  - nondegeneracy failure: a direction x whose value vector z = Wt^T x has
    every positive level set positively dependent in W, with the per-block
    nonnegative kernel vectors and the no-covering-face evidence attached;
  - closure failure: an excluded sign vector with its kernel realization and
    a nonzero orthogonal-side witness proving no dominating sign vector exists.

Every question about sign(ker M), membership or the first member with given
signs, is one prefix search over the cocircuits of M
(`matroid.first_orthogonal`), so no vector set is enumerated. i takes the
minor form's verdict at every n; the same search over W's cocircuits and
Wt's circuits finds its certificate, and cross-checks a holding i under the
n cap. The only enumerations are covector sets: iii, iv, newton and
robust_coefficients' separating face check the n cap first
(`signs.over_cap` at `max_n_enumeration`) and past it return inconclusive
with the rule's message; `analyze` leaves the cones null there. ii, iii, iv
and newton share two rules on index masks, `OrientedMatroid.face_below` and
the memoized `OrientedMatroid.positively_dependent`, which answers with no
search when W has an all-+ covector, and then iv holds at once; iii searches
`ExponentialMapSpec.degeneracy_candidates`, Wt's covectors pruned at the
facets of cone(W) while they are built, and iv fails at its first member
whose positive part is positively dependent. Sign vectors stay packed ints,
and `SignVector` appears only as the strings a certificate names. The
kernel and covector witnesses come from the same `OrientedMatroid`
(`vector_point`, `covector_point`): a cocircuit's is read off its line, and
a kernel witness on all columns off its conformal circuits where they span
a simplicial cone whose least point is the LP's optimum; the LP solves the
rest, with the same bytes, and so does the closure's orthogonal witness
(`orthogonal_point`). Only the nondegeneracy search builds LP rows of its
own, and it settles a system whose equality rows have full rank empty
without the LP (`_only_origin`),
since only x = 0 meets them and a strict row fails there. newton's lifted
matrix keeps its `OrientedMatroid` to itself. The certificate verifier
calls the analyzer's two rules: `minor_form`, one scan over the two tables
of nonzero minor signs, decides the minor forms of i, cc, cc_prime and
robust_both, and `cone_form` decides robust_coefficients from cc_prime and
the facets of the two cones.
"""

from __future__ import annotations

import time
from functools import cached_property
from itertools import combinations
from math import comb

from .linalg import (
    _ONE,
    _ZERO,
    InputError,
    RationalMatrix,
    Record,
    Vec,
    _int_rows,
    _rref_ints,
    check,
    dot,
    frac_str,
    rank,
    reduced,
    vec_sub,
)
from .lp import Rel, feasible, make_system
from .matroid import FaceLattice, OrientedMatroid, _orthogonal_masks, first_common_sign_vector
from .signs import MAX_N_ENUMERATION, bits, over_cap, packed_signs, str_order, unpack

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

CLASS_BIJECTIVE = "bijective-for-all-c"
CLASS_INJECTIVE = "injective-not-bijective"
CLASS_NOT_INJECTIVE = "not-injective"
CLASS_INCONCLUSIVE = "inconclusive"


class DimensionMismatch(InputError):
    """The bijectivity layer needs equally many coefficient and exponent rows."""


class Caps(Record):
    _fields = ("max_n_enumeration", "max_partition_pairs", "max_blocks")

    def __init__(self, max_n_enumeration: int = MAX_N_ENUMERATION, max_partition_pairs: int = 100_000,
                 max_blocks: int = 8):
        self.__dict__.update(max_n_enumeration=max_n_enumeration, max_partition_pairs=max_partition_pairs,
                             max_blocks=max_blocks)

    @classmethod
    def from_json_dict(cls, obj) -> "Caps":
        """The caps an object names; a cap it omits takes its default."""
        if not isinstance(obj, dict):
            raise InputError("caps JSON must be an object")
        if unknown := obj.keys() - cls._fields:
            raise InputError(f"unknown caps fields: {sorted(unknown)}")
        for f, value in obj.items():
            if type(value) is not int or value < 0:  # bool is an int subclass
                raise InputError(f"caps field {f} must be a non-negative integer, got {value!r}")
        return cls(**obj)

    def to_json_dict(self) -> dict:
        return {"max_n_enumeration": self.max_n_enumeration, "max_partition_pairs": self.max_partition_pairs,
                "max_blocks": self.max_blocks}


class ExponentialMapSpec:
    """The pair (W, Wt): coefficient and exponent matrices sharing n columns."""

    def __init__(self, coeff: RationalMatrix, exponents: RationalMatrix):
        if coeff.cols != exponents.cols:
            raise InputError(
                f"coefficient and exponent matrices must share the column count "
                f"({coeff.cols} vs {exponents.cols})")
        for name, m in (("coefficient", coeff), ("exponent", exponents)):
            if m.rows > m.cols:
                raise InputError(f"{name} matrix needs at most as many rows as columns")
            if rank(m) < m.rows:
                raise InputError(f"{name} matrix must have full row rank")
        self.coeff = coeff
        self.exponents = exponents
        self._oriented_matroids: dict[RationalMatrix, OrientedMatroid] = {}
        self._closure_results: dict[bool, ConditionResult] = {}

    @property
    def n(self) -> int:
        return self.coeff.cols

    @property
    def d(self) -> int:
        return self.coeff.rows

    @property
    def d_tilde(self) -> int:
        return self.exponents.rows

    def require_square(self):
        if self.d != self.d_tilde:
            raise DimensionMismatch(
                f"bijectivity needs d = d~ (got d = {self.d}, d~ = {self.d_tilde}); "
                "injectivity checks remain available")

    def canonical(self) -> "ExponentialMapSpec":
        """Replace both matrices by the canonical representatives of their kernels,
        so that every downstream verdict and certificate depends only on the
        subspace pair (ker W, ker Wt). For a full-row-rank matrix that
        representative is its reduced row echelon form (`linalg.reduced`).
        Equal forms give one matrix object for both sides, so that `_om` finds
        it by identity."""
        W, Wt = reduced(self.coeff), reduced(self.exponents)
        return ExponentialMapSpec(W, W if Wt == W else Wt)

    def __eq__(self, other):
        return (isinstance(other, ExponentialMapSpec)
                and self.coeff == other.coeff and self.exponents == other.exponents)

    def _om(self, M: RationalMatrix) -> OrientedMatroid:
        """Oriented-matroid data of M, with its memoized witnesses, shared by
        every condition run on this spec; equal matrices (W = Wt under mass
        action) share one object. It lives with the spec, not on M
        (`matroid.oriented_matroid`): a report keeps the canonical matrices,
        and should not keep their sign sets."""
        if M not in self._oriented_matroids:
            self._oriented_matroids[M] = OrientedMatroid(M)
        return self._oriented_matroids[M]

    @cached_property
    def degeneracy_candidates(self) -> list[int]:
        """The covectors of Wt with a positive component whose support contains
        no nonzero face of cone(W) (`face_below` is 0), packed, in string
        order: one pass over Wt's circuits that drops a prefix once it is
        nonzero on all of a facet of cone(W), so the other covectors are never
        built. Built with no cap, so each condition that reads them checks
        the n cap first."""
        n, full = self.n, (1 << self.n) - 1
        covs = _orthogonal_masks(self._om(self.exponents).circuit_masks, n,
                                 self._om(self.coeff).nonneg_cocircuit_masks)
        return sorted((t for t in covs if t & full), key=str_order(n))


class ConditionResult(Record):
    _fields = ("verdict", "tag", "certificate", "detail")

    def __init__(self, verdict: str, tag: str, certificate: dict | None = None, detail: str | None = None):
        self.__dict__.update(verdict=verdict, tag=tag, certificate=certificate, detail=detail)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    @property
    def fails(self) -> bool:
        return self.verdict == FAILS

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "tag": self.tag, "certificate": self.certificate, "detail": self.detail}


def _jvec(v: Vec) -> list[str]:
    return [frac_str(x) for x in v]


def _jidx(indices) -> list[int]:
    return [i + 1 for i in indices]  # 1-based in reports


def _excluded_tope(om_first: OrientedMatroid, om_second: OrientedMatroid, n: int) -> int | None:
    """First tope of ker(first) in string order outside the down-closure of
    sign(ker(second)), or None, packed.

    The maximal vectors of a subspace all have the same support U, the
    positions that are not coloops (a coloop is a one-element cocircuit
    support), so sign(ker(first)) lies in the closure iff its topes do. A tope
    pi is below a vector of ker(second) iff one agrees with it on U, i.e. iff
    pi is orthogonal to every cocircuit of second with support inside U;
    with supp pi = U it fails that iff such a cocircuit c conforms to pi. The
    first vector that agrees with c on supp c and is zero off U is a tope: a
    vector extending any prefix of it composes with a tope to one that also
    extends it and is nonzero at the next position. It is at least c with +
    on the rest of U, so the c are visited in the order of that bound, until
    it reaches the best tope found.
    """
    full = (1 << n) - 1
    U = full
    for c in om_first.cocircuit_masks:
        support = (c | c >> n) & full
        if support & (support - 1) == 0:
            U &= ~support
    order = str_order(n)
    bounds = []
    for c in om_second.cocircuit_masks:
        support = (c | c >> n) & full
        if support & ~U == 0:
            bounds.append((order(c | U & ~support), c, support))
    best, best_key = None, float("inf")
    for bound, c, support in sorted(bounds):
        if bound >= best_key:
            break
        pi = om_first.first_vector(c, support | full & ~U)
        if pi is not None and order(pi) < best_key:
            best, best_key = pi, order(pi)
    return best


# ---------------------------------------------------------------------------
# injectivity


def injectivity_via_signs(spec: ExponentialMapSpec) -> ConditionResult:
    """Injective for all c > 0 iff sign(ker W) meets sign(im Wt^T) only in 0.
    A common sign vector is orthogonal to W's cocircuits and Wt's circuits,
    so one prefix search over both (`matroid.first_common_sign_vector`) finds
    the first in string order, sigma, which is zero, the last, iff i holds."""
    tag, n = "injectivity-sign-criterion", spec.n
    om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
    sigma = first_common_sign_vector(om_w, om_wt)
    if not sigma:
        return ConditionResult(HOLDS, tag)
    v = om_w.vector_point(sigma, (1 << n) - 1)
    x = om_wt.covector_point(sigma)
    sigma = unpack(sigma, n)
    check(v is not None and x is not None, f"common sign vector {sigma} has no realization")
    return ConditionResult(FAILS, tag, certificate={
        "common_sign_vector": str(sigma),
        "kernel_vector": _jvec(v),
        "exponent_direction": _jvec(x),
        "rowspace_vector": _jvec(spec.exponents.transpose_vec(x)),
    })


def _before(a: int, b: int) -> bool:
    """Column masks of one size: a comes before b in ascending tuple order,
    that is, the lowest column where they differ is in a."""
    x = a ^ b
    return bool(x & -x & a)


def minor_form(key: str, om_w: OrientedMatroid, om_wt: OrientedMatroid) -> tuple[str, dict]:
    """Verdict and certificate of a maximal-minor form from the two tables of
    nonzero minor signs: it holds iff the products sign det(W_I) det(Wt_I)
    share one nonzero sign over the subsets I it covers, which are the nonzero
    products for "i", every I with det(W_I) != 0 for "cc", every I with
    det(Wt_I) != 0 for "cc_prime", and all I for "robust_both".

    The certificate names the first, in ascending tuple order, of three kinds
    of subset: a nonzero product (the reference), a zero product the form
    covers, and a product of the other sign. One pass over W's table (Wt's for
    "cc_prime", the same form with the sides swapped) keeps the first of each
    by `_before`, with no sort. A zero product of "robust_both" may lie in
    neither table, so its first is found by walking the subsets in order,
    when some minor is zero."""
    sw, swt = om_w.minor_signs, om_wt.minor_signs
    if key == "cc_prime":
        sw, swt = swt, sw
    zeros = key in ("cc", "cc_prime")
    pos = neg = zero = None
    for I, a in sw.items():
        b = swt.get(I)
        if b is None:
            if zeros and (zero is None or _before(I, zero)):
                zero = I
        elif a == b:
            if pos is None or _before(I, pos):
                pos = I
        elif neg is None or _before(I, neg):
            neg = I
    d, n = om_w.W.rows, om_w.W.cols
    if key == "robust_both" and min(len(sw), len(swt)) < comb(n, d):
        zero = next(m for m in (sum(1 << i for i in I) for I in combinations(range(n), d))
                    if m not in sw or m not in swt)
    ref, other = (neg, pos) if pos is None or neg is not None and _before(neg, pos) else (pos, neg)
    sign = "+" if ref == pos else "-"
    if zero is None and other is None:
        if ref is None:
            return FAILS, {"reason": "all-products-zero"}
        cert = {"reference_sign": sign}
        if key != "robust_both":
            cert["reference_subset"] = _jidx(bits(ref))
        return HOLDS, cert
    if key == "robust_both":
        if zero is not None:
            return FAILS, {"violating_subset": _jidx(bits(zero)), "reason": "zero-product"}
        return FAILS, {"positive_subset": _jidx(bits(pos)), "negative_subset": _jidx(bits(neg)),
                       "reason": "mixed-product-signs"}
    if other is None or zero is not None and _before(zero, other):  # cc and cc_prime name the first
        return FAILS, {"violating_subset": _jidx(bits(zero)), "reason": "zero-product-at-nonzero-minor"}
    extra = {"reference_sign": sign} if key == "i" else {"reason": "mixed-product-signs"}
    return FAILS, {"reference_subset": _jidx(bits(ref)), "violating_subset": _jidx(bits(other)), **extra}


def _minor_condition(spec: ExponentialMapSpec, key: str, tag: str) -> ConditionResult:
    """The minor form `key` read off the spec's two tables of minor signs."""
    spec.require_square()
    verdict, cert = minor_form(key, spec._om(spec.coeff), spec._om(spec.exponents))
    return ConditionResult(verdict, tag, cert)


def injectivity_via_minors(spec: ExponentialMapSpec) -> ConditionResult:
    """Products det(W_I) det(Wt_I) all >= 0 or all <= 0, at least one nonzero."""
    return _minor_condition(spec, "i", "injectivity-minor-criterion")


# ---------------------------------------------------------------------------
# bijectivity conditions (ii), (iii), (iv)


def condition_ii(spec: ExponentialMapSpec) -> ConditionResult:
    """Every proper face of the exponent cone is covered by a proper face of
    the coefficient cone (on index sets: nonneg covector below it).

    It suffices to cover the facets of cone(Wt), its nonnegative cocircuits.
    The nonnegative covectors of W below a facet are closed under composition,
    so the largest of them, which is also the first in string order, is
    `face_below` the facet. Nothing is enumerated, so no cap applies and none
    is taken."""
    tag = "surjectivity-face-cover"
    spec.require_square()
    n = spec.n
    om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
    coverings = []
    for tau_t in sorted(om_wt.nonneg_cocircuit_masks, key=str_order(n)):
        tau = om_w.face_below(tau_t)
        face = str(unpack(tau_t, n))
        x_t = om_wt.covector_point(tau_t)
        check(x_t is not None, f"face covector {face} has no supporting functional")
        if not tau:
            # a kernel point positive on the face's support, free elsewhere
            evidence = om_w.vector_point(tau_t, tau_t)
            check(evidence is not None, "uncovered face without interior evidence")
            return ConditionResult(FAILS, tag, certificate={
                "uncovered_face": face,
                "exponent_functional": _jvec(x_t),
                "kernel_interior_evidence": _jvec(evidence),
            })
        coeff_face = str(unpack(tau, n))
        x = om_w.covector_point(tau)
        check(x is not None, f"face covector {coeff_face} has no supporting functional")
        coverings.append({
            "exponent_face": face,
            "coeff_face": coeff_face,
            "coeff_functional": _jvec(x),
            "exponent_functional": _jvec(x_t),
        })
    return ConditionResult(HOLDS, tag, certificate={"coverings": coverings} if coverings else None)


def _ordered_partitions(mask: int, admissible):
    """Ordered partitions of the index mask into admissible blocks, each a
    submask. The first block runs over the submasks in increasing order."""
    if not mask:
        yield ()
        return
    block = mask & -mask
    while block:
        if admissible(block):
            for tail in _ordered_partitions(mask & ~block, admissible):
                yield (block,) + tail
        block = (block - mask) & mask  # the next submask


def _only_origin(rows, dim: int) -> bool:
    """The equality rows of a system over Q^dim have rank dim, so only x = 0
    meets them. A partition system of iii is then empty: its last strict row
    asks the last representative's functional to be > 0 at x."""
    eq = [form for form, rel in rows if rel is Rel.EQ]
    return len(eq) >= dim and len(_rref_ints(_int_rows(eq)[0], dim)[1]) == dim


def condition_iii_exact(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Exhaustive nondegeneracy decision for the subspace pair.

    Searches for a value vector z = Wt^T x with a positive component whose
    positive level sets are all positively dependent in W while its zero set
    is covered by no proper face of cone(W). Holds iff no such z exists
    within the caps.
    """
    tag = "properness-nondegeneracy"
    spec.require_square()
    n = spec.n
    full = (1 << n) - 1
    om_w = spec._om(spec.coeff)
    if om_w.cone.all_plus:
        # an all-plus coefficient covector: pointed coefficient cone with no
        # zero column, so no positive dependence at all
        return ConditionResult(HOLDS, tag, detail="all-plus coefficient covector")
    if capped := over_cap("covector", n, caps.max_n_enumeration):
        return ConditionResult(INCONCLUSIVE, tag, detail=capped)
    candidates, dependent = spec.degeneracy_candidates, om_w.positively_dependent

    pairs_tried = 0
    infeasible: set[frozenset] = set()  # systems this search already found empty
    for idx, tau_t in enumerate(candidates):
        plus, support = tau_t & full, (tau_t | tau_t >> n) & full
        if not dependent(plus):  # blocks' kernel vectors would sum to one on plus
            continue
        if plus.bit_count() > caps.max_blocks:
            return ConditionResult(INCONCLUSIVE, tag, detail=(
                f"candidate {unpack(tau_t, n)} has {plus.bit_count()} positive components, "
                f"above max_blocks = {caps.max_blocks}; "
                f"{len(candidates) - idx} candidates unexplored"))
        zero_rows = [(spec.exponents.column(i), Rel.EQ) for i in bits(full & ~support)]
        minus_rows = [(spec.exponents.column(i), Rel.LT) for i in bits(tau_t >> n)]
        for blocks in _ordered_partitions(plus, dependent):
            pairs_tried += 1
            if pairs_tried > caps.max_partition_pairs:
                return ConditionResult(INCONCLUSIVE, tag, detail=(
                    f"max_partition_pairs = {caps.max_partition_pairs} exhausted at "
                    f"candidate {unpack(tau_t, n)} ({len(candidates) - idx} candidates unexplored)"))
            reps = [(b & -b).bit_length() - 1 for b in blocks]  # lowest indices
            rows = list(zero_rows) + list(minus_rows)
            for block, rep in zip(blocks, reps):
                rep_col = spec.exponents.column(rep)
                for i in bits(block):
                    if i != rep:
                        rows.append((vec_sub(spec.exponents.column(i), rep_col), Rel.EQ))
            for ra, rb in zip(reps, reps[1:]):
                rows.append((vec_sub(spec.exponents.column(ra), spec.exponents.column(rb)), Rel.GT))
            rows.append((spec.exponents.column(reps[-1]), Rel.GT))
            # partitions can repeat a system when columns or their differences
            # coincide; feasibility does not depend on the order of the rows
            key = frozenset(rows)
            if key in infeasible:
                continue
            wit = None if _only_origin(rows, spec.d_tilde) else feasible(make_system(spec.d_tilde, rows))
            if wit is None:
                infeasible.add(key)
                continue
            x = wit.point
            z = spec.exponents.transpose_vec(x)
            check(packed_signs(z) == tau_t, f"partition witness misses the sign vector {unpack(tau_t, n)}")
            # a kernel point positive on the candidate's support, free elsewhere
            evidence = om_w.vector_point(support, support)
            check(evidence is not None, "candidate without covering face lacks interior evidence")
            cert_blocks = []
            for b in blocks:
                indices = bits(b)
                v = om_w.vector_point(b, full)
                check(v is not None, f"block {_jidx(indices)} is a nonnegative vector of W "
                                     "but has no positive kernel vector")
                cert_blocks.append({
                    "indices": _jidx(indices),
                    "level": frac_str(dot(spec.exponents.column(indices[0]), x)),
                    "kernel_vector": _jvec(v),
                })
            return ConditionResult(FAILS, tag, certificate={
                "direction": _jvec(x),
                "z": _jvec(z),
                "sign_vector": str(unpack(tau_t, n)),
                "blocks": cert_blocks,
                "no_cover_evidence": _jvec(evidence),
            }, detail=f"{pairs_tried} ordered partitions tried")
    return ConditionResult(HOLDS, tag, detail=(
        f"{len(candidates)} candidate covectors, {pairs_tried} ordered partitions tried"))


def condition_iv(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Sign-vector condition sufficient for nondegeneracy (the weakest one):
    no covector of Wt has a positively dependent positive part P != 0 and a
    vector of W + on its whole support. By Gordan's alternative that vector
    exists iff `face_below` the support is 0, so iv fails at the first of
    iii's candidates, in string order, whose P is dependent. Its dominating
    vector is the first in string order, by `first_vector`. With an all-+
    covector of W no P != 0 is dependent, and iv holds with no candidate
    built."""
    tag = "nondegeneracy-sign-sufficient"
    spec.require_square()
    n = spec.n
    if capped := over_cap("covector", n, caps.max_n_enumeration):
        return ConditionResult(INCONCLUSIVE, tag, detail=capped)
    om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
    if om_w.cone.all_plus:
        return ConditionResult(HOLDS, tag)
    full = (1 << n) - 1
    tau_t = next((t for t in spec.degeneracy_candidates if om_w.positively_dependent(t & full)), None)
    if tau_t is None:
        return ConditionResult(HOLDS, tag)
    support = (tau_t | tau_t >> n) & full
    rho = om_w.first_vector(support, support)
    check(rho is not None, "a support with no face below it has no dominating vector")
    v_pi = om_w.vector_point(tau_t & full, full)
    v_rho = om_w.vector_point(rho, full)
    x_t = om_wt.covector_point(tau_t)
    tau_t, rho = unpack(tau_t, n), unpack(rho, n)
    check(v_pi is not None and v_rho is not None and x_t is not None,
          f"covector {tau_t} or its dominating vector {rho} has no realization")
    return ConditionResult(FAILS, tag, certificate={
        "exponent_covector": str(tau_t),
        "exponent_functional": _jvec(x_t),
        "positive_dependence": _jvec(v_pi),
        "dominating_kernel_vector": _jvec(v_rho),
        "dominating_sign_vector": str(rho),
    })


def newton_polytope_sufficient(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Sufficient nondegeneracy test via positive faces of conv(exponent columns).

    A face with index set I is positive when some w.x = level > 0 supports
    it: w_i.x = level on I and w_i.x < level elsewhere. On the lifted matrix
    L = [[Wt, 0], [1^T, 1]], whose last column stands for the origin, these
    are the nonnegative covectors of L that are + at the origin, with zero set
    I. "holds" implies nondegeneracy; "inconclusive" draws no conclusion.
    """
    tag = "nondegeneracy-newton-polytope"
    spec.require_square()
    n = spec.n
    if capped := over_cap("covector", n, caps.max_n_enumeration):  # the map's n, not the lifted n + 1
        return ConditionResult(INCONCLUSIVE, tag, detail=capped)
    lifted = RationalMatrix._of(tuple(r + (_ZERO,) for r in spec.exponents.row_tuples) + ((_ONE,) * (n + 1),))
    lifted_faces = OrientedMatroid(lifted).nonneg_covector_masks
    dependent = spec._om(spec.coeff).positively_dependent
    full = (1 << n) - 1
    # lifted faces that are + at the origin (bit n), by their zero sets
    positive_faces = sorted({full & ~t for t in lifted_faces if t >> n} - {0}, key=bits)
    for I in positive_faces:
        if dependent(I):
            return ConditionResult(INCONCLUSIVE, tag, detail=(
                f"positive face {{{','.join(str(i + 1) for i in bits(I))}}} is positively dependent"))
    return ConditionResult(HOLDS, tag, detail=f"{len(positive_faces)} positive faces checked")


# ---------------------------------------------------------------------------
# closure conditions and robustness


def _closure_condition(spec, swap: bool, tag: str) -> ConditionResult:
    """The closure result, computed once per spec and direction: the
    robustness conditions reuse what cc and cc_prime built."""
    if swap not in spec._closure_results:
        spec._closure_results[swap] = _closure_result(spec, swap, tag)
    return spec._closure_results[swap]


def _closure_result(spec, swap: bool, tag: str) -> ConditionResult:
    """Read off the cocircuits of both sides; nothing is enumerated, so no
    cap applies."""
    first, second = (spec.exponents, spec.coeff) if swap else (spec.coeff, spec.exponents)
    om_first = spec._om(first)
    excluded = _excluded_tope(om_first, spec._om(second), spec.n)
    if excluded is None:
        return ConditionResult(HOLDS, tag)
    v = om_first.vector_point(excluded, (1 << spec.n) - 1)
    tau = str(unpack(excluded, spec.n))
    check(v is not None, f"excluded sign vector {tau} has no kernel realization")
    # the sign sets rule out a dominating vector of ker(second), so by Minty's
    # alternative the orthogonal branch must hold
    w = spec._om(second).orthogonal_point(excluded)
    check(w is not None, "excluded sign vector admits a dominating one")
    return ConditionResult(FAILS, tag, certificate={
        "excluded_sign_vector": tau,
        "kernel_vector": _jvec(v),
        "orthogonal_witness": _jvec(w),
    })


def closure_cc(spec: ExponentialMapSpec) -> ConditionResult:
    """sign(ker W) inside the closure of sign(ker Wt)."""
    return _closure_condition(spec, swap=False, tag="kernel-sign-closure")


def closure_cc_prime(spec: ExponentialMapSpec) -> ConditionResult:
    """sign(ker Wt) inside the closure of sign(ker W)."""
    return _closure_condition(spec, swap=True, tag="kernel-sign-closure-reversed")


def robust_exponents(spec: ExponentialMapSpec) -> ConditionResult:
    """Bijective for all c and all small exponent perturbations."""
    minor = _minor_condition(spec, "cc", "robust-exponent-perturbations")
    sign_form = closure_cc(spec)
    check(sign_form.verdict == minor.verdict, "closure condition disagrees with its minor form")
    cert = {"minor_form": minor.certificate}
    if sign_form.certificate:
        cert["closure_form"] = sign_form.certificate
    return ConditionResult(minor.verdict, minor.tag, certificate=cert)


def cone_form(ccp: str, om_w: OrientedMatroid, om_wt: OrientedMatroid) -> tuple[str, str | None]:
    """Coefficient robustness from cc_prime's verdict and the facets of the two
    cones (`OrientedMatroid.cone`), with no cap: the verdict, and the reason of
    a fails or the detail of a holds. Equal facets mean equal face sets."""
    if ccp == FAILS:
        return FAILS, "reversed-closure-fails"
    cw, ce = om_w.cone, om_wt.cone
    if cw.full_space and ce.full_space:
        return HOLDS, "both cones are the full space"
    if not (cw.all_plus and ce.all_plus):
        return FAILS, "all-plus-covector-missing"
    if om_w.nonneg_cocircuit_masks != om_wt.nonneg_cocircuit_masks:
        return FAILS, "face-sets-differ"
    if not (cw.robustly_generated and ce.robustly_generated):
        return FAILS, "cone-not-robustly-generated"
    return HOLDS, None


def robust_coefficients(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Bijective for all c and all small coefficient perturbations. Only the
    separating face of differing face sets is enumerated, under the cap."""
    tag = "robust-coefficient-perturbations"
    spec.require_square()
    ccp = closure_cc_prime(spec)
    om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
    verdict, reason = cone_form(ccp.verdict, om_w, om_wt)
    if verdict == HOLDS:
        return ConditionResult(HOLDS, tag, detail=reason)
    cert = {"reason": reason}
    if reason == "reversed-closure-fails":
        cert["closure_form"] = ccp.certificate
    elif reason == "face-sets-differ":
        if capped := over_cap("covector", spec.n, caps.max_n_enumeration):
            return ConditionResult(INCONCLUSIVE, tag, detail=capped)
        differ = om_w.nonneg_covector_masks ^ om_wt.nonneg_covector_masks
        cert["separating_face"] = str(unpack(min(differ, key=str_order(spec.n)), spec.n))
    return ConditionResult(FAILS, tag, certificate=cert)


def robust_both(spec: ExponentialMapSpec) -> ConditionResult:
    """Bijective for all c and all small perturbations of both matrices:
    all maximal-minor products strictly share one sign."""
    return _minor_condition(spec, "robust_both", "robust-general-perturbations")


# ---------------------------------------------------------------------------
# the full analysis


class AnalysisReport(Record):
    """The outcome of `analyze`. Unlike the other records it can be changed
    in place, and so it has no hash; each report gets its own `runtimes_ms`
    dict unless one is given."""

    _fields = ("n", "d", "d_tilde", "canonical_coeff", "canonical_exponents", "conditions", "classification",
               "cones", "sign_sets_equal", "caps", "runtimes_ms")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, n: int, d: int, d_tilde: int, canonical_coeff: RationalMatrix,
                 canonical_exponents: RationalMatrix, conditions: dict[str, ConditionResult], classification: str,
                 cones: dict[str, FaceLattice | None], sign_sets_equal: bool, caps: Caps,
                 runtimes_ms: dict[str, float] | None = None):
        self.n = n
        self.d = d
        self.d_tilde = d_tilde
        self.canonical_coeff = canonical_coeff
        self.canonical_exponents = canonical_exponents
        self.conditions = conditions
        self.classification = classification
        self.cones = cones
        self.sign_sets_equal = sign_sets_equal
        self.caps = caps
        self.runtimes_ms = {} if runtimes_ms is None else runtimes_ms

    def to_json_dict(self) -> dict:
        """The report as JSON data. One matrix or face lattice object that
        serves both sides is built once, and both sides share its dict."""
        coeff = self.canonical_coeff.to_json_dict()
        return {
            "map": {
                "n": self.n,
                "d": self.d,
                "d_tilde": self.d_tilde,
                "canonical_coeff": coeff,
                "canonical_exponents": coeff if self.canonical_exponents is self.canonical_coeff
                else self.canonical_exponents.to_json_dict(),
            },
            "conditions": {k: v.to_json_dict() for k, v in sorted(self.conditions.items())},
            "classification": self.classification,
            "cones": _cones_json(self.cones),
            "sign_sets_equal": self.sign_sets_equal,
            "caps": self.caps.to_json_dict(),
            "runtimes_ms": dict(self.runtimes_ms),
        }


def _cones_json(cones: dict[str, FaceLattice | None]) -> dict[str, dict | None]:
    """The `cones` block, each distinct face lattice object built once."""
    built: dict[int, dict | None] = {}
    for fl in cones.values():
        if id(fl) not in built:
            built[id(fl)] = _cone_json(fl)
    return {side: built[id(fl)] for side, fl in sorted(cones.items())}


def _cone_json(fl: FaceLattice | None) -> dict | None:
    if fl is None:
        return None
    return {
        "faces": fl.faces.strings(),
        "pointed": fl.pointed,
        "lineality_dim": fl.lineality_dim,
        "full_space": fl.full_space,
        "all_plus_covector": fl.all_plus,
        "robustly_generated": fl.robustly_generated,
        "zero_columns": _jidx(fl.zero_columns),
    }


def analyze(spec: ExponentialMapSpec, caps: Caps = Caps()) -> AnalysisReport:
    """Run every condition on the canonicalized spec and classify the family."""
    spec.require_square()
    spec_c = spec.canonical()
    om_w, om_wt = spec_c._om(spec_c.coeff), spec_c._om(spec_c.exponents)
    conditions: dict[str, ConditionResult] = {}
    runtimes: dict[str, float] = {}

    def run(key, fn, *args):
        t0 = time.perf_counter()
        conditions[key] = fn(*args)
        runtimes[key] = round((time.perf_counter() - t0) * 1000, 3)
        return conditions[key]

    # sign(ker W) = sign(ker Wt) iff the minor tables agree up to a global sign
    sign_sets_equal = om_w.equal_up_to_sign(om_wt)

    minors = run("injectivity_minors", injectivity_via_minors, spec_c)
    if minors.holds and over_cap("covector", spec_c.n, caps.max_n_enumeration):
        run("i", ConditionResult, HOLDS, "injectivity-sign-criterion")
    else:
        check(run("i", injectivity_via_signs, spec_c).verdict == minors.verdict,
              "sign-form and minor-form injectivity disagree")

    run("ii", condition_ii, spec_c)
    cond_iv = run("iv", condition_iv, spec_c, caps)
    newton = run("newton", newton_polytope_sufficient, spec_c, caps)
    cc = run("cc", closure_cc, spec_c)
    ccp = run("cc_prime", closure_cc_prime, spec_c)
    check(ccp.verdict == minor_form("cc_prime", om_w, om_wt)[0],
          "reversed closure condition disagrees with its minor form")

    implied = ("kernel sign sets are equal" if sign_sets_equal
               else "implied by the sign-sufficient condition" if cond_iv.holds
               else "implied by a closure condition" if cc.holds or ccp.holds
               else "implied by the positive-face test" if newton.holds else None)
    if implied:
        run("iii", ConditionResult, HOLDS, "properness-nondegeneracy", None, implied)
    else:
        run("iii", condition_iii_exact, spec_c, caps)

    run("robust_exponents", robust_exponents, spec_c)
    run("robust_coefficients", robust_coefficients, spec_c, caps)
    run("robust_both", robust_both, spec_c)

    cones: dict[str, FaceLattice | None] = (
        {"coeff": None, "exp": None} if over_cap("covector", spec_c.n, caps.max_n_enumeration)
        else {"coeff": om_w.face_lattice, "exp": om_wt.face_lattice})

    classification = _classify(*(conditions[k].verdict for k in ("i", "ii", "iii")))
    _assert_implications(conditions, om_w, om_wt, sign_sets_equal, classification)

    return AnalysisReport(
        n=spec_c.n,
        d=spec_c.d,
        d_tilde=spec_c.d_tilde,
        canonical_coeff=spec_c.coeff,
        canonical_exponents=spec_c.exponents,
        conditions=conditions,
        classification=classification,
        cones=cones,
        sign_sets_equal=sign_sets_equal,
        caps=caps,
        runtimes_ms=runtimes,
    )


def _classify(i: str, ii: str, iii: str) -> str:
    """The family's class from the verdicts of conditions i, ii and iii."""
    if i == FAILS:
        return CLASS_NOT_INJECTIVE
    if i == INCONCLUSIVE:
        return CLASS_INCONCLUSIVE
    if FAILS in (ii, iii):
        return CLASS_INJECTIVE
    if INCONCLUSIVE in (ii, iii):
        return CLASS_INCONCLUSIVE
    return CLASS_BIJECTIVE


def _assert_implications(conditions, om_w, om_wt, sign_sets_equal, classification):
    """Theorem-level consistency; a violation is a bug, not a verdict."""
    def v(key):
        return conditions[key].verdict

    def implies(premise: bool, conclusion: bool, what: str):
        check(not premise or conclusion, f"implication violated: {what}")

    # cc and cc_prime enumerate nothing, so a covector cap can leave iv
    # inconclusive beside them; i, ii and iii are never left open there
    implies(v("cc") == HOLDS, v("i") == v("ii") == v("iii") == HOLDS and v("iv") != FAILS,
            "cc holds but i, ii or iii does not, or iv fails")
    implies(v("cc_prime") == HOLDS, v("i") == v("iii") == HOLDS and v("iv") != FAILS,
            "cc_prime holds but i or iii does not, or iv fails")
    implies(v("iv") == HOLDS, v("iii") == HOLDS, "iv holds but iii does not")
    implies(v("newton") == HOLDS, v("iii") == HOLDS, "newton holds but iii does not")
    implies(sign_sets_equal, classification == CLASS_BIJECTIVE,
            "equal kernel sign sets but not bijective")
    implies(v("cc_prime") == HOLDS and v("ii") == HOLDS,
            om_w.nonneg_cocircuit_masks == om_wt.nonneg_cocircuit_masks,
            "cc_prime and ii hold but the cones' faces differ")
    implies(classification == CLASS_BIJECTIVE and om_w.cone.all_plus, om_wt.cone.all_plus,
            "bijective with an all-plus coefficient covector but none on the exponent side")
    implies(v("robust_both") == HOLDS, v("robust_exponents") == HOLDS,
            "robust_both holds but robust_exponents does not")
