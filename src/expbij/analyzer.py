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
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from .linalg import (
    InputError,
    RationalMatrix,
    Vec,
    check,
    dot,
    frac_str,
    is_zero_vec,
    kernel_basis,
    matrix_with_kernel,
    rank,
    vec,
    vec_sub,
)
from .lp import Rel, feasible, make_system, positive_kernel_vector, realize_kernel_sign, realize_sign_vector
from .matroid import FaceLattice, OrientedMatroid, is_interior_point, orthogonal_witness
from .signs import EnumerationCap, SignVector, minimal_support_members, sign_of

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

CLASS_BIJECTIVE = "bijective-for-all-c"
CLASS_INJECTIVE = "injective-not-bijective"
CLASS_NOT_INJECTIVE = "not-injective"
CLASS_INCONCLUSIVE = "inconclusive"


class DimensionMismatch(InputError):
    """The bijectivity layer needs equally many coefficient and exponent rows."""


@dataclass(frozen=True)
class Caps:
    max_n_enumeration: int = 12
    max_partition_pairs: int = 100_000
    max_blocks: int = 8

    @classmethod
    def from_json_dict(cls, obj) -> "Caps":
        known = {f: obj[f] for f in ("max_n_enumeration", "max_partition_pairs", "max_blocks") if f in obj}
        unknown = set(obj) - set(known)
        if unknown:
            raise InputError(f"unknown caps fields: {sorted(unknown)}")
        return cls(**known)

    def to_json_dict(self) -> dict:
        return {
            "max_n_enumeration": self.max_n_enumeration,
            "max_partition_pairs": self.max_partition_pairs,
            "max_blocks": self.max_blocks,
        }


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
        self._closure_results: dict[tuple[bool, int], ConditionResult] = {}

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
        subspace pair (ker W, ker Wt)."""
        return ExponentialMapSpec(
            matrix_with_kernel(kernel_basis(self.coeff)),
            matrix_with_kernel(kernel_basis(self.exponents)),
        )

    def __eq__(self, other):
        return (isinstance(other, ExponentialMapSpec)
                and self.coeff == other.coeff and self.exponents == other.exponents)

    def _om(self, M: RationalMatrix) -> OrientedMatroid:
        """Oriented-matroid data of M, shared by every condition run on this
        spec; equal matrices (W = Wt under mass action) share one object."""
        if M not in self._oriented_matroids:
            self._oriented_matroids[M] = OrientedMatroid(M)
        return self._oriented_matroids[M]


@dataclass(frozen=True)
class ConditionResult:
    verdict: str
    tag: str
    certificate: dict | None = None
    detail: str | None = None

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    @property
    def fails(self) -> bool:
        return self.verdict == FAILS

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tag": self.tag,
            "certificate": self.certificate,
            "detail": self.detail,
        }


def _jvec(v: Vec) -> list[str]:
    return [frac_str(x) for x in v]


def _jidx(indices) -> list[int]:
    return [i + 1 for i in indices]  # 1-based in reports


def _closure_excluded(V: set[SignVector], T: set[SignVector]) -> SignVector | None:
    """First member of V (tope reduction) outside the down-closure of T, or None.

    Maximal members of a subspace sign set all have the same support (the
    union of supports), so V is inside the closure iff its topes are.
    """
    union = 0
    for t in V:
        union |= t.support
    # a tope pi is below r iff r agrees with pi on pi's support, the union
    below = {(r.plus & union, r.minus & union) for r in T}
    topes = sorted((t for t in V if t.support == union), key=str)
    return next((pi for pi in topes if (pi.plus, pi.minus) not in below), None)


def _positively_dependent(spec: ExponentialMapSpec, cap: int):
    """Predicate on index sets I: some v >= 0 in ker W has support exactly I,
    i.e. the sign vector + on I and 0 elsewhere is a vector of W."""
    vectors_w = spec._om(spec.coeff).vectors(cap)
    n = spec.n
    return lambda I: SignVector(n, sum(1 << i for i in I), 0) in vectors_w


def _kernel_point_positive_on(M: RationalMatrix, indices) -> Vec | None:
    """x in ker M with x_i > 0 for the given indices (other coordinates free)."""
    n = M.cols
    rows = [(M.row(i), Rel.EQ) for i in range(M.rows)]
    unit = lambda i: tuple(Fraction(1 if j == i else 0) for j in range(n))
    rows += [(unit(i), Rel.GT) for i in sorted(indices)]
    wit = feasible(make_system(n, rows))
    return wit.point if wit else None


# ---------------------------------------------------------------------------
# injectivity


def injectivity_via_signs(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Injective for all c > 0 iff sign(ker W) meets sign(im Wt^T) only in 0."""
    tag = "injectivity-sign-criterion"
    cap = caps.max_n_enumeration
    try:
        common = {t for t in spec._om(spec.coeff).vectors(cap) & spec._om(spec.exponents).covectors(cap)
                  if not t.is_zero()}
    except EnumerationCap as e:
        return ConditionResult(INCONCLUSIVE, tag, detail=str(e))
    if not common:
        return ConditionResult(HOLDS, tag)
    tau = min(common, key=str)
    v = realize_kernel_sign(spec.coeff, tau)
    x = realize_sign_vector(spec.exponents, tau)
    check(v is not None and x is not None, f"common sign vector {tau} has no realization")
    return ConditionResult(FAILS, tag, certificate={
        "common_sign_vector": str(tau),
        "kernel_vector": _jvec(v),
        "exponent_direction": _jvec(x),
        "rowspace_vector": _jvec(spec.exponents.transpose_vec(x)),
    })


def _minor_products(spec: ExponentialMapSpec) -> dict[tuple[int, ...], Fraction]:
    """det(W_I) det(Wt_I) for every column subset I of size d."""
    minors_w = spec._om(spec.coeff).minors
    minors_wt = spec._om(spec.exponents).minors
    return {I: minors_w[I] * minors_wt[I] for I in minors_w}


def injectivity_via_minors(spec: ExponentialMapSpec) -> ConditionResult:
    """Products det(W_I) det(Wt_I) all >= 0 or all <= 0, at least one nonzero."""
    tag = "injectivity-minor-criterion"
    spec.require_square()
    products = _minor_products(spec)
    reference = next(((I, p) for I, p in sorted(products.items()) if p != 0), None)
    if reference is None:
        return ConditionResult(FAILS, tag, certificate={"reason": "all-products-zero"})
    ref_subset, ref_value = reference
    bad = next((I for I, p in sorted(products.items()) if p * ref_value < 0), None)
    cert = {
        "reference_subset": _jidx(ref_subset),
        "reference_sign": "+" if ref_value > 0 else "-",
    }
    if bad is None:
        return ConditionResult(HOLDS, tag, certificate=cert)
    cert["violating_subset"] = _jidx(bad)
    return ConditionResult(FAILS, tag, certificate=cert)


# ---------------------------------------------------------------------------
# bijectivity conditions (ii), (iii), (iv)


def condition_ii(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Every proper face of the exponent cone is covered by a proper face of
    the coefficient cone (on index sets: nonneg covector below it)."""
    tag = "surjectivity-face-cover"
    spec.require_square()
    cap = caps.max_n_enumeration
    try:
        faces_w = spec._om(spec.coeff).face_lattice(cap).faces
        minimal_exp = spec._om(spec.exponents).face_lattice(cap).facet_covectors()
    except EnumerationCap as e:
        return ConditionResult(INCONCLUSIVE, tag, detail=str(e))
    nonzero_w = [t for t in faces_w if not t.is_zero()]
    coverings = []
    for tau_t in sorted(minimal_exp, key=str):
        tau = next((t for t in sorted(nonzero_w, key=str) if t.leq(tau_t)), None)
        if tau is None:
            evidence = _kernel_point_positive_on(spec.coeff, tau_t.plus_set())
            check(evidence is not None, "uncovered face without interior evidence")
            x_t = realize_sign_vector(spec.exponents, tau_t)
            check(x_t is not None, f"face covector {tau_t} has no supporting functional")
            return ConditionResult(FAILS, tag, certificate={
                "uncovered_face": str(tau_t),
                "exponent_functional": _jvec(x_t),
                "kernel_interior_evidence": _jvec(evidence),
            })
        coverings.append({
            "exponent_face": str(tau_t),
            "coeff_face": str(tau),
            "coeff_functional": _jvec(realize_sign_vector(spec.coeff, tau)),
            "exponent_functional": _jvec(realize_sign_vector(spec.exponents, tau_t)),
        })
    return ConditionResult(HOLDS, tag, certificate={"coverings": coverings} if coverings else None)


@dataclass(frozen=True)
class DegeneracyBlock:
    indices: tuple[int, ...]
    level: Fraction
    kernel_vector: Vec


@dataclass(frozen=True)
class DegeneracyWitness:
    """A direction x whose value vector z = Wt^T x breaks properness for some c."""

    direction: Vec
    z: Vec
    tau: SignVector
    blocks: tuple[DegeneracyBlock, ...]
    no_cover_evidence: Vec

    def to_json_dict(self) -> dict:
        return {
            "direction": _jvec(self.direction),
            "z": _jvec(self.z),
            "sign_vector": str(self.tau),
            "blocks": [
                {
                    "indices": _jidx(b.indices),
                    "level": frac_str(b.level),
                    "kernel_vector": _jvec(b.kernel_vector),
                }
                for b in self.blocks
            ],
            "no_cover_evidence": _jvec(self.no_cover_evidence),
        }


def _ordered_partitions(elements: tuple[int, ...], admissible):
    """Ordered partitions of the element set into admissible blocks."""
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
        for tail in _ordered_partitions(rest, admissible):
            yield (block,) + tail


def condition_iii_exact(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Exhaustive nondegeneracy decision for the subspace pair.

    Searches for a value vector z = Wt^T x with a positive component whose
    positive level sets are all positively dependent in W while its zero set
    is covered by no proper face of cone(W). Holds iff no such z exists
    within the caps.
    """
    tag = "properness-nondegeneracy"
    spec.require_square()
    cap = caps.max_n_enumeration
    try:
        cone_w = spec._om(spec.coeff).face_lattice(cap)
        if cone_w.all_plus:
            # pointed coefficient cone with no zero column: no positive dependence at all
            return ConditionResult(HOLDS, tag, detail="all-plus coefficient covector")
        covs_exp = spec._om(spec.exponents).covectors(cap)
        dependent = _positively_dependent(spec, cap)
    except EnumerationCap as e:
        return ConditionResult(INCONCLUSIVE, tag, detail=str(e))

    min_faces_w = sorted(cone_w.facet_covectors(), key=str)

    def has_covering_face(tau_t: SignVector) -> bool:
        return any((t.support & ~tau_t.support) == 0 for t in min_faces_w)

    candidates = [t for t in sorted(covs_exp, key=str)
                  if t.plus != 0 and not has_covering_face(t)]
    pairs_tried = 0
    for idx, tau_t in enumerate(candidates):
        plus = tau_t.plus_set()
        if len(plus) > caps.max_blocks:
            return ConditionResult(INCONCLUSIVE, tag, detail=(
                f"candidate {tau_t} has {len(plus)} positive components, "
                f"above max_blocks = {caps.max_blocks}; "
                f"{len(candidates) - idx} candidates unexplored"))
        zero_rows = [(spec.exponents.column(i), Rel.EQ) for i in tau_t.zero_set()]
        minus_rows = [(spec.exponents.column(i), Rel.LT) for i in tau_t.minus_set()]
        for blocks in _ordered_partitions(plus, dependent):
            pairs_tried += 1
            if pairs_tried > caps.max_partition_pairs:
                return ConditionResult(INCONCLUSIVE, tag, detail=(
                    f"max_partition_pairs = {caps.max_partition_pairs} exhausted at "
                    f"candidate {tau_t} ({len(candidates) - idx} candidates unexplored)"))
            reps = [min(b) for b in blocks]
            rows = list(zero_rows) + list(minus_rows)
            for block, rep in zip(blocks, reps):
                rep_col = spec.exponents.column(rep)
                for i in sorted(block):
                    if i != rep:
                        rows.append((vec_sub(spec.exponents.column(i), rep_col), Rel.EQ))
            for ra, rb in zip(reps, reps[1:]):
                rows.append((vec_sub(spec.exponents.column(ra), spec.exponents.column(rb)), Rel.GT))
            rows.append((spec.exponents.column(reps[-1]), Rel.GT))
            wit = feasible(make_system(spec.d_tilde, rows))
            if wit is None:
                continue
            x = wit.point
            z = spec.exponents.transpose_vec(x)
            check(sign_of(z) == tau_t, f"partition witness misses the sign vector {tau_t}")
            evidence = _kernel_point_positive_on(spec.coeff, tau_t.support_set())
            check(evidence is not None, "candidate without covering face lacks interior evidence")
            cert_blocks = []
            for b in blocks:
                v = positive_kernel_vector(spec.coeff, b)
                check(v is not None, f"block {_jidx(sorted(b))} is a nonnegative vector of W "
                                     "but has no positive kernel vector")
                cert_blocks.append(DegeneracyBlock(
                    indices=tuple(sorted(b)),
                    level=dot(spec.exponents.column(min(b)), x),
                    kernel_vector=v,
                ))
            witness = DegeneracyWitness(
                direction=x, z=z, tau=tau_t, blocks=tuple(cert_blocks), no_cover_evidence=evidence)
            return ConditionResult(FAILS, tag, certificate=witness.to_json_dict(),
                                   detail=f"{pairs_tried} ordered partitions tried")
    return ConditionResult(HOLDS, tag, detail=(
        f"{len(candidates)} candidate covectors, {pairs_tried} ordered partitions tried"))


def condition_iv(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Sign-vector condition sufficient for nondegeneracy (the weakest one)."""
    tag = "nondegeneracy-sign-sufficient"
    spec.require_square()
    cap = caps.max_n_enumeration
    try:
        vectors_w = spec._om(spec.coeff).vectors(cap)
        covs_exp = spec._om(spec.exponents).covectors(cap)
    except EnumerationCap as e:
        return ConditionResult(INCONCLUSIVE, tag, detail=str(e))
    n = spec.n
    vectors_w_sorted = sorted(vectors_w, key=str)
    dominating_memo: dict[int, SignVector | None] = {}

    def dominating(support_mask: int) -> SignVector | None:
        if support_mask not in dominating_memo:
            dominating_memo[support_mask] = next(
                (r for r in vectors_w_sorted if (support_mask & ~r.plus) == 0), None)
        return dominating_memo[support_mask]

    for tau_t in sorted(covs_exp, key=str):
        if tau_t.plus == 0:
            continue
        pi = SignVector(n, tau_t.plus, 0)
        if pi not in vectors_w:
            continue
        rho = dominating(tau_t.support)
        if rho is None:
            continue
        v_pi = positive_kernel_vector(spec.coeff, tau_t.plus_set())
        v_rho = realize_kernel_sign(spec.coeff, rho)
        x_t = realize_sign_vector(spec.exponents, tau_t)
        check(v_pi is not None and v_rho is not None and x_t is not None,
              f"covector {tau_t} or its dominating vector {rho} has no realization")
        return ConditionResult(FAILS, tag, certificate={
            "exponent_covector": str(tau_t),
            "exponent_functional": _jvec(x_t),
            "positive_dependence": _jvec(v_pi),
            "dominating_kernel_vector": _jvec(v_rho),
            "dominating_sign_vector": str(rho),
        })
    return ConditionResult(HOLDS, tag)


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
    n, cap = spec.n, caps.max_n_enumeration
    lifted = RationalMatrix([list(r) + [0] for r in spec.exponents.row_tuples] + [[1] * (n + 1)])
    try:
        spec._om(spec.exponents).check_cap("covector", cap)  # the cap counts the map's n columns
        lifted_faces = spec._om(lifted).nonneg_covectors(cap + 1)
        dependent = _positively_dependent(spec, cap)
    except EnumerationCap as e:
        return ConditionResult(INCONCLUSIVE, tag, detail=str(e))
    origin = 1 << n
    positive_faces = sorted({t.zero_set() for t in lifted_faces if t.plus & origin} - {()})
    for I in positive_faces:
        if dependent(I):
            return ConditionResult(INCONCLUSIVE, tag, detail=(
                f"positive face {{{','.join(str(i + 1) for i in I)}}} is positively dependent"))
    return ConditionResult(HOLDS, tag, detail=f"{len(positive_faces)} positive faces checked")


# ---------------------------------------------------------------------------
# closure conditions and robustness


def _closure_condition(spec, caps, swap: bool, tag: str) -> ConditionResult:
    """The closure result, computed once per spec, direction and cap: the
    robustness conditions reuse what cc and cc_prime built."""
    key = (swap, caps.max_n_enumeration)
    if key not in spec._closure_results:
        spec._closure_results[key] = _closure_result(spec, caps.max_n_enumeration, swap, tag)
    return spec._closure_results[key]


def _closure_result(spec, cap: int, swap: bool, tag: str) -> ConditionResult:
    first, second = (spec.exponents, spec.coeff) if swap else (spec.coeff, spec.exponents)
    try:
        V = spec._om(first).vectors(cap)
        T = spec._om(second).vectors(cap)
    except EnumerationCap as e:
        return ConditionResult(INCONCLUSIVE, tag, detail=str(e))
    excluded = _closure_excluded(V, T)
    if excluded is None:
        return ConditionResult(HOLDS, tag)
    v = realize_kernel_sign(first, excluded)
    check(v is not None, f"excluded sign vector {excluded} has no kernel realization")
    # the sign sets rule out a dominating vector of ker(second), so by Minty's
    # alternative the orthogonal branch must hold
    w = orthogonal_witness(kernel_basis(second), excluded)
    check(w is not None, "excluded sign vector admits a dominating one")
    return ConditionResult(FAILS, tag, certificate={
        "excluded_sign_vector": str(excluded),
        "kernel_vector": _jvec(v),
        "orthogonal_witness": _jvec(w),
    })


def closure_cc(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """sign(ker W) inside the closure of sign(ker Wt)."""
    return _closure_condition(spec, caps, swap=False, tag="kernel-sign-closure")


def closure_cc_prime(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """sign(ker Wt) inside the closure of sign(ker W)."""
    return _closure_condition(spec, caps, swap=True, tag="kernel-sign-closure-reversed")


def _minor_form_strict_closure(spec) -> tuple[str, dict]:
    """det(W_I) != 0 implies det(W_I) det(Wt_I) > 0 for all I (or < 0 for all I)."""
    minors_w = spec._om(spec.coeff).minors
    minors_wt = spec._om(spec.exponents).minors
    ref = None
    for I in sorted(minors_w):
        if minors_w[I] == 0:
            continue
        p = minors_w[I] * minors_wt[I]
        if p == 0:
            return FAILS, {"violating_subset": _jidx(I), "reason": "zero-product-at-nonzero-minor"}
        if ref is None:
            ref = (I, p)
        elif p * ref[1] < 0:
            return FAILS, {
                "reference_subset": _jidx(ref[0]),
                "violating_subset": _jidx(I),
                "reason": "mixed-product-signs",
            }
    check(ref is not None, "full-rank coefficient matrix without a nonzero minor")
    return HOLDS, {"reference_subset": _jidx(ref[0]), "reference_sign": "+" if ref[1] > 0 else "-"}


def robust_exponents(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Bijective for all c and all small exponent perturbations."""
    tag = "robust-exponent-perturbations"
    spec.require_square()
    minor_verdict, minor_cert = _minor_form_strict_closure(spec)
    sign_form = closure_cc(spec, caps)
    check(sign_form.verdict in (INCONCLUSIVE, minor_verdict),
          "closure condition disagrees with its minor form")
    cert = {"minor_form": minor_cert}
    if sign_form.certificate:
        cert["closure_form"] = sign_form.certificate
    return ConditionResult(minor_verdict, tag, certificate=cert)


def robust_coefficients(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Bijective for all c and all small coefficient perturbations."""
    tag = "robust-coefficient-perturbations"
    spec.require_square()
    ccp = closure_cc_prime(spec, caps)
    if ccp.verdict == INCONCLUSIVE:
        return ConditionResult(INCONCLUSIVE, tag, detail=ccp.detail)
    if ccp.verdict == FAILS:
        return ConditionResult(FAILS, tag, certificate={
            "reason": "reversed-closure-fails", "closure_form": ccp.certificate})
    try:
        cone_w = spec._om(spec.coeff).face_lattice(caps.max_n_enumeration)
        cone_wt = spec._om(spec.exponents).face_lattice(caps.max_n_enumeration)
    except EnumerationCap as e:
        return ConditionResult(INCONCLUSIVE, tag, detail=str(e))
    if cone_w.full_space and cone_wt.full_space:
        return ConditionResult(HOLDS, tag, detail="both cones are the full space")
    if not (cone_w.all_plus and cone_wt.all_plus):
        return ConditionResult(FAILS, tag, certificate={"reason": "all-plus-covector-missing"})
    if cone_w.faces != cone_wt.faces:
        diff = min((str(t) for t in cone_w.faces ^ cone_wt.faces))
        return ConditionResult(FAILS, tag, certificate={
            "reason": "face-sets-differ", "separating_face": diff})
    if not (cone_w.robustly_generated and cone_wt.robustly_generated):
        return ConditionResult(FAILS, tag, certificate={"reason": "cone-not-robustly-generated"})
    return ConditionResult(HOLDS, tag)


def robust_both(spec: ExponentialMapSpec, caps: Caps = Caps()) -> ConditionResult:
    """Bijective for all c and all small perturbations of both matrices:
    all maximal-minor products strictly share one sign."""
    tag = "robust-general-perturbations"
    spec.require_square()
    products = _minor_products(spec)
    zero = next((I for I in sorted(products) if products[I] == 0), None)
    verdict = FAILS if zero is not None else (
        HOLDS if len({p > 0 for p in products.values()}) == 1 else FAILS)
    if verdict == FAILS:
        if zero is not None:
            cert = {"violating_subset": _jidx(zero), "reason": "zero-product"}
        else:
            pos = next(I for I in sorted(products) if products[I] > 0)
            neg = next(I for I in sorted(products) if products[I] < 0)
            cert = {"positive_subset": _jidx(pos), "negative_subset": _jidx(neg),
                    "reason": "mixed-product-signs"}
    else:
        cert = {"reference_sign": "+" if next(iter(products.values())) > 0 else "-"}
    _cross_check_robust_both(spec, caps, verdict)
    return ConditionResult(verdict, tag, certificate=cert)


def _cross_check_robust_both(spec, caps, minor_verdict):
    """The strict minor form must match: equal kernel sign sets plus every
    minimal-support covector having exactly d-1 zeros."""
    om_w, om_wt = spec._om(spec.coeff), spec._om(spec.exponents)
    try:
        sign_equal = om_w.vectors(caps.max_n_enumeration) == om_wt.vectors(caps.max_n_enumeration)
        covs = om_w.covectors(caps.max_n_enumeration)
    except EnumerationCap:
        return
    nonzero = {t for t in covs if not t.is_zero()}
    minimal = minimal_support_members(covs)
    uniform = {t for t in nonzero if len(t.zero_set()) == spec.d - 1}
    sign_verdict = HOLDS if (sign_equal and minimal == uniform) else FAILS
    check(sign_verdict == minor_verdict, "strict minor form disagrees with its sign-vector form")


# ---------------------------------------------------------------------------
# rays


@dataclass(frozen=True)
class LevelPartition:
    """Indices grouped by the exact value of w~^i . x, highest level first."""

    direction: Vec
    levels: tuple[tuple[Fraction, tuple[int, ...]], ...]
    lambda_max: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "direction": _jvec(self.direction),
            "levels": [{"level": frac_str(l), "indices": _jidx(I)} for l, I in self.levels],
            "lambda_max": None if self.lambda_max is None else frac_str(self.lambda_max),
        }


@dataclass(frozen=True)
class RayLimit:
    diverges: bool
    partition: LevelPartition
    rate: Fraction | None = None
    direction: Vec | None = None
    limit: Vec | None = None
    interior: bool | None = None


def ray_limit(spec: ExponentialMapSpec, c: Vec, x: Vec, caps: Caps = Caps()) -> RayLimit:
    """Behaviour of t -> F_c(x t) as t grows: escape to infinity or a limit in
    the closed coefficient cone."""
    c = vec(c)
    x = vec(x)
    if len(c) != spec.n:
        raise InputError(f"parameter vector must have length {spec.n}")
    if any(ci <= 0 for ci in c):
        raise InputError("parameters must be strictly positive")
    if len(x) != spec.d_tilde:
        raise InputError(f"direction must have length {spec.d_tilde}")
    if is_zero_vec(x):
        raise InputError("ray direction must be nonzero")
    z = spec.exponents.transpose_vec(x)
    groups: dict[Fraction, list[int]] = {}
    for i, zi in enumerate(z):
        groups.setdefault(zi, []).append(i)
    levels = tuple(sorted(((lam, tuple(I)) for lam, I in groups.items()), reverse=True))
    lambda_max = None
    direction = None
    for lam, I in levels:
        s = [Fraction(0)] * spec.d
        for i in I:
            col = spec.coeff.column(i)
            s = [a + c[i] * b for a, b in zip(s, col)]
        if not is_zero_vec(tuple(s)):
            lambda_max = lam
            direction = tuple(s)
            break
    partition = LevelPartition(x, levels, lambda_max)
    if lambda_max is not None and lambda_max > 0:
        return RayLimit(True, partition, rate=lambda_max, direction=direction)
    zero_indices = groups.get(Fraction(0), [])
    y = [Fraction(0)] * spec.d
    for i in zero_indices:
        col = spec.coeff.column(i)
        y = [a + c[i] * b for a, b in zip(y, col)]
    y = tuple(y)
    return RayLimit(False, partition, limit=y,
                    interior=is_interior_point(spec.coeff, y, caps.max_n_enumeration))


# ---------------------------------------------------------------------------
# the full analysis


@dataclass
class AnalysisReport:
    n: int
    d: int
    d_tilde: int
    canonical_coeff: RationalMatrix
    canonical_exponents: RationalMatrix
    conditions: dict[str, ConditionResult]
    classification: str
    cones: dict[str, FaceLattice | None]
    sign_sets_equal: bool | None
    caps: Caps
    runtimes_ms: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "map": {
                "n": self.n,
                "d": self.d,
                "d_tilde": self.d_tilde,
                "canonical_coeff": self.canonical_coeff.to_json_dict(),
                "canonical_exponents": self.canonical_exponents.to_json_dict(),
            },
            "conditions": {k: v.to_json_dict() for k, v in sorted(self.conditions.items())},
            "classification": self.classification,
            "cones": {k: _cone_json(v) for k, v in sorted(self.cones.items())},
            "sign_sets_equal": self.sign_sets_equal,
            "caps": self.caps.to_json_dict(),
            "runtimes_ms": dict(self.runtimes_ms),
        }


def _cone_json(fl: FaceLattice | None) -> dict | None:
    if fl is None:
        return None
    return {
        "faces": sorted(str(t) for t in fl.faces),
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
    cap = caps.max_n_enumeration
    conditions: dict[str, ConditionResult] = {}
    runtimes: dict[str, float] = {}

    def run(key, fn, *args):
        t0 = time.perf_counter()
        conditions[key] = fn(*args)
        runtimes[key] = round((time.perf_counter() - t0) * 1000, 3)
        return conditions[key]

    t0 = time.perf_counter()
    sign_sets_equal: bool | None
    try:
        sign_sets_equal = om_w.vectors(cap) == om_wt.vectors(cap)
    except EnumerationCap:
        sign_sets_equal = None
    runtimes["sign_sets"] = round((time.perf_counter() - t0) * 1000, 3)

    cond_i = run("i", injectivity_via_signs, spec_c, caps)
    minors = run("injectivity_minors", injectivity_via_minors, spec_c)
    check(cond_i.verdict in (INCONCLUSIVE, minors.verdict),
          "sign-form and minor-form injectivity disagree")
    if cond_i.verdict == INCONCLUSIVE:
        cond_i = ConditionResult(minors.verdict, cond_i.tag, minors.certificate,
                                 detail="sign form capped; verdict from the minor form")
        conditions["i"] = cond_i

    run("ii", condition_ii, spec_c, caps)
    cond_iv = run("iv", condition_iv, spec_c, caps)
    newton = run("newton", newton_polytope_sufficient, spec_c, caps)
    cc = run("cc", closure_cc, spec_c, caps)
    ccp = run("cc_prime", closure_cc_prime, spec_c, caps)

    t0 = time.perf_counter()
    if sign_sets_equal:
        cond_iii = ConditionResult(HOLDS, "properness-nondegeneracy",
                                   detail="kernel sign sets are equal")
    elif cond_iv.holds:
        cond_iii = ConditionResult(HOLDS, "properness-nondegeneracy",
                                   detail="implied by the sign-sufficient condition")
    elif cc.holds or ccp.holds:
        cond_iii = ConditionResult(HOLDS, "properness-nondegeneracy",
                                   detail="implied by a closure condition")
    elif newton.holds:
        cond_iii = ConditionResult(HOLDS, "properness-nondegeneracy",
                                   detail="implied by the positive-face test")
    else:
        cond_iii = condition_iii_exact(spec_c, caps)
    conditions["iii"] = cond_iii
    runtimes["iii"] = round((time.perf_counter() - t0) * 1000, 3)

    run("robust_exponents", robust_exponents, spec_c, caps)
    run("robust_coefficients", robust_coefficients, spec_c, caps)
    run("robust_both", robust_both, spec_c, caps)

    try:
        cones: dict[str, FaceLattice | None] = {"coeff": om_w.face_lattice(cap), "exp": om_wt.face_lattice(cap)}
    except EnumerationCap:
        cones = {"coeff": None, "exp": None}

    classification = _classify(conditions)
    _assert_implications(conditions, cones, sign_sets_equal, classification)

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


def _classify(conditions: dict[str, ConditionResult]) -> str:
    i = conditions["i"].verdict
    ii = conditions["ii"].verdict
    iii = conditions["iii"].verdict
    if i == FAILS:
        return CLASS_NOT_INJECTIVE
    if i == INCONCLUSIVE:
        return CLASS_INCONCLUSIVE
    if FAILS in (ii, iii):
        return CLASS_INJECTIVE
    if INCONCLUSIVE in (ii, iii):
        return CLASS_INCONCLUSIVE
    return CLASS_BIJECTIVE


def _assert_implications(conditions, cones, sign_sets_equal, classification):
    """Theorem-level consistency; a violation is a bug, not a verdict."""
    def v(key):
        return conditions[key].verdict

    def implies(premise: bool, conclusion: bool, what: str):
        check(not premise or conclusion, f"implication violated: {what}")

    implies(v("cc") == HOLDS, v("i") == v("ii") == v("iv") == v("iii") == HOLDS,
            "cc holds but i, ii, iv or iii does not")
    implies(v("cc_prime") == HOLDS, v("i") == v("iv") == v("iii") == HOLDS,
            "cc_prime holds but i, iv or iii does not")
    implies(v("iv") == HOLDS, v("iii") == HOLDS, "iv holds but iii does not")
    implies(v("newton") == HOLDS, v("iii") == HOLDS, "newton holds but iii does not")
    implies(bool(sign_sets_equal), classification == CLASS_BIJECTIVE,
            "equal kernel sign sets but not bijective")
    cw, ce = cones.get("coeff"), cones.get("exp")
    if cw is not None and ce is not None:
        implies(v("cc_prime") == HOLDS and v("ii") == HOLDS, cw.faces == ce.faces,
                "cc_prime and ii hold but the cones' faces differ")
        implies(classification == CLASS_BIJECTIVE and cw.all_plus, ce.all_plus,
                "bijective with an all-plus coefficient covector but none on the exponent side")
    implies(v("robust_both") == HOLDS, v("robust_exponents") == HOLDS,
            "robust_both holds but robust_exponents does not")
