"""Certificate-bearing report format and its re-verification.

Reports are canonical JSON (sorted keys, lowest-terms "p/q" rationals) so
they diff cleanly; per-condition runtimes are stored under "runtimes_ms",
which the canonical form strips at any depth.

verify_certificate re-checks every substitution-checkable claim in a report
against the canonical matrices embedded in it, on integers, re-running no
search but the one that picks a failing i's sign vector. Each matrix is
parsed once and must be a full-rank reduced row echelon form, which is read
off its entries and gives its echelon with no elimination
(`linalg.seed_reduced`); the `map` block's n, d and d_tilde must be their
shapes, with d = d_tilde. One dict that serves both sides is parsed once,
and equal matrices share one `OrientedMatroid`. Each certificate vector is
parsed once into ints over one positive denominator (`linalg.vec_ints`) and
each sign string into a packed int of length n (`signs.parse_signs`). Every
claim is then checked by substitution into the integer view of its matrix,
the rows over their common denominator D (`OrientedMatroid._common`), and
equalities of rationals by cross-multiplying: W v = 0, sign(W^T x) = tau and
z = Wt^T x. A closure certificate's orthogonal witness w must lie in the row
space of the other matrix A, which its pivot columns p_k read off: D w =
sum_k w[p_k] A_k. No kernel basis is built.

From the two tables of nonzero minor signs the verifier decides
sign_sets_equal, the facets that ii must cover, and every minor-form verdict
and certificate by the analyzer's own rule, `minor_form`, one scan per form;
from the facets of the two cones it decides robust_coefficients' verdict and
reason by the analyzer's `cone_form`. A failing i must name the first common
sign vector in string order, which the analyzer's prefix search over W's
cocircuits and Wt's circuits recomputes. The `cones` block must equal the
face lattices of the two matrices up to the report's n cap, and be null past
it. The closure forms that robust_exponents and robust_coefficients embed
must equal cc's and cc_prime's certificates, so each closure certificate is
checked once. Integers are read by type, as true == 1 == 1.0 (`_same`).
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from operator import mul

from . import __version__
from .analyzer import FAILS, HOLDS, INCONCLUSIVE, AnalysisReport, Caps, _classify, _cones_json, cone_form, minor_form
from .linalg import InputError, RationalMatrix, frac, seed_reduced, vec_ints
from .matroid import OrientedMatroid, first_common_sign_vector
from .signs import over_cap, packed_signs, parse_signs, str_order

TOOL = {"name": "expbij", "version": __version__}


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def build_report(analysis: AnalysisReport, inputs: dict[str, str], seed: int | None = None) -> dict:
    out = {"tool": dict(TOOL), "inputs": dict(inputs), "seed": seed}
    out.update(analysis.to_json_dict())
    return out


_FLAT = frozenset({str, int, float, bool, type(None)})


def _strip_volatile(obj):
    """obj without its "runtimes_ms" keys, at any depth. Dicts are rebuilt;
    a list of scalars is kept as it is."""
    if isinstance(obj, dict):
        return {k: v if type(v) in _FLAT else _strip_volatile(v) for k, v in obj.items() if k != "runtimes_ms"}
    if isinstance(obj, list) and not _FLAT.issuperset(map(type, obj)):
        return [_strip_volatile(v) for v in obj]
    return obj


def canonical_json(report: dict) -> str:
    return json.dumps(_strip_volatile(report), sort_keys=True, separators=(",", ":")) + "\n"


class _Tampered(Exception):
    pass


def _need(condition: bool, what: str):
    if not condition:
        raise _Tampered(what)


def verify_certificate(report: dict) -> bool:
    """Re-check every certificate by exact substitution. True iff all pass;
    False for a malformed report, nested too deep to read included."""
    try:
        _verify(report)
        return True
    except (_Tampered, InputError, AttributeError, IndexError, KeyError, ValueError, TypeError,
            ZeroDivisionError, RecursionError):
        return False


def _matrix(obj) -> RationalMatrix:
    """A canonical matrix of the report, parsed, with its echelon read off."""
    M = RationalMatrix.from_json_dict(obj)
    _need(seed_reduced(M), "a canonical matrix is not a full-rank reduced row echelon form")
    return M


def _same(a, b) -> bool:
    """a == b, types included (== takes true and 1.0 for 1)."""
    if type(a) is not type(b):
        return False
    if type(b) is dict:
        return a.keys() == b.keys() and all(_same(a[k], v) for k, v in b.items())
    if type(b) is list:
        return a == b and all(type(x) is str for x in b) or len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _vector(values, length: int) -> tuple[list[int], int]:
    """A certificate vector of the given length as ints over one positive
    denominator."""
    ints, D = vec_ints(values)
    _need(len(ints) == length, "a vector has the wrong length")
    return ints, D


def _in_kernel(om: OrientedMatroid, v: list[int]) -> bool:
    return not any(sum(map(mul, row, v)) for row in om._common[0])


def _values(om: OrientedMatroid, x: list[int]) -> list[int]:
    """W^T x for x given as ints over a denominator q, times D q: the signs of
    W^T x, and its values up to that positive factor."""
    return [sum(map(mul, col, x)) for col in zip(*om._common[0])]


def _value_signs(om: OrientedMatroid, x) -> int:
    """The packed signs of W^T x for a certificate functional x."""
    return packed_signs(_values(om, _vector(x, om.W.rows)[0]))


# the minor form that decides each condition key
_MINOR_FORMS = {"i": "i", "injectivity_minors": "i", "cc": "cc", "robust_exponents": "cc",
                "cc_prime": "cc_prime", "robust_both": "robust_both"}


def _verify(report: dict):
    m = report["map"]
    coeff, exponents = m["canonical_coeff"], m["canonical_exponents"]
    W = _matrix(coeff)
    Wt = W if exponents is coeff else _matrix(exponents)  # one dict when built for equal matrices
    _need(all(type(m[k]) is int for k in ("n", "d", "d_tilde"))
          and m["n"] == W.cols == Wt.cols and m["d"] == m["d_tilde"] == W.rows == Wt.rows,
          "map shape disagrees with its matrices, or d differs from d_tilde")
    om_w = OrientedMatroid(W)
    om_wt = om_w if Wt == W else OrientedMatroid(Wt)
    n = W.cols
    conditions = report["conditions"]
    _need(report["sign_sets_equal"] is om_w.equal_up_to_sign(om_wt),
          "sign_sets_equal disagrees with the minor signs")
    # the cones are enumerated, so only up to the report's n cap
    Caps.from_json_dict(report["caps"])  # every cap present is an int, not a bool or a float
    past_cap = over_cap("covector", n, report["caps"]["max_n_enumeration"])
    _need(_same(report["cones"], {"coeff": None, "exp": None} if past_cap else
                _cones_json({"coeff": om_w.face_lattice, "exp": om_wt.face_lattice})),
          "cones disagree with the matrices")
    form = cache(lambda key: minor_form(key, om_w, om_wt))

    for key, entry in conditions.items():
        cert = entry.get("certificate")
        verdict = entry["verdict"]
        _need(verdict in (HOLDS, FAILS) or verdict == INCONCLUSIVE and key != "ii",
              f"{key} has an unknown verdict")
        _need(verdict != FAILS or isinstance(cert, dict), "fails without a certificate")
        if key in _MINOR_FORMS:
            want, want_cert = form(_MINOR_FORMS[key])
            _need(verdict == want, f"{key} disagrees with the minor signs")
        _need(key != "i" or (cert is None) == (verdict == HOLDS), "i carries a certificate iff it fails")
        if key == "i" and verdict == FAILS:
            tau = parse_signs(cert["common_sign_vector"], n)
            # the str-first common sign vector: orthogonal to W's cocircuits and Wt's circuits
            _need(tau == first_common_sign_vector(om_w, om_wt), "common sign vector is not the first in string order")
            v, _ = _vector(cert["kernel_vector"], n)
            _need(packed_signs(v) == tau, "kernel vector sign mismatch")
            _need(_in_kernel(om_w, v), "kernel vector not in ker W")
            x, dx = _vector(cert["exponent_direction"], Wt.rows)
            z, dz = _vector(cert["rowspace_vector"], n)
            D = om_wt._common[1]
            _need(all(a * dz == b * D * dx for a, b in zip(_values(om_wt, x), z)), "rowspace vector mismatch")
            _need(packed_signs(z) == tau, "rowspace vector sign mismatch")
        elif key in ("injectivity_minors", "robust_both"):
            _need(_same(cert, want_cert), "minor certificate is not the table's")
        elif key == "robust_exponents":
            _need(_same(cert["minor_form"], want_cert), "minor certificate is not the table's")
            _need(_same(cert.get("closure_form"), conditions["cc"].get("certificate")),
                  "closure form is not cc's certificate")
        elif key == "ii" and verdict == FAILS:
            tau_t = parse_signs(cert["uncovered_face"], n)
            _need(tau_t in om_wt.nonneg_cocircuit_masks, "uncovered face is not a facet")
            _need(_value_signs(om_wt, cert["exponent_functional"]) == tau_t, "uncovered face not realized")
            ev, _ = _vector(cert["kernel_interior_evidence"], n)
            _need(_in_kernel(om_w, ev), "interior evidence not in ker W")
            _need(all(ev[i] > 0 for i in range(n) if tau_t >> i & 1), "interior evidence not positive")
        elif key == "ii" and verdict == HOLDS:
            # one covering per facet of cone(Wt), in string order
            facets = sorted(om_wt.nonneg_cocircuit_masks, key=str_order(n))
            _need((cert is None) == (not facets), "coverings do not match the facets")
            coverings = cert["coverings"] if facets else []
            _need([parse_signs(cover["exponent_face"], n) for cover in coverings] == facets,
                  "coverings do not match the facets")
            for cover in coverings:
                tau = parse_signs(cover["coeff_face"], n)
                tau_t = parse_signs(cover["exponent_face"], n)
                _need(tau and not tau & ~tau_t, "covering face is zero or not below the covered one")
                _need(_value_signs(om_w, cover["coeff_functional"]) == tau, "coefficient face not realized")
                _need(_value_signs(om_wt, cover["exponent_functional"]) == tau_t,
                      "exponent face not realized")
        elif key == "iii" and verdict == FAILS:
            _verify_degeneracy(om_w, om_wt, cert)
        elif key == "iv" and verdict == FAILS:
            tau_t = parse_signs(cert["exponent_covector"], n)
            _need(_value_signs(om_wt, cert["exponent_functional"]) == tau_t, "exponent covector not realized")
            v, _ = _vector(cert["positive_dependence"], n)
            _need(_in_kernel(om_w, v), "dependence not in ker W")
            _need(all(a >= 0 for a in v), "dependence not nonnegative")
            _need(packed_signs(v) == tau_t & (1 << n) - 1, "dependence support mismatch")
            u, _ = _vector(cert["dominating_kernel_vector"], n)
            _need(_in_kernel(om_w, u), "dominating vector not in ker W")
            _need(packed_signs(u) == parse_signs(cert["dominating_sign_vector"], n), "dominating sign mismatch")
            support = (tau_t | tau_t >> n) & (1 << n) - 1
            _need(all(u[i] > 0 for i in range(n) if support >> i & 1),
                  "dominating vector not positive on support")
        elif key in ("cc", "cc_prime") and verdict == FAILS:
            _verify_closure_cert(om_w, om_wt, key, cert)
        elif key == "robust_coefficients":
            # the facets decide every reason; only a separating face takes the cap
            want, reason = cone_form(form("cc_prime")[0], om_w, om_wt)
            capped = reason == "face-sets-differ" and past_cap
            _need(verdict == want or verdict == INCONCLUSIVE and capped,
                  "robust_coefficients disagrees with the facets")
            if verdict == FAILS:
                _need(cert["reason"] == reason, "robust_coefficients names the wrong reason")
                if reason == "reversed-closure-fails":
                    _need(_same(cert["closure_form"], conditions["cc_prime"]["certificate"]),
                          "closure form is not cc_prime's certificate")
                elif reason == "face-sets-differ":
                    faces = [set(report["cones"][side]["faces"]) for side in ("coeff", "exp")]
                    _need(cert["separating_face"] in faces[0] ^ faces[1],
                          "separating face not in the symmetric difference")

    want = _classify(*(conditions[k]["verdict"] for k in ("i", "ii", "iii")))
    _need(report["classification"] == want, "classification inconsistent with verdicts")


def _verify_closure_cert(om_w: OrientedMatroid, om_wt: OrientedMatroid, key: str, cert):
    first, second = (om_w, om_wt) if key == "cc" else (om_wt, om_w)
    n = first.W.cols
    pi = parse_signs(cert["excluded_sign_vector"], n)
    v, _ = _vector(cert["kernel_vector"], n)
    _need(packed_signs(v) == pi, "excluded vector sign mismatch")
    _need(_in_kernel(first, v), "excluded vector not in the kernel")
    w, _ = _vector(cert["orthogonal_witness"], n)
    signs = packed_signs(w)
    _need(signs != 0, "orthogonal witness is zero")
    _need(not signs & ~pi, "orthogonal witness not conformal to the excluded vector")
    # ker(second) is orthogonal to w iff w is in the row space of second, the
    # combination of its rows A_k by w's entries at their pivots (A_k is 1 there)
    rows, D = second._common
    combination = [0] * n
    for p, row in zip(second.W.echelon()[1], rows):
        if c := w[p]:
            combination = [a + c * b for a, b in zip(combination, row)]
    _need(all(D * a == b for a, b in zip(w, combination)), "orthogonal witness not orthogonal to the kernel")


def _verify_degeneracy(om_w: OrientedMatroid, om_wt: OrientedMatroid, cert):
    n = om_w.W.cols
    x, dx = _vector(cert["direction"], om_wt.W.rows)
    z, dz = _vector(cert["z"], n)
    D = om_wt._common[1]
    _need(all(a * dz == b * D * dx for a, b in zip(_values(om_wt, x), z)), "value vector mismatch")
    tau = parse_signs(cert["sign_vector"], n)
    _need(packed_signs(z) == tau, "value vector sign mismatch")
    blocks = cert["blocks"]
    _need(len(blocks) > 0, "no blocks")
    levels = [frac(b["level"]) for b in blocks]
    _need(all(l > 0 for l in levels), "a block level is not positive")
    _need(levels == sorted(levels, reverse=True) and len(set(levels)) == len(levels),
          "block levels not strictly decreasing")
    covered = []
    for b, level in zip(blocks, levels):
        _need(all(type(i) is int and 0 < i <= n for i in b["indices"]), "a block index is not in 1..n")
        idx = [i - 1 for i in b["indices"]]
        _need(all(z[i] * level.denominator == level.numerator * dz for i in idx),
              "block entries do not sit at the level")
        kv, _ = _vector(b["kernel_vector"], n)
        _need(_in_kernel(om_w, kv), "block vector not in ker W")
        _need(all(t >= 0 for t in kv), "block vector not nonnegative")
        _need({i for i, t in enumerate(kv) if t > 0} == set(idx), "block vector support mismatch")
        covered.extend(idx)
    _need(sorted(covered) == [i for i in range(n) if tau >> i & 1], "blocks do not partition the positive part")
    ev, _ = _vector(cert["no_cover_evidence"], n)
    _need(_in_kernel(om_w, ev), "no-cover evidence not in ker W")
    support = (tau | tau >> n) & (1 << n) - 1
    _need(all(ev[i] > 0 for i in range(n) if support >> i & 1), "no-cover evidence not positive on the support")
