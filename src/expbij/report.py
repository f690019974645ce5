"""Certificate-bearing report format and its re-verification.

Reports are canonical JSON (sorted keys, lowest-terms "p/q" rationals) so
they diff cleanly; per-condition runtimes are stored under "runtimes_ms",
which the canonical form strips. verify_certificate re-checks every
substitution-checkable claim in a report against the canonical matrices
embedded in it, without re-running any search.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache

from . import __version__
from .analyzer import AnalysisReport
from .linalg import InputError, RationalMatrix, Vec, dot, frac, kernel_basis, maximal_minors, vec
from .signs import SignVector, sign_of

TOOL = {"name": "expbij", "version": __version__}


def digest_of(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def build_report(analysis: AnalysisReport, inputs: dict[str, str], seed: int | None = None) -> dict:
    out = {"tool": dict(TOOL), "inputs": dict(inputs), "seed": seed}
    out.update(analysis.to_json_dict())
    return out


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k != "runtimes_ms"}
    if isinstance(obj, list):
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
    False for a malformed report."""
    try:
        _verify(report)
        return True
    except (_Tampered, InputError, AttributeError, IndexError, KeyError, ValueError, TypeError,
            ZeroDivisionError):
        return False


def _sv(s: str) -> SignVector:
    return SignVector.from_string(s)


def _idx(indices) -> list[int]:
    return [i - 1 for i in indices]


def _verify(report: dict):
    m = report["map"]
    W = RationalMatrix.from_json_dict(m["canonical_coeff"])
    Wt = RationalMatrix.from_json_dict(m["canonical_exponents"])
    conditions = report["conditions"]
    # both minor tables, computed once and only if a minor certificate needs them
    minors = cache(lambda: (maximal_minors(W), maximal_minors(Wt)))

    for key, entry in conditions.items():
        cert = entry.get("certificate")
        verdict = entry["verdict"]
        if key == "i" and verdict == "fails":
            tau = _sv(cert["common_sign_vector"])
            v = vec(cert["kernel_vector"])
            x = vec(cert["exponent_direction"])
            z = vec(cert["rowspace_vector"])
            _need(sign_of(v) == tau, "kernel vector sign mismatch")
            _need(all(t == 0 for t in W.mat_vec(v)), "kernel vector not in ker W")
            _need(Wt.transpose_vec(x) == z, "rowspace vector mismatch")
            _need(sign_of(z) == tau, "rowspace vector sign mismatch")
        elif key == "injectivity_minors" and cert is not None:
            _verify_minor_cert(minors, verdict, cert)
        elif key == "ii" and verdict == "fails":
            tau_t = _sv(cert["uncovered_face"])
            x_t = vec(cert["exponent_functional"])
            _need(sign_of(Wt.transpose_vec(x_t)) == tau_t, "uncovered face not realized")
            ev = vec(cert["kernel_interior_evidence"])
            _need(all(t == 0 for t in W.mat_vec(ev)), "interior evidence not in ker W")
            _need(all(ev[i] > 0 for i in tau_t.plus_set()), "interior evidence not positive")
        elif key == "ii" and verdict == "holds" and cert is not None:
            for cover in cert["coverings"]:
                tau = _sv(cover["coeff_face"])
                tau_t = _sv(cover["exponent_face"])
                _need(tau.leq(tau_t), "covering face not below the covered one")
                _need(sign_of(W.transpose_vec(vec(cover["coeff_functional"]))) == tau,
                      "coefficient face not realized")
                _need(sign_of(Wt.transpose_vec(vec(cover["exponent_functional"]))) == tau_t,
                      "exponent face not realized")
        elif key == "iii" and verdict == "fails":
            _verify_degeneracy(W, Wt, cert)
        elif key == "iv" and verdict == "fails":
            tau_t = _sv(cert["exponent_covector"])
            _need(sign_of(Wt.transpose_vec(vec(cert["exponent_functional"]))) == tau_t,
                  "exponent covector not realized")
            v = vec(cert["positive_dependence"])
            _need(all(t == 0 for t in W.mat_vec(v)), "dependence not in ker W")
            _need(all(x >= 0 for x in v), "dependence not nonnegative")
            _need({i for i, x in enumerate(v) if x > 0} == set(tau_t.plus_set()),
                  "dependence support mismatch")
            u = vec(cert["dominating_kernel_vector"])
            _need(all(t == 0 for t in W.mat_vec(u)), "dominating vector not in ker W")
            _need(sign_of(u) == _sv(cert["dominating_sign_vector"]), "dominating sign mismatch")
            _need(all(u[i] > 0 for i in tau_t.support_set()), "dominating vector not positive on support")
        elif key in ("cc", "cc_prime") and verdict == "fails":
            _verify_closure_cert(W, Wt, key, cert)
        elif key == "robust_exponents" and cert is not None:
            if "closure_form" in cert and verdict == "fails":
                _verify_closure_cert(W, Wt, "cc", cert["closure_form"])
            _verify_strict_minor_cert(minors, verdict, cert["minor_form"])
        elif key == "robust_coefficients" and verdict == "fails":
            if cert.get("reason") == "reversed-closure-fails":
                _verify_closure_cert(W, Wt, "cc_prime", cert["closure_form"])
            elif cert.get("reason") == "face-sets-differ":
                faces_w = set(report["cones"]["coeff"]["faces"])
                faces_wt = set(report["cones"]["exp"]["faces"])
                _need(cert["separating_face"] in faces_w ^ faces_wt,
                      "separating face not in the symmetric difference")
        elif key == "robust_both" and cert is not None:
            _verify_robust_both_cert(minors, verdict, cert)

    want = _classification_of(conditions)
    _need(report["classification"] == want, "classification inconsistent with verdicts")


def _classification_of(conditions) -> str:
    i = conditions["i"]["verdict"]
    ii = conditions["ii"]["verdict"]
    iii = conditions["iii"]["verdict"]
    if i == "fails":
        return "not-injective"
    if i == "inconclusive":
        return "inconclusive"
    if "fails" in (ii, iii):
        return "injective-not-bijective"
    if "inconclusive" in (ii, iii):
        return "inconclusive"
    return "bijective-for-all-c"


def _verify_minor_cert(minors, verdict, cert):
    minors_w, minors_wt = minors()
    if cert.get("reason") == "all-products-zero":
        _need(all(minors_w[I] * minors_wt[I] == 0 for I in minors_w), "a nonzero product exists")
        return
    ref = tuple(_idx(cert["reference_subset"]))
    ref_p = minors_w[ref] * minors_wt[ref]
    sign = 1 if cert["reference_sign"] == "+" else -1
    _need(ref_p != 0 and (ref_p > 0) == (sign > 0), "reference product sign mismatch")
    if verdict == "fails":
        bad = tuple(_idx(cert["violating_subset"]))
        bad_p = minors_w[bad] * minors_wt[bad]
        _need(bad_p * ref_p < 0, "violating product does not oppose the reference")
    else:
        _need(all((minors_w[I] * minors_wt[I]) * sign >= 0 for I in minors_w),
              "a product opposes the reference sign")


def _verify_strict_minor_cert(minors, verdict, cert):
    minors_w, minors_wt = minors()
    if verdict == "fails":
        bad = tuple(_idx(cert["violating_subset"]))
        if cert.get("reason") == "zero-product-at-nonzero-minor":
            _need(minors_w[bad] != 0 and minors_wt[bad] == 0, "zero-product claim wrong")
        else:
            ref = tuple(_idx(cert["reference_subset"]))
            _need((minors_w[ref] * minors_wt[ref]) * (minors_w[bad] * minors_wt[bad]) < 0,
                  "mixed-sign claim wrong")
    else:
        products = [minors_w[I] * minors_wt[I] for I in minors_w if minors_w[I] != 0]
        _need(len({p > 0 for p in products if p != 0}) == 1 and all(p != 0 for p in products),
              "strict minor condition does not hold")


def _verify_robust_both_cert(minors, verdict, cert):
    minors_w, minors_wt = minors()
    products = {I: minors_w[I] * minors_wt[I] for I in minors_w}
    if verdict == "holds":
        _need(all(p != 0 for p in products.values()), "a zero product exists")
        signs = {p > 0 for p in products.values()}
        _need(len(signs) == 1, "mixed product signs")
        _need(("+" == cert["reference_sign"]) == signs.pop(), "reference sign wrong")
    elif cert.get("reason") == "zero-product":
        _need(products[tuple(_idx(cert["violating_subset"]))] == 0, "product is not zero")
    else:
        pos = products[tuple(_idx(cert["positive_subset"]))]
        neg = products[tuple(_idx(cert["negative_subset"]))]
        _need(pos > 0 > neg, "claimed mixed signs are wrong")


def _verify_closure_cert(W, Wt, key, cert):
    first, second = (W, Wt) if key == "cc" else (Wt, W)
    pi = _sv(cert["excluded_sign_vector"])
    v = vec(cert["kernel_vector"])
    _need(sign_of(v) == pi, "excluded vector sign mismatch")
    _need(all(t == 0 for t in first.mat_vec(v)), "excluded vector not in the kernel")
    z = vec(cert["orthogonal_witness"])
    _need(any(x != 0 for x in z), "orthogonal witness is zero")
    _need(sign_of(z).leq(pi), "orthogonal witness not conformal to the excluded vector")
    for b in kernel_basis(second).vectors:
        _need(dot(z, b) == 0, "orthogonal witness not orthogonal to the kernel")


def _verify_degeneracy(W, Wt, cert):
    x = vec(cert["direction"])
    z = vec(cert["z"])
    _need(Wt.transpose_vec(x) == z, "value vector mismatch")
    tau = _sv(cert["sign_vector"])
    _need(sign_of(z) == tau, "value vector sign mismatch")
    blocks = cert["blocks"]
    _need(len(blocks) > 0, "no blocks")
    levels = [frac(b["level"]) for b in blocks]
    _need(all(l > 0 for l in levels), "a block level is not positive")
    _need(levels == sorted(levels, reverse=True) and len(set(levels)) == len(levels),
          "block levels not strictly decreasing")
    covered = []
    for b in blocks:
        idx = _idx(b["indices"])
        level = frac(b["level"])
        _need(all(z[i] == level for i in idx), "block entries do not sit at the level")
        kv = vec(b["kernel_vector"])
        _need(all(t == 0 for t in W.mat_vec(kv)), "block vector not in ker W")
        _need(all(t >= 0 for t in kv), "block vector not nonnegative")
        _need({i for i, t in enumerate(kv) if t > 0} == set(idx), "block vector support mismatch")
        covered.extend(idx)
    _need(sorted(covered) == sorted(tau.plus_set()), "blocks do not partition the positive part")
    ev = vec(cert["no_cover_evidence"])
    _need(all(t == 0 for t in W.mat_vec(ev)), "no-cover evidence not in ker W")
    _need(all(ev[i] > 0 for i in tau.support_set()), "no-cover evidence not positive on the support")
