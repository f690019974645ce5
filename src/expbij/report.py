"""Certificate-bearing report format and its re-verification.

Reports are canonical JSON (sorted keys, lowest-terms "p/q" rationals) so
they diff cleanly; per-condition runtimes are stored under "runtimes_ms",
which the canonical form strips. verify_certificate re-checks every
substitution-checkable claim in a report against the canonical matrices
embedded in it, without re-running any search, and decides every minor-form
verdict and sign_sets_equal from the matrices' two tables of minor signs.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache

from . import __version__
from .analyzer import AnalysisReport, _classify
from .linalg import InputError, RationalMatrix, dot, frac, kernel_basis, maximal_minor_signs, vec
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
    sw, swt = maximal_minor_signs(W), maximal_minor_signs(Wt)
    for key, want in _minor_verdicts(sw, swt).items():
        _need(key not in conditions or conditions[key]["verdict"] == want,
              f"{key} disagrees with the minor signs")
    _need(report["sign_sets_equal"] is (sw in (swt, {I: -s for I, s in swt.items()})),
          "sign_sets_equal disagrees with the minor signs")
    kernel = cache(kernel_basis)  # each basis built once, if a certificate needs it

    for key, entry in conditions.items():
        cert = entry.get("certificate")
        verdict = entry["verdict"]
        _need(verdict != "fails" or isinstance(cert, dict), "fails without a certificate")
        if key in ("i", "injectivity_minors") and cert is not None and "common_sign_vector" not in cert:
            # i carries the minor form's certificate when its sign form hit a cap
            _verify_minor_cert(sw, swt, verdict, cert)
        elif key == "i" and verdict == "fails":
            tau = _sv(cert["common_sign_vector"])
            v = vec(cert["kernel_vector"])
            x = vec(cert["exponent_direction"])
            z = vec(cert["rowspace_vector"])
            _need(sign_of(v) == tau, "kernel vector sign mismatch")
            _need(all(t == 0 for t in W.mat_vec(v)), "kernel vector not in ker W")
            _need(Wt.transpose_vec(x) == z, "rowspace vector mismatch")
            _need(sign_of(z) == tau, "rowspace vector sign mismatch")
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
            _verify_closure_cert(W, Wt, kernel, key, cert)
        elif key == "robust_exponents" and cert is not None:
            if "closure_form" in cert and verdict == "fails":
                _verify_closure_cert(W, Wt, kernel, "cc", cert["closure_form"])
            _verify_strict_minor_cert(sw, swt, verdict, cert["minor_form"])
        elif key == "robust_coefficients" and verdict == "fails":
            if cert.get("reason") == "reversed-closure-fails":
                _verify_closure_cert(W, Wt, kernel, "cc_prime", cert["closure_form"])
            elif cert.get("reason") == "face-sets-differ":
                faces_w = set(report["cones"]["coeff"]["faces"])
                faces_wt = set(report["cones"]["exp"]["faces"])
                _need(cert["separating_face"] in faces_w ^ faces_wt,
                      "separating face not in the symmetric difference")
            else:
                _reason(cert, "all-plus-covector-missing", "cone-not-robustly-generated")
        elif key == "robust_both" and cert is not None:
            _verify_robust_both_cert(sw, swt, verdict, cert)

    want = _classify(*(conditions[k]["verdict"] for k in ("i", "ii", "iii")))
    _need(report["classification"] == want, "classification inconsistent with verdicts")


def _reason(cert, *known) -> str | None:
    """The certificate's reason, which must be one the analyzer emits."""
    reason = cert.get("reason")
    _need(reason in known, f"unknown reason {reason!r}")
    return reason


def _minor_verdicts(sw, swt) -> dict[str, str]:
    """Each minor form's verdict: it holds iff the products sign det(W_I) det(Wt_I)
    share one nonzero sign over its subsets I, which are the nonzero products
    for i, every I with det(W_I) != 0 for cc and robust_exponents, every I with
    det(Wt_I) != 0 for cc_prime, and all I for robust_both."""
    def verdict(over) -> str:
        return "holds" if {sw[I] * swt[I] for I in sw if over(I)} in ({1}, {-1}) else "fails"

    i, cc = verdict(lambda I: sw[I] * swt[I]), verdict(lambda I: sw[I])
    return {"i": i, "injectivity_minors": i, "cc": cc, "robust_exponents": cc,
            "cc_prime": verdict(lambda I: swt[I]), "robust_both": verdict(lambda I: True)}


_SIGN = {"+": 1, "-": -1}


def _product(sw, swt, subset) -> int:
    """sign det(W_I) det(Wt_I) for a certificate's 1-based subset I."""
    I = tuple(_idx(subset))
    return sw[I] * swt[I]


def _verify_minor_cert(sw, swt, verdict, cert):
    if _reason(cert, None, "all-products-zero") == "all-products-zero":
        _need(not any(sw[I] * swt[I] for I in sw), "a nonzero product exists")
        return
    ref = _product(sw, swt, cert["reference_subset"])
    _need(ref == _SIGN[cert["reference_sign"]], "reference product sign mismatch")
    if verdict == "fails":
        _need(_product(sw, swt, cert["violating_subset"]) == -ref,
              "violating product does not oppose the reference")


def _verify_strict_minor_cert(sw, swt, verdict, cert):
    if verdict == "holds":
        _need(_product(sw, swt, cert["reference_subset"]) == _SIGN[cert["reference_sign"]],
              "reference product sign mismatch")
    elif _reason(cert, "zero-product-at-nonzero-minor", "mixed-product-signs") == "mixed-product-signs":
        ref, bad = (_product(sw, swt, cert[f]) for f in ("reference_subset", "violating_subset"))
        _need(ref * bad < 0, "mixed-sign claim wrong")
    else:
        bad = tuple(_idx(cert["violating_subset"]))
        _need(sw[bad] != 0 and swt[bad] == 0, "zero-product claim wrong")


def _verify_robust_both_cert(sw, swt, verdict, cert):
    if verdict == "holds":
        I = next(iter(sw))  # the table's verdict says every product has one sign
        _need(sw[I] * swt[I] == _SIGN[cert["reference_sign"]], "reference sign wrong")
    elif _reason(cert, "zero-product", "mixed-product-signs") == "zero-product":
        _need(_product(sw, swt, cert["violating_subset"]) == 0, "product is not zero")
    else:
        pos, neg = (_product(sw, swt, cert[f]) for f in ("positive_subset", "negative_subset"))
        _need(pos > 0 > neg, "claimed mixed signs are wrong")


def _verify_closure_cert(W, Wt, kernel, key, cert):
    first, second = (W, Wt) if key == "cc" else (Wt, W)
    pi = _sv(cert["excluded_sign_vector"])
    v = vec(cert["kernel_vector"])
    _need(sign_of(v) == pi, "excluded vector sign mismatch")
    _need(all(t == 0 for t in first.mat_vec(v)), "excluded vector not in the kernel")
    z = vec(cert["orthogonal_witness"])
    _need(any(x != 0 for x in z), "orthogonal witness is zero")
    _need(sign_of(z).leq(pi), "orthogonal witness not conformal to the excluded vector")
    for b in kernel(second).vectors:
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
