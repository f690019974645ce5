"""Certificate-bearing report format and its re-verification.

Reports are canonical JSON (sorted keys, lowest-terms "p/q" rationals) so
they diff cleanly; per-condition runtimes are stored under "runtimes_ms",
which the canonical form strips. verify_certificate re-checks every
substitution-checkable claim in a report against the canonical matrices
embedded in it, without re-running any search. Each matrix must be a
full-rank reduced row echelon form, and the `map` block's n, d and d_tilde
their shapes, with d = d_tilde. From the matrices' two tables of nonzero
minor signs it decides sign_sets_equal, the facets that ii must cover, and
every minor-form verdict and certificate by the analyzer's own rule,
`minor_form`, one scan per form; from the facets of the two cones it decides
robust_coefficients' verdict and reason by the analyzer's `cone_form`. The
`cones` block must equal the face lattices of the two matrices up to the
report's n cap, and be null past it. The closure forms that
robust_exponents and robust_coefficients embed must equal cc's and
cc_prime's certificates, so each closure certificate is checked once.
"""

from __future__ import annotations

import hashlib
import json
from functools import cache

from . import __version__
from .analyzer import FAILS, HOLDS, INCONCLUSIVE, AnalysisReport, _classify, _cone_json, cone_form, minor_form
from .linalg import InputError, RationalMatrix, dot, frac, kernel_basis, rank, reduced, vec
from .matroid import OrientedMatroid
from .signs import SignSet, SignVector, over_cap, sign_of

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
    False for a malformed report, nested too deep to read included."""
    try:
        _verify(report)
        return True
    except (_Tampered, InputError, AttributeError, IndexError, KeyError, ValueError, TypeError,
            ZeroDivisionError, RecursionError):
        return False


def _sv(s: str) -> SignVector:
    return SignVector.from_string(s)


# the minor form that decides each condition key
_MINOR_FORMS = {"i": "i", "injectivity_minors": "i", "cc": "cc", "robust_exponents": "cc",
                "cc_prime": "cc_prime", "robust_both": "robust_both"}


def _verify(report: dict):
    m = report["map"]
    W = RationalMatrix.from_json_dict(m["canonical_coeff"])
    Wt = RationalMatrix.from_json_dict(m["canonical_exponents"])
    _need(m["n"] == W.cols == Wt.cols and m["d"] == m["d_tilde"] == W.rows == Wt.rows,
          "map shape disagrees with its matrices, or d differs from d_tilde")
    _need(all(rank(M) == M.rows and reduced(M) is M for M in (W, Wt)),
          "a canonical matrix is not a full-rank reduced row echelon form")
    om_w, om_wt = OrientedMatroid(W), OrientedMatroid(Wt)
    conditions = report["conditions"]
    _need(report["sign_sets_equal"] is om_w.equal_up_to_sign(om_wt),
          "sign_sets_equal disagrees with the minor signs")
    # the cones are enumerated, so only up to the report's n cap
    past_cap = over_cap("covector", W.cols, report["caps"]["max_n_enumeration"])
    _need(report["cones"] == {side: None if past_cap else _cone_json(om.face_lattice)
                              for side, om in (("coeff", om_w), ("exp", om_wt))},
          "cones disagree with the matrices")
    form = cache(lambda key: minor_form(key, om_w, om_wt))
    facets = SignSet(om_wt.nonneg_cocircuit_masks, Wt.cols).strings()  # of cone(Wt)

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
            tau = _sv(cert["common_sign_vector"])
            v = vec(cert["kernel_vector"])
            x = vec(cert["exponent_direction"])
            z = vec(cert["rowspace_vector"])
            _need(sign_of(v) == tau, "kernel vector sign mismatch")
            _need(all(t == 0 for t in W.mat_vec(v)), "kernel vector not in ker W")
            _need(Wt.transpose_vec(x) == z, "rowspace vector mismatch")
            _need(sign_of(z) == tau, "rowspace vector sign mismatch")
        elif key in ("injectivity_minors", "robust_both"):
            _need(cert == want_cert, "minor certificate is not the table's")
        elif key == "robust_exponents":
            _need(cert["minor_form"] == want_cert, "minor certificate is not the table's")
            _need(cert.get("closure_form") == conditions["cc"].get("certificate"),
                  "closure form is not cc's certificate")
        elif key == "ii" and verdict == FAILS:
            _need(cert["uncovered_face"] in facets, "uncovered face is not a facet")
            tau_t = _sv(cert["uncovered_face"])
            x_t = vec(cert["exponent_functional"])
            _need(sign_of(Wt.transpose_vec(x_t)) == tau_t, "uncovered face not realized")
            ev = vec(cert["kernel_interior_evidence"])
            _need(all(t == 0 for t in W.mat_vec(ev)), "interior evidence not in ker W")
            _need(all(ev[i] > 0 for i in tau_t.plus_set()), "interior evidence not positive")
        elif key == "ii" and verdict == HOLDS:
            # one covering per facet, in string order
            _need((cert is None) == (not facets), "coverings do not match the facets")
            coverings = cert["coverings"] if facets else []
            _need([cover["exponent_face"] for cover in coverings] == facets,
                  "coverings do not match the facets")
            for cover in coverings:
                tau = _sv(cover["coeff_face"])
                tau_t = _sv(cover["exponent_face"])
                _need(not tau.is_zero() and tau.leq(tau_t),
                      "covering face is zero or not below the covered one")
                _need(sign_of(W.transpose_vec(vec(cover["coeff_functional"]))) == tau,
                      "coefficient face not realized")
                _need(sign_of(Wt.transpose_vec(vec(cover["exponent_functional"]))) == tau_t,
                      "exponent face not realized")
        elif key == "iii" and verdict == FAILS:
            _verify_degeneracy(W, Wt, cert)
        elif key == "iv" and verdict == FAILS:
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
        elif key in ("cc", "cc_prime") and verdict == FAILS:
            _verify_closure_cert(W, Wt, key, cert)
        elif key == "robust_coefficients":
            # the facets decide every reason; only a separating face takes the cap
            want, reason = cone_form(form("cc_prime")[0], om_w, om_wt)
            capped = reason == "face-sets-differ" and past_cap
            _need(verdict == want or verdict == INCONCLUSIVE and capped,
                  "robust_coefficients disagrees with the facets")
            if verdict == FAILS:
                _need(cert["reason"] == reason, "robust_coefficients names the wrong reason")
                if reason == "reversed-closure-fails":
                    _need(cert["closure_form"] == conditions["cc_prime"]["certificate"],
                          "closure form is not cc_prime's certificate")
                elif reason == "face-sets-differ":
                    faces = [set(report["cones"][side]["faces"]) for side in ("coeff", "exp")]
                    _need(cert["separating_face"] in faces[0] ^ faces[1],
                          "separating face not in the symmetric difference")

    want = _classify(*(conditions[k]["verdict"] for k in ("i", "ii", "iii")))
    _need(report["classification"] == want, "classification inconsistent with verdicts")


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
        idx = [i - 1 for i in b["indices"]]
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
