"""The certificate verifier against the Fraction oracle it replaced.

`report.verify_certificate` checks on integers, once per distinct matrix;
`verify_oracle.verify_oracle` is the same checks on Fractions, with kernel
bases. Both must return the same bool on every report of the digest corpora
and on seeded single-field tamperings of each, except where a tampering only
changes the type of an equal value (true or 1.0 for 1): the oracle compares
with ==, which takes it, and the verifier must reject it.
"""

import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from expbij.analyzer import FAILS, HOLDS, INCONCLUSIVE, ExponentialMapSpec, _classify, analyze
from expbij.linalg import InputError, RationalMatrix, _int_rows, _rref_ints, frac, frac_str, seed_reduced
from expbij.report import build_report, canonical_json, verify_certificate
from test_analyzer import NONINJ, SV_ALPHAS, sv_example
from test_cli import VERIFY_EXAMPLES, _corpus_reports
from test_report_digests import _analyses
from verify_oracle import verify_oracle

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[+-]?[0-9]+)?")
_SIGNS = re.compile(r"[+0-]+")


def _is_vector(obj) -> bool:
    return isinstance(obj, list) and bool(obj) and all(
        type(x) is int or isinstance(x, str) and _RATIONAL.fullmatch(x) for x in obj)


def _sites(obj, path=()):
    """(kind, path) of each place a tampering acts on: a dict (drop a key), a
    vector of rationals, a sign string or a verdict."""
    if isinstance(obj, dict):
        yield "dict", path
        for k, v in obj.items():
            yield from _sites(v, path + (k,))
    elif _is_vector(obj):
        yield "vector", path
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _sites(v, path + (i,))
    elif path and path[-1] == "verdict":
        yield "verdict", path
    elif isinstance(obj, str) and _SIGNS.fullmatch(obj):
        yield "signs", path


def _at(report, path):
    for k in path:
        report = report[k]
    return report


def _set(report, path, value):
    _at(report, path[:-1])[path[-1]] = value


def _flip_sign(rng, s):
    i = rng.randrange(len(s))
    return s[:i] + rng.choice([c for c in "+-0" if c != s[i]]) + s[i + 1:]


def _scaled(v, c):
    return [frac_str(frac(x) * c) for x in v]


# each tampering changes one field of the report in place
TAMPERINGS = {
    "flip a sign": ("signs", lambda rng, r, p: _set(r, p, _flip_sign(rng, _at(r, p)))),
    "lengthen a sign string": ("signs", lambda rng, r, p: _set(r, p, _at(r, p) + "0")),
    "change an entry": ("vector", lambda rng, r, p: _at(r, p).__setitem__(
        i := rng.randrange(len(_at(r, p))), frac_str(frac(_at(r, p)[i]) + rng.choice([1, -1, Fraction(1, 2)])))),
    "scale a vector": ("vector", lambda rng, r, p: _set(r, p, _scaled(_at(r, p), rng.choice([2, -1, Fraction(1, 3)])))),
    "swap two entries": ("vector", lambda rng, r, p: _set(r, p, (lambda v, i, j: [
        v[j] if k == i else v[i] if k == j else x for k, x in enumerate(v)])(
        _at(r, p), rng.randrange(len(_at(r, p))), rng.randrange(len(_at(r, p)))))),
    "lengthen a vector": ("vector", lambda rng, r, p: _at(r, p).append("0")),
    "shorten a vector": ("vector", lambda rng, r, p: _at(r, p).pop()),
    "a bool entry": ("vector", lambda rng, r, p: _at(r, p).__setitem__(
        rng.randrange(len(_at(r, p))), rng.choice([True, False]))),
    "a negative denominator": ("vector", lambda rng, r, p: _at(r, p).__setitem__(
        rng.randrange(len(_at(r, p))), "1/-2")),
    "drop a key": ("dict", lambda rng, r, p: _at(r, p).pop(rng.choice(sorted(_at(r, p), key=str)), None)),
    "change a verdict": ("verdict", lambda rng, r, p: _set(r, p, rng.choice(
        [v for v in (HOLDS, FAILS, INCONCLUSIVE) if v != _at(r, p)]))),
}


def _digest_reports():
    return [(key, canonical_json(build_report(rep, {}))) for key, rep in _analyses().items()]


def test_verifier_matches_the_oracle_on_tampered_reports():
    rng = random.Random(49)
    answers, applied, retyped, dropped_caps = Counter(), Counter(), 0, 0
    for key, text in _digest_reports():
        assert verify_certificate(json.loads(text)) and verify_oracle(json.loads(text)), key
        sites = {}
        for kind, path in _sites(json.loads(text)):
            sites.setdefault(kind, []).append(path)
        for name in rng.sample(sorted(TAMPERINGS), 4):
            kind, tamper = TAMPERINGS[name]
            if kind not in sites:
                continue
            report = json.loads(text)
            path = rng.choice(sites[kind])
            if kind == "dict" and not _at(report, path):
                continue
            tamper(rng, report, path)
            got = verify_certificate(report)
            if _retyped(report, text):
                # true for 1 in an index list: the oracle compares with ==, which takes it
                assert got is False, (key, name, path)
                retyped += 1
            elif path == ("caps",):
                # a report names all three caps; the oracle reads only the n cap
                assert got is False, (key, name, path)
                dropped_caps += 1
            else:
                assert got is verify_oracle(report), (key, name, path)
            answers[got] += 1
            applied[name] += 1
    assert set(applied) == set(TAMPERINGS) and min(applied.values()) >= 50, applied
    assert answers[False] > answers[True] > 100, answers
    assert retyped > 0 and dropped_caps > 0


def _retyped(report, text) -> bool:
    """report differs from the JSON text only in the types of equal values,
    true or 1.0 for 1."""
    original = json.loads(text)
    return report == original and json.dumps(report, sort_keys=True) != json.dumps(original, sort_keys=True)


# forged holds: a condition that fails (newton: is inconclusive) flipped to
# holds, its certificate dropped and the class re-derived, over the first
# 150 corpus reports; the verifier checks i and ii, and cannot check iii, iv
# or newton
FORGED_HOLDS = {"i": (0, 106), "ii": (0, 59), "iii": (13, 0), "iv": (49, 0), "newton": (20, 0)}


def test_verifier_accepts_the_forged_holds_the_oracle_accepts():
    counts = {key: [0, 0] for key in FORGED_HOLDS}
    for text in _corpus_reports():
        for key in FORGED_HOLDS:
            forged = json.loads(text)
            conditions = forged["conditions"]
            if conditions[key]["verdict"] == HOLDS:
                continue
            conditions[key].update(verdict=HOLDS, certificate=None)
            forged["classification"] = _classify(*(conditions[k]["verdict"] for k in ("i", "ii", "iii")))
            got = verify_certificate(forged)
            assert got is verify_oracle(forged), (key, forged["map"])
            counts[key][not got] += 1
    assert {key: tuple(c) for key, c in counts.items()} == FORGED_HOLDS


def test_seeded_echelon_is_the_eliminated_one():
    # a canonical matrix read as a reduced row echelon form gets, with no
    # elimination, the echelon that _rref_ints computes on its rows
    seen = 0
    for rep in _analyses().values():
        for M in (rep.canonical_coeff, rep.canonical_exponents):
            parsed = RationalMatrix.from_json_dict(M.to_json_dict())
            assert seed_reduced(parsed) and parsed._echelon is not None
            E, pivots = _rref_ints(_int_rows(M.row_tuples)[0], M.cols)
            assert parsed.echelon() == (tuple(map(tuple, E[:len(pivots)])), tuple(pivots)), M
            seen += 1
    assert seen == 2 * len(_analyses())
    assert not seed_reduced(RationalMatrix([[1, 0], [0, 2]]))  # a pivot that is not 1
    assert not seed_reduced(RationalMatrix([[1, 1], [0, 1]]))  # a pivot not alone in its column
    assert not seed_reduced(RationalMatrix([[0, 1], [1, 0]]))  # pivots out of order
    assert not seed_reduced(RationalMatrix([[1, 0], [0, 0]]))  # a zero row


def test_verify_certificate_requires_the_first_common_sign_vector():
    # NONINJ's common sign vectors are +- and -+; the report names the first,
    # and -+ with its three witnesses negated checks by substitution but is
    # not the first, so only the Fraction oracle accepts it
    report = json.loads(canonical_json(build_report(analyze(NONINJ), {})))
    cert = report["conditions"]["i"]["certificate"]
    assert cert["common_sign_vector"] == "+-" and verify_certificate(report)
    cert["common_sign_vector"] = "-+"
    for field in ("kernel_vector", "exponent_direction", "rowspace_vector"):
        cert[field] = [frac_str(-frac(x)) for x in cert[field]]
    assert verify_oracle(report) is True
    assert verify_certificate(report) is False


def test_verify_certificate_rejects_sign_strings_of_the_wrong_length():
    # a sign string padded with a 0 has the same packed int as the original
    specs = [ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt)) for W, Wt in VERIFY_EXAMPLES.values()]
    specs += [sv_example(Fraction(a)) for a in SV_ALPHAS]
    padded = 0
    for spec in specs:
        text = canonical_json(build_report(analyze(spec), {}))
        assert verify_certificate(json.loads(text))
        for kind, path in _sites(json.loads(text)["conditions"], ("conditions",)):
            if kind == "signs":
                report = json.loads(text)
                _set(report, path, _at(report, path) + "0")
                assert verify_certificate(report) is False, path
                padded += 1
    assert padded >= 40, padded


def test_verify_certificate_requires_every_cap():
    # a --caps file may omit a cap, which takes its default; a report may not
    text = canonical_json(build_report(analyze(NONINJ), {}))
    assert verify_certificate(json.loads(text))
    for cap in json.loads(text)["caps"]:
        report = json.loads(text)
        del report["caps"][cap]
        assert verify_certificate(report) is False, cap
    report = json.loads(text)
    report["caps"]["max_depth"] = 1
    assert verify_certificate(report) is False


def _int_leaves(obj, path):
    """The path of each int of obj, at any depth; a bool is not one."""
    if type(obj) is int:
        yield path
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _int_leaves(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _int_leaves(v, path + (i,))


def test_verify_certificate_rejects_a_bool_or_a_float_for_an_int():
    # true == 1 == 1.0 in Python, so an int of a report, put back as true,
    # false or a float of the same value, must be read by its type
    rng = random.Random(50)
    hit = Counter()
    for key, text in _digest_reports():
        for block in ("map", "caps", "cones", "conditions"):
            leaves = list(_int_leaves(json.loads(text)[block], (block,)))
            if not leaves:
                continue
            report = json.loads(text)
            path = rng.choice(leaves)
            v = _at(report, path)
            _set(report, path, rng.choice([bool(v), float(v)]) if v in (0, 1) else float(v))
            assert verify_certificate(report) is False, (key, path)
            hit[next(k for k in reversed(path) if isinstance(k, str))] += 1
    named = {"n", "d", "d_tilde", "rows", "cols", "entries", "max_n_enumeration", "max_blocks",
             "max_partition_pairs", "lineality_dim", "zero_columns", "reference_subset",
             "violating_subset", "indices"}
    assert named <= set(hit), hit
    # the pair [[1]], [[1]], whose map block is n = d = d_tilde = 1
    text = canonical_json(build_report(analyze(ExponentialMapSpec(RationalMatrix([[1]]), RationalMatrix([[1]]))), {}))
    assert verify_certificate(json.loads(text))
    for field in ("n", "d", "d_tilde"):
        report = json.loads(text)
        report["map"][field] = True
        assert verify_certificate(report) is False, field
    with pytest.raises(InputError):
        RationalMatrix.from_json_dict({"rows": True, "cols": 2.0, "entries": [[1, 2]]})
