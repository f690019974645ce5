"""Seeded inputs, operations and correctness checks for the benchmark workloads.

Each workload has a fixed pool of instances, generated from POOL_SEED, whose
outputs at the commit that introduced the benchmark are recorded in
golden.json. The run seed does not pick other pool members: it permutes the
order of the pool and rewrites every instance into an equivalent input the
package has to see through (a unimodular change of row basis for matrices;
renamed species, shuffled and flipped reactions and fresh rate constants for
networks). The answers stay fixed, so every operation is checked exactly, and
the cost of one pass over the pool stays the same from seed to seed, which
keeps heavy-tailed workloads such as analyze-random steady.

Inputs are plain JSON data (integers and "p/q" strings). The package objects
are built inside the timed operation, the way the command line builds them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

POOL_SEED = 90125  # the seed of the random corpus in tests/test_analyzer.py

WORKLOADS = ("analyze-random", "iii-search", "enumerate", "crn-networks")

BIJECTIVE = "bijective-for-all-c"
INJECTIVE = "injective-not-bijective"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# exact helpers that do not call the package, so the inputs cannot depend on
# the code under test


def _rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _random_full_rank(rng: random.Random, d: int, n: int) -> list[list[int]]:
    """Same draws as tests/test_analyzer.py::_random_full_rank."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(d)]
        if _rank(rows) == d:
            return rows


def _entry(x) -> int | str:
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _mix_rows(rng: random.Random, rows) -> list[list]:
    """rows after a random unimodular change of basis (row additions only, so
    the kernel, the row space and every maximal minor are unchanged)."""
    out = [[Fraction(x) for x in row] for row in rows]
    d = len(out)
    if d > 1:
        for i in range(d):
            j = rng.choice([k for k in range(d) if k != i])
            c = rng.choice((-1, 1))
            out[i] = [a + c * b for a, b in zip(out[i], out[j])]
    return [[_entry(x) for x in row] for row in out]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _strip_runtimes(obj):
    if isinstance(obj, dict):
        return {k: _strip_runtimes(v) for k, v in obj.items() if k != "runtimes_ms"}
    if isinstance(obj, list):
        return [_strip_runtimes(v) for v in obj]
    return obj


def canonical_digest(obj) -> str:
    """sha256 of the canonical JSON form that expbij.report uses, computed
    here so that checking adds no calls into the package."""
    text = json.dumps(_strip_runtimes(obj), sort_keys=True, separators=(",", ":")) + "\n"
    return sha256_text(text)


def _signs_digest(svs) -> str:
    return sha256_text("\n".join(sorted(str(t) for t in svs)))


# ---------------------------------------------------------------------------
# pools


def _sv_example(alpha):
    Wt = [[1, 1, 0, 0, -1, alpha], [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0]]
    W = [[0, 0, 1, 1, -1, 0], [1, -1, 0, 0, 0, -1], [0, 0, 1, -1, 0, 0]]
    return W, Wt


# Every pool has an odd number of instances, so that the median latency of a
# run of whole passes falls inside one instance's samples, not on the edge
# between two.

# Pairs from the random corpus of tests/test_analyzer.py (seed 90125, d in
# 1..4, n in d..d+4, entries -3..3), in corpus order. The first 13 take ~6 s
# on one core and include one n = 7 pair that takes half of that: the tail.
ANALYZE_RANDOM_POOL = 13

# Alphas of the worked family; the tests fix the class for 1/2, 3/2 (bijective)
# and 1, 2, 3 (injective, not bijective).
SV_ALPHAS = ("1/3", "1/2", "2/3", "1", "4/3", "3/2", "2", "5/2", "3")
SV_CLASSES = {"1/2": BIJECTIVE, "3/2": BIJECTIVE, "1": INJECTIVE, "2": INJECTIVE, "3": INJECTIVE}

WORKED_EXAMPLES = {
    # name: (W, Wt, expectations fixed by tests/test_acceptance.py)
    "EX1": ([[1, 0, -1], [0, 1, 0]], [[1, 0, -1], [0, 1, -1]], {"classification": BIJECTIVE}),
    "EX2": ([[1, 0, -1], [0, 1, 0]], [[1, 1, 0], [0, 1, 1]], {"classification": BIJECTIVE}),
    "CC_EXAMPLE": ([[1, 1, -1]], [[1, 0, -1]],
                   {"classification": BIJECTIVE, "verdicts": {"cc": "fails", "iv": "holds"}}),
    "FACE_GAP": ([[1, 1, 0], [0, 1, 1]], [[1, 0, -1], [0, 1, 0]],
                 {"verdicts": {"cc_prime": "holds", "ii": "fails"}}),
}

# (n, d) shapes of the enumeration pool: n = 8 with every d from 2 to 7 (25 to
# ~6k covectors, ~6 s a pass), plus n = 7, d = 3 to make the count odd. n = 9
# is left out because one pass over its seven shapes takes ~41 s (2.7-12 s
# each), n >= 10 because one instance takes 16-123 s.
ENUMERATE_SHAPES = tuple((8, d) for d in range(2, 8)) + ((7, 3),)

# (family, kinetics, species): every family with both kinetics, one more
# network to make the count odd, 5 to 8 species (~3.5 s a pass). The 8-species
# chain takes ~1.7 s; 9 species are left out because one 9-species chain takes
# ~8.7 s.
CRN_POOL = (
    ("chain", "mass-action", 8), ("cycle", "generalized", 7), ("binding", "mass-action", 7),
    ("chain", "generalized", 6), ("cycle", "mass-action", 6), ("binding", "generalized", 7),
    ("cycle", "mass-action", 5),
)


def _pool_analyze_random():
    rng = random.Random(POOL_SEED)
    pool = []
    for k in range(ANALYZE_RANDOM_POOL):
        d = rng.randint(1, 4)
        n = rng.randint(d, d + 4)
        W = _random_full_rank(rng, d, n)
        Wt = _random_full_rank(rng, d, n)
        pool.append({"key": f"corpus-{k:02d}", "W": W, "Wt": Wt, "expect": {}})
    return pool


def _pool_iii_search():
    pool = []
    for a in SV_ALPHAS:
        W, Wt = _sv_example(Fraction(a))
        expect = {"classification": SV_CLASSES[a]} if a in SV_CLASSES else {}
        pool.append({"key": f"sv-{a}", "W": W, "Wt": [[_entry(x) for x in r] for r in Wt],
                     "expect": expect})
    for name, (W, Wt, expect) in WORKED_EXAMPLES.items():
        pool.append({"key": name, "W": W, "Wt": Wt, "expect": expect})
    return pool


def _pool_enumerate():
    rng = random.Random(POOL_SEED)
    return [{"key": f"n{n}-d{d}", "W": _random_full_rank(rng, d, n)}
            for n, d in ENUMERATE_SHAPES]


def _network(family: str, s: int, orders):
    """Weakly reversible, deficiency-zero network on species X1..Xs.

    orders is None for mass action, else a list of kinetic orders (one per
    species) that scale every kinetic complex; scaling a species' order keeps
    the kinetic-order subspace the same dimension, so the kinetic deficiency
    stays zero."""
    def cx(coeffs: dict[int, int]):
        side = {"stoich": {f"X{i}": c for i, c in coeffs.items()}}
        if orders is not None:
            side["kinetic"] = {f"X{i}": _entry(c * orders[i - 1]) for i, c in coeffs.items()}
        return side

    if family == "chain":  # X1 <=> X2 <=> ... <=> Xs
        rxns = [(cx({i: 1}), cx({i + 1: 1}), True) for i in range(1, s)]
    elif family == "cycle":  # X1 -> X2 -> ... -> Xs -> X1
        rxns = [(cx({i: 1}), cx({i % s + 1: 1}), False) for i in range(1, s + 1)]
    else:  # binding tree: X_i + X_{i+1} <=> X_{i+2}
        rxns = [(cx({i: 1, i + 1: 1}), cx({i + 2: 1}), True) for i in range(1, s - 1)]
    return {
        "species": [f"X{i}" for i in range(1, s + 1)],
        "reactions": [{"from": a, "to": b, "reversible": rev} for a, b, rev in rxns],
    }


def _pool_crn():
    rng = random.Random(POOL_SEED)
    pool = []
    for family, kinetics, s in CRN_POOL:
        orders = None
        if kinetics == "generalized":
            orders = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) for _ in range(s)]
        pool.append({"key": f"{family}-{kinetics}-{s}", "doc": _network(family, s, orders),
                     "expect": {"mass_action": orders is None}})
    return pool


POOLS = {
    "analyze-random": _pool_analyze_random,
    "iii-search": _pool_iii_search,
    "enumerate": _pool_enumerate,
    "crn-networks": _pool_crn,
}


# ---------------------------------------------------------------------------
# seeded rewriting of a pool into the inputs of one run


def _rewrite_network(rng: random.Random, doc: dict) -> dict:
    names = {s: f"{s}_{rng.randrange(10**6)}" for s in doc["species"]}

    def side(sd):
        return {k: {names[s]: c for s, c in v.items()} for k, v in sd.items()}

    reactions = []
    for r in doc["reactions"]:
        a, b = side(r["from"]), side(r["to"])
        if r["reversible"] and rng.random() < 0.5:
            a, b = b, a
        reactions.append({"from": a, "to": b, "reversible": r["reversible"],
                          "k": f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"})
    rng.shuffle(reactions)
    return {"species": [names[s] for s in doc["species"]], "reactions": reactions}


def make_inputs(workload: str, seed: int) -> list[dict]:
    """The inputs of one pass: the pool in seeded order, each instance rewritten."""
    rng = random.Random(f"{workload}/{seed}")
    pool = POOLS[workload]()
    rng.shuffle(pool)
    out = []
    for inst in pool:
        inst = dict(inst)
        if "doc" in inst:
            inst["doc"] = _rewrite_network(rng, inst["doc"])
        else:
            inst["W"] = _mix_rows(rng, inst["W"])
            if "Wt" in inst:
                inst["Wt"] = _mix_rows(rng, inst["Wt"])
        out.append(inst)
    return out


def inputs_bytes(inputs: list[dict]) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# operations: one input carried through to a result; checking happens after


@dataclass
class Outcome:
    record: dict  # compared with golden.json
    decided: bool
    problems: list[str] = field(default_factory=list)  # independent checks that failed


def op_analyze(pkg, inst: dict):
    """analyze -> build_report -> canonical_json -> verify_certificate."""
    spec = pkg.analyzer.ExponentialMapSpec(pkg.linalg.RationalMatrix(inst["W"]),
                                           pkg.linalg.RationalMatrix(inst["Wt"]))
    rep = pkg.analyzer.analyze(spec)
    report = pkg.report.build_report(rep, {"instance": inst["key"]})
    text = pkg.report.canonical_json(report)
    verified = pkg.report.verify_certificate(report)
    return rep, text, verified


def check_analyze(inst: dict, result) -> Outcome:
    rep, text, verified = result
    out = Outcome(record={"classification": rep.classification, "sha256": sha256_text(text)},
                  decided=rep.classification != INCONCLUSIVE)
    if verified is not True:
        out.problems.append("verify_certificate rejected the report")
    expect = inst["expect"]
    if "classification" in expect and rep.classification != expect["classification"]:
        out.problems.append(f"class {rep.classification}, expected {expect['classification']}")
    for key, verdict in expect.get("verdicts", {}).items():
        if rep.conditions[key].verdict != verdict:
            out.problems.append(f"condition {key} is {rep.conditions[key].verdict}, expected {verdict}")
    return out


def op_enumerate(pkg, inst: dict):
    """The `expbij matroid` path: covectors, vectors, faces, chirotope."""
    m = pkg.matroid
    W = pkg.linalg.RationalMatrix(inst["W"])
    chi = m.chirotope(W)
    return (m.covectors(W), m.vectors(W), m.face_lattice(W).faces, chi,
            m.cocircuits(W), m.cocircuits_from_chirotope(chi))


def check_enumerate(inst: dict, result) -> Outcome:
    cov, vecs, faces, chi, coc, coc_chi = result
    chi_text = "\n".join(f"{I} {s}" for I, s in chi.sorted_items())
    out = Outcome(record={
        "covectors": len(cov), "covectors_sha256": _signs_digest(cov),
        "vectors": len(vecs), "vectors_sha256": _signs_digest(vecs),
        "faces": len(faces), "faces_sha256": _signs_digest(faces),
        "chirotope_sha256": sha256_text(chi_text),
    }, decided=True)
    if coc != coc_chi:
        out.problems.append("cocircuits differ from the chirotope-derived set")
    return out


def op_crn(pkg, inst: dict):
    """The `expbij crn analyze` path."""
    c = pkg.crn
    net = c.parse_network(inst["doc"])
    st = c.structure(net)
    return net, st, c.deficiency_zero_gmak(net), c.robust_deficiency_zero_gmak(net)


def check_crn(inst: dict, result) -> Outcome:
    net, st, verdict, robust = result
    doc = {
        "network": {"vertices": net.num_vertices, "edges": len(net.edges),
                    "components": st.num_components, "weakly_reversible": st.weakly_reversible,
                    "deficiency": st.deficiency, "kinetic_deficiency": st.kinetic_deficiency,
                    "mass_action": net.is_mass_action},
        "unique_equilibrium": verdict.to_json_dict(),
        "robust_unique_equilibrium": robust.to_json_dict(),
    }
    out = Outcome(record={"verdict": verdict.verdict, "robust_verdict": robust.verdict,
                          "sha256": canonical_digest(doc)},
                  decided=INCONCLUSIVE not in (verdict.verdict, robust.verdict))
    if inst["expect"]["mass_action"]:
        # deficiency zero theorem: weakly reversible, deficiency zero, mass action
        if not (st.weakly_reversible and st.deficiency == 0):
            out.problems.append("generated network is not weakly reversible with deficiency zero")
        if verdict.verdict != "holds" or robust.verdict != "holds":
            out.problems.append(f"mass-action verdicts {verdict.verdict}/{robust.verdict}, expected holds")
    return out


def operation(workload: str):
    """(op, check): op(pkg, inst) -> result, check(inst, result) -> Outcome."""
    if workload in ("analyze-random", "iii-search"):
        return op_analyze, check_analyze
    if workload == "enumerate":
        return op_enumerate, check_enumerate
    return op_crn, check_crn
