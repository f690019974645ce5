import random
from collections import Counter
from dataclasses import fields
from fractions import Fraction

import pytest

import expbij.analyzer
import expbij.crn
import expbij.linalg
from expbij.analyzer import Caps, ConditionResult, ExponentialMapSpec
from expbij.crn import (
    DeficiencyZeroVerdict,
    NetworkError,
    RobustDeficiencyZeroVerdict,
    deficiency_zero_gmak,
    is_weakly_reversible,
    map_spec_of,
    parse_network,
    robust_deficiency_zero_gmak,
    structure,
)
from expbij.linalg import (
    InputError,
    RationalMatrix,
    SubspaceBasis,
    kernel_basis,
    matrix_with_kernel,
    rank,
    vec,
)
from sign_oracles import (
    intersection_dim,
    matrix_with_kernel_oracle,
    row_space_basis,
    same_subspace,
    structure_oracle,
    subspace_contains,
)


def rxn(frm, to, **kw):
    out = {"from": frm, "to": to}
    out.update(kw)
    return out


AB_REVERSIBLE = {
    "species": ["A", "B"],
    "reactions": [rxn({"stoich": {"A": 1}}, {"stoich": {"B": 1}}, reversible=True, k="3/2")],
}

AB_IRREVERSIBLE = {
    "species": ["A", "B"],
    "reactions": [rxn({"stoich": {"A": 1}}, {"stoich": {"B": 1}})],
}

# one cycle of three vertices embedding the closure-counterexample subspaces:
# stoichiometric differences span ker(1,1,-1), kinetic ones span ker(1,0,-1)
CC_NETWORK = {
    "species": ["A", "B", "C"],
    "reactions": [
        rxn({"stoich": {}, "kinetic": {}},
            {"stoich": {"A": 1, "C": 1}, "kinetic": {"A": 1, "C": 1}}),
        rxn({"stoich": {"A": 1, "C": 1}, "kinetic": {"A": 1, "C": 1}},
            {"stoich": {"A": 1, "B": 1, "C": 2}, "kinetic": {"A": 1, "B": 1, "C": 1}}),
        rxn({"stoich": {"A": 1, "B": 1, "C": 2}, "kinetic": {"A": 1, "B": 1, "C": 1}},
            {"stoich": {}, "kinetic": {}}),
    ],
}


def test_parse_mass_action_shorthand():
    net = parse_network(AB_REVERSIBLE)
    assert net.num_vertices == 2 and len(net.edges) == 2
    assert net.is_mass_action
    assert net.rate_constants == (Fraction(3, 2), Fraction(3, 2))


def test_parse_kinetic_complex():
    doc = {
        "species": ["A", "B", "C"],
        "reactions": [rxn(
            {"stoich": {"A": 1, "B": 1}, "kinetic": {"A": "1/2", "B": 1}},
            {"stoich": {"C": 1}},
        )],
    }
    net = parse_network(doc)
    y, yt = net.vertices[0]
    assert y == vec([1, 1, 0]) and yt == vec([Fraction(1, 2), 1, 0])
    assert not net.is_mass_action


def test_parse_errors():
    with pytest.raises(NetworkError):
        parse_network({"species": ["A"], "reactions": [rxn({"stoich": {"D": 1}}, {"stoich": {"A": 1}})]})
    with pytest.raises(NetworkError):
        parse_network({"species": ["A", "B"], "reactions": [rxn({"stoich": {"A": -1}}, {"stoich": {"B": 1}})]})
    with pytest.raises(NetworkError):
        parse_network({"species": ["A", "B"], "reactions": [
            rxn({"stoich": {"A": 1}}, {"stoich": {"B": 1}}),
            rxn({"stoich": {"A": 1}}, {"stoich": {"B": 1}}),
        ]})
    with pytest.raises(NetworkError):
        parse_network({"species": ["A"], "reactions": [rxn({"stoich": {"A": 1}}, {"stoich": {"A": 1}})]})


def test_structure_ab():
    net = parse_network(AB_REVERSIBLE)
    s = structure(net)
    assert s.num_components == 1
    assert s.stoich_subspace.dim == 1
    assert s.deficiency == 0 and s.kinetic_deficiency == 0
    assert subspace_contains(s.stoich_subspace, vec([-1, 1]))
    assert s.weakly_reversible
    # Laplacian columns sum to zero
    lap = s.laplacian
    for j in range(lap.cols):
        assert sum(lap.column(j)) == 0


def test_structure_counts():
    net = parse_network(AB_IRREVERSIBLE)
    s = structure(net)
    assert not s.weakly_reversible
    assert s.laplacian is None  # no rate constant given

    two_pairs = {
        "species": ["A", "B", "C", "D"],
        "reactions": [
            rxn({"stoich": {"A": 1}}, {"stoich": {"B": 1}}, reversible=True),
            rxn({"stoich": {"C": 1}}, {"stoich": {"D": 1}}, reversible=True),
        ],
    }
    assert structure(parse_network(two_pairs)).num_components == 2


def test_weak_reversibility_examples():
    assert is_weakly_reversible(parse_network(AB_REVERSIBLE))
    cycle = {
        "species": ["A", "B", "C"],
        "reactions": [
            rxn({"stoich": {"A": 1}}, {"stoich": {"B": 1}}),
            rxn({"stoich": {"B": 1}}, {"stoich": {"C": 1}}),
            rxn({"stoich": {"C": 1}}, {"stoich": {"A": 1}}),
        ],
    }
    assert is_weakly_reversible(parse_network(cycle))
    chain = {
        "species": ["A", "B", "C"],
        "reactions": [
            rxn({"stoich": {"A": 1}}, {"stoich": {"B": 1}}),
            rxn({"stoich": {"B": 1}}, {"stoich": {"C": 1}}),
        ],
    }
    assert not is_weakly_reversible(parse_network(chain))


def _random_network_doc(rng):
    """Linkage classes of three kinds on disjoint complexes, each complex one
    species: irreversible chains, directed cycles and reversible chains, each
    sometimes with one extra reaction inside the class. The reactions of all
    classes are shuffled together, so vertex numbers interleave the classes."""
    kinds, reactions, m = [], [], 0
    for _ in range(rng.randint(1, 3)):
        kind, size = rng.choice(("chain", "cycle", "reversible")), rng.randint(2, 5)
        pairs = [(m + i, m + i + 1) for i in range(size - 1)]
        if kind == "cycle":
            pairs.append((m + size - 1, m))
        if rng.random() < 0.3:
            extra = tuple(rng.sample(range(m, m + size), 2))
            if extra not in pairs and extra[::-1] not in pairs:
                pairs.append(extra)
        reactions += [rxn({"stoich": {f"X{u}": 1}}, {"stoich": {f"X{v}": 1}}, reversible=kind == "reversible")
                      for u, v in pairs]
        kinds.append(kind)
        m += size
    rng.shuffle(reactions)
    return {"species": [f"X{i}" for i in range(m)], "reactions": reactions}, kinds


def _closure_oracle(net):
    """Weak components (sorted, by least vertex) and weak reversibility from
    the transitive closure of the reaction digraph."""
    m = net.num_vertices
    reach = [[u == v for v in range(m)] for u in range(m)]
    for u, v in net.edges:
        reach[u][v] = True
    for k in range(m):
        for u in range(m):
            if reach[u][k]:
                reach[u] = [a or b for a, b in zip(reach[u], reach[k])]
    linked = [[reach[u][v] or reach[v][u] for v in range(m)] for u in range(m)]
    for k in range(m):
        for u in range(m):
            if linked[u][k]:
                linked[u] = [a or b for a, b in zip(linked[u], linked[k])]
    components = sorted({tuple(v for v in range(m) if linked[u][v]) for u in range(m)})
    reversible = all(reach[v][u] for u in range(m) for v in range(m) if reach[u][v])
    return tuple(components), reversible


def test_components_and_weak_reversibility_match_closure_oracle():
    rng = random.Random(22)
    kinds, several, outcomes = Counter(), 0, Counter()
    for _ in range(150):
        doc, doc_kinds = _random_network_doc(rng)
        net = parse_network(doc)
        components, reversible = _closure_oracle(net)
        s = structure(net)
        assert s.components == components, doc
        assert s.weakly_reversible == reversible == is_weakly_reversible(net), doc
        kinds.update(doc_kinds)
        several += len(doc_kinds) > 1
        outcomes[reversible] += 1
    assert min(kinds.values()) >= 10 and several >= 10, (kinds, several)
    assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes


def test_structure_finds_the_components_once(monkeypatch):
    calls = []
    weak_components = expbij.crn._weak_components
    monkeypatch.setattr(expbij.crn, "_weak_components", lambda *a: calls.append(a) or weak_components(*a))
    s = structure(parse_network(CC_NETWORK))
    assert s.weakly_reversible and len(calls) == 1


def test_verdict_records_serialize_their_fields():
    # the JSON keys are the dataclass fields, so renaming a field would change
    # report bytes; pin the keys here
    net = parse_network(CC_NETWORK)
    verdict, robust = deficiency_zero_gmak(net), robust_deficiency_zero_gmak(net)
    assert isinstance(verdict, DeficiencyZeroVerdict) and isinstance(robust, RobustDeficiencyZeroVerdict)
    assert sorted(verdict.to_json_dict()) == [
        "analysis", "deficiency", "existence_for_all_rates", "kinetic_deficiency", "mass_action",
        "reason", "verdict", "weakly_reversible"]
    assert sorted(robust.to_json_dict()) == [
        "closure", "deficiency", "kinetic_deficiency", "mass_action", "mass_action_reduction",
        "reason", "verdict", "weakly_reversible"]
    assert isinstance(robust.closure, ConditionResult)
    assert sorted(robust.closure.to_json_dict()) == ["certificate", "detail", "tag", "verdict"]
    assert verdict.to_json_dict()["analysis"] == verdict.analysis.to_json_dict()
    assert robust.to_json_dict()["closure"] == robust.closure.to_json_dict()


def test_deficiency_formulas_agree():
    for doc in (AB_REVERSIBLE, AB_IRREVERSIBLE, CC_NETWORK):
        net = parse_network(doc)
        s = structure(net)
        alt = intersection_dim(
            kernel_basis(s.stoich_complexes),
            row_space_basis(s.incidence.transpose()),
        )
        assert s.deficiency == alt


def test_deficiency_zero_mak_holds():
    res = deficiency_zero_gmak(parse_network(AB_REVERSIBLE))
    assert res.verdict == "holds"
    assert res.existence_for_all_rates
    assert res.mass_action
    assert res.analysis.classification == "bijective-for-all-c"


def test_deficiency_zero_irreversible_fails():
    res = deficiency_zero_gmak(parse_network(AB_IRREVERSIBLE))
    assert res.verdict == "fails" and "reversible" in res.reason
    assert not res.existence_for_all_rates


def test_deficiency_zero_not_applicable():
    doc = {
        "species": ["A", "B"],
        "reactions": [
            rxn({"stoich": {"A": 1}, "kinetic": {"A": 1, "B": 1}},
                {"stoich": {"B": 1}, "kinetic": {"A": 1, "B": 1}}, reversible=True),
        ],
    }
    res = deficiency_zero_gmak(parse_network(doc))
    assert res.verdict == "criteria-not-applicable"
    assert res.kinetic_deficiency == 1


def test_cc_network_structure_matches_closure_counterexample():
    net = parse_network(CC_NETWORK)
    s = structure(net)
    assert s.deficiency == 0 and s.kinetic_deficiency == 0 and s.weakly_reversible
    assert same_subspace(s.stoich_subspace, SubspaceBasis(3, (vec([1, 0, 1]), vec([0, 1, 1]))))
    assert same_subspace(s.kinetic_subspace, SubspaceBasis(3, (vec([1, 0, 1]), vec([0, 1, 0]))))
    spec = map_spec_of(s)
    r = spec.coeff.row(0)
    assert (r[1] / r[0], r[2] / r[0]) == (1, -1)  # proportional to (1,1,-1)
    r = spec.exponents.row(0)
    assert (r[1], r[2] / r[0]) == (0, -1)  # proportional to (1,0,-1)


def test_cc_network_bijective_but_not_robust():
    net = parse_network(CC_NETWORK)
    res = deficiency_zero_gmak(net)
    assert res.verdict == "holds"
    robust = robust_deficiency_zero_gmak(net)
    assert robust.verdict == "fails"
    assert robust.closure.fails


def test_robust_mak_reduces_to_classical():
    res = robust_deficiency_zero_gmak(parse_network(AB_REVERSIBLE))
    assert res.verdict == "holds" and res.mass_action_reduction
    res = robust_deficiency_zero_gmak(parse_network(AB_IRREVERSIBLE))
    assert res.verdict == "fails"


def test_capped_mass_action_network_is_decided():
    net = parse_network(AB_REVERSIBLE)
    caps = Caps(max_n_enumeration=1)
    # equal kernel sign sets are read off the chirotopes and the closure
    # condition off the cocircuits, which no cap bounds, so both verdicts are
    # decided even when the cap refuses every enumeration
    verdict = deficiency_zero_gmak(net, caps)
    assert verdict.verdict == "holds"
    assert verdict.analysis.conditions["iv"].verdict == "inconclusive"  # the cap still fires
    robust = robust_deficiency_zero_gmak(net, caps)
    assert robust.verdict == "holds" and robust.closure.verdict == "holds"


@pytest.mark.parametrize("doc", [AB_REVERSIBLE, CC_NETWORK])
def test_one_structure_and_one_analysis_per_network_and_caps(monkeypatch, doc):
    calls = Counter()
    for name in ("_structure_of", "_build_verdicts", "map_spec_of", "analyze"):
        def counted(*args, _name=name, _fn=getattr(expbij.crn, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(expbij.crn, name, counted)
    net = parse_network(doc)
    structure(net)
    verdict = deficiency_zero_gmak(net)
    robust = robust_deficiency_zero_gmak(net)
    assert calls == {"_structure_of": 1, "_build_verdicts": 1, "map_spec_of": 1, "analyze": 1}
    # the robust verdict is the closure condition of the same analysis
    assert robust.closure is verdict.analysis.conditions["cc"]
    assert robust.verdict == robust.closure.verdict

    other = Caps(max_blocks=7)
    assert deficiency_zero_gmak(net, other).analysis is not verdict.analysis
    robust_deficiency_zero_gmak(net, other)
    assert calls == {"_structure_of": 1, "_build_verdicts": 2, "map_spec_of": 2, "analyze": 2}


def test_equal_networks_parsed_separately_build_their_own_results():
    a, b = parse_network(CC_NETWORK), parse_network(CC_NETWORK)
    assert a == b and hash(a) == hash(b)
    assert structure(a) is structure(a)
    assert structure(a) is not structure(b)
    assert deficiency_zero_gmak(a).analysis is not deficiency_zero_gmak(b).analysis


def family_network(family: str, s: int, orders=None) -> dict:
    """A weakly reversible, deficiency-zero network on species X1..Xs: a
    reversible chain X1 <=> ... <=> Xs, a directed cycle X1 -> ... -> Xs -> X1,
    or a binding tree X_i + X_{i+1} <=> X_{i+2}. orders, one per species,
    scale every kinetic complex; None is mass action."""
    def cx(coeffs: dict[int, int]):
        side = {"stoich": {f"X{i}": c for i, c in coeffs.items()}}
        if orders is not None:
            side["kinetic"] = {f"X{i}": str(c * orders[i - 1]) for i, c in coeffs.items()}
        return side

    if family == "chain":
        rxns = [(cx({i: 1}), cx({i + 1: 1}), True) for i in range(1, s)]
    elif family == "cycle":
        rxns = [(cx({i: 1}), cx({i % s + 1: 1}), False) for i in range(1, s + 1)]
    else:
        rxns = [(cx({i: 1, i + 1: 1}), cx({i + 2: 1}), True) for i in range(1, s - 1)]
    return {"species": [f"X{i}" for i in range(1, s + 1)],
            "reactions": [rxn(a, b, reversible=rev, k=f"{i % 5 + 1}/{i % 3 + 1}")
                          for i, (a, b, rev) in enumerate(rxns)]}


def assert_structure_matches_oracle(net):
    """structure(net) equals the Fraction-built oracle field by field, and
    map_spec_of equals the pair of the Fraction-built matrices with those
    kernels, or refuses a subspace that fills the species space."""
    got, want = structure(net), structure_oracle(net)
    for f in fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    S, St = want.stoich_subspace, want.kinetic_subspace
    if max(S.dim, St.dim) >= net.num_species:
        with pytest.raises(InputError):
            map_spec_of(got)
    else:
        want_spec = ExponentialMapSpec(matrix_with_kernel_oracle(S), matrix_with_kernel_oracle(St))
        assert map_spec_of(got) == want_spec
    return got


def _random_complex(rng, ns, amounts):
    return {f"X{i}": rng.choice(amounts) for i in rng.sample(range(ns), rng.randint(1, min(3, ns)))}


def _random_mixed_network(rng):
    """Linkage classes on distinct complexes of up to three species each, with
    rational stoichiometry and, unless mass action, kinetic orders that may be
    rational, negative or zero. A class is a reversible chain, a directed
    cycle or a one-way chain, sometimes with one extra reaction; rates are
    sometimes left out."""
    ns = rng.randint(2, 6)
    mass_action = rng.random() < 0.3
    seen, complexes = set(), []
    while len(complexes) < rng.randint(4, 9):
        side = {"stoich": _random_complex(rng, ns, (1, 1, 2, 3, "1/2", "3/2"))}
        if not mass_action:
            side["kinetic"] = _random_complex(rng, ns, (1, 2, "1/2", "-1", "-3/2", "2/3", 0))
        key = tuple(frozenset((x, Fraction(a)) for x, a in side.get(f, side["stoich"]).items() if Fraction(a))
                    for f in ("stoich", "kinetic"))
        if key not in seen:
            seen.add(key)
            complexes.append(side)
    reactions, start, rated = [], 0, rng.random() < 0.7
    while start < len(complexes) - 1:
        size = min(rng.randint(2, 4), len(complexes) - start)
        kind = rng.choice(("reversible", "cycle", "one-way"))
        pairs = [(start + i, start + i + 1) for i in range(size - 1)]
        if kind == "cycle" and size > 2:
            pairs.append((start + size - 1, start))
        extra = (start + size - 1, start + rng.randint(0, size - 3)) if size > 2 else None
        if extra and extra not in pairs and rng.random() < 0.3:
            pairs.append(extra)
        for u, v in pairs:
            extra = {"k": f"{rng.randint(1, 5)}/{rng.randint(1, 3)}"} if rated else {}
            reactions.append(rxn(complexes[u], complexes[v], reversible=kind == "reversible", **extra))
        start += size
    rng.shuffle(reactions)
    return {"species": [f"X{i}" for i in range(ns)], "reactions": reactions}, mass_action


def test_structure_and_map_spec_match_the_fraction_oracle_on_random_networks():
    rng = random.Random(2912)
    seen = Counter()
    for _ in range(120):
        doc, mass_action = _random_mixed_network(rng)
        net = parse_network(doc)
        s = assert_structure_matches_oracle(net)
        kinetic = [x for _, yt in net.vertices for x in yt]
        seen["mass action"] += mass_action
        seen["negative order"] += any(x < 0 for x in kinetic)
        seen["rational order"] += any(x.denominator > 1 for x in kinetic)
        seen["several species"] += any(sum(1 for x in y if x) > 1 for y, _ in net.vertices)
        seen["several classes"] += s.num_components > 1
        seen["not weakly reversible"] += not s.weakly_reversible
        seen["weakly reversible"] += s.weakly_reversible
        seen["no laplacian"] += s.laplacian is None
        seen["map spec"] += max(s.stoich_subspace.dim, s.kinetic_subspace.dim) < net.num_species
        seen["deficiency > 0"] += s.deficiency > 0
    assert len(seen) == 10 and min(seen.values()) >= 5, seen


@pytest.mark.parametrize("family", ["chain", "cycle", "binding"])
def test_structure_matches_the_oracle_on_the_network_families(family):
    rng = random.Random(5)
    for s in (3, 6, 9):
        assert_structure_matches_oracle(parse_network(family_network(family, s)))
        orders = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))) for _ in range(s)]
        assert_structure_matches_oracle(parse_network(family_network(family, s, orders)))


INFLOW = {"species": ["A", "B"], "reactions": [
    rxn({"stoich": {}}, {"stoich": {"A": 1}}, reversible=True, k=2),
    rxn({"stoich": {"A": 1}}, {"stoich": {"B": 1}}, reversible=True, k=1)]}
ZERO_KINETIC = {"species": ["A", "B", "C"], "reactions": [
    rxn({"stoich": {"A": 1}, "kinetic": {}}, {"stoich": {"B": 1}, "kinetic": {}}, reversible=True),
    rxn({"stoich": {"B": 1}, "kinetic": {}}, {"stoich": {"C": 2}, "kinetic": {"A": 0}})]}
RATIONAL_STOICH = {"species": ["A", "B", "C"], "reactions": [
    rxn({"stoich": {"A": "1/2"}}, {"stoich": {"B": "2/3"}}, reversible=True, k="1/3"),
    rxn({"stoich": {"B": "2/3"}}, {"stoich": {"A": "1/2", "C": "5/4"}}),
    rxn({"stoich": {"A": "1/2", "C": "5/4"}}, {"stoich": {"A": "1/2"}})]}
SAME_STOICH = {"species": ["A", "B"], "reactions": [
    rxn({"stoich": {"A": 1}, "kinetic": {"A": 1}}, {"stoich": {"B": 1}}),
    rxn({"stoich": {"B": 1}}, {"stoich": {"A": 1}, "kinetic": {"A": 2}}),
    rxn({"stoich": {"A": 1}, "kinetic": {"A": 2}}, {"stoich": {"A": 1}, "kinetic": {"A": 1}})]}


@pytest.mark.parametrize("doc", [INFLOW, ZERO_KINETIC, RATIONAL_STOICH, SAME_STOICH, AB_REVERSIBLE,
                                 AB_IRREVERSIBLE, CC_NETWORK],
                         ids=["inflow", "zero-kinetic", "rational-stoich", "same-stoich", "ab",
                              "ab-irreversible", "cc"])
def test_structure_matches_the_oracle_on_edge_cases(doc):
    net = parse_network(doc)
    s = assert_structure_matches_oracle(net)
    if doc is INFLOW:
        assert any(not any(y) for y, _ in net.vertices) and s.deficiency == 0
    if doc is ZERO_KINETIC:
        assert s.kinetic_subspace.dim == 0 and s.stoich_subspace.dim == 2
        assert map_spec_of(s).exponents == RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    if doc is SAME_STOICH:
        # two vertices share the stoichiometric complex A, so one reaction
        # vector is zero
        assert net.num_vertices == 3 and s.stoich_subspace.dim == 1 and s.kinetic_subspace.dim == 2
    verdict = deficiency_zero_gmak(net)
    assert verdict.deficiency == s.deficiency


def test_matrix_with_kernel_matches_the_fraction_construction():
    rng = random.Random(4242)
    dims = Counter()
    for _ in range(150):
        n = rng.randint(1, 6)
        k = rng.randint(0, n - 1)
        while True:
            entries = (0, 0, 1, -2, 3, "1/2", "-4/3")
            vectors = tuple(vec(rng.choice(entries) for _ in range(n)) for _ in range(k))
            if not vectors or rank(RationalMatrix(vectors)) == k:
                break
        B = SubspaceBasis(n, vectors)
        W = matrix_with_kernel(B)
        assert W == matrix_with_kernel_oracle(B)
        assert W.rows == n - k and all(x == 0 for v in vectors for x in W.mat_vec(v))
        dims["dim 0" if k == 0 else "dim > 0"] += 1
    assert min(dims.values()) >= 20, dims
    with pytest.raises(InputError):
        matrix_with_kernel(SubspaceBasis(2, (vec([1, 0]), vec([0, 1]))))


def test_each_subspace_is_eliminated_once(monkeypatch):
    # crn._subspace keeps its one elimination as its basis matrix's echelon,
    # the one that matrix would compute, so map_spec_of eliminates only the
    # kernel rows of each distinct subspace
    calls = []
    core = expbij.linalg._rref_ints
    for module in (expbij.linalg, expbij.crn):
        monkeypatch.setattr(module, "_rref_ints", lambda m, nc: calls.append(nc) or core(m, nc))
    rng = random.Random(3301)
    for _ in range(300):
        ns = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(ns)] for _ in range(rng.randint(1, 5))]
        B = expbij.crn._subspace(rows, ns)
        if B.dim:
            calls.clear()
            seeded = B.matrix.echelon()
            assert not calls and seeded == RationalMatrix(B.vectors).echelon(), rows
    orders = [Fraction(1, 2), 2, 3, 1, Fraction(3, 2), 1]
    for doc in (family_network("cycle", 5), family_network("binding", 6, orders), CC_NETWORK):
        struct = structure(parse_network(doc))
        for B in (struct.stoich_subspace, struct.kinetic_subspace):
            calls.clear()
            assert B.matrix.echelon() == RationalMatrix(B.vectors).echelon()
            assert len(calls) == 1  # the fresh matrix's
        calls.clear()
        map_spec_of(struct)
        assert len(calls) == (1 if struct.kinetic_subspace == struct.stoich_subspace else 2), calls


def test_structure_and_map_spec_take_no_rref_and_no_kernel_basis(monkeypatch):
    # both work on int rows; the crn path's two RREFs are canonical()'s
    calls = Counter()
    for module in (expbij.crn, expbij.linalg, expbij.analyzer):
        for name in ("rref", "kernel_basis"):
            if hasattr(module, name):
                def counted(*args, _name=name, _fn=getattr(module, name)):
                    calls[_name] += 1
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    orders = [Fraction(1, 2), 2, 3, 1, Fraction(3, 2), 1]
    for doc in (family_network("binding", 6, orders), family_network("cycle", 5), CC_NETWORK):
        net = parse_network(doc)
        calls.clear()
        map_spec_of(structure(net))
        assert not calls, calls
    net = parse_network(family_network("binding", 6, orders))
    deficiency_zero_gmak(net)
    assert calls == {"rref": 2}, calls
