import random
from collections import Counter
from fractions import Fraction

import pytest

import expbij.crn
from expbij.analyzer import Caps, ConditionResult
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
from expbij.linalg import SubspaceBasis, intersection_dim, kernel_basis, row_space_basis, vec
from sign_oracles import same_subspace, subspace_contains


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
