"""Reaction-network front-end: generalized mass-action networks, their
structural data (complex matrices, incidence, Laplacian, deficiencies, weak
reversibility), and the deficiency-zero criteria, delegating the subspace
analysis to the map analyzer.

A network is a digraph whose vertices carry a stoichiometric complex y(i) >= 0
and a kinetic-order complex yt(i) (any rationals); under plain mass-action
kinetics the two coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .analyzer import (
    AnalysisReport,
    CLASS_BIJECTIVE,
    CLASS_INCONCLUSIVE,
    Caps,
    ConditionResult,
    ExponentialMapSpec,
    analyze,
)
from .linalg import (
    InputError,
    RationalMatrix,
    SubspaceBasis,
    Vec,
    check,
    frac,
    intersection_dim,
    kernel_basis,
    matrix_with_kernel,
    row_space_basis,
    vec_sub,
)

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "criteria-not-applicable"
INCONCLUSIVE = "inconclusive"


class NetworkError(InputError):
    """Malformed network document."""


@dataclass(frozen=True)
class GeneralizedNetwork:
    species: tuple[str, ...]
    vertices: tuple[tuple[Vec, Vec], ...]  # (stoichiometric, kinetic-order) complexes
    edges: tuple[tuple[int, int], ...]
    rate_constants: tuple[Fraction | None, ...]

    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_mass_action(self) -> bool:
        return all(y == yt for y, yt in self.vertices)

    # Derived results live on this object, not in a cache keyed by its value,
    # so each parsed network computes its own structure and analyses.
    @cached_property
    def _structure(self) -> NetworkStructure:
        return _structure_of(self)

    @cached_property
    def _verdicts_by_caps(self) -> dict[Caps, tuple[DeficiencyZeroVerdict, RobustDeficiencyZeroVerdict]]:
        return {}


def _parse_complex(side: dict, species_index: dict[str, int], field: str, nonneg: bool) -> Vec:
    table = side.get(field)
    if table is None:
        return None
    if not isinstance(table, dict):
        raise NetworkError(f'"{field}" must map species names to rational amounts')
    out = [Fraction(0)] * len(species_index)
    for name, amount in table.items():
        if name not in species_index:
            raise NetworkError(f"species {name!r} is not declared")
        value = frac(amount)
        if nonneg and value < 0:
            raise NetworkError(f"stoichiometric coefficient of {name!r} is negative")
        out[species_index[name]] = value
    return tuple(out)


def parse_network(doc: dict) -> GeneralizedNetwork:
    """Parse the network JSON document; omitted kinetic complexes copy the
    stoichiometric ones (mass-action shorthand)."""
    if not isinstance(doc, dict):
        raise NetworkError("network document must be a JSON object")
    species = doc.get("species")
    if not species or not isinstance(species, list):
        raise NetworkError('a nonempty "species" list is required')
    if len(set(species)) != len(species):
        raise NetworkError("species names must be unique")
    index = {name: i for i, name in enumerate(species)}
    reactions = doc.get("reactions")
    if not reactions or not isinstance(reactions, list):
        raise NetworkError('a nonempty "reactions" list is required')

    vertices: list[tuple[Vec, Vec]] = []
    vertex_ids: dict[tuple[Vec, Vec], int] = {}
    edges: list[tuple[int, int]] = []
    rates: list[Fraction | None] = []

    def vertex(side) -> int:
        if "stoich" not in side:
            raise NetworkError('every reaction side needs a "stoich" complex')
        y = _parse_complex(side, index, "stoich", nonneg=True)
        yt = _parse_complex(side, index, "kinetic", nonneg=False)
        key = (y, yt if yt is not None else y)
        if key not in vertex_ids:
            vertex_ids[key] = len(vertices)
            vertices.append(key)
        return vertex_ids[key]

    def add_edge(u, v, k):
        if u == v:
            raise NetworkError("self-loop: a reaction must change the complex")
        if (u, v) in edges:
            raise NetworkError("duplicate reaction between the same complexes")
        edges.append((u, v))
        rates.append(k)

    for rxn in reactions:
        if not isinstance(rxn, dict) or "from" not in rxn or "to" not in rxn:
            raise NetworkError('every reaction needs "from" and "to" sides')
        u = vertex(rxn["from"])
        v = vertex(rxn["to"])
        k = frac(rxn["k"]) if "k" in rxn and rxn["k"] is not None else None
        if k is not None and k <= 0:
            raise NetworkError("rate constants must be positive")
        add_edge(u, v, k)
        if rxn.get("reversible"):
            add_edge(v, u, k)

    return GeneralizedNetwork(tuple(species), tuple(vertices), tuple(edges), tuple(rates))


def _weak_components(m: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(m)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * m
    comps = []
    for start in range(m):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _strongly_connected(vertices: list[int], edges) -> bool:
    vset = set(vertices)
    fwd = {u: [] for u in vertices}
    rev = {u: [] for u in vertices}
    for u, v in edges:
        if u in vset and v in vset:
            fwd[u].append(v)
            rev[v].append(u)

    def reaches_all(adj, start):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(vertices)

    start = vertices[0]
    return reaches_all(fwd, start) and reaches_all(rev, start)


def is_weakly_reversible(network: GeneralizedNetwork) -> bool:
    """Every weakly connected component of the reaction digraph is strongly connected."""
    comps = _weak_components(network.num_vertices, network.edges)
    return all(_strongly_connected(comp, network.edges) for comp in comps)


@dataclass(frozen=True)
class NetworkStructure:
    stoich_complexes: RationalMatrix  # species x vertices
    kinetic_complexes: RationalMatrix
    incidence: RationalMatrix  # vertices x edges
    laplacian: RationalMatrix | None  # vertices x vertices, when all rates given
    components: tuple[tuple[int, ...], ...]
    weakly_reversible: bool
    stoich_subspace: SubspaceBasis
    kinetic_subspace: SubspaceBasis
    deficiency: int
    kinetic_deficiency: int

    @property
    def num_components(self) -> int:
        return len(self.components)


def structure(network: GeneralizedNetwork) -> NetworkStructure:
    """Structural data of the network, computed once per network object."""
    return network._structure


def _structure_of(network: GeneralizedNetwork) -> NetworkStructure:
    ns, m = network.num_species, network.num_vertices
    Y = RationalMatrix([[network.vertices[j][0][i] for j in range(m)] for i in range(ns)])
    Yt = RationalMatrix([[network.vertices[j][1][i] for j in range(m)] for i in range(ns)])
    ne = len(network.edges)
    inc = [[Fraction(0)] * ne for _ in range(m)]
    for e, (u, v) in enumerate(network.edges):
        inc[u][e] -= 1
        inc[v][e] += 1
    incidence = RationalMatrix(inc)

    laplacian = None
    if all(k is not None for k in network.rate_constants):
        lap = [[Fraction(0)] * m for _ in range(m)]
        for (u, v), k in zip(network.edges, network.rate_constants):
            lap[v][u] += k
            lap[u][u] -= k
        laplacian = RationalMatrix(lap)

    comps = _weak_components(m, network.edges)

    # the reaction vectors y(v) - y(u), one per edge: the columns of Y times
    # the incidence matrix
    def reactions(side: int) -> RationalMatrix:
        return RationalMatrix([vec_sub(network.vertices[v][side], network.vertices[u][side])
                               for u, v in network.edges])

    S = row_space_basis(reactions(0))
    St = row_space_basis(reactions(1))
    ell = len(comps)
    deficiency = m - ell - S.dim
    kinetic_deficiency = m - ell - St.dim
    check(deficiency >= 0 and kinetic_deficiency >= 0, "negative deficiency")
    # the two standard formulas must agree
    check(deficiency == intersection_dim(kernel_basis(Y), row_space_basis(incidence.transpose())),
          "the two deficiency formulas disagree")

    return NetworkStructure(
        stoich_complexes=Y,
        kinetic_complexes=Yt,
        incidence=incidence,
        laplacian=laplacian,
        components=tuple(tuple(c) for c in comps),
        weakly_reversible=is_weakly_reversible(network),
        stoich_subspace=S,
        kinetic_subspace=St,
        deficiency=deficiency,
        kinetic_deficiency=kinetic_deficiency,
    )


def map_spec_of(struct: NetworkStructure) -> ExponentialMapSpec:
    """Coefficient/exponent matrices whose kernels are the stoichiometric and
    kinetic-order subspaces."""
    ns = struct.stoich_complexes.rows
    if struct.stoich_subspace.dim >= ns or struct.kinetic_subspace.dim >= ns:
        raise InputError("a subspace fills the whole species space; no matrix to build")
    return ExponentialMapSpec(
        matrix_with_kernel(struct.stoich_subspace),
        matrix_with_kernel(struct.kinetic_subspace),
    )


@dataclass(frozen=True)
class DeficiencyZeroVerdict:
    """Structured outcome of the unique-equilibrium criterion.

    verdict "holds" means: exactly one complex-balanced equilibrium in every
    stoichiometric class, for all rate constants. existence_for_all_rates is
    the weaker existence-only criterion (kinetic deficiency zero and weak
    reversibility)."""

    verdict: str
    deficiency: int
    kinetic_deficiency: int
    weakly_reversible: bool
    existence_for_all_rates: bool
    mass_action: bool
    reason: str | None = None
    analysis: AnalysisReport | None = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "deficiency": self.deficiency,
            "kinetic_deficiency": self.kinetic_deficiency,
            "weakly_reversible": self.weakly_reversible,
            "existence_for_all_rates": self.existence_for_all_rates,
            "mass_action": self.mass_action,
            "reason": self.reason,
            "analysis": self.analysis.to_json_dict() if self.analysis else None,
        }


@dataclass(frozen=True)
class RobustDeficiencyZeroVerdict:
    """Unique equilibrium for all rates and all small kinetic-order perturbations."""

    verdict: str
    deficiency: int
    kinetic_deficiency: int
    weakly_reversible: bool
    mass_action: bool
    mass_action_reduction: bool  # plain mass action: criterion reduces to deficiency zero + weak reversibility
    reason: str | None = None
    closure: ConditionResult | None = None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "deficiency": self.deficiency,
            "kinetic_deficiency": self.kinetic_deficiency,
            "weakly_reversible": self.weakly_reversible,
            "mass_action": self.mass_action,
            "mass_action_reduction": self.mass_action_reduction,
            "reason": self.reason,
            "closure": self.closure.to_json_dict() if self.closure else None,
        }


def _build_verdicts(network: GeneralizedNetwork,
                    caps: Caps) -> tuple[DeficiencyZeroVerdict, RobustDeficiencyZeroVerdict]:
    """Both deficiency-zero verdicts from one structure, one precondition pass
    and one map analysis. The robust verdict is the closure condition cc of
    that analysis, which runs on the same canonical spec."""
    struct = network._structure
    mak = network.is_mass_action
    common = dict(deficiency=struct.deficiency, kinetic_deficiency=struct.kinetic_deficiency,
                  weakly_reversible=struct.weakly_reversible, mass_action=mak)
    unique = dict(common, existence_for_all_rates=struct.kinetic_deficiency == 0 and struct.weakly_reversible)
    robust = dict(common, mass_action_reduction=mak)

    dim, kinetic_dim = struct.stoich_subspace.dim, struct.kinetic_subspace.dim
    failed = None
    if dim != kinetic_dim:
        failed = NOT_APPLICABLE, "stoichiometric and kinetic-order subspaces differ in dimension"
    elif dim >= network.num_species:
        failed = NOT_APPLICABLE, "the stoichiometric subspace is the whole species space"
    elif not struct.weakly_reversible:
        failed = FAILS, "not weakly reversible"
    elif struct.deficiency != 0 or struct.kinetic_deficiency != 0:
        failed = FAILS, f"nonzero deficiencies: {struct.deficiency} and {struct.kinetic_deficiency}"
    if failed is not None:
        verdict, reason = failed
        suffix = f" ({dim} vs {kinetic_dim})" if dim != kinetic_dim else ""
        return (DeficiencyZeroVerdict(verdict=verdict, reason=reason + suffix, **unique),
                RobustDeficiencyZeroVerdict(verdict=verdict, reason=reason, **robust))

    report = analyze(map_spec_of(struct), caps)
    if report.classification == CLASS_BIJECTIVE:
        verdict, reason = HOLDS, None
    elif report.classification == CLASS_INCONCLUSIVE:
        verdict, reason = INCONCLUSIVE, "map analysis hit an enumeration cap"
    else:
        verdict, reason = FAILS, f"map analysis: {report.classification}"
    cc = report.conditions["cc"]
    # equal subspaces make the closure condition automatic
    check(not (mak and cc.fails), "mass-action network fails the closure condition")
    return (DeficiencyZeroVerdict(verdict=verdict, reason=reason, analysis=report, **unique),
            RobustDeficiencyZeroVerdict(verdict=cc.verdict, closure=cc, **robust))


def _verdicts(network: GeneralizedNetwork,
              caps: Caps) -> tuple[DeficiencyZeroVerdict, RobustDeficiencyZeroVerdict]:
    built = network._verdicts_by_caps
    if caps not in built:
        built[caps] = _build_verdicts(network, caps)
    return built[caps]


def deficiency_zero_gmak(network: GeneralizedNetwork, caps: Caps = Caps()) -> DeficiencyZeroVerdict:
    return _verdicts(network, caps)[0]


def robust_deficiency_zero_gmak(network: GeneralizedNetwork,
                                caps: Caps = Caps()) -> RobustDeficiencyZeroVerdict:
    return _verdicts(network, caps)[1]
