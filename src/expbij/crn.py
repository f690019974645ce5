"""Reaction-network front-end: generalized mass-action networks, their
structural data (complex matrices, incidence, Laplacian, deficiencies, weak
reversibility), and the deficiency-zero criteria, delegating the subspace
analysis to the map analyzer. The subspaces are computed on int rows: one
integer echelon per subspace, and the deficiency's cross-check on the integer
kernel of the complex matrix.

A network is a digraph whose vertices carry a stoichiometric complex y(i) >= 0
and a kinetic-order complex yt(i) (any rationals); under plain mass-action
kinetics the two coincide. The linkage classes and weak reversibility are
searches of one routine, `_reachable` (see `is_weakly_reversible`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .analyzer import (
    AnalysisReport,
    CLASS_BIJECTIVE,
    CLASS_INCONCLUSIVE,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
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
    _ONE,
    _ZERO,
    _fraction_rows,
    _kernel_ints,
    _rref_ints,
    check,
    frac,
    matrix_with_kernel,
)

NOT_APPLICABLE = "criteria-not-applicable"

_MINUS_ONE = -_ONE


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


def _parse_complex(side: dict, species_index: dict[str, int], field: str,
                   nonneg: bool) -> tuple[Vec, tuple[tuple[int, int, int], ...]] | None:
    """The complex `field` of a reaction side as a Fraction vector and as its
    key: the (species, numerator, denominator) triples of its nonzero amounts,
    in species order. Two complexes are equal iff their keys are."""
    table = side.get(field)
    if table is None:
        return None
    if not isinstance(table, dict):
        raise NetworkError(f'"{field}" must map species names to rational amounts')
    out = [_ZERO] * len(species_index)
    key = []
    for name, amount in table.items():
        if name not in species_index:
            raise NetworkError(f"species {name!r} is not declared")
        value = frac(amount)
        if nonneg and value.numerator < 0:
            raise NetworkError(f"stoichiometric coefficient of {name!r} is negative")
        i = species_index[name]
        out[i] = value
        if value:
            key.append((i, value.numerator, value.denominator))
    key.sort()
    return tuple(out), tuple(key)


def parse_network(doc: dict) -> GeneralizedNetwork:
    """Parse the network JSON document; omitted kinetic complexes copy the
    stoichiometric ones (mass-action shorthand)."""
    if not isinstance(doc, dict):
        raise NetworkError("network document must be a JSON object")
    species = doc.get("species")
    if not species or not isinstance(species, list) or not all(isinstance(s, str) for s in species):
        raise NetworkError('a nonempty "species" list of names is required')
    if len(set(species)) != len(species):
        raise NetworkError("species names must be unique")
    index = {name: i for i, name in enumerate(species)}
    reactions = doc.get("reactions")
    if not reactions or not isinstance(reactions, list):
        raise NetworkError('a nonempty "reactions" list is required')

    vertices: list[tuple[Vec, Vec]] = []
    vertex_ids: dict[tuple, int] = {}  # keyed by the complexes' int triples
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    rates: list[Fraction | None] = []

    def vertex(side) -> int:
        if not isinstance(side, dict) or side.get("stoich") is None:
            raise NetworkError('every reaction side needs a "stoich" complex')
        y, y_key = _parse_complex(side, index, "stoich", nonneg=True)
        yt, yt_key = _parse_complex(side, index, "kinetic", nonneg=False) or (y, y_key)
        key = (y_key, yt_key)
        if key not in vertex_ids:
            vertex_ids[key] = len(vertices)
            vertices.append((y, yt))
        return vertex_ids[key]

    def add_edge(u, v, k):
        if u == v:
            raise NetworkError("self-loop: a reaction must change the complex")
        if (u, v) in seen_edges:
            raise NetworkError("duplicate reaction between the same complexes")
        seen_edges.add((u, v))
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
        reversible = rxn.get("reversible", False)
        if not isinstance(reversible, bool):
            raise NetworkError(f'"reversible" must be true or false, got {reversible!r}')
        add_edge(u, v, k)
        if reversible:
            add_edge(v, u, k)

    return GeneralizedNetwork(tuple(species), tuple(vertices), tuple(edges), tuple(rates))


def _reachable(adj: list[list[int]], start: int) -> set[int]:
    """The vertices reachable from start along adj."""
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _weak_components(m: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(m)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    comps, seen = [], set()
    for start in range(m):
        if start not in seen:
            comps.append(sorted(_reachable(adj, start)))
            seen.update(comps[-1])
    return comps


def is_weakly_reversible(network: GeneralizedNetwork, components=None) -> bool:
    """Every weakly connected component of the reaction digraph is strongly
    connected: one vertex of it reaches all of it forward and is reached from
    all of it. components, when given, are the network's weak components."""
    m = network.num_vertices
    fwd, rev = [[] for _ in range(m)], [[] for _ in range(m)]
    for u, v in network.edges:
        fwd[u].append(v)
        rev[v].append(u)
    if components is None:
        components = _weak_components(m, network.edges)
    return all(len(_reachable(fwd, c[0])) == len(c) == len(_reachable(rev, c[0])) for c in components)


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


def _one_way(edges) -> list[tuple[int, int]]:
    """The edges without the second of each reversible pair: v -> u is left
    out when u -> v comes first. Its reaction vector and its incidence
    column are the negatives of the first's, so every span stays the same."""
    first = set()
    out = []
    for u, v in edges:
        if (v, u) not in first:
            first.add((u, v))
            out.append((u, v))
    return out


def _scaled_complexes(network: GeneralizedNetwork, side: int) -> list[tuple[list[int], int]]:
    """Each vertex's complex on one side (0 stoichiometric, 1 kinetic-order)
    as int amounts over their least common denominator: (amounts, denominator)."""
    out = []
    for vertex in network.vertices:
        q = lcm(*(x.denominator for x in vertex[side]))
        out.append(([x.numerator * (q // x.denominator) for x in vertex[side]], q))
    return out


def _reaction_rows(edges, scaled: list[tuple[list[int], int]]) -> list[list[int]]:
    """The reaction vectors y(v) - y(u), one int row per edge u -> v, each
    scaled by the lcm of the two complexes' denominators."""
    rows = []
    for u, v in edges:
        (a, p), (b, q) = scaled[v], scaled[u]
        if p == q:
            rows.append([x - y for x, y in zip(a, b)])
        else:
            m = lcm(p, q)
            rows.append([x * (m // p) - y * (m // q) for x, y in zip(a, b)])
    return rows


def _subspace(rows: list[list[int]], ns: int) -> SubspaceBasis:
    """The span of int rows as the canonical basis of nonzero RREF rows. Its
    matrix keeps the echelon of this one elimination, each row divided by its
    gcd and signed to a positive pivot: the echelon the matrix would compute,
    since its rows are these rows over their pivots."""
    E, pivots = _rref_ints(rows, ns)
    primitive = []
    for row, c in zip(E, pivots):
        g = gcd(*row) if row[c] > 0 else -gcd(*row)
        primitive.append(tuple(x // g for x in row))
    return SubspaceBasis._trusted(ns, _fraction_rows(E, pivots), (tuple(primitive), tuple(pivots)))


def _deficiency_by_intersection(Y: RationalMatrix, edges) -> int:
    """dim(ker Y ∩ im I), I the incidence matrix, on int rows: dim ker Y +
    rank I - dim(ker Y + im I), each rank the pivot count of one echelon
    form; ker Y + im I is spanned by the kernel rows and the echelon rows of
    I. It equals m - ℓ - dim S, the deficiency."""
    m = Y.cols
    kernel = _kernel_ints(*Y.echelon(), m)
    image = []
    for u, v in edges:
        row = [0] * m
        row[u], row[v] = -1, 1
        image.append(row)
    image, image_pivots = _rref_ints(image, m)
    image = image[:len(image_pivots)]
    return len(kernel) + len(image) - len(_rref_ints(image + kernel, m)[1])


def _structure_of(network: GeneralizedNetwork) -> NetworkStructure:
    ns, m = network.num_species, network.num_vertices
    mak = network.is_mass_action
    Y = RationalMatrix._of(tuple(zip(*(y for y, _ in network.vertices))))
    Yt = Y if mak else RationalMatrix._of(tuple(zip(*(yt for _, yt in network.vertices))))
    ne = len(network.edges)
    inc = [[_ZERO] * ne for _ in range(m)]
    for e, (u, v) in enumerate(network.edges):
        inc[u][e], inc[v][e] = _MINUS_ONE, _ONE
    incidence = RationalMatrix._of(tuple(map(tuple, inc)))

    laplacian = None
    if all(k is not None for k in network.rate_constants):
        lap = [[_ZERO] * m for _ in range(m)]
        for (u, v), k in zip(network.edges, network.rate_constants):
            lap[v][u] += k
            lap[u][u] -= k
        laplacian = RationalMatrix._of(tuple(map(tuple, lap)))

    comps = _weak_components(m, network.edges)

    edges = _one_way(network.edges)
    S = _subspace(_reaction_rows(edges, _scaled_complexes(network, 0)), ns)
    St = S if mak else _subspace(_reaction_rows(edges, _scaled_complexes(network, 1)), ns)
    ell = len(comps)
    deficiency = m - ell - S.dim
    kinetic_deficiency = m - ell - St.dim
    check(deficiency >= 0 and kinetic_deficiency >= 0, "negative deficiency")
    # the two standard formulas must agree
    check(deficiency == _deficiency_by_intersection(Y, edges),
          "the two deficiency formulas disagree")

    return NetworkStructure(
        stoich_complexes=Y,
        kinetic_complexes=Yt,
        incidence=incidence,
        laplacian=laplacian,
        components=tuple(tuple(c) for c in comps),
        weakly_reversible=is_weakly_reversible(network, comps),
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
    W = matrix_with_kernel(struct.stoich_subspace)
    if struct.kinetic_subspace == struct.stoich_subspace:
        return ExponentialMapSpec(W, W)
    return ExponentialMapSpec(W, matrix_with_kernel(struct.kinetic_subspace))


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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["analysis"] = self.analysis.to_json_dict() if self.analysis else None
        return out


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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["closure"] = self.closure.to_json_dict() if self.closure else None
        return out


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
