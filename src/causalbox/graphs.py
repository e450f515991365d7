"""Causal DAGs with latent root variables, mDAGs, districts and d-separation.

The central object is :class:`CausalDag`: a DAG over named vertices, each
either observed (with a finite cardinality) or latent.  Latent vertices are
restricted to root positions; all semantics of the library live at the level
of distributions over the observed vertices.

The module also provides the marginal DAG (:class:`MDag`) abstraction, where
latent common causes are collapsed into bidirected faces of a simplicial
complex, the district partition derived from those faces, and the Bell-type
hypergraph lift (:class:`HyperDag`) in which every mediating observed vertex
has its outgoing edges rerouted through fresh root copies.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from itertools import combinations
from typing import Iterable, Mapping

from . import _EXPORTS
from .tables import Record, _is_cardinality, _name_sets, _set

__all__ = _EXPORTS["graphs"]

OBSERVED = "observed"
LATENT = "latent"

# Graphs whose CI and constraint records stay cached in one process.
_GRAPH_CACHE_SIZE = 64

_EMPTY: frozenset[str] = frozenset()


class CycleError(ValueError):
    """The graph contains a directed cycle."""


class UnknownVertexError(KeyError):
    """A referenced vertex does not exist."""


class FixedNotParentlessError(ValueError):
    """A requested fixed vertex has parents."""


class NotADistrictError(ValueError):
    """The given vertex set is not a district of the mDAG."""


class MultiLatentError(ValueError):
    """Operation requires at most one latent vertex."""


class VertexSpec(Record):
    name: str
    kind: str
    cardinality: int | None

    def __init__(self, name, kind, cardinality=None):
        if kind not in (OBSERVED, LATENT):
            raise ValueError(f"kind must be {OBSERVED!r} or {LATENT!r}")
        super().__init__(name, kind, cardinality)


class CausalDag(Record):
    """Directed graph over observed and latent vertices.

    The constructor does not enforce the model invariants; use
    :func:`validate` to obtain a report.  Operations other than ``validate``
    assume a valid graph.
    """

    vertices: tuple[VertexSpec, ...]
    edges: frozenset[tuple[str, str]]

    def __init__(
        self,
        vertices: Iterable[VertexSpec | tuple],
        edges: Iterable[tuple[str, str]] = (),
    ):
        specs = []
        for v in vertices:
            if isinstance(v, VertexSpec):
                specs.append(v)
            else:
                specs.append(VertexSpec(*v))
        edges = frozenset((str(a), str(b)) for a, b in edges)
        _set(self, "vertices", tuple(specs))
        _set(self, "edges", edges)
        # Lookup maps, built once; they are not fields, so equality, hash
        # and repr stay those of ``vertices`` and ``edges``.
        by_name = {}
        for v in specs:
            by_name.setdefault(v.name, v)  # the first spec of a name wins
        parents, children = {}, {}
        for a, b in edges:
            parents.setdefault(b, set()).add(a)
            children.setdefault(a, set()).add(b)
        _set(self, "_spec", by_name)
        _set(self, "_parents", {v: frozenset(ps) for v, ps in parents.items()})
        _set(self, "_children", {v: frozenset(cs) for v, cs in children.items()})

    # -- lookups -----------------------------------------------------------

    def names(self) -> list[str]:
        return [v.name for v in self.vertices]

    def spec(self, name: str) -> VertexSpec:
        try:
            return self._spec[name]
        except KeyError:
            raise UnknownVertexError(name) from None

    def has_vertex(self, name: str) -> bool:
        return name in self._spec

    def observed(self) -> list[str]:
        return [v.name for v in self.vertices if v.kind == OBSERVED]

    def latent(self) -> list[str]:
        return [v.name for v in self.vertices if v.kind == LATENT]

    def cardinality(self, name: str) -> int:
        spec = self.spec(name)
        if spec.cardinality is None:
            raise ValueError(f"latent vertex {name} carries no cardinality")
        return spec.cardinality

    def parents(self, name: str) -> frozenset[str]:
        return self._parents.get(name, _EMPTY)

    def children(self, name: str) -> frozenset[str]:
        return self._children.get(name, _EMPTY)


def validate(dag: CausalDag) -> list[str]:
    """Report every violated graph invariant; an empty list means valid."""
    report = []
    names = dag.names()
    if len(set(names)) != len(names):
        report.append("duplicate vertex names")
    report += _unknown_edges(dag)
    for v in dag.vertices:
        if v.kind == OBSERVED and not _is_cardinality(v.cardinality):
            report.append(f"observed vertex {v.name} needs a positive cardinality")
        if v.kind == LATENT and v.cardinality is not None:
            report.append(f"latent vertex {v.name} must not carry a cardinality")
    for v in dag.vertices:
        if v.kind == LATENT:
            if dag.parents(v.name):
                report.append(f"latent vertex {v.name} has incoming edge")
            if not dag.children(v.name):
                report.append(f"latent vertex {v.name} has no outgoing edge")
    try:
        topological_order(dag)
    except CycleError:
        report.append("cycle detected")
    except UnknownVertexError:
        pass
    return report


def topological_order(dag: CausalDag) -> list[str]:
    """Topological order of all vertices, lexicographic tie-break.

    Deterministic: among vertices whose parents are all placed, the
    lexicographically smallest name comes next.
    """
    unknown = _unknown_edges(dag)
    if unknown:
        raise UnknownVertexError(unknown[0])
    indegree = {n: len(dag.parents(n)) for n in dag.names()}
    ready = {n for n, deg in indegree.items() if deg == 0}
    order = []
    while ready:
        v = min(ready)
        ready.remove(v)
        order.append(v)
        del indegree[v]
        for c in dag.children(v):
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.add(c)
    if indegree:
        raise CycleError(f"cycle detected among {sorted(indegree)}")
    return order


def _unknown_edges(dag: CausalDag) -> list[str]:
    """One message per edge with an endpoint that is no vertex, in sorted edge order."""
    return [f"edge ({a}, {b}) references unknown vertex" for a, b in sorted(dag.edges)
            if not (dag.has_vertex(a) and dag.has_vertex(b))]


class MDag(Record):
    """Marginal DAG: directed edges over random and fixed vertices plus a
    simplicial complex of bidirected faces, stored by its maximal faces.

    Every random vertex belongs to at least one face (a singleton face is
    implied for vertices in no larger face); fixed vertices have no incoming
    edges.
    """

    random_vertices: tuple[str, ...]
    fixed_vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    faces: frozenset[frozenset[str]]

    def __init__(self, random_vertices, fixed_vertices, edges, faces):
        rnd = tuple(sorted(random_vertices))
        fixed = tuple(sorted(fixed_vertices))
        edges = frozenset(edges)
        rset = set(rnd)
        # normalize: keep the maximal nonempty faces over random vertices,
        # add a singleton for each vertex in none of them
        cleaned = {frozenset(f) & rset for f in faces} - {_EMPTY}
        maximal = {f for f in cleaned if not any(f < g for g in cleaned)}
        maximal |= {frozenset([v]) for v in rset.difference(*maximal)}
        _set(self, "random_vertices", rnd)
        _set(self, "fixed_vertices", fixed)
        _set(self, "edges", edges)
        _set(self, "faces", frozenset(maximal))
        fset = set(fixed)
        if rset & fset:
            raise ValueError("random and fixed vertices overlap")
        for a, b in edges:
            if b in fset:
                raise ValueError(f"fixed vertex {b} has an incoming edge")
            if a not in rset | fset or b not in rset:
                raise ValueError(f"edge ({a}, {b}) leaves the vertex pool")

    def children(self, name: str) -> set[str]:
        return {b for a, b in self.edges if a == name}

    def parents_of(self, group: Iterable[str]) -> set[str]:
        group = set(group)
        return {a for a, b in self.edges if b in group} - group


def to_mdag(dag: CausalDag, fixed: Iterable[str] = ()) -> MDag:
    """Marginal DAG of ``dag``: latent vertices abstracted into faces.

    Each latent vertex's children form a face, which :class:`MDag`
    normalizes.  ``fixed`` must be parentless observed vertices.
    """
    fixed = set(fixed)
    observed = set(dag.observed())
    for w in fixed:
        if w not in observed:
            raise UnknownVertexError(f"fixed vertex {w} is not observed")
        if dag.parents(w):
            raise FixedNotParentlessError(f"fixed vertex {w} has parents")
    random_vertices = observed - fixed
    edges = {
        (a, b)
        for a, b in dag.edges
        if a in observed and b in random_vertices
    }
    return MDag(random_vertices, fixed, edges, [dag.children(lam) for lam in dag.latent()])


def districts(m: MDag) -> list[frozenset[str]]:
    """Partition of the random vertices into districts.

    Two vertices share a district iff they are connected through a chain of
    bidirected faces.  Districts are returned sorted by smallest member.
    """
    found, faces = [], set(m.faces)
    for v in m.random_vertices:  # sorted, so each district starts at its smallest member
        if any(v in d for d in found):
            continue
        district, meeting = {v}, True
        while meeting:
            meeting = {f for f in faces if not district.isdisjoint(f)}
            faces -= meeting
            district.update(*meeting)
        found.append(frozenset(district))
    return found


def subgraph(m: MDag, district: frozenset[str]) -> MDag:
    """Subgraph associated with a district: the district becomes the random
    set and its parents become the fixed set; edges and faces are inherited."""
    if district not in districts(m):
        raise NotADistrictError(f"{sorted(district)} is not a district")
    return _restrict(m, district)


def marginal_mdag(m: MDag, drop: str) -> MDag:
    """mDAG after marginalizing a childless random vertex.

    Former fixed vertices that no longer parent any remaining random vertex
    drop out of the graph; that shrinkage is what surfaces Verma constraints.
    """
    if drop not in m.random_vertices:
        raise UnknownVertexError(drop)
    if m.children(drop):
        raise ValueError(f"{drop} is not childless")
    return _restrict(m, set(m.random_vertices) - {drop})


def _restrict(m: MDag, keep: set[str]) -> MDag:
    """``m`` over random vertices ``keep``, their outside parents fixed."""
    return MDag(keep, m.parents_of(keep), {(a, b) for a, b in m.edges if b in keep}, m.faces)


# -- d-separation ----------------------------------------------------------


def d_separated(
    dag: CausalDag, a: Iterable[str], b: Iterable[str], z: Iterable[str]
) -> bool:
    """Whether vertex sets ``a`` and ``b`` are d-separated given ``z``.

    Latent vertices participate as ordinary path vertices.  A path is active
    given ``z`` when every collider on it is in ``z`` or has a descendant in
    ``z``, and no non-collider on it is in ``z``; the sets are d-separated
    when no active path connects them.

    Implemented as one :func:`_d_connected` search from ``a`` that stops at
    the first vertex of ``b`` it reaches, linear in the size of the graph.
    """
    a, b, z = _name_sets(a, b, z)
    for group in (a, b, z):
        unknown = group - dag._spec.keys()
        if unknown:
            raise UnknownVertexError(f"unknown vertices {sorted(unknown)}")
    if (a & b) or (a & z) or (b & z):
        raise ValueError("a, b, z must be pairwise disjoint")
    if not a or not b:
        return True
    return b.isdisjoint(_d_connected(dag, a, z, stop=b))


def _d_connected(dag: CausalDag, sources: set[str], z: set[str], stop=_EMPTY) -> set[str]:
    """Every vertex that an active path given ``z`` reaches from ``sources``.

    Shachter's Bayes-ball search (1998) over (vertex, direction) states.  A
    ball at a vertex outside ``z`` goes on to its children, and to its
    parents too if it came from a child; a ball at a vertex of ``z`` only
    bounces back up to its parents, and only if it came from a parent.  So
    a collider with a descendant in ``z`` is passed by going down to that
    descendant and bouncing back up, and no ancestor set of ``z`` is needed.
    The result holds ``sources`` and may hold vertices of ``z``.  The search
    stops as soon as it reaches a vertex of ``stop``, which the result then
    holds.
    """
    parents, children = dag._parents, dag._children
    # states: (vertex, True) approaching from a child, (vertex, False)
    # approaching from a parent; one visited set per direction
    up, down = set(sources), set()
    frontier = [(v, True) for v in sources]
    while frontier:
        v, from_child = frontier.pop()
        if v in stop:
            break
        if v not in z:
            for c in children.get(v, _EMPTY):
                if c not in down:
                    down.add(c)
                    frontier.append((c, False))
        if (v not in z) if from_child else (v in z):
            for p in parents.get(v, _EMPTY):
                if p not in up:
                    up.add(p)
                    frontier.append((p, True))
    return up | down


@total_ordering
class CiConstraint(Record):
    """Conditional independence statement ``a`` independent of ``b`` given
    ``given``, with singleton a < b lexicographically.  Statements are
    ordered by :meth:`sort_key`."""

    a: str
    b: str
    given: frozenset[str] = frozenset()

    def __init__(self, a, b, given=frozenset()):
        super().__init__(a, b, frozenset(given))

    def sort_key(self):
        return (self.a, self.b, tuple(sorted(self.given)))

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __str__(self):
        if self.given:
            return f"CI: {self.a} _||_ {self.b} | {', '.join(sorted(self.given))}"
        return f"CI: {self.a} _||_ {self.b}"


def ci_constraints(dag: CausalDag) -> list[CiConstraint]:
    """All singleton-pair conditional independences among observed vertices.

    Enumerates statements (A indep B | Z) with A, B single observed vertices
    and Z ranging over subsets of the remaining observed vertices.  For each
    Z, one d-connection search from each observed vertex outside Z answers
    every later one at once: A and B are independent given Z when the
    search from A does not reach B.  Set-valued statements are recovered by
    conjunction.
    """
    return list(_ci_constraints_cached(dag))


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _ci_constraints_cached(dag: CausalDag) -> tuple[CiConstraint, ...]:
    observed = sorted(dag.observed())
    if len(set(observed)) < len(observed):
        # a repeated name pairs with itself, as in d_separated(dag, {a}, {a}, ...)
        raise ValueError("a, b, z must be pairwise disjoint")
    found = []
    for r in range(len(observed) - 1):
        for given in combinations(observed, r):
            z = set(given)
            free = [v for v in observed if v not in z]
            for i, a in enumerate(free[:-1]):
                reached = _d_connected(dag, {a}, z)
                found += [CiConstraint(a, b, z) for b in free[i + 1:] if b not in reached]
    return tuple(sorted(found, key=CiConstraint.sort_key))


# -- hypergraph lift -------------------------------------------------------


class HyperDag(Record):
    """Bell-type lift of a causal DAG.

    ``copy_map`` sends each added root vertex to its ``(source, child)``
    pair: the copy inherits the source's cardinality and feeds exactly the
    one former child.
    """

    base: CausalDag
    copy_map: Mapping[str, tuple[str, str]]

    @property
    def copies(self) -> dict[str, str]:
        """copy name -> source name, the projection's diagonal pairing."""
        return {u: src for u, (src, _child) in self.copy_map.items()}


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def build_hypergraph(dag: CausalDag) -> HyperDag:
    """Reroute every mediating observed vertex through fresh root copies.

    An observed vertex with both incoming edges (from anywhere) and outgoing
    edges to observed vertices has those outgoing edges removed; each former
    child instead receives an edge from a fresh root copy of the vertex.
    The result is Bell-type: no observed vertex keeps both incoming edges
    and observed children.
    """
    observed = set(dag.observed())
    vertices = list(dag.vertices)
    edges = set(dag.edges)
    taken = set(dag.names())
    copy_map: dict[str, tuple[str, str]] = {}
    for v in _mediators(dag):
        for child in sorted(dag.children(v) & observed):
            edges.discard((v, child))
            u = _fresh_name(f"{v}_{child}", taken)
            taken.add(u)
            vertices.append(VertexSpec(u, OBSERVED, dag.cardinality(v)))
            edges.add((u, child))
            copy_map[u] = (v, child)
    return HyperDag(CausalDag(vertices, edges), copy_map)


def is_bell_type(dag: CausalDag) -> bool:
    """No observed vertex has both incoming edges and observed children."""
    return not _mediators(dag)


def _mediators(dag: CausalDag) -> list[str]:
    """Sorted observed vertices with parents and observed children: the ones the lift reroutes."""
    observed = set(dag.observed())
    return [v for v in sorted(observed) if dag.parents(v) and dag.children(v) & observed]


def bell_inputs(dag: CausalDag) -> list[str]:
    """Observed root vertices with at least one child: the setting variables."""
    return sorted(
        v for v in dag.observed() if not dag.parents(v) and dag.children(v)
    )


def bell_outputs(dag: CausalDag) -> list[str]:
    """Observed vertices that are not setting variables: the outcome variables.

    Isolated observed roots count as outputs with an empty input set.
    """
    ins = set(bell_inputs(dag))
    return sorted(v for v in dag.observed() if v not in ins)
