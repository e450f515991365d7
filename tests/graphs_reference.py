"""Earlier forms of ``causalbox.graphs`` rules, kept verbatim as the
reference for the differential tests in ``test_graphs.py``.

- The edge-scanning graph queries used before ``CausalDag`` built its
  adjacency maps.  Every parent and child lookup rescans all edges, as
  ``CausalDag.parents`` and ``children`` did; ``ci_constraints`` is the
  body of ``_ci_constraints_cached`` without the cache.
- The structural rules stated more than once before each got one home:
  ``mdag_fields`` is ``MDag.__init__``'s face normalization, returning the
  fields it set; ``to_mdag_fields`` is ``to_mdag`` with its own face loop;
  ``districts`` is the union-find partition; ``build_hypergraph`` and
  ``is_bell_type`` each spell out the mediator test; ``validate`` scans
  the edges for unknown endpoints itself.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from causalbox.graphs import (
    LATENT,
    OBSERVED,
    CausalDag,
    CiConstraint,
    CycleError,
    FixedNotParentlessError,
    HyperDag,
    UnknownVertexError,
    VertexSpec,
    _fresh_name,
)
from causalbox.tables import _is_cardinality


def _parents(dag: CausalDag, name: str) -> set[str]:
    return {a for a, b in dag.edges if b == name}


def _children(dag: CausalDag, name: str) -> set[str]:
    return {b for a, b in dag.edges if a == name}


def topological_order(dag: CausalDag) -> list[str]:
    names = dag.names()
    known = set(names)
    for a, b in sorted(dag.edges):
        if a not in known or b not in known:
            raise UnknownVertexError(f"edge ({a}, {b}) references unknown vertex")
    indegree = {n: len(_parents(dag, n)) for n in names}
    ready = {n for n, deg in indegree.items() if deg == 0}
    order = []
    while ready:
        v = min(ready)
        ready.remove(v)
        order.append(v)
        del indegree[v]
        for c in _children(dag, v):
            indegree[c] -= 1
            if indegree[c] == 0:
                ready.add(c)
    if indegree:
        raise CycleError(f"cycle detected among {sorted(indegree)}")
    return order


def d_separated(
    dag: CausalDag, a: Iterable[str], b: Iterable[str], z: Iterable[str]
) -> bool:
    a, b, z = set(a), set(b), set(z)
    known = set(dag.names())
    for group in (a, b, z):
        unknown = group - known
        if unknown:
            raise UnknownVertexError(f"unknown vertices {sorted(unknown)}")
    if (a & b) or (a & z) or (b & z):
        raise ValueError("a, b, z must be pairwise disjoint")
    if not a or not b:
        return True
    # vertices with a descendant in z (including z itself)
    anc_of_z = set()
    frontier = list(z)
    anc_of_z |= z
    while frontier:
        v = frontier.pop()
        for p in _parents(dag, v):
            if p not in anc_of_z:
                anc_of_z.add(p)
                frontier.append(p)
    # states: (vertex, "up") approaching from a child, (vertex, "down")
    # approaching from a parent
    start = [(v, "up") for v in a]
    seen = set(start)
    frontier = list(start)
    while frontier:
        v, direction = frontier.pop()
        if v in b:
            return False
        moves = []
        if direction == "up":
            if v not in z:
                moves += [(p, "up") for p in _parents(dag, v)]
                moves += [(c, "down") for c in _children(dag, v)]
        else:
            if v not in z:
                moves += [(c, "down") for c in _children(dag, v)]
            if v in anc_of_z:
                moves += [(p, "up") for p in _parents(dag, v)]
        for state in moves:
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return True


def ci_constraints(dag: CausalDag) -> tuple[CiConstraint, ...]:
    observed = sorted(dag.observed())
    found = []
    for a, b in combinations(observed, 2):
        rest = [v for v in observed if v not in (a, b)]
        for r in range(len(rest) + 1):
            for given in combinations(rest, r):
                if d_separated(dag, {a}, {b}, set(given)):
                    found.append(CiConstraint(a, b, frozenset(given)))
    return tuple(sorted(found, key=CiConstraint.sort_key))


def validate(dag: CausalDag) -> list[str]:
    report = []
    names = dag.names()
    if len(set(names)) != len(names):
        report.append("duplicate vertex names")
    known = set(names)
    for a, b in sorted(dag.edges):
        if a not in known or b not in known:
            report.append(f"edge ({a}, {b}) references unknown vertex")
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


def mdag_fields(random_vertices, fixed_vertices, edges, faces) -> tuple:
    rnd = tuple(sorted(random_vertices))
    fixed = tuple(sorted(fixed_vertices))
    edges = frozenset(edges)
    rset = set(rnd)
    # normalize: keep only maximal faces over random vertices, add
    # singletons for uncovered vertices
    cleaned = {frozenset(f) & rset for f in faces}
    cleaned = {f for f in cleaned if f}
    maximal = {
        f for f in cleaned if not any(f < g for g in cleaned)
    }
    covered = set().union(*maximal) if maximal else set()
    for v in rnd:
        if v not in covered:
            maximal.add(frozenset([v]))
    return rnd, fixed, edges, frozenset(maximal)


def to_mdag_fields(dag: CausalDag, fixed: Iterable[str] = ()) -> tuple:
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
    faces = set()
    for lam in dag.latent():
        face = frozenset(dag.children(lam) & random_vertices)
        if face:
            faces.add(face)
    return mdag_fields(random_vertices, fixed, edges, faces)


def districts(m) -> list[frozenset[str]]:
    parent = {v: v for v in m.random_vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for face in m.faces:
        members = sorted(face)
        for u, v in zip(members, members[1:]):
            parent[find(u)] = find(v)
    groups: dict[str, set[str]] = {}
    for v in m.random_vertices:
        groups.setdefault(find(v), set()).add(v)
    return sorted((frozenset(g) for g in groups.values()), key=lambda d: min(d))


def build_hypergraph(dag: CausalDag) -> HyperDag:
    observed = set(dag.observed())
    targets = [
        v
        for v in sorted(observed)
        if dag.parents(v) and (dag.children(v) & observed)
    ]
    vertices = list(dag.vertices)
    edges = set(dag.edges)
    taken = set(dag.names())
    copy_map: dict[str, tuple[str, str]] = {}
    for v in targets:
        for child in sorted(dag.children(v) & observed):
            edges.discard((v, child))
            u = _fresh_name(f"{v}_{child}", taken)
            taken.add(u)
            vertices.append(VertexSpec(u, OBSERVED, dag.cardinality(v)))
            edges.add((u, child))
            copy_map[u] = (v, child)
    return HyperDag(CausalDag(vertices, edges), copy_map)


def is_bell_type(dag: CausalDag) -> bool:
    observed = set(dag.observed())
    return not any(
        dag.parents(v) and (dag.children(v) & observed) for v in observed
    )
