"""The edge-scanning graph queries that ``causalbox.graphs`` used before
``CausalDag`` built its adjacency maps, kept verbatim as the reference for
the differential tests in ``test_graphs.py``.  Every parent and child
lookup rescans all edges, as ``CausalDag.parents`` and ``children`` did;
``ci_constraints`` is the body of ``_ci_constraints_cached`` without the
cache.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from causalbox.graphs import CausalDag, CiConstraint, CycleError, UnknownVertexError


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
