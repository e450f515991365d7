"""Classical Bayesian networks over causal DAGs.

A :class:`ClassicalNetwork` equips every vertex of a DAG, latent vertices
included, with an exact-rational conditional probability table.  Its joint
distribution over the observed vertices is the classical model of the graph;
the set of all such distributions is the classical polytope of the DAG.

The module also provides the lift of a network onto the hypergraph of its
graph: copies become independent uniform roots and rerouted children read
their former parent's value from the copy.  Projecting the lifted joint on
the diagonal event recovers the original observed joint exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod
from typing import Mapping

from . import _EXPORTS
from .graphs import OBSERVED, CausalDag, HyperDag, topological_order
from .tables import (
    CardinalityMismatchError,
    Kernel,
    Record,
    _index_map,
    _sums,
    assignments,
    reorder,
    uniform_table,
)

__all__ = _EXPORTS["networks"]


class ClassicalNetwork(Record):
    """A DAG plus one CPT per vertex.

    Each CPT is a kernel with the vertex as single outcome variable and its
    parents (sorted by name) as index variables, each at the cardinality
    its own CPT gives it.  Latent vertices get an explicit cardinality
    here, fixed by their CPT.
    """

    dag: CausalDag
    cpts: Mapping[str, Kernel]

    def __init__(self, dag, cpts):
        super().__init__(dag, cpts)
        for v in self.dag.names():
            if v not in self.cpts:
                raise ValueError(f"missing CPT for {v}")
            cpt = self.cpts[v]
            if [n for n, _ in cpt.outcome_vars] != [v]:
                raise ValueError(f"CPT for {v} must have {v} as its only outcome")
            card = cpt.outcome_vars[0][1]
            if self.dag.spec(v).kind == OBSERVED and card != self.dag.cardinality(v):
                raise CardinalityMismatchError(
                    f"CPT for {v} has cardinality {card}, but {v} has {self.dag.cardinality(v)}"
                )
            if [n for n, _ in cpt.index_vars] != sorted(self.dag.parents(v)):
                raise ValueError(f"CPT for {v} must be indexed by its sorted parents")
        for v in self.dag.names():
            for parent, card in self.cpts[v].index_vars:
                if card != self.cardinality(parent):
                    raise CardinalityMismatchError(
                        f"CPT for {v} indexes parent {parent} with cardinality {card},"
                        f" but {parent} has {self.cardinality(parent)}"
                    )

    def cardinality(self, name: str) -> int:
        return self.cpts[name].outcome_vars[0][1]

    def joint_observed(self) -> Kernel:
        """Exact joint distribution of the observed vertices.

        Multiplies the CPTs cell by cell over all vertices in topological
        order, then sums out the latent vertices.
        """
        all_vars = tuple((v, self.cardinality(v)) for v in topological_order(self.dag))
        cells = [Fraction(1)] * prod(c for _, c in all_vars)
        for v, _ in all_vars:
            cpt = self.cpts[v]
            at = _index_map(all_vars, cpt.variables)
            cells = [p * cpt.entries[i] if p else p for p, i in zip(cells, at)]
        observed = tuple(v for v in all_vars if self.dag.spec(v[0]).kind == OBSERVED)
        return Kernel(observed, (), tuple(_sums(cells, all_vars, observed)))


_WEIGHT_RANGE = 8


def random_network(
    dag: CausalDag,
    rng: random.Random,
    latent_cardinality: int = 4,
) -> ClassicalNetwork:
    """Random full-support rational CPTs for every vertex.

    Entries are drawn as integer weights in [1, _WEIGHT_RANGE] and normalized
    exactly, so every CPT row is a reduced rational distribution.
    """
    cpts = {}
    card = {
        v.name: (v.cardinality if v.kind == OBSERVED else latent_cardinality)
        for v in dag.vertices
    }
    for v in dag.names():
        parents = sorted(dag.parents(v))
        index_vars = tuple((p, card[p]) for p in parents)
        rows = []
        for _ in assignments(index_vars):
            weights = [rng.randint(1, _WEIGHT_RANGE) for _ in range(card[v])]
            rows.append([Fraction(w, sum(weights)) for w in weights])
        # the outcome varies slowest in the layout
        entries = tuple(row[value] for value in range(card[v]) for row in rows)
        cpts[v] = Kernel(((v, card[v]),), index_vars, entries)
    return ClassicalNetwork(dag, cpts)


def lift_network(net: ClassicalNetwork, hyper: HyperDag) -> ClassicalNetwork:
    """Lift a network onto the hypergraph of its DAG.

    Copy vertices become independent uniform roots; a child whose edge was
    rerouted reads the copy's value where it used to read the source's.
    The projection of the lifted observed joint on the diagonal event equals
    the original observed joint exactly.
    """
    renamed: dict[str, dict[str, str]] = {}
    for u, (source, child) in hyper.copy_map.items():
        renamed.setdefault(child, {})[source] = u
    cpts: dict[str, Kernel] = {}
    for v in hyper.base.names():
        if v in hyper.copy_map:
            source, _ = hyper.copy_map[v]
            cpts[v] = uniform_table(((v, net.cardinality(source)),))
            continue
        old = net.cpts[v]
        swap = renamed.get(v, {})
        if not swap:
            cpts[v] = old
            continue
        index = tuple((swap.get(n, n), c) for n, c in old.index_vars)
        renamed_cpt = Kernel(old.outcome_vars, index, old.entries)
        cpts[v] = reorder(renamed_cpt, old.outcome_vars, sorted(index))
    return ClassicalNetwork(hyper.base, cpts)
