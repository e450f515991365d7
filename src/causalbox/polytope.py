"""Classical polytope machinery: deterministic vertices, exact membership
LPs, linear-functional optimization and the bipartite no-signalling
decomposition.

The classical distribution set of a single-latent graph is a convex polytope
whose vertices are its deterministic functional models: every outcome
vertex applies a response function of its observed parents, and the
outcomes follow by direct substitution in topological order.  This is the
Bell-type hypergraph strategy seen through the diagonal post-selection.
Membership of a conditional table is then an exact linear-programming
feasibility question over convex weights of those vertices.

A bipartite no-signalling box is decomposed with one such LP: its scores on
the eight CHSH variants name the one PR box it can need, or none.

Both LPs are built as integer rows for the simplex core of
:mod:`causalbox.linprog`: the vertex tables as one integer matrix (built
once for each of the nine vertex sets of the decomposition), and the
target read once, in the vertices' layout, by the checked ``_numerators``
of :mod:`causalbox.tables`.  The CHSH lift's NS rows are built once too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _iterproduct
from math import lcm, prod
from typing import Callable, Mapping, Sequence

from .graphs import (
    CausalDag,
    HyperDag,
    MultiLatentError,
    bell_inputs,
    bell_outputs,
    build_hypergraph,
    is_bell_type,
    topological_order,
)
from .linprog import _lowest, _solve
from .tables import Kernel, Record, _numerators, _position, assignments

__all__ = [
    "Vertex",
    "NotNoSignallingError",
    "DecompositionNotFoundError",
    "enumerate_h_vertices",
    "enumerate_classical_vertices",
    "classical_member",
    "maximize_functional",
    "functional_from_indicator",
    "decompose_ns_box",
    "MemberVerdict",
]


class NotNoSignallingError(ValueError):
    """The box violates a no-signalling equality."""


class DecompositionNotFoundError(RuntimeError):
    """No PR-plus-local decomposition found; this contradicts the geometric
    decomposition guarantee for bipartite no-signalling boxes and signals a
    bug."""


class Vertex(Record):
    """Deterministic strategy with its induced conditional table.

    ``responses`` maps every output vertex to a tuple listing its value for
    each joint assignment of its observed parents (mixed-radix order).
    """

    responses: Mapping[str, tuple[int, ...]]
    table: Kernel


def enumerate_classical_vertices(g: CausalDag) -> list[Vertex]:
    """Vertices of the classical polytope of a single-latent graph: its
    deterministic functional models.  Strategies run in the lift's order:
    each output picks a response function of its sorted observed parents in
    the hypergraph, and outputs are evaluated by direct substitution in
    topological order of ``g``, a copy parent reading its source.  With
    uniform copies this equals lifting each strategy and projecting it
    through the diagonal event.  The first strategy of each table is kept.
    """
    if len(g.latent()) > 1:
        raise MultiLatentError("vertex enumeration requires at most one latent vertex")
    h = build_hypergraph(g)
    card = {v: h.base.cardinality(v) for v in h.base.observed()}
    outputs = bell_outputs(h.base)
    parents = {
        v: [(h.copies.get(p, p), card[p]) for p in sorted(h.base.parents(v)) if p in card]
        for v in outputs
    }
    order = [v for v in topological_order(g) if v in parents]
    out_vars = tuple((v, card[v]) for v in outputs)
    in_vars = tuple((v, card[v]) for v in bell_inputs(g))
    rows = [dict(zip([n for n, _ in in_vars], x)) for x in assignments(in_vars)]
    choices = [
        _iterproduct(range(card[v]), repeat=prod(c for _, c in parents[v])) for v in outputs
    ]
    seen: dict[tuple[Fraction, ...], Vertex] = {}
    for combo in _iterproduct(*choices):
        responses = dict(zip(outputs, combo))
        entries = [Fraction(0)] * (prod(c for _, c in out_vars) * len(rows))
        for r, values in enumerate(dict(row) for row in rows):
            for v in order:
                values[v] = responses[v][_position(parents[v], values)]
            entries[_position(out_vars, values) * len(rows) + r] = Fraction(1)
        key = tuple(entries)
        if key not in seen:
            seen[key] = Vertex(responses, Kernel(out_vars, in_vars, key))
    return list(seen.values())


def enumerate_h_vertices(h: HyperDag) -> list[Vertex]:
    """Deterministic strategies of a Bell-type single-latent hypergraph:
    every output picks a response function of its observed parents, all of
    them setting variables, so no two strategies share a table."""
    if not is_bell_type(h.base):
        raise ValueError("hypergraph base is not Bell-type")
    return enumerate_classical_vertices(h.base)


class MemberVerdict(Record):
    member: bool
    weights: tuple[Fraction, ...] | None = None


def classical_member(p: Kernel, g: CausalDag) -> MemberVerdict:
    """Exact membership of a conditional table in the classical polytope.

    Solves the feasibility LP p = sum_i w_i vertex_i with w >= 0 summing to
    one, row-wise over the setting variables; returns the weights on
    success.  A joint table is read as p(outputs | settings) =
    p(outputs, settings) / p(settings) on the setting assignments it gives
    positive probability; the rows of the others are undefined and left out
    of the LP, so the weights reproduce every supported row.

    The verdict is exact only when the latent parents every output vertex.
    The strategies let the latent drive every output, so on a graph such as
    ``mediation_graph`` a joint that breaks a conditional independence of
    the graph can be accepted.  A latent-free graph is no exception: the
    mixture still acts as a hidden common cause, so on X -> A, Y -> B the
    box (``local_box(0)`` + ``local_box(5)``) / 2, where A = B is a fair
    coin, is accepted although it breaks A _||_ B.
    """
    outcome_vars, index_vars, matrix, vden = _vertex_matrix(
        [v.table for v in enumerate_classical_vertices(g)]
    )
    # cell i of either layout holds setting assignment i % width; a box's
    # rows each sum to its denominator, so all of them are kept
    layout = (outcome_vars + index_vars, ()) if p.is_prob_table else (outcome_vars, index_vars)
    num, _ = _numerators(p, *layout)
    width = prod(c for _, c in index_vars)
    context = [sum(num[s::width]) for s in range(width)]
    kept = [i for i in range(len(num)) if context[i % width]]
    den = lcm(*(context[i % width] for i in kept))
    target = [num[i] * (den // context[i % width]) for i in kept]
    return _convex_member((outcome_vars, index_vars, [matrix[i] for i in kept], vden), target, den)


def _vertex_matrix(tables: Sequence[Kernel]):
    """``(outcome_vars, index_vars, rows, den)`` for ``tables``, which share
    the first one's layout: entry i of table j is ``rows[i][j] / den``."""
    den = lcm(*(e.denominator for t in tables for e in t.entries))
    rows = tuple(
        tuple(e.numerator * (den // e.denominator) for e in cell)
        for cell in zip(*(t.entries for t in tables))
    )
    return tables[0].outcome_vars, tables[0].index_vars, rows, den


@lru_cache(maxsize=None)
def _ns_vertex_matrix(pr: tuple[int, int, int] | None):
    """The sixteen local boxes, after PR(alpha, beta, gamma) if ``pr`` names it."""
    from .boxes import local_box, pr_box

    tables = [local_box(i) for i in range(16)]
    return _vertex_matrix(tables if pr is None else [pr_box(*pr)] + tables)


@lru_cache(maxsize=None)
def _chsh_ns_rows():
    """The no-signalling rows of the CHSH lift in the NS vertices' layout."""
    from .boxes import chsh_graph
    from .lift import _ns_rows

    outcome_vars, index_vars, _, _ = _ns_vertex_matrix(None)
    return _ns_rows(build_hypergraph(chsh_graph()), outcome_vars + index_vars)


def _convex_member(vertices, num: list[int], den: int) -> MemberVerdict:
    """Convex weights of the tables of a :func:`_vertex_matrix` that give the
    target whose cell i of the vertices' layout is ``num[i] / den``.  The LP
    has one integer row for the weights' sum, then one per cell, each
    reduced by ``_lowest`` exactly as :func:`lp_solve` reduces that equality.
    """
    _, _, matrix, vden = vertices
    n = len(matrix[0])
    rows, dens = [[1] * (n + 1)], [1]
    for cell, k in zip(matrix, num):
        row, d = _lowest([c * den for c in cell] + [k * vden], den * vden)
        rows.append(row)
        dens.append(d)
    _, _, x = _solve(rows, dens, [0] * n)
    if x is None:
        return MemberVerdict(False)
    return MemberVerdict(True, tuple(x))


def functional_from_indicator(
    template: Kernel, indicator: Callable[[Mapping[str, int]], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    """Coefficient map over table cells from a callable on assignments."""
    out = {}
    for values in assignments(template.variables):
        env = dict(zip(template.var_names(), values))
        c = Fraction(indicator(env))
        if c:
            out[values] = c
    return out


def maximize_functional(
    functional: Mapping[tuple[int, ...], Fraction], vertices: Sequence[Vertex | Kernel]
) -> tuple[Fraction, Vertex | Kernel]:
    """Maximize a linear functional over a finite vertex list.

    The maximum of a linear functional over a polytope is attained at a
    vertex, so this is exact polytope optimization.
    """
    if not vertices:
        raise ValueError("vertex list is empty")
    best = None
    best_v = None
    for v in vertices:
        table = v.table if isinstance(v, Vertex) else v
        names = table.var_names()
        score = Fraction(0)
        for values, coeff in functional.items():
            score += coeff * table.value(dict(zip(names, values)))
        if best is None or score > best:
            best, best_v = score, v
    return best, best_v


def decompose_ns_box(q: Kernel):
    """Decompose a bipartite no-signalling box into at most one PR box plus
    local deterministic boxes, with one exact LP.

    The result is ``(pr_index_or_None, weights)`` where ``weights`` lists
    the PR weight (zero for locals-only) followed by the sixteen local
    weights.  The box must be binary over A, B | X, Y, in any layout: its
    variables are matched by name, cardinality and side, and it is read once.

    The LP is picked by the box's scores on the eight CHSH variants, which
    :mod:`causalbox.boxes` computes.  If it scores above 3 on the
    (alpha, beta, gamma) variant, the LP is over PR(alpha, beta, gamma) plus
    the locals; otherwise it is over the locals alone.  This gives the first
    feasible decomposition of the order "locals only, then each PR box in
    lexicographic order":
    - PR boxes score 4 on their own variant and at most 2 on every other,
      and locals at most 3, so a mixture with PR weight w scores at most
      3 + w on its PR box's variant and at most 3 - w on the others.  A box
      above 3 on one variant therefore needs exactly that PR box.
    - A box at most 3 on every variant is local (Fine), and every NS box
      mixes at most one PR box with locals (Barrett et al.).
    """
    outcome_vars, index_vars, _, _ = _ns_vertex_matrix(None)
    try:
        num, den = _numerators(q, outcome_vars, index_vars)
    except ValueError:
        raise NotNoSignallingError("box variables are not binary A, B | X, Y") from None
    if any(sum(num[k] for k in lo) != sum(num[k] for k in hi) for lo, hi in _chsh_ns_rows()):
        raise NotNoSignallingError("box is not a bipartite no-signalling kernel")
    from .boxes import _chsh_scores

    index = next((v for v, score in _chsh_scores(num).items() if score > 3 * den), None)
    verdict = _convex_member(_ns_vertex_matrix(index), num, den)
    if not verdict.member:
        raise DecompositionNotFoundError(
            "no-signalling box admits no PR-plus-local decomposition"
        )
    if index is None:
        return None, (Fraction(0),) + verdict.weights
    return index, verdict.weights
