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
:mod:`causalbox.linprog`.  The vertex tables are one integer matrix whose
rows are reduced once per vertex set (once for each of the nine vertex
sets of the decomposition), and they are the LP's rows as they are: the
LP solves for den * w, den the target's denominator, so the target,
read once in the vertices' layout by the checked ``_numerators`` of
:mod:`causalbox.tables`, enters only the right-hand sides and the
objective value of phase 1's reduced-cost row, whose column part is built
with the vertex matrix.  The CHSH lift's NS rows are built once too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _iterproduct
from math import lcm, prod
from typing import Callable, Mapping, Sequence

from . import _EXPORTS
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
from .linprog import _lowest, _phase_one_zrow, _solve
from .tables import (
    Kernel,
    Record,
    _check_observed,
    _key_position,
    _laid_out,
    _numerators,
    _position,
    _rational,
    assignments,
)

__all__ = _EXPORTS["polytope"]


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
    of the LP, so the weights reproduce every supported row.  A table whose
    variables are not the graph's observed vertices raises ``ValueError``,
    with the text of the membership tests' joint-table check.

    The verdict is exact only when the latent parents every output vertex.
    The strategies let the latent drive every output, so on a graph such as
    ``mediation_graph`` a joint that breaks a conditional independence of
    the graph can be accepted.  A latent-free graph is no exception: the
    mixture still acts as a hidden common cause, so on X -> A, Y -> B the
    box (``local_box(0)`` + ``local_box(5)``) / 2, where A = B is a fair
    coin, is accepted although it breaks A _||_ B.
    """
    _check_observed(p, g)
    tables = [v.table for v in enumerate_classical_vertices(g)]
    outcome_vars, index_vars = tables[0].outcome_vars, tables[0].index_vars
    # cell i of either layout holds setting assignment i % width; a box's
    # rows each sum to its denominator, so all of them are kept
    layout = (outcome_vars + index_vars, ()) if p.is_prob_table else (outcome_vars, index_vars)
    num, _ = _numerators(p, *layout)
    width = prod(c for _, c in index_vars)
    context = [sum(num[s::width]) for s in range(width)]
    kept = [i for i in range(len(num)) if context[i % width]]
    den = lcm(*(context[i % width] for i in kept))
    target = [num[i] * (den // context[i % width]) for i in kept]
    return _convex_member(_vertex_matrix(tables, kept), target, den)


def _vertex_matrix(tables: Sequence[Kernel], kept: Sequence[int] | None = None):
    """``(outcome_vars, index_vars, rows, dens, phase_one)`` for ``tables``,
    which share the first one's layout: entry ``kept[i]`` of table j (entry
    i when ``kept`` is ``None``) is ``rows[i][j] / dens[i]``, each row
    reduced with its denominator by ``_lowest``.  ``phase_one`` is
    ``_phase_one_zrow`` of the sum row of :func:`_convex_member`'s LP and
    these rows, read without right-hand sides: the column part of that
    LP's phase-1 row, which does not depend on the target.
    """
    cells = list(zip(*(t.entries for t in tables)))
    if kept is not None:
        cells = [cells[i] for i in kept]
    rows, dens = [], []
    for cell in cells:
        den = lcm(*(e.denominator for e in cell))
        row, den = _lowest([e.numerator * (den // e.denominator) for e in cell], den)
        rows.append(tuple(row))
        dens.append(den)
    n = len(tables)
    phase_one = _phase_one_zrow([(1,) * n, *rows], [1, *dens], n)
    return tables[0].outcome_vars, tables[0].index_vars, tuple(rows), tuple(dens), phase_one


@lru_cache(maxsize=None)
def _ns_vertex_matrix(pr: tuple[int, int, int] | None):
    """The sixteen local boxes, after PR(alpha, beta, gamma) if ``pr`` names it."""
    from .boxes import local_box, pr_box

    tables = [local_box(i) for i in range(16)]
    return _vertex_matrix(tables if pr is None else [pr_box(*pr)] + tables)


@lru_cache(maxsize=None)
def _chsh_ns_rows():
    """No-signalling rows of the CHSH graph (its own lift) in the NS vertices' layout."""
    from .boxes import chsh_graph
    from .lift import _ns_rows

    outcome_vars, index_vars = _ns_vertex_matrix(None)[:2]
    return _ns_rows(chsh_graph(), outcome_vars + index_vars)


def _convex_member(vertices, num: list[int], den: int) -> MemberVerdict:
    """Convex weights of the tables of a :func:`_vertex_matrix` that give the
    target whose cell i of the vertices' layout is ``num[i] / den``.

    The LP solves for u = den * w over the vertex rows as they are: the
    sum row is ``[1 ... 1 | den]`` and cell row i is the vertex matrix's row
    i with right-hand side ``num[i] * dens[i]``, which keeps it reduced,
    since the row is already primitive with its denominator.  Scaling
    every right-hand side by den > 0 scales every ratio of the ratio test
    and leaves the reduced costs alone, so the pivots are those of the LP
    in w, and w = u / den.

    Phase 1's reduced-cost row is the vertex matrix's column part over its
    denominator zden, then the objective value -zden * (den + sum(num)):
    minus the sum of the rows' right-hand sides over their denominators.
    The column part is in lowest terms with zden, so the whole row is.
    Each nonzero weight is built from the core's integers a / d as one
    ``Fraction(a, d * den)``.
    """
    _, _, matrix, vdens, (cols, zden) = vertices
    n = len(cols)
    rows = [[1] * n + [den]]
    rows += [[*cell, k * d] for cell, k, d in zip(matrix, num, vdens)]
    phase_one = [*cols, -zden * (den + sum(num))], zden
    _, _, basic = _solve(rows, [1, *vdens], [0] * n, phase_one)
    if basic is None:
        return MemberVerdict(False)
    weights = [Fraction(0)] * n
    for j, a, d in basic:
        if a:
            weights[j] = Fraction(a, d * den)
    return MemberVerdict(True, tuple(weights))


def functional_from_indicator(
    template: Kernel, indicator: Callable[[Mapping[str, int]], Fraction]
) -> dict[tuple[int, ...], Fraction]:
    """Coefficient map over table cells from a callable on assignments.  The
    callable returns an ``int`` or ``Fraction``; anything else raises
    ``TypeError``."""
    out = {}
    for values in assignments(template.variables):
        env = dict(zip(template.var_names(), values))
        c = _rational(indicator(env), "indicator value")
        if c:
            out[values] = c
    return out


def maximize_functional(
    functional: Mapping[tuple[int, ...], Fraction], vertices: Sequence[Vertex | Kernel]
) -> tuple[Fraction, Vertex | Kernel]:
    """Maximize a linear functional over a finite vertex list, exactly.  Keys
    of ``functional`` are assignments in the first vertex's variable order,
    checked as in ``Kernel.from_mapping``, and every vertex is read by name
    in that layout.  Values are ``int`` or ``Fraction``; anything else
    raises ``TypeError``."""
    if not vertices:
        raise ValueError("vertex list is empty")
    first = vertices[0].table if isinstance(vertices[0], Vertex) else vertices[0]
    terms = [
        (_key_position(first.variables, x), _rational(c, "functional value"))
        for x, c in functional.items()
    ]

    def score(v) -> Fraction:
        table = v.table if isinstance(v, Vertex) else v
        cells = _laid_out(table, first.outcome_vars, first.index_vars)
        return sum((c * cells[p] for p, c in terms), Fraction(0))

    return _argmax(score, vertices)


def _argmax(score, vertices):
    """``(score(v), v)`` for the first vertex ``v`` of highest score.  A linear
    functional attains its maximum over a polytope at a vertex."""
    return max(((score(v), v) for v in vertices), key=lambda pair: pair[0])


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
    outcome_vars, index_vars = _ns_vertex_matrix(None)[:2]
    try:
        num, den = _numerators(q, outcome_vars, index_vars)
    except ValueError:
        raise NotNoSignallingError("box variables are not binary A, B | X, Y") from None
    cell = num.__getitem__
    if any(sum(map(cell, lo)) != sum(map(cell, hi)) for lo, hi in _chsh_ns_rows()):
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
