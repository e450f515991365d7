"""The nested-layer reads of ``causalbox.constraints`` before they shared
one witness scan, kept verbatim as references for the differential tests in
``test_constraints.py``.

* ``_blocks`` splits a flat recipe table into blocks; ``district_kernel``
  and ``_verma_violation`` each lay their recipe out around it.
* ``_chain_expr`` and ``district_kernel_recipe`` each write out Tian's
  chain factors p(v | the vertices before v).
* ``_kernel_conditional`` simplifies its numerator, its denominator and
  then their quotient.
* ``enumerate_constraints`` is the recursion of
  ``constraints._enumerate_constraints_cached`` without its cache, and
  ``check_nested`` reads its Verma records.
* ``_observed_order`` checks only that an order covers the observed
  vertices, so these references are compared on topological orders alone.
* ``_reduce_factor`` repeats its pass over the conditioning set until no
  variable drops; ``recipes_reference.reduce_expr`` rewrites with it.
"""

from __future__ import annotations

from math import prod

from causalbox.constraints import (
    ConstraintRecord,
    NestedVerdict,
    VermaConstraint,
    Violation,
    i_member,
    reduce_expr,
)
from causalbox.graphs import (
    _restrict,
    CausalDag,
    MDag,
    NotADistrictError,
    ci_constraints,
    d_separated,
    districts,
    marginal_mdag,
    to_mdag,
    topological_order,
)
from causalbox.recipes import (
    Evaluator,
    Expr,
    FactorExpr,
    SumExpr,
    canonical,
    factor,
    free_vars,
    product,
    quotient,
    simplify,
    sum_over,
)
from causalbox.tables import Kernel, ZeroConditioningError, _check_joint, assignments


def _reduce_factor(f: Expr, dag: CausalDag) -> Expr:
    """Drop d-separated conditioning variables from one conditional."""
    if not isinstance(f, FactorExpr):
        return f
    given = list(f.given)
    changed = True
    while changed:
        changed = False
        for w in sorted(given):
            rest = set(given) - {w}
            if d_separated(dag, set(f.outcomes), {w}, rest):
                given.remove(w)
                changed = True
    return factor(f.outcomes, given)


def _observed_order(dag: CausalDag, order=None) -> list[str]:
    if order is None:
        order = topological_order(dag)
    observed = set(dag.observed())
    out = [v for v in order if v in observed]
    if set(out) != observed:
        raise ValueError("order must cover all observed vertices")
    return out


def _chain_expr(order: list[str]) -> Expr:
    parts = []
    for i, v in enumerate(order):
        parts.append(factor((v,), tuple(order[:i])))
    return product(parts)


def _kernel_conditional(k: Expr, v: str, present: list[str]) -> Expr:
    """Conditional of the current kernel on its random predecessors."""
    pos = present.index(v)
    later = present[pos + 1 :]
    num = simplify(sum_over(later, k))
    den = simplify(sum_over([v] + later, k))
    return simplify(quotient(num, den))


def district_kernel_recipe(
    dag: CausalDag, district: frozenset[str], order=None
) -> Expr:
    """Symbolic recipe of a top-level district kernel.

    Tian's district factorization: the product of the district's chain
    factors p(v | observed predecessors of v), reduced modulo the graph's
    conditional independences (:func:`reduce_expr`).
    """
    order = _observed_order(dag, order)
    if district not in districts(to_mdag(dag)):
        raise NotADistrictError(f"{sorted(district)} is not a district")
    parts = [factor((v,), order[:i]) for i, v in enumerate(order) if v in district]
    return reduce_expr(product(parts), dag)


def _blocks(cells: list, width: int):
    """Per block of ``width`` consecutive cells: the block, the offsets of its
    first defined cell and of the first cell differing from that one (or
    ``None``), and whether some cell is undefined."""
    for start in range(0, len(cells), width):
        block = cells[start : start + width]
        defined = [i for i, v in enumerate(block) if v is not None]
        first = defined[0] if defined else None
        differs = next((i for i in defined if block[i] != block[first]), None)
        yield block, first, differs, len(defined) < width


def district_kernel(
    table: Kernel, dag: CausalDag, district: frozenset[str], order=None
) -> Kernel:
    """Evaluate a district's kernel on a concrete observed joint.

    Returns the kernel over the district indexed by its parents.  Raises
    :class:`ZeroConditioningError` if a required conditional is undefined,
    and ``ValueError`` if the recipe still depends on other variables (it
    cannot for distributions generated from the graph).
    """
    order = _observed_order(dag, order)
    m = to_mdag(dag)
    recipe = district_kernel_recipe(dag, district, order)
    outs = tuple((v, table.cardinality(v)) for v in sorted(district))
    index = tuple((v, table.cardinality(v)) for v in sorted(m.parents_of(district)))
    names = [n for n, _ in outs + index]
    extra = sorted(free_vars(recipe) - set(names))
    cells = Evaluator(table).table(recipe, names + extra)
    width = prod(table.cardinality(v) for v in extra)
    entries = []
    for values, (block, first, differs, _) in zip(
        assignments(outs + index), _blocks(cells, width)
    ):
        if first is None:
            last = (table.cardinality(v) - 1 for v in extra)
            raise ZeroConditioningError({**dict(zip(names, values)), **dict(zip(extra, last))})
        if differs is not None:
            raise ValueError(f"district kernel not well-defined: recipe varies with {extra}")
        entries.append(block[first])
    return Kernel(outs, index, tuple(entries))


def enumerate_constraints(dag: CausalDag) -> tuple[ConstraintRecord, ...]:
    order = _observed_order(dag)
    verma: dict[tuple, VermaConstraint] = {}
    visited: set[tuple] = set()
    reduced: dict = {}  # canonical form -> reduce_expr of the first kernel with it
    stack: list[tuple[MDag, Expr]] = [(to_mdag(dag), _chain_expr(order))]
    while stack:
        m, k = stack.pop()
        raw = canonical(k)
        if raw not in reduced:
            reduced[raw] = reduce_expr(k, dag)
        k = reduced[raw]
        # an MDag keeps sorted tuples and frozensets, so it is its own key
        key = (m, canonical(k))
        if key in visited:
            continue
        visited.add(key)
        excess = free_vars(k) - set(m.random_vertices) - set(m.fixed_vertices)
        if excess:
            record = VermaConstraint(k, frozenset(excess))
            verma.setdefault((canonical(k), record.independent_of), record)
        present = [v for v in order if v in m.random_vertices]
        parts = districts(m)
        if len(parts) > 1:
            for d in parts:
                kd = product([_kernel_conditional(k, v, present) for v in present if v in d])
                stack.append((_restrict(m, d), kd))
        for v in present:  # the kernel summed over every random vertex is 1
            if not m.children(v) and len(present) > 1:
                stack.append((marginal_mdag(m, v), simplify(SumExpr(v, k))))
    records: list[ConstraintRecord] = list(ci_constraints(dag))
    records.extend(sorted(verma.values(), key=VermaConstraint.sort_key))
    return tuple(records)


def _verma_violation(ev: Evaluator, record: VermaConstraint) -> tuple[dict | None, bool]:
    """Returns (witness or None, saw_indeterminate)."""
    indep = sorted(record.independent_of)
    others = sorted(free_vars(record.recipe) - record.independent_of)
    cells = ev.table(record.recipe, others + indep)
    inner = list(assignments([(v, ev.cardinality(v)) for v in indep]))
    saw_none = False
    for base_values, (block, first, differs, gaps) in zip(
        assignments([(v, ev.cardinality(v)) for v in others]), _blocks(cells, len(inner))
    ):
        saw_none = saw_none or gaps
        if differs is not None:
            witness = {
                "context": dict(zip(others, base_values)),
                "assignments": [dict(zip(indep, inner[first])), dict(zip(indep, inner[differs]))],
                "values": [block[first], block[differs]],
            }
            return witness, saw_none
    return None, saw_none


def check_nested(table: Kernel, dag: CausalDag) -> NestedVerdict:
    """Exact nested Markov membership of an observed joint distribution.

    Evaluates every record from :func:`enumerate_constraints`.  Records
    whose evaluation hits a zero-probability conditional are reported as
    indeterminate and treated as satisfied (equality on a measure-zero
    context is vacuous).
    """
    _check_joint(table, dag, "check_nested")
    violations = list(i_member(table, dag).violations)
    indeterminate: list[ConstraintRecord] = []
    ev = Evaluator(table)
    for record in enumerate_constraints(dag):
        if isinstance(record, VermaConstraint):
            witness, saw_none = _verma_violation(ev, record)
            if witness is not None:
                violations.append(Violation(record, witness))
            elif saw_none:
                indeterminate.append(record)
    return NestedVerdict(not violations, tuple(violations), tuple(indeterminate))
