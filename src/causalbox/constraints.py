"""Equality constraints of the nested Markov model.

The recursion alternates two moves on marginal DAGs, mirroring the model's
recursive definition: factorize the current kernel over districts, and
marginalize childless random vertices, all but the last (a kernel summed
over every random vertex is 1).  Whenever a derived kernel still
references a conditioning variable that the graph no longer licenses, and no
chain of conditional-independence rewrites removes that reference, the
kernel together with the offending variables is emitted as a Verma record.
One walker (``_rewrite``) applies both rewrite rules, each justified by
d-separation: dropping a conditioning variable, and merging a chain
p(O1|G) p(O2|G,O1) into p(O1,O2|G).
Conditional-independence statements themselves are enumerated directly by
d-separation and merged into the record list.

A distribution lies in the nested Markov model of a graph iff it satisfies
every record exactly.  :func:`check_nested` takes the CI verdicts of
:func:`i_member` and evaluates each Verma recipe once, as a table over its
free variables (:meth:`Evaluator.table`); one block scan of such a table
finds a Verma witness or builds a :func:`district_kernel`.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

from .graphs import (
    _GRAPH_CACHE_SIZE,
    _restrict,
    CausalDag,
    CiConstraint,
    MDag,
    NotADistrictError,
    ci_constraints,
    d_separated,
    districts,
    marginal_mdag,
    to_mdag,
    topological_order,
)
from .recipes import (
    Evaluator,
    Expr,
    FactorExpr,
    ProductExpr,
    QuotientExpr,
    SumExpr,
    canonical,
    factor,
    free_vars,
    product,
    quotient,
    render,
    simplify,
    sum_over,
)
from .tables import Kernel, Record, ZeroConditioningError, _check_joint, assignments, ci_violation

__all__ = [
    "VermaConstraint",
    "ConstraintRecord",
    "NestedVerdict",
    "Violation",
    "district_kernel",
    "district_kernel_recipe",
    "enumerate_constraints",
    "check_nested",
    "i_member",
    "reduce_expr",
]


class VermaConstraint(Record):
    """A derived kernel that must not depend on some of its index variables."""

    recipe: Expr
    independent_of: frozenset[str]

    def __init__(self, recipe, independent_of):
        super().__init__(recipe, frozenset(independent_of))

    def sort_key(self):
        return (tuple(sorted(self.independent_of)), str(canonical(self.recipe)))

    def __str__(self):
        return f"VERMA: {render(self.recipe)} _||_ {', '.join(sorted(self.independent_of))}"


ConstraintRecord = CiConstraint | VermaConstraint


# -- conditional-independence rewrites ---------------------------------------


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


def _merge_chain(e: Expr, dag: CausalDag) -> Expr:
    """One chain merge p(O1|G) p(O2|G,O1,E) -> p(O1,O2|G,E) among the factors
    of a product, where each variable of E in turn is d-separated from O1
    given G and the variables of E before it."""
    if not isinstance(e, ProductExpr):
        return e
    parts = e.factors
    for j, fj in enumerate(parts):
        if not isinstance(fj, FactorExpr):
            continue
        for i, fi in enumerate(parts):
            if i == j or not isinstance(fi, FactorExpr):
                continue
            if not set(fi.outcomes) | set(fi.given) <= set(fj.given):
                continue
            extra = sorted(set(fj.given) - set(fi.given) - set(fi.outcomes))
            if all(
                d_separated(dag, fi.outcomes, {v}, set(fi.given) | set(extra[:k]))
                for k, v in enumerate(extra)
            ):
                merged = factor(fi.outcomes + fj.outcomes, set(fj.given) - set(fi.outcomes))
                return product([p for k, p in enumerate(parts) if k not in (i, j)] + [merged])
    return e


def _rewrite(e: Expr, rule, dag: CausalDag) -> Expr:
    """Apply ``rule`` bottom-up: to every node once its children are rewritten."""
    if isinstance(e, ProductExpr):
        e = product([_rewrite(p, rule, dag) for p in e.factors])
    elif isinstance(e, SumExpr):
        e = SumExpr(e.var, _rewrite(e.body, rule, dag))
    elif isinstance(e, QuotientExpr):
        e = quotient(_rewrite(e.num, rule, dag), _rewrite(e.den, rule, dag))
    return rule(e, dag)


def reduce_expr(e: Expr, dag: CausalDag) -> Expr:
    """Normalize a recipe modulo the graph's conditional independences.

    Alternates structural simplification with d-separation justified
    rewrites until a fixed point: one bottom-up walk drops conditioning
    variables (:func:`_reduce_factor`), the next merges chains
    (:func:`_merge_chain`).  Sound for every distribution satisfying the
    CI constraints of the graph, which are checked alongside the Verma
    records.
    """
    e = simplify(e)
    seen = {canonical(e)}
    while True:
        e2 = simplify(_rewrite(e, _reduce_factor, dag))
        e2 = simplify(_rewrite(e2, _merge_chain, dag))
        key = canonical(e2)
        if key in seen:
            return e2
        seen.add(key)
        e = e2


# -- kernels -------------------------------------------------------------------


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
    """Symbolic recipe of a top-level district kernel: the ordered product
    of chain conditionals, normalized modulo conditional independences."""
    order = _observed_order(dag, order)
    m = to_mdag(dag)
    if district not in districts(m):
        raise NotADistrictError(f"{sorted(district)} is not a district")
    k = _chain_expr(order)
    parts = [_kernel_conditional(k, v, order) for v in order if v in district]
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


# -- enumeration ---------------------------------------------------------------


def enumerate_constraints(dag: CausalDag) -> list[ConstraintRecord]:
    """All equality constraints of the nested Markov model of ``dag``.

    Conditional independences come from d-separation; Verma records come
    from the district and marginalization recursion.  Records are
    canonicalized and deduplicated; CI-implied kernels reduce away and are
    not reported twice.
    """
    return list(_enumerate_constraints_cached(dag))


@lru_cache(maxsize=_GRAPH_CACHE_SIZE)
def _enumerate_constraints_cached(dag: CausalDag) -> tuple[ConstraintRecord, ...]:
    order = _observed_order(dag)
    verma: dict[tuple, VermaConstraint] = {}
    visited: set[tuple] = set()
    stack: list[tuple[MDag, Expr]] = [(to_mdag(dag), _chain_expr(order))]
    while stack:
        m, k = stack.pop()
        k = reduce_expr(k, dag)
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


# -- membership ---------------------------------------------------------------


class Violation(Record):
    record: ConstraintRecord
    witness: dict

    def __str__(self):
        return f"{self.record}  violated at {self.witness}"


class NestedVerdict(Record):
    member: bool
    violations: tuple[Violation, ...] = ()
    indeterminate: tuple[ConstraintRecord, ...] = ()


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


def i_member(table: Kernel, dag: CausalDag) -> NestedVerdict:
    """Membership in the independence model: every d-separation statement
    of the graph holds exactly on the table."""
    _check_joint(table, dag, "i_member")
    violations = []
    for record in ci_constraints(dag):
        witness = ci_violation(table, {record.a}, {record.b}, record.given)
        if witness is not None:
            violations.append(Violation(record, witness))
    return NestedVerdict(not violations, tuple(violations))


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
