"""Equality constraints of the nested Markov model.

The recursion alternates two moves on marginal DAGs, mirroring the model's
recursive definition: factorize the current kernel over districts, and
marginalize childless random vertices, all but the last (a kernel summed
over every random vertex is 1).  Whenever a derived kernel still
references a conditioning variable that the graph no longer licenses, and no
chain of conditional-independence rewrites removes that reference, the
kernel together with the offending variables is emitted as a Verma record.
One walker (``_rewrite``) applies both rewrite rules, each one d-separation
query per candidate: dropping conditioning variables in one sorted pass, and
merging a chain p(O1|G) p(O2|G,O1,E) into p(O1,O2|G,E) when O1 _||_ E | G.
Conditional-independence statements themselves are enumerated directly by
d-separation and merged into the record list.

A distribution lies in the nested Markov model of a graph iff it satisfies
every record exactly.  :func:`check_nested` takes the CI verdicts of
:func:`i_member` and evaluates each Verma recipe once, as a table over its
free variables (:meth:`Evaluator.table`), reading a witness off its blocks;
:func:`district_kernel` reads its kernel off one such table.
"""

from __future__ import annotations

from functools import lru_cache

from . import _EXPORTS
from .graphs import (
    _GRAPH_CACHE_SIZE,
    _restrict,
    CausalDag,
    CiConstraint,
    MDag,
    ci_constraints,
    d_separated,
    districts,
    marginal_mdag,
    subgraph,
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

__all__ = _EXPORTS["constraints"]


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
    """Drop d-separated conditioning variables from one conditional, in one
    sorted pass: d-separation satisfies intersection, so this backward
    elimination reaches the outcomes' unique Markov boundary within the
    given set, and a second pass would drop nothing."""
    if not isinstance(f, FactorExpr):
        return f
    given = set(f.given)
    for w in f.given:  # sorted, as FactorExpr keeps it
        if d_separated(dag, f.outcomes, {w}, given - {w}):
            given.remove(w)
    return factor(f.outcomes, given)


def _merge_chain(e: Expr, dag: CausalDag) -> Expr:
    """One chain merge p(O1|G) p(O2|G,O1,E) -> p(O1,O2|G,E) among the factors
    of a product, where O1 is d-separated from E given G."""
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
            rest = set(fj.given) - set(fi.given) - set(fi.outcomes)
            if d_separated(dag, fi.outcomes, rest, fi.given):
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
    (:func:`_merge_chain`).  No rewrite adds a variable occurrence and all but
    pulling factors outward remove one, so a form recurs only at the fixed
    point.  Sound for every distribution satisfying the CI constraints of
    the graph, which are checked alongside the Verma records.
    """
    e = simplify(e)
    key = canonical(e)
    while True:
        e = simplify(_rewrite(e, _reduce_factor, dag))
        e = simplify(_rewrite(e, _merge_chain, dag))
        last, key = key, canonical(e)
        if key == last:
            return e


# -- kernels -------------------------------------------------------------------


def _observed_order(dag: CausalDag, order=None) -> list[str]:
    order = list(topological_order(dag) if order is None else order)
    # latent names may appear, as topological_order lists them
    for i, v in enumerate(order):
        if not dag.has_vertex(v):
            raise ValueError(f"order lists unknown vertex {v}")
        if v in order[:i]:
            raise ValueError(f"order lists {v} twice")
    observed = set(dag.observed())
    out = [v for v in order if v in observed]
    if set(out) != observed:
        raise ValueError("order must cover all observed vertices")
    position = {v: i for i, v in enumerate(out)}
    for v in out:
        late = sorted(u for u in dag.parents(v) if position.get(u, -1) > position[v])
        if late:
            raise ValueError(f"order lists {v} before its parent {late[0]}")
    return out


def _chain_expr(order: list[str], within=None) -> Expr:
    """Tian's chain factors p(v | the vertices before v in ``order``), for
    every v or only for those in ``within``."""
    return product(
        factor((v,), order[:i]) for i, v in enumerate(order) if within is None or v in within
    )


def _kernel_conditional(k: Expr, v: str, present: list[str]) -> Expr:
    """Conditional of the current kernel on its random predecessors."""
    later = present[present.index(v) + 1 :]
    return simplify(quotient(sum_over(later, k), sum_over([v] + later, k)))


def district_kernel_recipe(
    dag: CausalDag, district: frozenset[str], order=None
) -> Expr:
    """Symbolic recipe of a top-level district kernel.

    Tian's district factorization: the product of the district's chain
    factors p(v | observed predecessors of v), reduced modulo the graph's
    conditional independences (:func:`reduce_expr`).  ``order`` must be a
    topological order of the observed vertices.
    """
    order = _observed_order(dag, order)
    subgraph(to_mdag(dag), district)  # refuses a set that is not a district
    return reduce_expr(_chain_expr(order, district), dag)


def district_kernel(
    table: Kernel, dag: CausalDag, district: frozenset[str], order=None
) -> Kernel:
    """Evaluate a district's kernel on a concrete observed joint.

    Returns the kernel over the district indexed by its observed parents,
    read off one table of the recipe, which by the ordered local Markov
    property has no other free variable.  Raises :class:`ZeroConditioningError`
    naming the first assignment where a required conditional is undefined.
    """
    _check_joint(table, dag, "district_kernel")
    recipe = district_kernel_recipe(dag, district, order)
    scenario = subgraph(to_mdag(dag), district)
    names = list(scenario.random_vertices + scenario.fixed_vertices)
    layout = [(v, table.cardinality(v)) for v in names]
    entries = Evaluator(table).table(recipe, names)
    for values, cell in zip(assignments(layout), entries):
        if cell is None:
            raise ZeroConditioningError(dict(zip(names, values)))
    return Kernel(layout[: len(district)], layout[len(district) :], tuple(entries))


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
    """Returns (witness or None, saw_indeterminate): the first context whose
    block of independent cells holds a defined cell and a differing one."""
    indep = sorted(record.independent_of)
    others = sorted(free_vars(record.recipe) - record.independent_of)
    cells = ev.table(record.recipe, others + indep)
    inner = list(assignments([(v, ev.cardinality(v)) for v in indep]))
    saw_none = False
    for i, values in enumerate(assignments([(v, ev.cardinality(v)) for v in others])):
        block = cells[i * len(inner) : (i + 1) * len(inner)]
        defined = [j for j, c in enumerate(block) if c is not None]
        saw_none = saw_none or len(defined) < len(block)
        differs = next((j for j in defined if block[j] != block[defined[0]]), None)
        if differs is not None:
            first = defined[0]
            witness = {
                "context": dict(zip(others, values)),
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
