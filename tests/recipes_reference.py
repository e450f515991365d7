"""Earlier versions of the recipe layer, kept verbatim as references for the
differential tests in ``test_constraints.py``.

* ``Evaluator`` is the scalar recipe evaluator that ``causalbox.recipes``
  used before its table path.  It evaluates one assignment at a time by
  recursion, with dict environments and two name-keyed ``Kernel.value``
  lookups per factor.
* ``simplify`` and ``reduce_expr`` are the recipe normalizer before it was
  one rewrite walker: ``_merge_in_products`` walks the tree a second time to
  merge chains, with ``_expandable`` building the extended conditional, and
  ``simplify`` still has its dead branches.  ``reduce_expr`` drops
  conditioning variables with the multi-pass
  ``constraints_reference._reduce_factor``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from causalbox.constraints import _rewrite
from causalbox.graphs import CausalDag, d_separated
from causalbox.recipes import (
    UNIT,
    Expr,
    FactorExpr,
    ProductExpr,
    QuotientExpr,
    SumExpr,
    _collapse_sums,
    _split_sum_nest,
    canonical,
    factor,
    free_vars,
    product,
    quotient,
    sum_over,
)
from causalbox.tables import Kernel, marginalize
from constraints_reference import _reduce_factor


class Evaluator:
    """Exact evaluation of recipes against a base probability table.

    ``evaluate`` returns ``None`` for indeterminate expressions, i.e. when a
    conditional's conditioning event has probability zero and no exactly
    zero factor annihilates the term first.
    """

    def __init__(self, table: Kernel):
        if not table.is_prob_table:
            raise ValueError("recipes evaluate against a joint probability table")
        self._table = table
        self._names = set(table.var_names())
        self._margins: dict[frozenset[str], Kernel] = {}

    def cardinality(self, name: str) -> int:
        return self._table.cardinality(name)

    def _margin(self, keep: frozenset[str]) -> Kernel:
        if keep not in self._margins:
            drop = [n for n in self._table.var_names() if n not in keep]
            self._margins[keep] = marginalize(self._table, drop)
        return self._margins[keep]

    def _factor_value(self, f: FactorExpr, env: Mapping[str, int]) -> Fraction | None:
        keep = frozenset(f.outcomes) | frozenset(f.given)
        unknown = keep - self._names
        if unknown:
            raise KeyError(f"recipe references unknown variables {sorted(unknown)}")
        joint = self._margin(keep).value({v: env[v] for v in keep})
        if not f.given:
            return joint
        denom = self._margin(frozenset(f.given)).value({v: env[v] for v in f.given})
        if denom == 0:
            return None
        return joint / denom

    def evaluate(self, e: Expr, env: Mapping[str, int]) -> Fraction | None:
        if isinstance(e, FactorExpr):
            return self._factor_value(e, env)
        if isinstance(e, ProductExpr):
            acc = Fraction(1)
            pending = False
            for f in e.factors:
                v = self.evaluate(f, env)
                if v is None:
                    pending = True
                elif v == 0:
                    return Fraction(0)
                else:
                    acc *= v
            return None if pending else acc
        if isinstance(e, SumExpr):
            total = Fraction(0)
            env2 = dict(env)
            for value in range(self.cardinality(e.var)):
                env2[e.var] = value
                v = self.evaluate(e.body, env2)
                if v is None:
                    return None
                total += v
            return total
        den = self.evaluate(e.den, env)
        if den is None or den == 0:
            return None
        num = self.evaluate(e.num, env)
        if num is None:
            return None
        return num / den


def simplify(e: Expr) -> Expr:
    if isinstance(e, FactorExpr):
        return e if e.outcomes else UNIT
    if isinstance(e, ProductExpr):
        return product(simplify(f) for f in e.factors)
    if isinstance(e, SumExpr):
        bound, core = _split_sum_nest(e)
        core = simplify(core)
        inner_bound, inner_core = _split_sum_nest(core)
        bound += inner_bound
        core = inner_core
        bound, core = _collapse_sums(bound, core)
        if not bound:
            return core
        # pull factors not mentioning any bound variable out of the sum
        parts = list(core.factors) if isinstance(core, ProductExpr) else [core]
        outside = [p for p in parts if not (free_vars(p) & set(bound))]
        inside = [p for p in parts if free_vars(p) & set(bound)]
        if outside and inside:
            return product(outside + [sum_over(bound, product(inside))])
        if not inside:
            # bound variables vanished without a collapse; keep the sum to
            # preserve the expression's value (cannot happen for recipes
            # built by this library, sums are only introduced over free
            # variables)
            return sum_over(bound, core)
        return sum_over(bound, product(inside))
    # quotient
    num = simplify(e.num)
    den = simplify(e.den)
    if den == UNIT:
        return num
    if canonical(num) == canonical(den):
        return UNIT
    num_parts = list(num.factors) if isinstance(num, ProductExpr) else [num]
    den_parts = list(den.factors) if isinstance(den, ProductExpr) else [den]
    # cancel identical factors
    changed = False
    for d in list(den_parts):
        for i, n in enumerate(num_parts):
            if canonical(n) == canonical(d):
                num_parts.pop(i)
                den_parts.remove(d)
                changed = True
                break
    if changed:
        return simplify(
            quotient(product(num_parts) if num_parts else UNIT,
                     product(den_parts) if den_parts else UNIT)
        )
    # quotient of nested conditionals: p(O, O' | G) / p(O | G) = p(O' | G, O)
    if (
        len(num_parts) == 1
        and len(den_parts) == 1
        and isinstance(num_parts[0], FactorExpr)
        and isinstance(den_parts[0], FactorExpr)
    ):
        n, d = num_parts[0], den_parts[0]
        if n.given == d.given and set(d.outcomes) < set(n.outcomes):
            rest = tuple(o for o in n.outcomes if o not in d.outcomes)
            return factor(rest, n.given + d.outcomes)
    return quotient(num, den)


def _expandable(f: FactorExpr, extra: set[str], dag: CausalDag) -> FactorExpr | None:
    """Conditioning set extension p(O|G) -> p(O|G, extra), justified by
    d-separation, or None if some variable cannot be added."""
    given = set(f.given)
    for e in sorted(extra):
        if e in given or e in f.outcomes:
            return None
        if not d_separated(dag, set(f.outcomes), {e}, given):
            return None
        given.add(e)
    return FactorExpr(f.outcomes, tuple(given))


def _merge_in_products(e: Expr, dag: CausalDag) -> Expr:
    """Try one chain merge p(O1|G) p(O2|G,O1) -> p(O1,O2|G) somewhere,
    extending conditioning sets by d-separated variables where needed."""
    if isinstance(e, ProductExpr):
        parts = list(e.factors)
        for j, fj in enumerate(parts):
            if not isinstance(fj, FactorExpr):
                continue
            for i, fi in enumerate(parts):
                if i == j or not isinstance(fi, FactorExpr):
                    continue
                if not set(fi.outcomes) <= set(fj.given):
                    continue
                if not set(fi.given) <= set(fj.given):
                    continue
                extra = set(fj.given) - set(fi.given) - set(fi.outcomes)
                expanded = _expandable(fi, extra, dag) if extra else fi
                if expanded is None:
                    continue
                merged = factor(
                    fi.outcomes + fj.outcomes,
                    tuple(set(fj.given) - set(fi.outcomes)),
                )
                rest = [p for k, p in enumerate(parts) if k not in (i, j)]
                return product(rest + [merged])
        return product(
            [_merge_in_products(p, dag) for p in e.factors]
        )
    if isinstance(e, SumExpr):
        return SumExpr(e.var, _merge_in_products(e.body, dag))
    if isinstance(e, QuotientExpr):
        return quotient(_merge_in_products(e.num, dag), _merge_in_products(e.den, dag))
    return e


def reduce_expr(e: Expr, dag: CausalDag) -> Expr:
    """Normalize a recipe modulo the graph's conditional independences.

    Alternates structural simplification with d-separation justified
    rewrites (conditioning-set reduction, chain merges) until a fixed
    point.  Sound for every distribution satisfying the CI constraints of
    the graph, which are checked alongside the Verma records.
    """
    e = simplify(e)
    seen = {canonical(e)}
    while True:
        e2 = simplify(_rewrite(e, _reduce_factor, dag))
        e2 = simplify(_merge_in_products(e2, dag))
        key = canonical(e2)
        if key in seen:
            return e2
        seen.add(key)
        e = e2
