"""Symbolic kernel recipes over an observed joint distribution.

The nested Markov recursion derives probability kernels from the observed
joint by chain-rule factorization, marginalization of childless vertices and
district extraction.  This module represents such kernels as small
expression trees built from conditionals of the base distribution:

* :class:`FactorExpr` - a conditional p(outcomes | given) of the base joint,
* :class:`ProductExpr` - a product of sub-expressions,
* :class:`SumExpr` - a sum over all values of one bound variable,
* :class:`QuotientExpr` - an exact quotient.

Structural simplification keeps recipes in the familiar flat form
``sum_{a} p(a|x) p(c|x,a,b)`` wherever the underlying identities allow:
summing a variable that appears only as the outcome of one factor drops that
factor, factors independent of the bound variables are pulled out of sums,
common factors cancel in quotients, and quotients of nested conditionals
collapse to a single conditional.

:class:`Evaluator` evaluates a recipe exactly and once over a layout of
variables, as a flat table in the mixed-radix order of :mod:`causalbox.tables`;
a cell is indeterminate where a conditioning event has probability zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Mapping, Sequence

from .tables import Kernel, Record, Var, _index_map, _position, _set, _sums

__all__ = [
    "Expr",
    "FactorExpr",
    "ProductExpr",
    "SumExpr",
    "QuotientExpr",
    "UNIT",
    "factor",
    "product",
    "sum_over",
    "quotient",
    "simplify",
    "free_vars",
    "canonical",
    "render",
    "Evaluator",
]


class FactorExpr(Record):
    """Conditional p(outcomes | given) of the base observed joint."""

    outcomes: tuple[str, ...]
    given: tuple[str, ...]

    def __init__(self, outcomes, given):
        outcomes, given = tuple(sorted(outcomes)), tuple(sorted(given))
        if set(outcomes) & set(given):
            raise ValueError("outcomes and given overlap")
        _set(self, "outcomes", outcomes)
        _set(self, "given", given)


class ProductExpr(Record):
    factors: tuple["Expr", ...]


class SumExpr(Record):
    var: str
    body: "Expr"


class QuotientExpr(Record):
    num: "Expr"
    den: "Expr"


Expr = FactorExpr | ProductExpr | SumExpr | QuotientExpr

UNIT = ProductExpr(())


def factor(outcomes: Iterable[str], given: Iterable[str] = ()) -> Expr:
    outcomes = tuple(outcomes)
    if not outcomes:
        return UNIT
    return FactorExpr(outcomes, tuple(given))


def product(parts: Iterable[Expr]) -> Expr:
    flat: list[Expr] = []
    for p in parts:
        if isinstance(p, ProductExpr):
            flat.extend(p.factors)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return ProductExpr(tuple(flat))


def sum_over(variables: Iterable[str], body: Expr) -> Expr:
    e = body
    for v in sorted(variables, reverse=True):
        e = SumExpr(v, e)
    return e


def quotient(num: Expr, den: Expr) -> Expr:
    if den == UNIT:
        return num
    return QuotientExpr(num, den)


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, FactorExpr):
        return frozenset(e.outcomes) | frozenset(e.given)
    if isinstance(e, ProductExpr):
        out: frozenset[str] = frozenset()
        for f in e.factors:
            out |= free_vars(f)
        return out
    if isinstance(e, SumExpr):
        return free_vars(e.body) - {e.var}
    return free_vars(e.num) | free_vars(e.den)


def canonical(e: Expr):
    """Hashable normal form: factor lists and bound variables sorted."""
    if isinstance(e, FactorExpr):
        return ("p", e.outcomes, e.given)
    if isinstance(e, ProductExpr):
        return ("*",) + tuple(sorted(canonical(f) for f in e.factors))
    if isinstance(e, SumExpr):
        return ("sum", e.var, canonical(e.body))
    return ("/", canonical(e.num), canonical(e.den))


# -- simplification ----------------------------------------------------------


def _split_sum_nest(e: Expr) -> tuple[list[str], Expr]:
    bound = []
    while isinstance(e, SumExpr):
        bound.append(e.var)
        e = e.body
    return bound, e


def _collapse_sums(bound: list[str], core: Expr) -> tuple[list[str], Expr]:
    """Drop bound variables that only appear as the outcomes of one factor."""
    parts = list(core.factors) if isinstance(core, ProductExpr) else [core]
    changed = True
    while changed:
        changed = False
        for v in list(bound):
            hits = [
                i
                for i, f in enumerate(parts)
                if v in free_vars(f)
            ]
            if len(hits) != 1:
                continue
            f = parts[hits[0]]
            if isinstance(f, FactorExpr) and v in f.outcomes:
                rest = tuple(o for o in f.outcomes if o != v)
                parts[hits[0]] = factor(rest, f.given)
                bound.remove(v)
                changed = True
    return bound, product([p for p in parts if p != UNIT])


def simplify(e: Expr) -> Expr:
    if isinstance(e, FactorExpr):
        return e if e.outcomes else UNIT
    if isinstance(e, ProductExpr):
        return product(simplify(f) for f in e.factors)
    if isinstance(e, SumExpr):
        bound, core = _split_sum_nest(e)
        inner_bound, core = _split_sum_nest(simplify(core))
        bound, core = _collapse_sums(bound + inner_bound, core)
        if not bound:
            return core
        # pull factors not mentioning any bound variable out of the sum
        parts = list(core.factors) if isinstance(core, ProductExpr) else [core]
        outside = [p for p in parts if not (free_vars(p) & set(bound))]
        inside = [p for p in parts if free_vars(p) & set(bound)]
        return product(outside + [sum_over(bound, product(inside))])
    # quotient
    num = simplify(e.num)
    den = simplify(e.den)
    if den == UNIT:
        return num
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
        return simplify(quotient(product(num_parts), product(den_parts)))
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


# -- rendering ---------------------------------------------------------------


def render(e: Expr) -> str:
    if isinstance(e, FactorExpr):
        if e.given:
            return f"p({','.join(e.outcomes)}|{','.join(e.given)})"
        return f"p({','.join(e.outcomes)})"
    if isinstance(e, ProductExpr):
        if not e.factors:
            return "1"
        return " ".join(
            f"[{render(f)}]" if isinstance(f, (QuotientExpr, SumExpr)) else render(f)
            for f in e.factors
        )
    if isinstance(e, SumExpr):
        bound, core = _split_sum_nest(e)
        return f"sum_{{{','.join(bound)}}} {render(core)}"
    return f"[{render(e.num)}] / [{render(e.den)}]"


# -- evaluation ---------------------------------------------------------------

_ZERO, _ONE = Fraction(0), Fraction(1)


class Evaluator:
    """Exact evaluation of recipes against a base probability table.

    :meth:`table` lays a recipe out as a flat list, last variable fastest.
    A factor reads its cached margins through ``tables._index_map``;
    products and quotients combine cell by cell; a sum adds consecutive
    blocks of its body, laid out with the bound variable last.  A cell is
    ``None`` where a conditional's conditioning event has probability zero
    and no exactly zero factor annihilates the term first.
    """

    def __init__(self, table: Kernel):
        if not table.is_prob_table:
            raise ValueError("recipes evaluate against a joint probability table")
        self._table = table
        self._margins: dict[tuple[Var, ...], list[Fraction]] = {}

    def cardinality(self, name: str) -> int:
        return self._table.cardinality(name)

    def _margin(self, keep: Sequence[str], layout: tuple[Var, ...]) -> list[Fraction]:
        """The (cached) margin over ``keep``, read out over ``layout``."""
        kept = tuple(v for v in self._table.variables if v[0] in keep)
        margin = self._margins.get(kept)
        if margin is None:
            margin = self._margins[kept] = _sums(self._table.entries, self._table.variables, kept)
        return [margin[p] for p in _index_map(layout, kept)]

    def table(self, e: Expr, names: Sequence[str]) -> list[Fraction | None]:
        """Values of ``e`` at every assignment of ``names``, which must cover
        its free variables, in mixed-radix order."""
        missing = free_vars(e) - set(names)
        if missing:
            raise KeyError(f"layout misses free variables {sorted(missing)}")
        return self._cells(e, tuple((n, self.cardinality(n)) for n in names))

    def _cells(self, e: Expr, layout: tuple[Var, ...]) -> list[Fraction | None]:
        if isinstance(e, FactorExpr):
            joint = self._margin(e.outcomes + e.given, layout)
            if not e.given:
                return joint
            dens = self._margin(e.given, layout)
            return [None if d == 0 else j / d for j, d in zip(joint, dens)]
        if isinstance(e, ProductExpr):
            out = [_ONE] * prod(c for _, c in layout)
            for f in e.factors:
                out = [
                    _ZERO if a == 0 or b == 0 else None if a is None or b is None else a * b
                    for a, b in zip(out, self._cells(f, layout))
                ]
            return out
        if isinstance(e, SumExpr):
            card = self.cardinality(e.var)
            outer = tuple(v for v in layout if v[0] != e.var)
            body = self._cells(e.body, outer + ((e.var, card),))
            sums = [
                None if None in body[i : i + card] else sum(body[i : i + card], _ZERO)
                for i in range(0, len(body), card)
            ]
            if len(outer) < len(layout):  # the bound variable shadowed a free one
                sums = [sums[p] for p in _index_map(layout, outer)]
            return sums
        dens, nums = self._cells(e.den, layout), self._cells(e.num, layout)
        return [None if d is None or d == 0 or n is None else n / d for n, d in zip(nums, dens)]

    def evaluate(self, e: Expr, env: Mapping[str, int]) -> Fraction | None:
        """Value of ``e`` at ``env``, looked up in its table over its free variables."""
        names = sorted(free_vars(e))
        return self.table(e, names)[_position([(n, self.cardinality(n)) for n in names], env)]
