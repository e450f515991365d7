"""The scalar recipe evaluator that ``causalbox.recipes`` used before its
table path, kept verbatim as the reference for the differential test in
``test_constraints.py``.  It evaluates one assignment at a time by recursion,
with dict environments and two name-keyed ``Kernel.value`` lookups per
factor.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from causalbox.recipes import Expr, FactorExpr, ProductExpr, SumExpr
from causalbox.tables import Kernel, marginalize


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
