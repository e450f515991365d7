"""Exact rational linear programming.

A :class:`LinearSystem` holds named non-negative unknowns, linear equalities
and an optional linear objective to maximize.  :func:`lp_solve` runs a
two-phase simplex with Bland's anti-cycling rule on exact
:class:`fractions.Fraction` rows ``[A | b]``, so its verdicts are proofs.
A pivot touches only the nonzero columns of the pivot row, and phase 1's
artificial variables have no columns: they are tracked by basis id alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

__all__ = ["LinearSystem", "LpResult", "lp_solve"]


@dataclass
class LinearSystem:
    """max objective . x  subject to  equalities, x >= 0."""

    variables: tuple[str, ...]
    equalities: list[tuple[dict[str, Fraction], Fraction]] = field(default_factory=list)
    objective: dict[str, Fraction] | None = None

    def __post_init__(self):
        self.variables = tuple(self.variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        unknown = set(self.objective or ()) - set(self.variables)
        if unknown:
            raise ValueError(f"objective references undeclared variables {sorted(unknown)}")

    def add_equality(self, coeffs: Mapping[str, Fraction], rhs) -> None:
        known = set(self.variables)
        unknown = set(coeffs) - known
        if unknown:
            raise ValueError(f"equality references undeclared variables {sorted(unknown)}")
        self.equalities.append((dict(coeffs), Fraction(rhs)))


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    assignment: dict[str, Fraction] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(rows, z, basis, r, c):
    """Make column c basic in row r; z is updated as one more row."""
    prow = rows[r]
    nonzero = [j for j, v in enumerate(prow) if v]
    piv = prow[c]
    for j in nonzero:
        prow[j] /= piv
    for row in (*rows, z):
        f = row[c]
        if f and row is not prow:
            for j in nonzero:
                row[j] -= f * prow[j]
    basis[r] = c


def _zrow(rows, basis, costs, n):
    """Reduced-cost row z_j - c_j over the n columns, objective value last."""
    z = [-costs[j] for j in range(n)] + [Fraction(0)]
    for row, bi in zip(rows, basis):
        cb = costs[bi]
        if cb:
            for j, v in enumerate(row):
                if v:
                    z[j] += cb * v
    return z


def _run_simplex(rows, z, basis):
    """Bland's rule pivots until optimal or unbounded.  Basic columns have
    reduced cost exactly 0, so the entering column is never basic."""
    while True:
        enter = next((j for j, v in enumerate(z[:-1]) if v < 0), None)
        if enter is None:
            return "optimal"
        leave, best, best_var = -1, None, None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < best_var):
                    leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        _pivot(rows, z, basis, leave, enter)


def lp_solve(system: LinearSystem) -> LpResult:
    """Two-phase exact simplex over the rationals.

    Phase 1 finds a basic feasible point and drops redundant equality rows;
    phase 2 maximizes the objective.  Bland's pivot rule guarantees
    termination on degenerate systems.
    """
    names = system.variables
    n, m = len(names), len(system.equalities)
    pos = {v: j for j, v in enumerate(names)}
    rows = []
    for coeffs, rhs in system.equalities:
        row = [Fraction(0)] * n + [Fraction(rhs)]
        for v, c in coeffs.items():
            row[pos[v]] = Fraction(c)
        rows.append(row if row[-1] >= 0 else [-v for v in row])

    # phase 1 maximizes minus the sum of the artificials: z is minus the column sums
    basis = [n + i for i in range(m)]
    z = _zrow(rows, basis, [0] * n + [-1] * m, n)
    if _run_simplex(rows, z, basis) != "optimal":
        raise RuntimeError("phase 1 is bounded by construction but ended unbounded")
    if z[-1] != 0:
        return LpResult("infeasible")
    # drive zero-level artificials out; a row left on one is a redundant equality
    for i in range(m):
        if basis[i] >= n:
            entering = next((j for j in range(n) if rows[i][j]), None)
            if entering is not None:
                _pivot(rows, z, basis, i, entering)
    rows, basis = [r for r, b in zip(rows, basis) if b < n], [b for b in basis if b < n]

    # phase 2 on the same rows
    costs = [Fraction(0)] * n
    for v, c in (system.objective or {}).items():
        costs[pos[v]] = Fraction(c)
    z = _zrow(rows, basis, costs, n)
    if _run_simplex(rows, z, basis) == "unbounded":
        return LpResult("unbounded")
    assignment = dict.fromkeys(names, Fraction(0))
    assignment.update((names[bi], row[-1]) for row, bi in zip(rows, basis))
    return LpResult("optimal", z[-1], assignment)
