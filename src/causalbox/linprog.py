"""Exact rational linear programming.

A :class:`LinearSystem` holds named non-negative unknowns, linear equalities
and an optional linear objective to maximize.  :func:`lp_solve` runs a
two-phase simplex with Bland's anti-cycling rule, so its verdicts are
proofs.  The simplex pivots on integers, fraction-free (Edmonds 1967;
Bareiss 1968): each row ``[A | b]`` is an integer vector that stands for
itself divided by a positive integer, the coefficient of the row's basic
variable, and the reduced-cost row carries one integer denominator.
Phase 1's reduced-cost row is minus the sum of the rows over their
denominators, one weighted column sum; phase 2's sums the basic rows with
a nonzero cost.  A row
need not be primitive: a pivot whose entry divides a row's entry in its
column subtracts an integer multiple of the pivot row at the pivot row's
nonzeros and leaves the rest of the row and its denominator alone.  Pivots
read only signs and cross-multiplied ratios, which scaling a row leaves
unchanged, so the pivot sequence is the one the same simplex takes on
``Fraction`` rows; ``Fraction`` appears only where the input is read and
where the :class:`LpResult` is built.  Phase 1's artificial variables have
no columns: they are tracked by basis id and, while basic, by their integer
coefficient in their row.  A system with a zero objective ends at phase 1's
point; the drive-out of zero-level artificials and the drop of redundant
rows happen only before a phase 2.

:func:`lp_solve` reads a system into those rows and hands them, with
phase 1's reduced-cost row :func:`_phase_one_zrow`, to the private core
``_solve``, which returns its value and basic point as integers.  Callers
that hold integer data already (the polytope LPs) build the rows and the
phase-1 row themselves and call the core directly: the vertex LPs solve
for den * w, den the target's denominator, over vertex rows reduced once
per vertex set, which moves only the right-hand sides and so takes the
same pivots; of the phase-1 row, only the objective value moves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Sequence

from . import _EXPORTS
from .tables import Record, _rational

__all__ = _EXPORTS["linprog"]


class LinearSystem(Record):
    """max objective . x  subject to  equalities, x >= 0.  Coefficients,
    right-hand sides and objective values are rationals (``Fraction`` or
    ``int``); anything else, a float or a bool included, raises ``TypeError``.
    ``equalities`` lists ``(coeffs, rhs)`` pairs and grows through
    :meth:`add_equality`, so a system is not hashable.  An absent
    ``objective`` is the empty dict."""

    variables: tuple[str, ...]
    equalities: list[tuple[dict[str, Fraction], Fraction]]
    objective: dict[str, Fraction]

    def __init__(
        self,
        variables: Sequence[str],
        equalities: Iterable[tuple[Mapping[str, Fraction], Fraction]] = (),
        objective: Mapping[str, Fraction] | None = None,
    ):
        variables, objective = tuple(variables), dict(objective or {})
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        unknown = set(objective) - set(variables)
        if unknown:
            raise ValueError(f"objective references undeclared variables {sorted(unknown)}")
        for v, c in objective.items():
            _rational(c, f"objective coefficient of {v}")
        super().__init__(variables, [], objective)
        for coeffs, rhs in equalities:
            self.add_equality(coeffs, rhs)

    def add_equality(self, coeffs: Mapping[str, Fraction], rhs) -> None:
        known = set(self.variables)
        unknown = set(coeffs) - known
        if unknown:
            raise ValueError(f"equality references undeclared variables {sorted(unknown)}")
        for v, c in coeffs.items():
            _rational(c, f"coefficient of {v}")
        rhs = _rational(rhs, f"right-hand side of the equality over {sorted(coeffs)}")
        self.equalities.append((dict(coeffs), rhs))


class LpResult(Record):
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    assignment: dict[str, Fraction] | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _lowest(row, den):
    """Divide an integer row and its positive denominator by their gcd."""
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _pivot(rows, dens, basis, r, c):
    """Make column c basic in row r.  Row i stands for ``rows[i] / dens[i]``;
    the last row is z, updated as one more row.

    The pivot row is made primitive with a positive pivot p, its
    denominator.  A row with f = row[c] != 0 becomes s*row - k*prow over
    s*den, where s = p/g and k = f/g for g = gcd(p, f).  When p divides f,
    s is 1: only the pivot row's nonzero positions change, in place, and
    the denominator is kept, so the row need not stay primitive.
    Otherwise the new row is reduced by :func:`_lowest`.  Neither gcd is
    computed where it is known to be 1: a pivot row whose pivot entry is
    +-1 is primitive, and gcd(1, f) is 1.
    """
    prow = rows[r]
    g = prow[c]
    if g != 1 and g != -1:
        # g < 0 only when a zero-level artificial is driven out
        g = gcd(*prow) if g > 0 else -gcd(*prow)
    if g != 1:
        prow = rows[r] = [v // g for v in prow]
    p = dens[r] = prow[c]
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            g = 1 if p == 1 else gcd(p, f)
            s, k = p // g, f // g
            if s == 1:
                for j, v in nonzero:
                    row[j] -= k * v
            else:
                rows[i], dens[i] = _lowest([s * a - k * b for a, b in zip(row, prow)], s * dens[i])
    basis[r] = c


def _zrow(rows, dens, basis, costs, n):
    """Reduced-cost row z_j - c_j over the n columns, objective value last,
    as integers over one positive denominator: one weighted sum down each
    column of the basic rows with a nonzero cost, less the costs.  Phase 2
    reads it; phase 1 starts from :func:`_phase_one_zrow`."""
    terms = [(costs[b], row, d) for row, b, d in zip(rows, basis, dens) if costs[b]]
    den = lcm(*(c.denominator for c in costs[:n]), *(c.denominator * d for c, _, d in terms))
    weights = [c.numerator * (den // (c.denominator * d)) for c, _, d in terms]
    z = [sum(map(mul, weights, col)) for col in zip(*(row for _, row, _ in terms))]
    z = z or [0] * (n + 1)
    for j, c in enumerate(costs[:n]):
        if c:
            z[j] -= c.numerator * (den // c.denominator)
    return _lowest(z, den)


def _phase_one_zrow(rows, dens, n):
    """Phase 1's reduced-cost row: :func:`_zrow` for the basis of all
    artificials, each at cost -1, and the n columns at cost 0.  That row is
    minus the sum of the rows over their denominators, so it is one
    weighted column sum over ``lcm(dens)``; with no rows it is all zero."""
    den = lcm(*dens)
    weights = [den // d for d in dens]
    z = [-sum(map(mul, weights, col)) for col in zip(*rows)]
    return _lowest(z or [0] * (n + 1), den)


def _run_simplex(rows, dens, basis):
    """Bland's rule pivots until optimal or unbounded.  Only the signs of z
    are read, and ratios b_i / a_i are compared by cross-multiplication.
    Basic columns have reduced cost exactly 0, so the entering column is
    never basic."""
    while True:
        z = rows[-1]
        enter = next((j for j, v in enumerate(z) if v < 0), len(z) - 1)
        if enter == len(z) - 1:  # the objective value is no column
            return "optimal"
        leave, num, den = -1, 0, 1
        for i, bi in enumerate(basis):
            row = rows[i]
            a = row[enter]
            if a > 0:
                cmp = row[-1] * den - num * a
                if leave < 0 or cmp < 0 or (cmp == 0 and bi < basis[leave]):
                    leave, num, den = i, row[-1], a
        if leave < 0:
            return "unbounded"
        _pivot(rows, dens, basis, leave, enter)


def lp_solve(system: LinearSystem) -> LpResult:
    """Two-phase exact simplex over the rationals.

    Phase 1 finds a basic feasible point.  With a zero objective that point
    is the answer; otherwise zero-level artificials are driven out,
    redundant equality rows dropped, and phase 2 maximizes the objective.
    Bland's pivot rule guarantees termination on degenerate systems.
    """
    names = system.variables
    n = len(names)
    pos = {v: j for j, v in enumerate(names)}
    rows, dens = [], []
    for coeffs, rhs in system.equalities:
        # scaled by the lcm d of its denominators, the row's artificial has coefficient d
        d = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
        row = [0] * n + [rhs.numerator * (d // rhs.denominator)]
        for v, c in coeffs.items():
            row[pos[v]] = c.numerator * (d // c.denominator)
        row, d = _lowest(row if row[-1] >= 0 else [-v for v in row], d)
        rows.append(row)
        dens.append(d)
    costs = [Fraction(0)] * n
    for v, c in system.objective.items():
        costs[pos[v]] = Fraction(c)
    status, value, basic = _solve(rows, dens, costs, _phase_one_zrow(rows, dens, n))
    if basic is None:
        return LpResult(status)
    x = [Fraction(0)] * n
    for j, a, d in basic:
        x[j] = Fraction(a, d)
    return LpResult(status, Fraction(*value), dict(zip(names, x)))


def _solve(rows, dens, costs, phase_one):
    """The two-phase simplex on integer rows: maximize ``costs . x`` subject
    to ``rows[i][:-1] . x = rows[i][-1]`` over ``dens[i]``, x >= 0.

    Each row has a non-negative right-hand side and is reduced with its
    denominator by :func:`_lowest`; ``costs`` holds one rational per
    column.  ``phase_one`` is :func:`_phase_one_zrow` of the rows, which
    the caller builds and the core trusts: its column part depends only on
    the rows' coefficients, so a caller that solves many LPs over one
    matrix builds that part once.  The lists and the rows in them,
    ``phase_one``'s row included, are consumed: pivots update rows in
    place.

    Returns ``(status, value, basic)``, the last two ``None`` unless the
    status is ``"optimal"``, as integers: ``value`` is the pair
    ``(numerator, denominator)``, and ``basic`` lists ``(j, a, d)`` for
    each basic column j, at a / d; every other column is at 0.

    Phase 1 maximizes minus the sum of the artificials, all of them basic
    at the start.  When every cost is zero, phase 1's point is the answer,
    with value 0: the drive-out of zero-level artificials, the drop of
    redundant rows and phase 2 run only when some cost is nonzero.
    Skipping them changes no result, since a drive-out pivot is on a row
    whose right-hand side is 0 and so moves no basic value.
    """
    n, m = len(costs), len(rows)
    basis = [n + i for i in range(m)]
    z, zden = phase_one
    rows.append(z)
    dens.append(zden)
    if _run_simplex(rows, dens, basis) != "optimal":
        raise RuntimeError("phase 1 is bounded by construction but ended unbounded")
    if rows[-1][-1] != 0:
        return "infeasible", None, None
    if any(costs):
        # drive zero-level artificials out; a row left on one is a redundant equality
        for i in range(m):
            if basis[i] >= n:
                entering = next((j for j in range(n) if rows[i][j]), None)
                if entering is not None:
                    _pivot(rows, dens, basis, i, entering)
        kept = [i for i, b in enumerate(basis) if b < n]
        rows, dens = [rows[i] for i in kept], [dens[i] for i in kept]
        basis = [basis[i] for i in kept]

        # phase 2 on the same rows
        z, zden = _zrow(rows, dens, basis, costs, n)
        rows.append(z)
        dens.append(zden)
        if _run_simplex(rows, dens, basis) == "unbounded":
            return "unbounded", None, None
    # an artificial left basic after phase 1 is at 0; at phase 1's end z's value is 0
    basic = [(b, row[-1], d) for row, b, d in zip(rows, basis, dens) if b < n]
    return "optimal", (rows[-1][-1], dens[-1]), basic
