"""The dense two-phase simplex that ``causalbox.linprog`` used before its
sparse rows, kept verbatim (with ``_RAT = Fraction``) as the reference for
the differential tests in ``test_linprog.py``.  It stores m artificial
columns, updates every column of every row on each pivot and slices the
artificial columns off before phase 2.  ``LinearSystem`` and ``LpResult``
are the package's own, so results compare with ``==``.
"""

from __future__ import annotations

from fractions import Fraction

from causalbox.linprog import LinearSystem, LpResult

_RAT = Fraction

_ZERO = _RAT(0)
_ONE = _RAT(1)


def _pivot(rows, ztail, basis, r, c):
    piv = rows[r][c]
    if piv != _ONE:
        inv = _ONE / piv
        rows[r] = [v * inv for v in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[c]
        if f != _ZERO:
            rows[i] = [v - f * p for v, p in zip(row, prow)]
    f = ztail[c]
    if f != _ZERO:
        ztail[:] = [v - f * p for v, p in zip(ztail, prow)]
    basis[r] = c


def _zrow(rows, basis, costs, width):
    """Reduced-cost row z_j - c_j plus the objective value in the last slot."""
    z = [-costs[j] for j in range(width)] + [_ZERO]
    for i, bi in enumerate(basis):
        cb = costs[bi]
        if cb != _ZERO:
            row = rows[i]
            for j in range(width + 1):
                if row[j] != _ZERO:
                    z[j] += cb * row[j]
    return z


def _run_simplex(rows, ztail, basis, ncols):
    """Bland's rule pivots until optimal or unbounded."""
    while True:
        enter = -1
        for j in range(ncols):
            if j in basis:
                continue
            if ztail[j] < _ZERO:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave, best, best_var = -1, None, None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > _ZERO:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < best_var):
                    leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        _pivot(rows, ztail, basis, leave, enter)


def lp_solve(system: LinearSystem) -> LpResult:
    """Two-phase exact simplex over the rationals.

    Phase 1 finds a basic feasible point (artificial variables, redundant
    equality rows are detected and dropped); phase 2 maximizes the objective.
    Bland's pivot rule guarantees termination on degenerate systems.
    """
    names = system.variables
    n = len(names)
    pos = {v: j for j, v in enumerate(names)}
    m = len(system.equalities)

    rows = []
    for coeffs, rhs in system.equalities:
        row = [_ZERO] * (n + m) + [_RAT(rhs)]
        for v, c in coeffs.items():
            row[pos[v]] = _RAT(c)
        rows.append(row)
    # flip rows to make the right-hand side non-negative
    for i, row in enumerate(rows):
        if row[-1] < _ZERO:
            rows[i] = [-v for v in row]
    for i in range(m):
        rows[i][n + i] = _ONE
    basis = [n + i for i in range(m)]

    # phase 1: maximize minus the sum of artificials
    costs1 = [_ZERO] * n + [-_ONE] * m
    ztail = _zrow(rows, basis, costs1, n + m)
    status = _run_simplex(rows, ztail, basis, n + m)
    if status != "optimal":
        raise RuntimeError(f"phase 1 is bounded by construction but ended {status}")
    if ztail[-1] != _ZERO:
        return LpResult("infeasible")

    # drive leftover zero-level artificials out of the basis
    drop = []
    for i in range(m):
        if basis[i] >= n:
            entering = next((j for j in range(n) if rows[i][j] != _ZERO), None)
            if entering is None:
                drop.append(i)  # redundant equality
            else:
                _pivot(rows, ztail, basis, i, entering)
    for i in sorted(drop, reverse=True):
        del rows[i]
        del basis[i]

    # phase 2 on the original columns
    rows = [row[:n] + [row[-1]] for row in rows]
    objective = system.objective or {}
    costs2 = [_ZERO] * n
    for v, c in objective.items():
        costs2[pos[v]] = _RAT(c)
    ztail = _zrow(rows, basis, costs2, n)
    status = _run_simplex(rows, ztail, basis, n)
    if status == "unbounded":
        return LpResult("unbounded")

    assignment = {v: Fraction(0) for v in names}
    for i, bi in enumerate(basis):
        num = rows[i][-1]
        assignment[names[bi]] = Fraction(num.numerator, num.denominator)
    value = ztail[-1]
    return LpResult("optimal", Fraction(value.numerator, value.denominator), assignment)
