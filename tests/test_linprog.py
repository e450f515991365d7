"""Exact simplex: optimality, infeasibility, unboundedness, degeneracy."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalbox import (
    LinearSystem,
    chsh_graph,
    classical_member,
    decompose_ns_box,
    gyni_graph,
    gyni_projected,
    instrumental_graph,
    join_inputs,
    lp_solve,
    ns_box_vertices,
    pr_box,
    ps_system,
    random_network,
    tripartite_bell_graph,
    uniform_table,
)
from causalbox import linprog
from causalbox.linprog import _lowest, _pivot, _zrow
import lp_reference
from conftest import polytope_lps, recorded_pivots, score2_table


def test_bounded_maximum():
    system = LinearSystem(("x", "s"), objective={"x": Fraction(1)})
    system.add_equality({"x": Fraction(1), "s": Fraction(1)}, Fraction(3, 4))
    result = lp_solve(system)
    assert result.is_optimal
    assert result.value == Fraction(3, 4)
    assert result.assignment["x"] == Fraction(3, 4)


def test_infeasible_system():
    system = LinearSystem(("x",))
    system.add_equality({"x": Fraction(1)}, Fraction(1))
    system.add_equality({"x": Fraction(1)}, Fraction(2))
    assert lp_solve(system).status == "infeasible"


def test_negative_rhs_is_infeasible_with_nonneg_vars():
    system = LinearSystem(("x",))
    system.add_equality({"x": Fraction(1)}, Fraction(-1))
    assert lp_solve(system).status == "infeasible"


def test_unbounded_objective():
    system = LinearSystem(("x", "y"), objective={"x": Fraction(1)})
    system.add_equality({"y": Fraction(1)}, Fraction(1))
    assert lp_solve(system).status == "unbounded"


def test_redundant_equalities_terminate():
    system = LinearSystem(("x", "y"), objective={"x": Fraction(1), "y": Fraction(1)})
    system.add_equality({"x": Fraction(1), "y": Fraction(1)}, Fraction(1))
    system.add_equality({"x": Fraction(2), "y": Fraction(2)}, Fraction(2))
    system.add_equality({"x": Fraction(3), "y": Fraction(3)}, Fraction(3))
    result = lp_solve(system)
    assert result.is_optimal
    assert result.value == 1


def test_degenerate_vertex_with_blands_rule():
    # multiple bases describe the same point; Bland's rule must not cycle
    system = LinearSystem(
        ("x", "y", "z"), objective={"x": Fraction(3, 4), "y": Fraction(1, 5)}
    )
    system.add_equality({"x": Fraction(1), "y": Fraction(1), "z": Fraction(1)}, Fraction(0))
    result = lp_solve(system)
    assert result.is_optimal
    assert result.value == 0


def test_exact_rationals_no_drift():
    system = LinearSystem(("a", "b", "s"), objective={"a": Fraction(1)})
    system.add_equality(
        {"a": Fraction(1, 3), "b": Fraction(1, 7), "s": Fraction(1)}, Fraction(22, 21)
    )
    system.add_equality({"b": Fraction(1)}, Fraction(1))
    result = lp_solve(system)
    assert result.is_optimal
    # a = 3 * (22/21 - 1/7) = 19/7
    assert result.value == Fraction(19, 7)


def test_feasibility_only_system():
    system = LinearSystem(("x", "y"))
    system.add_equality({"x": Fraction(1), "y": Fraction(2)}, Fraction(1))
    result = lp_solve(system)
    assert result.is_optimal
    assert result.value == 0
    x, y = result.assignment["x"], result.assignment["y"]
    assert x + 2 * y == 1 and x >= 0 and y >= 0


def test_undeclared_variable_rejected():
    system = LinearSystem(("x",))
    with pytest.raises(ValueError):
        system.add_equality({"q": Fraction(1)}, Fraction(0))


def test_system_equals_only_a_system():
    system = LinearSystem(("x",), [({"x": 1}, 1)])
    assert system == LinearSystem(("x",), [({"x": 1}, 1)])
    assert system.__eq__(("x",)) is NotImplemented
    assert system != ("x",)


def test_system_is_a_record_whose_absent_objective_is_empty():
    assert LinearSystem(("x",)) == LinearSystem(("x",), objective={})
    system = LinearSystem(("x",), [({"x": 1}, 2)], {"x": Fraction(1)})
    assert repr(system) == (
        "LinearSystem(variables=('x',), equalities=[({'x': 1}, Fraction(2, 1))], "
        "objective={'x': Fraction(1, 1)})"
    )
    with pytest.raises(TypeError, match="unhashable"):
        hash(system)


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError, match="duplicate variable names"):
        LinearSystem(("x", "y", "x"))


def test_constructor_equalities_are_checked():
    with pytest.raises(ValueError, match="equality"):
        LinearSystem(("x",), [({"y": 1}, 1)])
    system = LinearSystem(("x",), [({"x": 2}, 4)])
    assert system.equalities == [({"x": 2}, Fraction(4))]
    assert type(system.equalities[0][1]) is Fraction
    # a bool is no rational
    with pytest.raises(TypeError, match="coefficient of x is a bool"):
        LinearSystem(("x",), [({"x": True}, 1)])
    with pytest.raises(TypeError, match=r"right-hand side of the equality over \['x'\] is a bool"):
        LinearSystem(("x",), [({"x": 1}, True)])
    with pytest.raises(TypeError, match="objective coefficient of x is a bool"):
        LinearSystem(("x",), objective={"x": True})


def test_undeclared_objective_variable_rejected():
    with pytest.raises(ValueError, match="objective"):
        LinearSystem(("x",), objective={"q": Fraction(1)})


def test_float_coefficient_rejected():
    system = LinearSystem(("x", "y"))
    with pytest.raises(TypeError, match="coefficient of y is a float"):
        system.add_equality({"x": Fraction(1), "y": 0.5}, Fraction(1))
    with pytest.raises(TypeError, match="coefficient of x is a float"):
        LinearSystem(("x",), [({"x": 1.0}, 1)])
    assert system.equalities == []


def test_float_right_hand_side_rejected():
    system = LinearSystem(("x", "y"))
    with pytest.raises(TypeError, match=r"right-hand side of the equality over \['x', 'y'\]"):
        system.add_equality({"y": Fraction(1), "x": 1}, 0.1)
    assert system.equalities == []


def test_float_objective_rejected():
    with pytest.raises(TypeError, match="objective coefficient of x is a float"):
        LinearSystem(("x",), objective={"x": 0.25})


def test_unbounded_phase_one_raises(monkeypatch):
    """Phase 1 is bounded by construction; a solver that says otherwise is a
    bug, reported even when assertions are stripped."""
    from causalbox import linprog

    monkeypatch.setattr(linprog, "_run_simplex", lambda *args: "unbounded")
    system = LinearSystem(("x",))
    system.add_equality({"x": Fraction(1)}, Fraction(1))
    with pytest.raises(RuntimeError, match="phase 1"):
        lp_solve(system)


# -- one pivot against a Fraction Gauss-Jordan step ---------------------------


@st.composite
def pivot_steps(draw):
    """Integer rows over positive denominators, the last one z, with a
    pivot row r and column c.  The pivot row is drawn times a common factor,
    its pivot entry is negative at times (as in the drive-out of an
    artificial), and the other rows' entries in column c are 0, multiples
    of the pivot entry or anything."""
    width, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    r, c = draw(st.integers(0, m - 2)), draw(st.integers(0, width - 2))
    entry = st.integers(-12, 12)
    pivot = draw(st.sampled_from([1, 2, 3, 4, 6, -1, -2, -4, -6]))
    rows = []
    for i in range(m):
        row = draw(st.lists(entry, min_size=width, max_size=width))
        if i == r:
            row[c] = pivot
            factor = draw(st.sampled_from([1, 2, 3]))
            row = [factor * v for v in row]
        else:
            row[c] = draw(st.just(0) | entry.map(lambda k: pivot * k) | entry)
        rows.append(row)
    dens = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    return rows, dens, r, c


# p = 4 over a pivot row of gcd 2, against f = 0, 8, 6, 3 and -4 in z
@example(
    ([[1, 0, 2], [6, 8, 2], [3, 8, 1], [6, 6, 0], [9, 3, 3], [5, -4, 1]], [1, 3, 2, 5, 7, 1], 1, 1)
)
# a negative pivot entry, -4 over a pivot row of gcd 2, against f = 6 and -3 in z
@example(([[-6, -4, 2], [1, 6, 3], [2, -3, 5]], [2, 1, 4], 0, 1))
@given(pivot_steps())
@settings(max_examples=300, deadline=None)
def test_pivot_is_one_gauss_jordan_step(step):
    """After ``_pivot``, every row over its denominator is the row that one
    ``Fraction`` Gauss-Jordan step gives; denominators stay positive, and
    the pivot row is primitive with its pivot entry as its denominator."""
    rows, dens, r, c = step
    table = [[Fraction(v, d) for v in row] for row, d in zip(rows, dens)]
    prow = [v / table[r][c] for v in table[r]]
    want = [
        prow if i == r else [a - row[c] * b for a, b in zip(row, prow)]
        for i, row in enumerate(table)
    ]
    basis = list(range(len(rows) - 1))
    _pivot(rows, dens, basis, r, c)
    assert [[Fraction(v, d) for v in row] for row, d in zip(rows, dens)] == want
    assert all(d > 0 for d in dens)
    assert gcd(*rows[r]) == 1 and rows[r][c] == dens[r]
    assert basis[r] == c


@st.composite
def zrow_steps(draw):
    """Integer rows over positive denominators, a basis of distinct column
    or artificial ids, and one ``Fraction`` cost per id, many of them 0."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 5))
    entry = st.integers(-12, 12)
    rows = [draw(st.lists(entry, min_size=n + 1, max_size=n + 1)) for _ in range(m)]
    dens = draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))
    basis = draw(st.permutations(range(n + m)))[:m]
    cost = st.just(Fraction(0)) | st.builds(Fraction, entry, st.integers(1, 12))
    costs = draw(st.lists(cost, min_size=n + m, max_size=n + m))
    return rows, dens, basis, costs, n


@given(zrow_steps())
@settings(max_examples=300, deadline=None)
def test_zrow_is_the_fraction_reduced_cost_row(step):
    """``_zrow`` over its denominator is z_j - c_j for each of the n
    columns, the objective value last, summed in ``Fraction``; the row and
    its positive denominator come back in lowest terms."""
    rows, dens, basis, costs, n = step
    table = [[Fraction(v, d) for v in row] for row, d in zip(rows, dens)]
    want = [
        sum((costs[b] * row[j] for row, b in zip(table, basis)), Fraction(0))
        - (costs[j] if j < n else 0)
        for j in range(n + 1)
    ]
    z, den = _zrow(rows, dens, basis, costs, n)
    assert [Fraction(v, den) for v in z] == want
    assert den > 0 and gcd(den, *z) == 1


# -- zero objectives end at phase 1 --------------------------------------------


@pytest.fixture
def pivots(monkeypatch):
    """Counts ``_pivot`` calls: ``total``, and ``phase_ends``, the count at
    the end of each ``_run_simplex``."""
    counts = {"total": 0, "phase_ends": []}
    pivot, run_simplex = linprog._pivot, linprog._run_simplex

    def counting_pivot(*args):
        counts["total"] += 1
        pivot(*args)

    def recording_run_simplex(*args):
        status = run_simplex(*args)
        counts["phase_ends"].append(counts["total"])
        return status

    monkeypatch.setattr(linprog, "_pivot", counting_pivot)
    monkeypatch.setattr(linprog, "_run_simplex", recording_run_simplex)
    return counts


def test_ns_vertex_decomposition_makes_no_pivot_after_phase_one(pivots):
    """Each NS vertex's decomposition is one zero-objective LP that ends
    with phase 1; the PR box's takes a single pivot."""
    for box in ns_box_vertices():
        pivots["total"], pivots["phase_ends"] = 0, []
        decompose_ns_box(box)
        assert pivots["phase_ends"] == [pivots["total"]]
    pivots["total"] = 0
    decompose_ns_box(pr_box())
    assert pivots["total"] == 1


def test_zero_objective_with_artificials_left_basic(pivots):
    """x = 1 is met by phase 1's first pivot on x + y = 1; that pivot leaves
    the artificials of x = 1 (now -y = 0) and the scaled duplicate
    2x + 2y = 2 (now 0 = 0) basic at zero.  The point is phase 1's, with no
    further pivot, and equals the reference solver's."""
    system = LinearSystem(("x", "y"))
    system.add_equality({"x": 1, "y": 1}, 1)
    system.add_equality({"x": 1}, 1)
    system.add_equality({"x": 2, "y": 2}, 2)
    _assert_matches_reference(system)
    assert pivots["phase_ends"] == [1] and pivots["total"] == 1


# -- differential tests: sparse simplex against the dense reference -----------


def _assert_matches_reference(system):
    got, want = lp_solve(system), lp_reference.lp_solve(system)
    assert got == want
    assert type(got.value) is type(want.value)
    if want.assignment is not None:
        assert list(got.assignment) == list(want.assignment)
        assert all(type(v) is Fraction for v in got.assignment.values())


_small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _rows(draw, names, rhs):
    """1-6 rows over ``names``, some of them scaled copies of earlier rows."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if rows and draw(st.booleans()):
            coeffs, b = draw(st.sampled_from(rows))
            k = draw(_small.filter(bool))
            rows.append(({v: k * c for v, c in coeffs.items()}, k * b))
        else:
            coeffs = draw(st.dictionaries(st.sampled_from(names), _small))
            rows.append((coeffs, rhs(coeffs)))
    return rows


@st.composite
def random_systems(draw):
    names = tuple(f"x{j}" for j in range(draw(st.integers(1, 6))))
    rows = _rows(draw, names, lambda coeffs: draw(st.integers(-4, 4)))
    objective = draw(st.none() | st.dictionaries(st.sampled_from(names), _small))
    return LinearSystem(names, rows, objective)


@st.composite
def degenerate_feasible_systems(draw):
    """Systems with a known non-negative solution, mostly at zero."""
    names = tuple(f"x{j}" for j in range(draw(st.integers(1, 6))))
    point = {v: draw(st.sampled_from([0, 0, 0, 1, 2])) for v in names}
    rows = _rows(draw, names, lambda coeffs: sum(c * point[v] for v, c in coeffs.items()))
    objective = draw(st.dictionaries(st.sampled_from(names), _small))
    return LinearSystem(names, rows, objective)


@st.composite
def wide_systems(draw):
    """Up to 10 variables x 8 rows with numerators in +-60 over denominators
    1-12.  Some rows are k times an integer row, such as 2x = 4 or
    6x + 4y = 10, so their gcd is k while the artificial's coefficient is 1;
    about half the systems are feasible by construction.  Rows are drawn as
    dense lists under a bit mask, which keeps generation cheap."""
    n = draw(st.integers(1, 10))
    names = tuple(f"x{j}" for j in range(n))

    def ints(lo, hi):
        return st.lists(st.integers(lo, hi), min_size=n, max_size=n)

    def coefficients():
        mask, k = draw(st.integers(0, 2**n - 1)), draw(st.sampled_from([1, 1, 2, 3, 6]))
        if k == 1:
            values = map(Fraction, draw(ints(-60, 60)), draw(ints(1, 12)))
        else:
            values = (Fraction(k * a) for a in draw(ints(-60 // k, 60 // k)))
        return k, {v: c for j, (v, c) in enumerate(zip(names, values)) if mask >> j & 1}

    point = draw(st.none() | ints(0, 3).map(lambda xs: dict(zip(names, xs))))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        k, coeffs = coefficients()
        if point is not None:
            rhs = sum(c * point[v] for v, c in coeffs.items())
        elif k == 1:
            rhs = Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 12)))
        else:
            rhs = k * draw(st.integers(-60 // k, 60 // k))
        rows.append((coeffs, rhs))
    objective = coefficients()[1] if draw(st.booleans()) else None
    return LinearSystem(names, rows, objective)


@given(random_systems() | degenerate_feasible_systems() | wide_systems())
@settings(max_examples=900, deadline=None)
def test_lp_solve_matches_reference(system):
    _assert_matches_reference(system)


def _integer_rows(system):
    """The integer rows, denominators and costs that ``lp_solve`` hands ``_solve``."""
    captured = []

    def capture(rows, dens, costs):
        captured.append((rows, dens, costs))
        return "infeasible", None, None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linprog, "_solve", capture)
        lp_solve(system)
    return captured[0]


def _solve_pivoting(rows, dens, costs):
    """``_solve`` on copies of the rows, and the ``(row, column)`` of its pivots."""
    with recorded_pivots() as steps:
        result = linprog._solve([list(row) for row in rows], list(dens), costs)
    return result, steps


@given(random_systems() | degenerate_feasible_systems() | wide_systems(), st.integers(2, 30))
@settings(max_examples=300, deadline=None)
def test_scaling_the_right_hand_sides_scales_the_point(system, s):
    """s * b for b: every ratio of the ratio test and the phase-1 objective
    scale by s > 0 and no reduced cost of a column moves, so the pivots and
    the status are the same, and the point and the value scale by s."""
    rows, dens, costs = _integer_rows(system)
    (status, value, x), steps = _solve_pivoting(rows, dens, costs)
    scaled = [_lowest(row[:-1] + [s * row[-1]], d) for row, d in zip(rows, dens)]
    got, got_steps = _solve_pivoting([r for r, _ in scaled], [d for _, d in scaled], costs)
    assert got_steps == steps
    if x is None:
        assert got == (status, None, None)
    else:
        assert got == (status, s * value, [s * v for v in x])


@pytest.mark.parametrize(
    "fixture", ["gyni", "instrumental", "chsh", "ns-decompose", "gyni-C", "chsh-C", "tripartite-C"]
)
def test_fixture_lps_match_reference(fixture):
    if fixture == "gyni":
        joint = join_inputs(gyni_projected(), uniform_table((("X", 2),)))
        systems = [ps_system(joint, gyni_graph())[0]]
    elif fixture == "instrumental":
        systems = [ps_system(score2_table(), instrumental_graph())[0]]
    elif fixture == "chsh":
        joint = join_inputs(pr_box(), uniform_table((("X", 2), ("Y", 2))))
        systems = [ps_system(joint, chsh_graph())[0]]
    elif fixture == "ns-decompose":
        systems = polytope_lps(lambda: [decompose_ns_box(box) for box in ns_box_vertices()])
    elif fixture == "gyni-C":
        systems = polytope_lps(lambda: classical_member(gyni_projected(), gyni_graph()))
    elif fixture == "tripartite-C":
        # 64 weights and 65 rows: a long pivot sequence
        g = tripartite_bell_graph()
        joint = random_network(g, Random(0), latent_cardinality=3).joint_observed()
        systems = polytope_lps(lambda: classical_member(joint, g))
    else:
        systems = polytope_lps(lambda: classical_member(pr_box(), chsh_graph()))
    for system in systems:
        _assert_matches_reference(system)
