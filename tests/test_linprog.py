"""Exact simplex: optimality, infeasibility, unboundedness, degeneracy."""

from fractions import Fraction

import pytest

from causalbox import LinearSystem, lp_solve


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


def test_unbounded_phase_one_raises(monkeypatch):
    """Phase 1 is bounded by construction; a solver that says otherwise is a
    bug, reported even when assertions are stripped."""
    from causalbox import linprog

    monkeypatch.setattr(linprog, "_run_simplex", lambda *args: "unbounded")
    system = LinearSystem(("x",))
    system.add_equality({"x": Fraction(1)}, Fraction(1))
    with pytest.raises(RuntimeError, match="phase 1"):
        lp_solve(system)
