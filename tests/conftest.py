import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

import causalbox
from causalbox import (
    CausalDag,
    LATENT,
    OBSERVED,
    chsh_graph,
    gyni_graph,
    instrumental_graph,
    mediation_graph,
    swapping_graph,
    triangle_graph,
    tripartite_bell_graph,
)

ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"  {name}: {ACCEPTANCE_RESULTS[name]}")


def run_fresh(code: str, *argv: str, timeout: float | None = None, **env: str) -> str:
    """stdout of ``code`` run in a new interpreter with ``argv`` and the
    extra environment variables ``env``, within ``timeout`` seconds if one
    is given.  It imports the ``causalbox`` this process imported, installed
    or not."""
    src = os.path.dirname(os.path.dirname(causalbox.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        check=True,
        timeout=timeout,
    )
    return out.stdout


def all_test_graphs():
    return {
        "chsh": chsh_graph(),
        "instrumental": instrumental_graph(),
        "mediation": mediation_graph(),
        "gyni": gyni_graph(),
        "tripartite_bell": tripartite_bell_graph(),
        "swapping": swapping_graph(),
        "triangle": triangle_graph(),
    }


def district_demo_graph() -> CausalDag:
    """Seven observed vertices, three latents, districts {X}, {Y} and
    {A, B, C, D, E}: every bidirected-adjacency case appears once."""
    return CausalDag(
        [
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 2),
            ("C", OBSERVED, 2),
            ("D", OBSERVED, 2),
            ("E", OBSERVED, 2),
            ("X", OBSERVED, 2),
            ("Y", OBSERVED, 2),
            ("L1", LATENT),
            ("L2", LATENT),
            ("L3", LATENT),
        ],
        [
            ("X", "A"),
            ("Y", "C"),
            ("L1", "A"),
            ("L1", "B"),
            ("L2", "B"),
            ("L2", "C"),
            ("L2", "D"),
            ("L3", "C"),
            ("L3", "D"),
            ("L3", "E"),
        ],
    )


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    """Paths of the chsh-graph, pr-box and mediation-graph fixture files,
    keyed chsh, pr and med, and of the conditional p(A, B | X) of
    :func:`score2_table`, keyed instr."""
    from causalbox import split_joint
    from causalbox.cli import dispatch
    from causalbox.fileio import dump_kernel

    folder = tmp_path_factory.mktemp("fixtures")
    paths = {}
    for key, name in (("chsh", "chsh-graph"), ("pr", "pr-box"), ("med", "mediation-graph")):
        paths[key] = str(folder / f"{name}.json")
        assert dispatch(["fixtures", "emit", name, "--out", paths[key]]) == 0
    paths["instr"] = str(folder / "score2.json")
    dump_kernel(split_joint(score2_table(), ["X"])[0], paths["instr"])
    return paths


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_rational_table(rng, variables, weight_range=9):
    """Full-support joint table with random small rational entries."""
    from causalbox import Kernel
    from causalbox.tables import assignments

    cells = list(assignments(tuple(variables)))
    weights = [rng.randint(1, weight_range) for _ in cells]
    total = sum(weights)
    table = {cell: Fraction(w, total) for cell, w in zip(cells, weights)}
    return Kernel.from_mapping(tuple(variables), (), table)


def score2_table():
    """p(a, b | x) = [a = 0][b = x], joint with uniform x: signalling, with
    instrumental score 2."""
    from causalbox import Kernel

    return Kernel.from_function(
        (("A", 2), ("B", 2), ("X", 2)),
        (),
        lambda v: Fraction(1, 2) if v["A"] == 0 and v["B"] == v["X"] else Fraction(0),
    )


def ternary_x_chsh_box():
    """q(a, b | x, y) over a ternary X: uniform for x < 2, a = b = 0 at
    x = 2, so B's marginal moves only at the value a binary X lacks."""
    from causalbox import Kernel

    return Kernel.from_function(
        (("A", 2), ("B", 2)),
        (("X", 3), ("Y", 2)),
        lambda v: Fraction(1, 4) if v["X"] < 2 else Fraction(int(v["A"] == v["B"] == 0)),
    )


@contextmanager
def recorded_pivots():
    """The ``(row, column)`` of every simplex pivot made inside the block."""
    from causalbox import linprog

    steps, pivot = [], linprog._pivot

    def record(rows, dens, basis, r, c):
        steps.append((r, c))
        pivot(rows, dens, basis, r, c)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linprog, "_pivot", record)
        yield steps


def core_answer(result, n):
    """The simplex core's ``(status, value, basic)`` read as ``(status,
    value, x)``: the value a ``Fraction``, and x the point over all n
    columns; both ``None`` where the core gives none."""
    status, value, basic = result
    if basic is None:
        return status, None, None
    x = [Fraction(0)] * n
    for j, a, d in basic:
        x[j] = Fraction(a, d)
    return status, Fraction(*value), x


def polytope_lps(run):
    """Every LP that ``run()`` hands to the integer simplex core from
    ``causalbox.polytope``, each rebuilt as a ``LinearSystem``.

    A captured row ``[a_1 .. a_n, b]`` over ``den`` becomes the equality
    ``{w_j: a_j / den} = b / den``; ``w_j`` names the core's unknown j,
    the target's denominator times vertex j's weight in the vertex LPs.
    Each row must reach the core reduced by ``linprog._lowest`` with
    ``b >= 0``, so ``lp_solve`` rebuilds the very same rows from that
    system.  The core trusts the phase-1 row its caller hands it, so that
    row must be ``linprog._phase_one_zrow`` of the captured rows, as
    ``lp_solve`` builds it.  The core's answer, read as ``Fraction``s, must
    equal ``lp_solve``'s.  At least one LP must be captured.
    """
    from causalbox import LinearSystem, linprog, lp_solve, polytope

    systems = []
    solve = polytope._solve

    def record(rows, dens, costs, phase_one):
        names = tuple(f"w{j}" for j in range(len(costs)))
        system = LinearSystem(names, objective=dict(zip(names, costs)))
        for row, den in zip(rows, dens):
            assert linprog._lowest(row, den) == (row, den) and row[-1] >= 0
            coeffs = {v: Fraction(a, den) for v, a in zip(names, row) if a}
            system.add_equality(coeffs, Fraction(row[-1], den))
        assert phase_one == linprog._phase_one_zrow(rows, dens, len(costs))
        systems.append(system)
        result = solve(rows, dens, costs, phase_one)
        status, value, x = core_answer(result, len(costs))
        want = lp_solve(system)
        assert (status, value) == (want.status, want.value)
        assert x == (None if want.assignment is None else list(want.assignment.values()))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polytope, "_solve", record)
        run()
    assert systems, "no LP reached the simplex core"
    return systems
