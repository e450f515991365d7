"""Classical networks: exact joints and the hypergraph lift round trip."""

import random
from fractions import Fraction

import pytest

from causalbox import (
    CausalDag,
    ClassicalNetwork,
    CardinalityMismatchError,
    Kernel,
    OBSERVED,
    build_hypergraph,
    gyni_graph,
    instrumental_graph,
    lift_network,
    mediation_graph,
    project,
    random_network,
)

import table_reference as ref
from conftest import all_test_graphs, district_demo_graph


def test_cpt_over_a_parent_of_another_cardinality_is_rejected():
    dag = CausalDag([("X", OBSERVED, 2), ("A", OBSERVED, 2)], [("X", "A")])
    cpts = {
        "X": Kernel((("X", 2),), (), (Fraction(1, 2), Fraction(1, 2))),
        # indexed by a ternary X while X's own CPT is binary
        "A": Kernel((("A", 2),), (("X", 3),), (Fraction(1),) * 3 + (Fraction(0),) * 3),
    }
    with pytest.raises(CardinalityMismatchError, match=r"CPT for A .* parent X"):
        ClassicalNetwork(dag, cpts)


def test_observed_cpt_of_another_cardinality_is_rejected():
    dag = CausalDag([("X", OBSERVED, 2), ("A", OBSERVED, 2)], [("X", "A")])
    cpts = {
        # a ternary CPT for the binary X, and A's CPT indexed by that ternary X
        "X": Kernel((("X", 3),), (), (Fraction(1, 3),) * 3),
        "A": Kernel((("A", 2),), (("X", 3),), (Fraction(1),) * 3 + (Fraction(0),) * 3),
    }
    with pytest.raises(CardinalityMismatchError, match=r"CPT for X has cardinality 3, but X has 2"):
        ClassicalNetwork(dag, cpts)


_HALF = Kernel((("X", 2),), (), (Fraction(1, 2), Fraction(1, 2)))


@pytest.mark.parametrize(
    "cpts, match",
    [
        ({"X": _HALF}, "missing CPT for A"),
        (
            {"X": _HALF, "A": Kernel((("X", 2),), (("A", 2),), (1, 0, 0, 1))},
            "CPT for A must have A as its only outcome",
        ),
        (
            {"X": _HALF, "A": Kernel((("A", 2),), (), (1, 0))},
            "CPT for A must be indexed by its sorted parents",
        ),
    ],
    ids=["missing", "outcome", "parents"],
)
def test_cpts_must_match_the_graph(cpts, match):
    dag = CausalDag([("X", OBSERVED, 2), ("A", OBSERVED, 2)], [("X", "A")])
    with pytest.raises(ValueError, match=match):
        ClassicalNetwork(dag, cpts)


def test_joint_of_tiny_network_by_hand():
    dag = CausalDag([("X", OBSERVED, 2), ("A", OBSERVED, 2)], [("X", "A")])
    cpts = {
        "X": Kernel.from_mapping(
            (("X", 2),), (), {(0,): Fraction(1, 3), (1,): Fraction(2, 3)}
        ),
        "A": Kernel.from_mapping(
            (("A", 2),),
            (("X", 2),),
            {
                (0, 0): Fraction(1, 4),
                (1, 0): Fraction(3, 4),
                (0, 1): Fraction(1, 2),
                (1, 1): Fraction(1, 2),
            },
        ),
    }
    joint = ClassicalNetwork(dag, cpts).joint_observed()
    assert joint.value({"X": 0, "A": 0}) == Fraction(1, 12)
    assert joint.value({"X": 1, "A": 1}) == Fraction(1, 3)


def test_latent_is_summed_out(rng):
    net = random_network(mediation_graph(), rng, latent_cardinality=3)
    joint = net.joint_observed()
    assert sorted(joint.var_names()) == ["A", "B", "C", "X"]
    assert sum(joint.entries) == 1


@pytest.mark.parametrize(
    "graph", [mediation_graph(), instrumental_graph(), gyni_graph()]
)
def test_lift_projects_back_exactly(graph, rng):
    """Lifting a classical network with independent uniform copies and
    post-selecting the diagonal recovers the observed joint exactly."""
    hyper = build_hypergraph(graph)
    for _ in range(5):
        net = random_network(graph, rng, latent_cardinality=4)
        lifted = lift_network(net, hyper)
        projected = project(lifted.joint_observed(), hyper.copies)
        original = net.joint_observed()
        assert set(projected.var_names()) == set(original.var_names())
        for env, value in original.cells():
            assert projected.value(env) == value


def _with_deterministic_cpts(net: ClassicalNetwork, rng) -> ClassicalNetwork:
    """The same network with about half of its CPTs replaced by random
    deterministic ones, so that the joint has exact zero cells."""
    cpts = {}
    for v, cpt in net.cpts.items():
        card = cpt.outcome_vars[0][1]
        width = len(cpt.entries) // card
        picks = [rng.randrange(card) for _ in range(width)]
        entries = tuple(Fraction(int(picks[j] == value)) for value in range(card) for j in range(width))
        deterministic = Kernel(cpt.outcome_vars, cpt.index_vars, entries)
        cpts[v] = deterministic if rng.random() < 0.5 else cpt
    return ClassicalNetwork(net.dag, cpts)


@pytest.mark.parametrize(
    "dag",
    [*all_test_graphs().values(), district_demo_graph()],
    ids=[*all_test_graphs(), "district_demo"],
)
def test_joint_observed_matches_reference(dag):
    """The positional product of CPTs equals the per-assignment loop it
    replaced: same layout, same entries, with and without zero cells."""
    rng = random.Random(2024)
    for latent_cardinality in (2, 3, 4):
        net = random_network(dag, rng, latent_cardinality=latent_cardinality)
        for n in (net, _with_deterministic_cpts(net, rng)):
            joint, expected = n.joint_observed(), ref.joint_observed(n)
            assert (joint.outcome_vars, joint.index_vars) == (
                expected.outcome_vars,
                expected.index_vars,
            )
            assert joint.entries == expected.entries
