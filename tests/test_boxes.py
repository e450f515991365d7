"""Fixture boxes: PR family, local boxes, GYNI, swapping; CHSH, GYNI and instrumental scoring."""

from fractions import Fraction
from itertools import product

import pytest

from causalbox import (
    CardinalityMismatchError,
    CausalDag,
    build_hypergraph,
    chsh_graph,
    chsh_score,
    ci_holds,
    gyni_box,
    gyni_projected,
    instrumental_score,
    join_inputs,
    local_box,
    local_responses,
    marginalize,
    ns_box_vertices,
    ns_member,
    pr_box,
    reorder,
    split_joint,
    swapping_box,
    uniform_table,
    validate,
    Kernel,
)
from causalbox import boxes
from causalbox.boxes import _gyni_score
from causalbox.fileio import graph_to_dict, kernel_to_dict

import boxes_reference as ref
from conftest import score2_table


def test_pr_box_reference_entries():
    box = pr_box(0, 0, 0)
    assert box.value({"A": 0, "B": 0, "X": 1, "Y": 1}) == 0
    assert box.value({"A": 0, "B": 1, "X": 1, "Y": 1}) == Fraction(1, 2)
    assert box.value({"A": 0, "B": 0, "X": 0, "Y": 1}) == Fraction(1, 2)


def test_pr_box_rejects_non_bits():
    with pytest.raises(IndexError):
        pr_box(2, 0, 0)


def test_local_box_zero_is_constant():
    box = local_box(0)
    for x, y in product((0, 1), repeat=2):
        assert box.value({"A": 0, "B": 0, "X": x, "Y": y}) == 1


def test_local_box_index_range():
    with pytest.raises(IndexError):
        local_box(16)
    with pytest.raises(IndexError, match="0..15"):
        local_responses(16)


def test_all_ns_vertices_are_no_signalling():
    h = build_hypergraph(chsh_graph())
    for box in ns_box_vertices():
        assert ns_member(box, h)


def test_chsh_scores():
    assert chsh_score(pr_box(0, 0, 0)) == 1
    noise = Kernel.from_function(
        (("A", 2), ("B", 2)), (("X", 2), ("Y", 2)), lambda v: Fraction(1, 4)
    )
    assert chsh_score(noise) == Fraction(1, 2)


def test_chsh_score_reads_its_box_by_position():
    """A and B are the box's outcomes and X, Y its inputs, in their order."""
    box = pr_box(0, 0, 0)
    renamed = Kernel((("P", 2), ("Q", 2)), (("S", 2), ("T", 2)), box.entries)
    assert chsh_score(renamed) == 1
    # laid out (B, A | Y, X), the standard PR box is the same box
    assert chsh_score(reorder(box, box.outcome_vars[::-1], box.index_vars[::-1])) == 1


@pytest.mark.parametrize(
    "box, error, match",
    [
        (gyni_box(), ValueError, "expects a bipartite box"),
        (
            Kernel((("A", 2), ("B", 3)), (("X", 2), ("Y", 2)), (Fraction(1, 6),) * 24),
            CardinalityMismatchError,
            "expects binary variables",
        ),
    ],
    ids=["tripartite", "ternary"],
)
def test_chsh_score_rejects_other_boxes(box, error, match):
    with pytest.raises(error, match=match):
        chsh_score(box)


def test_local_boxes_bounded_by_classical_chsh():
    scores = [chsh_score(local_box(i)) for i in range(16)]
    assert all(s <= Fraction(3, 4) for s in scores)
    assert max(scores) == Fraction(3, 4)


def test_gyni_box_support_is_one_third():
    box = gyni_box()
    for x, y, z in product((0, 1), repeat=3):
        values = [
            box.value({"A": a, "B": b, "C": c, "X": x, "Y": y, "Z": z})
            for a, b, c in product((0, 1), repeat=3)
        ]
        assert sorted(set(values)) == [0, Fraction(1, 3)]
        assert values.count(Fraction(1, 3)) == 3


def test_gyni_score_reads_its_box_by_name():
    """Each party guesses its neighbour's input: a = y, b = z, c = x."""
    box = gyni_box()
    assert _gyni_score(box) == Fraction(1, 6)
    assert _gyni_score(reorder(box, box.outcome_vars[::-1], box.index_vars[::-1])) == Fraction(1, 6)
    guess = Kernel.from_function(
        box.outcome_vars, box.index_vars,
        lambda v: int((v["A"], v["B"], v["C"]) == (v["Y"], v["Z"], v["X"])),
    )
    assert _gyni_score(guess) == 1


@pytest.mark.parametrize(
    "box",
    [pr_box(0, 0, 0), join_inputs(gyni_box(), uniform_table(gyni_box().index_vars))],
    ids=["bipartite", "joint"],
)
def test_gyni_score_rejects_other_boxes(box):
    with pytest.raises(ValueError, match="expects a binary box q\\(A, B, C \\| X, Y, Z\\)"):
        _gyni_score(box)


def test_instrumental_score_examples():
    uniform = Kernel.from_function(
        (("A", 2), ("B", 2)), (("X", 2),), lambda v: Fraction(1, 4)
    )
    assert instrumental_score(uniform) == Fraction(1, 2)
    bad, _ = split_joint(score2_table(), ["X"])
    assert instrumental_score(bad) == 2


def test_instrumental_score_reads_variables_by_name():
    kernel, _ = split_joint(score2_table(), ["X"])
    assert instrumental_score(reorder(kernel, kernel.outcome_vars[::-1], kernel.index_vars)) == 2
    joint = Kernel.from_function(
        (("A", 2), ("C", 2), ("X", 2)), (), lambda v: Fraction(int(v["C"] == v["X"]), 4)
    )
    renamed, _ = split_joint(joint, ["X"])
    with pytest.raises(ValueError):
        instrumental_score(renamed)
    with pytest.raises(ValueError):
        # B moved to the index side: p(A | X, B)
        instrumental_score(
            reorder(kernel, kernel.outcome_vars[:1], kernel.index_vars + kernel.outcome_vars[1:])
        )


def test_gyni_projected_support():
    family = gyni_projected()
    support = {
        0: {(0, 0, 0), (1, 0, 1), (1, 1, 0)},
        1: {(0, 1, 1), (1, 0, 1), (1, 1, 0)},
    }
    for x in (0, 1):
        for a, b, c in product((0, 1), repeat=3):
            expected = Fraction(1, 3) if (a, b, c) in support[x] else 0
            assert family.value({"A": a, "B": b, "C": c, "X": x}) == expected


def test_gyni_projected_matches_substitution():
    box = gyni_box()
    family = gyni_projected()
    for a, b, c, x in product((0, 1), repeat=4):
        assert family.value({"A": a, "B": b, "C": c, "X": x}) == box.value(
            {"A": a, "B": b, "C": c, "X": x, "Y": a, "Z": b}
        )


def test_swapping_box_slices_and_marginals():
    box = swapping_box()
    # b-marginal is uniform and the (A, C) marginal factorizes
    b_margin = marginalize(box, ["A", "C"])
    for b, x, z in product((0, 1), repeat=3):
        assert b_margin.value({"B": b, "X": x, "Z": z}) == Fraction(1, 2)
    ac_margin = marginalize(box, ["B"])
    for a, c, x, z in product((0, 1), repeat=4):
        assert ac_margin.value({"A": a, "C": c, "X": x, "Z": z}) == Fraction(1, 4)


def test_swapping_joint_satisfies_structure_independences():
    joint = join_inputs(swapping_box(), uniform_table((("X", 2), ("Z", 2))))
    assert ci_holds(joint, {"X"}, {"B"}, set())
    assert ci_holds(joint, {"X"}, {"C"}, set())
    assert ci_holds(joint, {"X"}, {"Z"}, set())
    assert ci_holds(joint, {"A"}, {"Z"}, set())
    assert ci_holds(joint, {"A"}, {"C"}, set())
    # but given B = 0 the pair (A, C) is PR-correlated
    assert not ci_holds(joint, {"A"}, {"C"}, {"B", "X", "Z"})


_GRAPHS = ["chsh_graph", "instrumental_graph", "mediation_graph", "gyni_graph",
           "tripartite_bell_graph", "swapping_graph", "triangle_graph"]
_FIXTURES = [
    *((name, ()) for name in _GRAPHS),
    *(("pr_box", bits) for bits in product((0, 1), repeat=3)),
    *(("local_box", (i,)) for i in range(16)),
    ("gyni_box", ()), ("gyni_projected", ()), ("swapping_box", ()),
]


@pytest.mark.parametrize(
    "name, args", _FIXTURES, ids=[name + "".join(f"-{a}" for a in args) for name, args in _FIXTURES]
)
def test_fixtures_equal_their_reference(name, args):
    """Each fixture is the one its constructor spelled out vertex by vertex
    and party by party, down to its repr and its file form."""
    got, want = getattr(boxes, name)(*args), getattr(ref, name)(*args)
    assert got == want
    assert repr(got) == repr(want)
    to_dict = graph_to_dict if isinstance(want, CausalDag) else kernel_to_dict
    assert to_dict(got) == to_dict(want)


@pytest.mark.parametrize("name", _GRAPHS)
def test_fixture_graphs_are_valid(name):
    assert validate(getattr(boxes, name)()) == []
