"""No-signalling constraints and post-selection membership."""

import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbox import (
    CausalDag,
    HyperDag,
    Kernel,
    LATENT,
    MultiLatentError,
    NotNoSignallingError,
    OBSERVED,
    build_hypergraph,
    check_nested,
    chsh_graph,
    ci_constraints,
    ci_holds,
    bell_inputs,
    classical_member,
    decompose_ns_box,
    enumerate_classical_vertices,
    enumerate_h_vertices,
    gyni_box,
    gyni_graph,
    gyni_projected,
    instrumental_graph,
    instrumental_score,
    join_inputs,
    i_member,
    lift_network,
    local_box,
    marginalize,
    lp_solve,
    reorder,
    mediation_graph,
    ns_box_vertices,
    ns_member,
    pr_box,
    project,
    ps_member,
    ps_system,
    split_joint,
    swapping_box,
    swapping_graph,
    tripartite_bell_graph,
    uniform_table,
)
from causalbox.networks import ClassicalNetwork, random_network

import ns_reference
from conftest import score2_table, ternary_x_chsh_box


# -- no-signalling equalities ----------------------------------------------------


def _ns_row_count(g, p):
    """Rows of ``ps_system`` that are neither normalization nor pinning."""
    system, _, inputs, _ = ps_system(p, g)
    dag = build_hypergraph(g).base
    input_rows = prod(dag.cardinality(i) for i in inputs)
    return len(system.equalities) - input_rows - len(p.entries)


def test_chsh_ns_equalities():
    # two inputs, each with 2 kept-output assignments x 2 other-input values
    joint = join_inputs(pr_box(), uniform_table((("X", 2), ("Y", 2))))
    assert _ns_row_count(chsh_graph(), joint) == 8


def test_tripartite_ns_counts_and_gyni_box():
    # per input: 4 kept-output assignments x 4 other-input assignments
    joint = join_inputs(gyni_box(), uniform_table(gyni_box().index_vars))
    assert _ns_row_count(tripartite_bell_graph(), joint) == 48
    assert ns_member(gyni_box(), build_hypergraph(tripartite_bell_graph()))


def _single_party_graph():
    return CausalDag(
        [("X", OBSERVED, 2), ("A", OBSERVED, 2), ("L", LATENT)],
        [("X", "A"), ("L", "A")],
    )


def test_single_party_graph_has_no_ns_equalities():
    joint = uniform_table((("A", 2), ("X", 2)))
    assert _ns_row_count(_single_party_graph(), joint) == 0


def test_signalling_box_detected():
    h = build_hypergraph(chsh_graph())
    signalling = Kernel.from_function(
        (("A", 2), ("B", 2)),
        (("X", 2), ("Y", 2)),
        lambda v: Fraction(1, 2) if v["A"] == v["Y"] else Fraction(0),
    )
    assert not ns_member(signalling, h)
    assert ns_member(pr_box(), h)


def test_multi_latent_ns_rejected():
    g = swapping_graph()
    box = swapping_box()
    joint = join_inputs(box, uniform_table((("X", 2), ("Z", 2))))
    for ns, ps in ((ns_member, ps_system), (ns_reference.ns_member, ns_reference.ps_system)):
        with pytest.raises(MultiLatentError):
            ns(box, build_hypergraph(g))
        with pytest.raises(MultiLatentError):
            ps(joint, g)


def test_non_bell_type_hypergraph_rejected():
    h = HyperDag(mediation_graph(), {})
    with pytest.raises(ValueError, match="hypergraph base is not Bell-type"):
        ns_member(pr_box(), h)
    with pytest.raises(ValueError, match="hypergraph base is not Bell-type"):
        enumerate_h_vertices(h)


def test_ns_member_rejects_boxes_over_other_cardinalities():
    h = build_hypergraph(chsh_graph())
    unary_y = Kernel.from_function(
        (("A", 2), ("B", 2)), (("X", 2), ("Y", 1)), lambda v: Fraction(1, 4)
    )
    for box in (ternary_x_chsh_box(), unary_y):
        with pytest.raises(ValueError, match="parties"):
            ns_member(box, h)


def _ternary_chsh():
    return CausalDag(
        [("A", OBSERVED, 3), ("B", OBSERVED, 2), ("X", OBSERVED, 3), ("Y", OBSERVED, 2),
         ("L", LATENT)],
        [("X", "A"), ("Y", "B"), ("L", "A"), ("L", "B")],
    )


def _ternary_instrumental():
    return CausalDag(
        [("A", OBSERVED, 3), ("B", OBSERVED, 2), ("X", OBSERVED, 3), ("L", LATENT)],
        [("X", "A"), ("A", "B"), ("L", "A"), ("L", "B")],
    )


LIFTS = {
    "chsh": build_hypergraph(chsh_graph()),
    "tripartite": build_hypergraph(tripartite_bell_graph()),
    "gyni-lift": build_hypergraph(gyni_graph()),
    "instrumental-lift": build_hypergraph(instrumental_graph()),
    "ternary-chsh": build_hypergraph(_ternary_chsh()),
    "single-party": build_hypergraph(_single_party_graph()),
}


@cache
def _ns_vertices(name):
    """No-signalling boxes of a lift: its deterministic strategies, and the
    PR boxes on chsh."""
    tables = [v.table for v in enumerate_h_vertices(LIFTS[name])]
    return tables + (ns_box_vertices()[16:] if name == "chsh" else [])


def _random_rows(draw, template, width):
    height = len(template.entries) // width
    rows = []
    for _ in range(width):
        w = draw(st.lists(st.integers(0, 3), min_size=height, max_size=height).filter(any))
        rows.append([Fraction(x, sum(w)) for x in w])
    return [rows[k % width][k // width] for k in range(len(template.entries))]


@st.composite
def lift_boxes(draw):
    """A lift and a box over its parties, in a shuffled layout: an NS
    mixture, random rows, or an NS mixture with one row replaced."""
    name = draw(st.sampled_from(sorted(LIFTS)))
    vertices = _ns_vertices(name)
    template = vertices[0]
    width = prod(c for _, c in template.index_vars)
    picks = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=4))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(picks), max_size=len(picks)))
    entries = [
        sum(Fraction(w, sum(weights)) * t.entries[k] for w, t in zip(weights, picks))
        for k in range(len(template.entries))
    ]
    kind = draw(st.sampled_from(["mixture", "rows", "one-row"]))
    if kind != "mixture":
        rows = _random_rows(draw, template, width)
        j = draw(st.integers(0, width - 1)) if kind == "one-row" else None
        entries = [
            r if j is None or k % width == j else e
            for k, (e, r) in enumerate(zip(entries, rows))
        ]
    box = Kernel(template.outcome_vars, template.index_vars, tuple(entries))
    outcome = draw(st.permutations(template.outcome_vars))
    index = draw(st.permutations(template.index_vars))
    return name, reorder(box, outcome, index)


@given(lift_boxes())
@settings(max_examples=200, deadline=None)
def test_ns_member_matches_reference(case):
    name, box = case
    h = LIFTS[name]
    assert ns_member(box, h) == ns_reference.ns_member(box, h)


def _priors(g):
    """A full-support, non-uniform prior on every original setting of the lift."""
    h = build_hypergraph(g)
    priors = {}
    for i in bell_inputs(h.base):
        if i not in h.copies:
            card = h.base.cardinality(i)
            total = card * (card + 1) // 2
            priors[i] = {v: Fraction(v + 1, total) for v in range(card)}
    return priors


def _setting_table(variables, priors):
    """The product table of independent setting priors over ``variables``."""
    return Kernel.from_function(variables, (), lambda v: prod(priors[i][v[i]] for i in v))


def _reskewed(p, g):
    """``p`` with its original settings redrawn from ``_priors(g)``."""
    priors = _priors(g)
    kernel, _ = split_joint(p, sorted(priors))
    return join_inputs(kernel, _setting_table(kernel.index_vars, priors))


def _derived_priors(p, g):
    """The setting priors ``ps_system`` reads, spelled out: ``p``'s marginal
    on each original setting of the lift, uniform on each copy."""
    h = build_hypergraph(g)
    priors = {}
    for i in bell_inputs(h.base):
        card = h.base.cardinality(i)
        if i in h.copies:
            priors[i] = {v: Fraction(1, card) for v in range(card)}
        else:
            margin = marginalize(p, [n for n in p.var_names() if n != i])
            priors[i] = {v: margin.value({i: v}) for v in range(card)}
    return priors


def _network_case(make, seed):
    """A seeded network joint on ``make()``, its outcomes shuffled."""
    rng = random.Random(seed)
    g = make()
    p = random_network(g, rng, latent_cardinality=2).joint_observed()
    return reorder(p, rng.sample(p.outcome_vars, len(p.outcome_vars)), ()), g


PS_CASES = {
    "gyni": lambda: (join_inputs(gyni_projected(), uniform_table((("X", 2),))), gyni_graph()),
    "instrumental": lambda: (score2_table(), instrumental_graph()),
    "chsh": lambda: (join_inputs(pr_box(), uniform_table((("X", 2), ("Y", 2)))), chsh_graph()),
    "tripartite": lambda: (
        join_inputs(gyni_box(), uniform_table(gyni_box().index_vars)),
        tripartite_bell_graph(),
    ),
    "ternary-chsh-1": lambda: _network_case(_ternary_chsh, 1),
    "ternary-chsh-2": lambda: _network_case(_ternary_chsh, 2),
    "ternary-instrumental-1": lambda: _network_case(_ternary_instrumental, 1),
    "ternary-instrumental-2": lambda: _network_case(_ternary_instrumental, 2),
}


@pytest.mark.parametrize("skewed", [False, True], ids=["uniform", "priors"])
@pytest.mark.parametrize("name", sorted(PS_CASES))
def test_ps_system_matches_reference(name, skewed):
    """The reference takes the priors as designated inputs; handed the ones
    ``ps_system`` reads off the joint, it builds the same system."""
    p, g = PS_CASES[name]()
    if skewed:
        p = _reskewed(p, g)
    system, _, inputs, outputs = ps_system(p, g)
    want, _, want_inputs, want_outputs = ns_reference.ps_system(
        p, g, input_priors=_derived_priors(p, g)
    )
    assert (inputs, outputs) == (want_inputs, want_outputs)
    assert system == want
    assert [list(c) for c, _ in system.equalities] == [list(c) for c, _ in want.equalities]


def test_ps_scale_is_the_diagonal_probability():
    """Every case but the score-2 table is a member, the ternary network
    joints with their skewed settings included, and its scale is the
    probability of the diagonal event."""
    scales = {name: ps_member(*PS_CASES[name]()).scale for name in sorted(PS_CASES)}
    assert scales.pop("instrumental") is None
    assert all(0 < s <= 1 for s in scales.values()), scales
    assert (scales["chsh"], scales["tripartite"], scales["gyni"]) == (1, 1, Fraction(1, 4))


def test_ns_equalities_follow_from_lifted_independences(rng):
    """Cross-module consistency: product-input joints built from o box
    satisfy the hypergraph's d-separation statements iff the box satisfies
    the no-signalling equalities."""
    h = build_hypergraph(chsh_graph())
    records = ci_constraints(h.base)
    boxes = [pr_box(), pr_box(1, 1, 0)]
    from causalbox import local_box

    boxes += [local_box(rng.randrange(16)) for _ in range(3)]
    for box in boxes:
        joint = join_inputs(box, uniform_table((("X", 2), ("Y", 2))))
        assert ns_member(box, h)
        for record in records:
            assert ci_holds(joint, {record.a}, {record.b}, record.given), str(record)


# -- instrumental functional -------------------------------------------------------


def test_deterministic_strategies_respect_instrumental_bound():
    responses = [(0, 0), (1, 1), (0, 1), (1, 0)]
    for fa in responses:
        for gb in responses:
            table = Kernel.from_function(
                (("A", 2), ("B", 2)),
                (("X", 2),),
                lambda v: Fraction(int(v["A"] == fa[v["X"]] and v["B"] == gb[v["A"]])),
            )
            assert instrumental_score(table) <= 1


# -- post-selection membership --------------------------------------------------------


def test_score2_table_separates_ps_from_nested():
    joint = score2_table()
    g = instrumental_graph()
    assert check_nested(joint, g).member
    verdict = ps_member(joint, g)
    assert verdict.status == "not_member"


def test_classical_vertices_accepted_with_reprojecting_certificates():
    for g in (instrumental_graph(), chsh_graph()):
        h = build_hypergraph(g)
        in_vars = tuple((i, 2) for i in sorted(v for v in g.observed() if not g.parents(v) and g.children(v)))
        for vertex in enumerate_classical_vertices(g):
            joint = join_inputs(vertex.table, uniform_table(in_vars))
            verdict = ps_member(joint, g)
            assert verdict.member
            from causalbox import bell_inputs

            lift_inputs = tuple((i, h.base.cardinality(i)) for i in bell_inputs(h.base))
            lifted = join_inputs(verdict.certificate, uniform_table(lift_inputs))
            projected = project(lifted, h.copies)
            for env, value in joint.cells():
                assert projected.value(env) == value


def test_ps_certificate_projects_back_on_a_ternary_lift():
    """The certificate is read off 9 input x 6 output unknowns; a transposed
    read would not project back."""
    g = _ternary_instrumental()
    h = build_hypergraph(g)
    vertices = [v.table for v in enumerate_classical_vertices(g)]
    first, second = vertices[5], vertices[-3]
    box = Kernel(first.outcome_vars, first.index_vars,
                 tuple((a + b) / 2 for a, b in zip(first.entries, second.entries)))
    joint = join_inputs(box, uniform_table(box.index_vars))
    verdict = ps_member(joint, g)
    assert verdict.member
    assert ns_member(verdict.certificate, h)
    lifted = join_inputs(verdict.certificate, uniform_table(verdict.certificate.index_vars))
    projected = project(lifted, h.copies)
    assert reorder(joint, projected.outcome_vars, ()) == projected


def test_gyni_projected_is_ps_member_with_exact_certificate():
    g = gyni_graph()
    joint = join_inputs(gyni_projected(), uniform_table((("X", 2),)))
    verdict = ps_member(joint, g)
    assert verdict.member and verdict.scale > 0
    h = build_hypergraph(g)
    from causalbox import bell_inputs

    lift_inputs = tuple((i, 2) for i in bell_inputs(h.base))
    lifted = join_inputs(verdict.certificate, uniform_table(lift_inputs))
    projected = project(lifted, h.copies)
    for env, value in joint.cells():
        assert projected.value(env) == value
    assert ns_member(verdict.certificate, h)


def test_uniform_copy_prior_is_normative(rng):
    """The uniform copy marginal is part of the model, not a free knob.

    With uniform copies the LP accepts every classical mixture (as it must,
    since the network lift realizes them), and rejections such as the
    signalling score-2 table stay rejected under a skewed copy prior too.
    A skewed copy prior, by contrast, can reject classical mixtures, which
    is why the copy marginal is pinned rather than left to choice; the
    reference, which still takes designated priors, shows it."""
    g = instrumental_graph()
    half = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    skew = {"X": half, "A_B": {0: Fraction(1, 3), 1: Fraction(2, 3)}}
    vertices = enumerate_classical_vertices(g)
    mixtures = []
    for _ in range(5):
        raw = [Fraction(rng.randint(0, 4)) for _ in vertices]
        total = sum(raw) or Fraction(1)
        weights = [w / total for w in raw]
        box = Kernel.from_function(
            vertices[0].table.outcome_vars,
            vertices[0].table.index_vars,
            lambda v: sum(w * vert.table.value(v) for w, vert in zip(weights, vertices)),
        )
        mixtures.append(join_inputs(box, uniform_table((("X", 2),))))
    for joint in mixtures:
        result = lp_solve(ps_system(joint, g)[0])
        assert result.is_optimal and result.value > 0
    for result in (
        lp_solve(ps_system(score2_table(), g)[0]),
        lp_solve(ns_reference.ps_system(score2_table(), g, input_priors=skew)[0]),
    ):
        assert not result.is_optimal or result.value == 0
    # the recorded counterexample: an equal mixture of the strategies
    # (a = 0, b = 0) and (a = x, b = 0) is classical, hence accepted with
    # uniform copies, yet its skewed-copy system is infeasible
    def counterexample(v):
        a_const = Fraction(int(v["A"] == 0 and v["B"] == 0))
        a_track = Fraction(int(v["A"] == v["X"] and v["B"] == 0))
        return (a_const + a_track) / 2

    box = Kernel.from_function(
        vertices[0].table.outcome_vars, vertices[0].table.index_vars, counterexample
    )
    joint = join_inputs(box, uniform_table((("X", 2),)))
    assert lp_solve(ps_system(joint, g)[0]).value > 0
    skewed = lp_solve(ns_reference.ps_system(joint, g, input_priors=skew)[0])
    assert skewed.status == "infeasible"


def _skewed_network_joint(g, rng, x_prior, latent_cardinality=3):
    """A seeded network joint on ``g`` whose setting X has the CPT ``x_prior``."""
    cpts = dict(random_network(g, rng, latent_cardinality=latent_cardinality).cpts)
    cpts["X"] = Kernel.from_mapping(
        (("X", 2),), (), {(v,): w for v, w in enumerate(x_prior)}
    )
    return ClassicalNetwork(g, cpts).joint_observed()


def test_skewed_setting_prior_is_read_from_the_joint(rng):
    """A classical model with a non-uniform setting prior is a member as it
    stands.  Its certificate, run with the joint's setting marginal and a
    uniform copy, projects back to the joint entry for entry."""
    g = instrumental_graph()
    h = build_hypergraph(g)
    p = _skewed_network_joint(g, rng, (Fraction(1, 5), Fraction(4, 5)))
    verdict = ps_member(p, g)
    assert verdict.member and 0 < verdict.scale <= 1
    assert check_nested(p, g).member
    settings = _setting_table(verdict.certificate.index_vars, _derived_priors(p, g))
    projected = project(join_inputs(verdict.certificate, settings), h.copies)
    assert reorder(p, projected.outcome_vars, ()) == projected


HIERARCHY_GRAPHS = {
    "chsh": chsh_graph,
    "gyni": gyni_graph,
    "instrumental": instrumental_graph,
    "tripartite": tripartite_bell_graph,
}


@pytest.mark.parametrize("name", sorted(HIERARCHY_GRAPHS))
def test_network_joints_climb_the_hierarchy(name):
    """C(G) ⊆ PS(G) ⊆ N(G) on seeded network joints, whose random root CPTs
    leave their settings skewed."""
    g = HIERARCHY_GRAPHS[name]()
    skewed = 0
    for seed in range(5):
        p = random_network(g, random.Random(seed), latent_cardinality=2).joint_observed()
        priors = _derived_priors(p, g)
        skewed += any(len(set(priors[i].values())) > 1 for i in _priors(g))
        assert classical_member(p, g).member
        verdict = ps_member(p, g)
        assert verdict.member and 0 < verdict.scale <= 1
        assert check_nested(p, g).member
    assert skewed >= 3


def _small_rows(rng, outcome_vars, index_vars):
    """A kernel whose rows have denominators of at most 12, zeros included."""
    width = prod(c for _, c in index_vars)
    height = prod(c for _, c in outcome_vars)
    rows = []
    for _ in range(width):
        w = [rng.choice((0, 0, 1, 2, 3)) for _ in range(height)]
        w[rng.randrange(height)] += not any(w)
        rows.append([Fraction(x, sum(w)) for x in w])
    entries = [rows[k % width][k // width] for k in range(width * height)]
    return Kernel(outcome_vars, index_vars, entries)


def test_ps_is_classical_on_the_binary_instrumental_graph():
    """PS(G) = C(G) on the binary instrumental graph: the LP lift and the
    deterministic strategies agree on seeded tables with zero cells."""
    g = instrumental_graph()
    rng = random.Random(13)
    verdicts = []
    for _ in range(120):
        k = _small_rows(rng, (("A", 2), ("B", 2)), (("X", 2),))
        member = classical_member(k, g).member
        assert ps_member(join_inputs(k, uniform_table(k.index_vars)), g).member == member
        verdicts.append(member)
    assert 20 <= sum(verdicts) <= 110


def test_ps_is_no_signalling_on_chsh():
    """PS(G) = NS on chsh: the PS verdict is ``ns_member``'s, and exactly
    its members decompose into a PR box plus local boxes."""
    g = chsh_graph()
    h = build_hypergraph(g)
    vertices = ns_box_vertices()
    template = vertices[0]
    signalling = Kernel.from_function(  # A answers Bob's input Y
        template.outcome_vars, template.index_vars, lambda v: int(v["A"] == v["Y"] and v["B"] == 0)
    )
    rng = random.Random(14)
    verdicts = []
    for n in range(60):
        picks = rng.sample(vertices, rng.randint(1, 3)) + [signalling] * (n % 2)
        weights = [rng.randint(1, 3) for _ in picks]
        box = Kernel(template.outcome_vars, template.index_vars, [
            sum(Fraction(w, sum(weights)) * t.entries[k] for w, t in zip(weights, picks))
            for k in range(len(template.entries))
        ])
        member = ns_member(box, h)
        assert ps_member(join_inputs(box, uniform_table(box.index_vars)), g).member == member
        if member:
            decompose_ns_box(box)
        else:
            with pytest.raises(NotNoSignallingError):
                decompose_ns_box(box)
        verdicts.append(member)
    assert verdicts == [n % 2 == 0 for n in range(60)]


@pytest.mark.parametrize("make", [chsh_graph, instrumental_graph], ids=["chsh", "instrumental"])
def test_never_used_setting_value_is_a_ps_member(make, rng):
    """A setting value the joint never takes leaves pinning rows 0 = 0."""
    g = make()
    p = _skewed_network_joint(g, rng, (Fraction(1), Fraction(0)), latent_cardinality=2)
    assert ps_member(p, g).member
    assert check_nested(p, g).member and i_member(p, g).member


def test_correlated_settings_are_rejected_by_ps_and_i():
    """Settings that always agree break X _||_ Y: no lift carries them."""
    g = chsh_graph()
    diagonal = Kernel.from_function(
        (("X", 2), ("Y", 2)), (), lambda v: Fraction(int(v["X"] == v["Y"]), 2)
    )
    p = join_inputs(local_box(5), diagonal)
    assert ps_member(p, g).status == "not_member"
    assert not i_member(p, g).member
    assert not check_nested(p, g).member


def test_swapping_needs_certificate_and_accepts_itself():
    g = swapping_graph()
    joint = join_inputs(swapping_box(), uniform_table((("X", 2), ("Z", 2))))
    verdict = ps_member(joint, g)
    assert verdict.status == "unsupported"
    # the graph is already Bell-type, so the joint is its own candidate lift
    verdict = ps_member(joint, g, certificate=joint)
    assert verdict.member


def test_certificate_rejected_when_it_violates_independences():
    g = swapping_graph()
    joint = join_inputs(swapping_box(), uniform_table((("X", 2), ("Z", 2))))
    # a signalling candidate: A copies Z
    bad = Kernel.from_function(
        joint.outcome_vars,
        (),
        lambda v: Fraction(1, 8) if v["A"] == v["Z"] and v["C"] == v["B"] else 0,
    )
    verdict = ps_member(joint, g, certificate=bad)
    assert verdict.status == "not_member"
    assert verdict.reason.startswith("certificate violates ")


def test_certificate_rejected_when_it_projects_elsewhere():
    """The uniform joint satisfies every independence of the swapping graph,
    which is its own lift, but it is not the swapping joint."""
    g = swapping_graph()
    joint = join_inputs(swapping_box(), uniform_table((("X", 2), ("Z", 2))))
    verdict = ps_member(joint, g, certificate=uniform_table(joint.outcome_vars))
    assert verdict.status == "not_member"
    assert verdict.reason == "certificate does not project to the target"


def test_certificate_must_be_a_joint_over_the_lifted_vertices():
    """A certificate of another shape is an input error, not a verdict: the
    conditional box the LP returns, and a joint missing the copies."""
    g = gyni_graph()
    joint = join_inputs(gyni_projected(), uniform_table((("X", 2),)))
    box = ps_member(joint, g).certificate
    for certificate in (box, joint):
        with pytest.raises(ValueError, match=r"joint table over the lifted vertices \[\('A', 2\)"):
            ps_member(joint, g, certificate=certificate)


def test_latent_free_graphs_decided_by_lp_only_with_one_outcome(rng):
    """With no latent, one outcome vertex is decided by the LP, whose
    certificate is the kernel itself; two outcome vertices are unsupported."""
    g = CausalDag([("X", OBSERVED, 2), ("A", OBSERVED, 2)], [("X", "A")])
    kernel, _ = split_joint(random_network(g, rng).joint_observed(), ["X"])
    verdict = ps_member(join_inputs(kernel, uniform_table((("X", 2),))), g)
    assert verdict.member and verdict.certificate == kernel
    g2 = CausalDag(
        [(v, OBSERVED, 2) for v in ("X", "A", "Y", "B")], [("X", "A"), ("Y", "B")]
    )
    assert ps_member(random_network(g2, rng).joint_observed(), g2).status == "unsupported"


def test_ps_system_refuses_lifts_outside_the_lp_scope():
    """ps_system builds no LP where ps_member says unsupported: a latent-free
    graph with two outputs, and mediation, whose output B has no latent
    parent.  Both LPs used to be optimal, with t = 1 and t = 1/4."""
    g = CausalDag([(v, OBSERVED, 2) for v in "XAYB"], [("X", "A"), ("Y", "B")])
    pr_joint = join_inputs(pr_box(), uniform_table((("X", 2), ("Y", 2))))
    district_pr = Kernel.from_function(  # 1/4 PR(a, c | x, b), B uniform
        (("A", 2), ("B", 2), ("C", 2), ("X", 2)),
        (),
        lambda v: Fraction(1, 8) if v["A"] ^ v["C"] == v["X"] & v["B"] else Fraction(0),
    )
    for graph, joint, loose in ((g, pr_joint, "A, B"), (mediation_graph(), district_pr, "B")):
        assert ps_member(joint, graph).status == "unsupported"
        with pytest.raises(ValueError, match=f"without a latent parent: {loose};") as info:
            ps_system(joint, graph)
        assert not isinstance(info.value, MultiLatentError)


def test_mediation_unsupported_but_lift_certificate_verifies(rng):
    """The mediation hypergraph has an outcome vertex untouched by the
    latent, so the LP route declines; the explicit network lift serves as a
    verifiable certificate."""
    g = mediation_graph()
    h = build_hypergraph(g)
    net = random_network(g, rng, latent_cardinality=3)
    joint = net.joint_observed()
    verdict = ps_member(joint, g)
    assert verdict.status == "unsupported"
    certificate = lift_network(net, h).joint_observed()
    verdict = ps_member(joint, g, certificate=certificate)
    assert verdict.member


def test_inclusion_chain_fixture_witnesses():
    # PR box: inside NS and PS on the Bell structure, outside classical
    g = chsh_graph()
    pr_joint = join_inputs(pr_box(), uniform_table((("X", 2), ("Y", 2))))
    assert ps_member(pr_joint, g).member
    assert check_nested(pr_joint, g).member
    assert not classical_member(pr_box(), g).member
    # score-2 table: nested member, PS non-member (shown above)
    # GYNI projection: PS member, classical non-member
    gg = gyni_graph()
    assert not classical_member(gyni_projected(), gg).member
    joint = join_inputs(gyni_projected(), uniform_table((("X", 2),)))
    assert ps_member(joint, gg).member


def test_c_is_strictly_inside_ps_on_the_ternary_instrumental_graph():
    """Bonet's instrumental graph with a ternary instrument: X (3 values)
    -> A -> B, Lambda -> {A, B}.  A is a fair coin; B copies A at X = 0 and
    is 0 at X = 1 and 1 at X = 2.  No classical model gives it: on the
    values of Lambda under which A = 1 at X = 1, B = 0 on A = 1, so A = 0
    at X = 2 and B = 1 on A = 0, and then B = A fails at X = 0 for either
    value of A.  The lift is a 3 x 2 Bell scenario (settings X and the copy
    A_B), where the box is post-selected from a no-signalling box, so it is
    in PS, N and I."""
    g = CausalDag(
        [("A", OBSERVED, 2), ("B", OBSERVED, 2), ("X", OBSERVED, 3), ("Lambda", LATENT)],
        [("X", "A"), ("A", "B"), ("Lambda", "A"), ("Lambda", "B")],
    )
    box = Kernel.from_function(
        (("A", 2), ("B", 2)),
        (("X", 3),),
        lambda v: Fraction(int(v["B"] == (v["A"], 0, 1)[v["X"]]), 2),
    )
    joint = join_inputs(box, uniform_table((("X", 3),)))
    assert not classical_member(box, g).member
    assert not classical_member(joint, g).member
    verdict = ps_member(joint, g)
    assert verdict.member
    assert check_nested(joint, g).member and i_member(joint, g).member
    h = build_hypergraph(g)
    certificate = verdict.certificate
    assert certificate.index_vars == (("A_B", 2), ("X", 3))
    assert ns_member(certificate, h)
    lift = join_inputs(certificate, uniform_table(certificate.index_vars))
    assert ps_member(joint, g, certificate=lift).member
