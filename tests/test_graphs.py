"""Graph core: validation, orders, mDAGs, districts, d-separation, lift."""

from itertools import combinations, permutations

import pytest

from causalbox import (
    CausalDag,
    CiConstraint,
    CycleError,
    FixedNotParentlessError,
    LATENT,
    NotADistrictError,
    OBSERVED,
    build_hypergraph,
    chsh_graph,
    ci_constraints,
    d_separated,
    districts,
    gyni_graph,
    instrumental_graph,
    is_bell_type,
    marginal_mdag,
    mediation_graph,
    subgraph,
    swapping_graph,
    to_mdag,
    topological_order,
    triangle_graph,
    UnknownVertexError,
    validate,
)

from conftest import all_test_graphs, district_demo_graph


# -- validation --------------------------------------------------------------


def test_mediation_graph_valid():
    assert validate(mediation_graph()) == []


def test_latent_with_incoming_edge_reported():
    dag = CausalDag(
        [("A", OBSERVED, 2), ("L", LATENT)],
        [("A", "L"), ("L", "A")],
    )
    report = validate(dag)
    assert any("incoming" in line for line in report)


def test_cycle_reported():
    dag = CausalDag([("A", OBSERVED, 2), ("B", OBSERVED, 2)], [("A", "B"), ("B", "A")])
    assert any("cycle" in line for line in validate(dag))
    with pytest.raises(CycleError):
        topological_order(dag)


def test_unknown_edge_endpoint_reported():
    dag = CausalDag([("A", OBSERVED, 2)], [("A", "Q")])
    assert any("unknown" in line for line in validate(dag))


def test_all_fixture_graphs_valid():
    for name, dag in all_test_graphs().items():
        assert validate(dag) == [], name


# -- topological order --------------------------------------------------------


def test_chain_order_unique():
    dag = CausalDag(
        [("X", OBSERVED, 2), ("A", OBSERVED, 2), ("B", OBSERVED, 2)],
        [("X", "A"), ("A", "B")],
    )
    assert topological_order(dag) == ["X", "A", "B"]


def test_mediation_order_tie_break_puts_latent_first():
    assert topological_order(mediation_graph()) == ["Lambda", "X", "A", "B", "C"]


def test_empty_graph_order():
    assert topological_order(CausalDag([], [])) == []


# -- mDAG and districts --------------------------------------------------------


def test_mediation_mdag():
    m = to_mdag(mediation_graph())
    assert frozenset({"A", "C"}) in m.faces
    assert m.edges == frozenset({("X", "A"), ("A", "B"), ("B", "C")})
    assert sorted(map(sorted, districts(m))) == [["A", "C"], ["B"], ["X"]]


def test_chsh_mdag_single_face():
    m = to_mdag(chsh_graph())
    assert frozenset({"A", "B"}) in m.faces
    assert m.edges == frozenset({("X", "A"), ("Y", "B")})


def test_no_latents_gives_singletons():
    dag = CausalDag(
        [("X", OBSERVED, 2), ("A", OBSERVED, 2)], [("X", "A")]
    )
    m = to_mdag(dag)
    assert m.faces == frozenset({frozenset({"X"}), frozenset({"A"})})
    assert sorted(map(sorted, districts(m))) == [["A"], ["X"]]


def test_fixed_must_be_parentless():
    with pytest.raises(FixedNotParentlessError):
        to_mdag(mediation_graph(), {"A"})


def test_district_demo_partition():
    m = to_mdag(district_demo_graph())
    assert sorted(map(sorted, districts(m))) == [
        ["A", "B", "C", "D", "E"],
        ["X"],
        ["Y"],
    ]


@pytest.mark.parametrize("name,dag", sorted(all_test_graphs().items()))
def test_districts_partition_random_vertices(name, dag):
    m = to_mdag(dag)
    parts = districts(m)
    union = set().union(*parts) if parts else set()
    assert union == set(m.random_vertices)
    for d1, d2 in combinations(parts, 2):
        assert not (d1 & d2)


def test_mdag_invariants_enforced_on_construction():
    from causalbox import MDag

    with pytest.raises(ValueError, match="incoming edge"):
        MDag(["A"], ["W"], [("A", "W")], [["A"]])
    with pytest.raises(ValueError, match="overlap"):
        MDag(["A"], ["A"], [], [])
    with pytest.raises(ValueError, match="vertex pool"):
        MDag(["A"], [], [("Q", "A")], [["A"]])


def test_mediation_subgraphs():
    m = to_mdag(mediation_graph())
    sub = subgraph(m, frozenset({"A", "C"}))
    assert sub.random_vertices == ("A", "C")
    assert sub.fixed_vertices == ("B", "X")
    assert frozenset({"A", "C"}) in sub.faces
    root = subgraph(m, frozenset({"X"}))
    assert root.fixed_vertices == ()
    mid = subgraph(m, frozenset({"B"}))
    assert mid.fixed_vertices == ("A",)
    with pytest.raises(NotADistrictError):
        subgraph(m, frozenset({"A", "B"}))


def test_marginal_mdag_drops_only_a_childless_random_vertex():
    m = to_mdag(mediation_graph())
    assert marginal_mdag(m, "C").random_vertices == ("A", "B", "X")
    with pytest.raises(UnknownVertexError):
        marginal_mdag(m, "Q")
    with pytest.raises(ValueError, match="B is not childless"):
        marginal_mdag(m, "B")


# -- d-separation ---------------------------------------------------------------


def _simple_paths(dag, start, end):
    edges = dag.edges
    neighbors = {}
    for v in dag.names():
        neighbors[v] = dag.parents(v) | dag.children(v)
    stack = [(start, [start])]
    while stack:
        v, path = stack.pop()
        if v == end:
            yield path
            continue
        for n in sorted(neighbors[v]):
            if n not in path:
                stack.append((n, path + [n]))


def oracle_d_separated(dag, a, b, z):
    """Brute force: enumerate every simple path and apply the blocking rules."""
    z = set(z)
    for u in a:
        for v in b:
            for path in _simple_paths(dag, u, v):
                active = True
                for i in range(1, len(path) - 1):
                    w = path[i]
                    into_left = (path[i - 1], w) in dag.edges
                    into_right = (path[i + 1], w) in dag.edges
                    if into_left and into_right:  # collider
                        if not (dag.descendants(w) & z):
                            active = False
                            break
                    elif w in z:
                        active = False
                        break
                if active:
                    return False
    return True


def test_mediation_dsep_examples():
    g = mediation_graph()
    assert d_separated(g, {"X"}, {"B"}, {"A"})
    assert not d_separated(g, {"X"}, {"B"}, set())
    assert not d_separated(g, {"X"}, {"B"}, {"A", "C"})


def test_chsh_dsep_examples():
    g = chsh_graph()
    assert d_separated(g, {"X"}, {"B"}, set())
    # conditioning on the collider A opens the path through the latent
    assert not d_separated(g, {"X"}, {"B"}, {"A"})


def test_dsep_rejects_overlap():
    with pytest.raises(ValueError):
        d_separated(chsh_graph(), {"A"}, {"A"}, set())


@pytest.mark.parametrize("name,dag", sorted(all_test_graphs().items()))
def test_dsep_matches_path_oracle(name, dag):
    names = sorted(dag.names())
    if len(names) > 7:
        pytest.skip("oracle only run on small graphs")
    for u, v in combinations(names, 2):
        rest = [w for w in names if w not in (u, v)]
        for r in range(len(rest) + 1):
            for given in combinations(rest, r):
                expected = oracle_d_separated(dag, {u}, {v}, set(given))
                assert d_separated(dag, {u}, {v}, set(given)) == expected
                assert d_separated(dag, {v}, {u}, set(given)) == expected


def test_dsep_monotone_without_colliders():
    # in a graph where no vertex has two parents, conditioning never unblocks
    chain = CausalDag(
        [(n, OBSERVED, 2) for n in "ABCDE"],
        [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")],
    )
    tree = CausalDag(
        [(n, OBSERVED, 2) for n in "RABCD"],
        [("R", "A"), ("R", "B"), ("A", "C"), ("A", "D")],
    )
    for dag in (chain, tree):
        names = sorted(dag.names())
        for u, v in combinations(names, 2):
            rest = [w for w in names if w not in (u, v)]
            for r in range(len(rest) + 1):
                for given in combinations(rest, r):
                    if not d_separated(dag, {u}, {v}, set(given)):
                        continue
                    for extra in rest:
                        if extra in given:
                            continue
                        assert d_separated(dag, {u}, {v}, set(given) | {extra})


# -- conditional independence enumeration ---------------------------------------


def test_instrumental_has_no_ci():
    assert ci_constraints(instrumental_graph()) == []


def test_triangle_has_no_ci():
    assert ci_constraints(triangle_graph()) == []


def test_ci_order_is_the_sort_key_whatever_the_input_order():
    """Subset order on ``given`` is partial; the sort key is total."""
    records = [
        CiConstraint("A", "B", frozenset(given))
        for given in ({"C"}, {"D"}, set(), {"C", "D"}, {"E"})
    ] + [CiConstraint("A", "C", frozenset({"B"})), CiConstraint("B", "C", frozenset())]
    expected = sorted(records, key=CiConstraint.sort_key)
    for perm in permutations(records):
        assert sorted(perm) == expected
    a, b = records[:2]
    assert a < b and not b < a and a <= a and b > a and b >= a


def test_ci_given_is_a_frozenset_whatever_the_input():
    record = CiConstraint("A", "B", {"C"})
    assert type(record.given) is frozenset
    assert record == CiConstraint("A", "B", frozenset({"C"}))
    assert hash(record) == hash(CiConstraint("A", "B", frozenset({"C"})))
    assert CiConstraint("A", "B", ["C", "D"]) == CiConstraint("A", "B", given={"D", "C"})
    assert CiConstraint("A", "B").given == frozenset()


def test_swapping_ci_includes_expected_pairs():
    records = ci_constraints(swapping_graph())
    pairs = {(r.a, r.b) for r in records if not r.given}
    for pair in [("B", "X"), ("C", "X"), ("X", "Z"), ("A", "Z"), ("B", "Z"), ("A", "C")]:
        assert tuple(sorted(pair)) in pairs


# -- hypergraph lift -------------------------------------------------------------


def test_mediation_lift_adds_two_copies():
    h = build_hypergraph(mediation_graph())
    assert h.copy_map == {"A_B": ("A", "B"), "B_C": ("B", "C")}
    assert is_bell_type(h.base)
    # copies are roots with one child and inherit the source cardinality
    for u, (src, child) in h.copy_map.items():
        assert h.base.parents(u) == set()
        assert h.base.children(u) == {child}
        assert h.base.cardinality(u) == h.base.cardinality(src)


def test_gyni_lift_is_tripartite_bell():
    h = build_hypergraph(gyni_graph())
    assert sorted(h.copy_map) == ["A_B", "B_C"]
    lam = h.base.latent()[0]
    assert h.base.children(lam) == {"A", "B", "C"}
    assert h.base.parents("B") == {"A_B", lam}
    assert h.base.parents("C") == {"B_C", lam}


def test_bell_graph_lift_is_identity():
    for g in (chsh_graph(), swapping_graph(), triangle_graph()):
        h = build_hypergraph(g)
        assert h.copy_map == {}
        assert h.base.edges == g.edges


@pytest.mark.parametrize("name,dag", sorted(all_test_graphs().items()))
def test_lift_idempotent_and_bell_type(name, dag):
    h = build_hypergraph(dag)
    assert is_bell_type(h.base)
    again = build_hypergraph(h.base)
    assert again.copy_map == {}
    assert validate(h.base) == []


def test_degenerate_graphs_work():
    from causalbox import enumerate_constraints

    empty = CausalDag([], [])
    assert validate(empty) == []
    assert topological_order(empty) == []
    assert enumerate_constraints(empty) == []
    single = CausalDag([("A", OBSERVED, 2)], [])
    assert enumerate_constraints(single) == []
    assert districts(to_mdag(single)) == [frozenset({"A"})]


def test_copy_name_collision_resolved():
    dag = CausalDag(
        [
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 2),
            ("A_B", OBSERVED, 2),
            ("X", OBSERVED, 2),
            ("L", LATENT),
        ],
        [("X", "A"), ("A", "B"), ("L", "A"), ("L", "B")],
    )
    h = build_hypergraph(dag)
    (copy,) = h.copy_map
    assert copy != "A_B" and h.base.has_vertex(copy)
