"""Graph core: validation, orders, mDAGs, districts, d-separation, lift."""

import pickle
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbox import (
    CausalDag,
    CiConstraint,
    CycleError,
    FixedNotParentlessError,
    HyperDag,
    LATENT,
    MDag,
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
    VertexSpec,
    validate,
)

from causalbox import graphs
from conftest import all_test_graphs, district_demo_graph, run_fresh
import graphs_reference as ref


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


@pytest.mark.parametrize(
    "vertices, line",
    [
        ([("A", OBSERVED, 2), ("A", OBSERVED, 2)], "duplicate vertex names"),
        ([("A", OBSERVED)], "observed vertex A needs a positive cardinality"),
        ([("A", OBSERVED, True)], "observed vertex A needs a positive cardinality"),
        ([("A", OBSERVED, 2.0)], "observed vertex A needs a positive cardinality"),
        ([("A", OBSERVED, "2")], "observed vertex A needs a positive cardinality"),
        ([("L", LATENT, 2), ("A", OBSERVED, 2)], "latent vertex L must not carry a cardinality"),
    ],
    ids=["duplicate", "observed-without-cardinality", "bool-cardinality", "float-cardinality",
         "str-cardinality", "latent-with-cardinality"],
)
def test_vertex_invariants_reported(vertices, line):
    assert line in validate(CausalDag(vertices))


def test_vertex_lookups_reject_bad_input():
    with pytest.raises(ValueError, match="kind must be 'observed' or 'latent'"):
        VertexSpec("A", "hidden")
    with pytest.raises(UnknownVertexError, match="Q"):
        mediation_graph().spec("Q")
    with pytest.raises(ValueError, match="latent vertex Lambda carries no cardinality"):
        mediation_graph().cardinality("Lambda")


def test_lookup_maps_are_not_part_of_the_record():
    """Two graphs built alike are one value: the adjacency maps built in
    ``__init__`` take no part in equality, hash, repr or the CI cache key,
    and they survive a pickle round trip."""
    def build():
        return CausalDag([("P", OBSERVED, 2), ("Q", OBSERVED, 3), ("M", LATENT)],
                         [("M", "P"), ("M", "Q"), ("P", "Q")])

    g, h = build(), build()
    assert g is not h and g == h and hash(g) == hash(h) and repr(g) == repr(h)
    ci_constraints(g)
    before = graphs._ci_constraints_cached.cache_info()
    assert ci_constraints(h) == ci_constraints(g)
    after = graphs._ci_constraints_cached.cache_info()
    assert (after.hits, after.currsize) == (before.hits + 2, before.currsize)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and hash(back) == hash(g)
    assert vars(back).keys() == vars(g).keys()
    for v in ("P", "Q", "M", "unknown"):
        assert back.parents(v) == g.parents(v) and back.children(v) == g.children(v)
    assert back.spec("Q") == g.spec("Q") and back.cardinality("Q") == 3
    assert not d_separated(back, {"P"}, {"Q"}, set())


def test_parents_and_children_are_frozensets():
    g = mediation_graph()
    assert g.parents("C") == frozenset({"B", "Lambda"})
    assert g.children("Lambda") == frozenset({"A", "C"})
    for v in g.names() + ["unknown"]:
        assert type(g.parents(v)) is frozenset and type(g.children(v)) is frozenset
    assert g.parents("unknown") == g.children("C") == frozenset()


def test_first_spec_of_a_repeated_name_wins():
    g = CausalDag([("A", OBSERVED, 2), ("A", OBSERVED, 3), ("B", LATENT), ("B", OBSERVED, 4)])
    assert g.spec("A") == VertexSpec("A", OBSERVED, 2) and g.cardinality("A") == 2
    assert g.spec("B").kind == LATENT and g.has_vertex("B") and not g.has_vertex("C")


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


_UNKNOWN_EDGE_PROBE = """
from causalbox import OBSERVED, CausalDag, UnknownVertexError, topological_order
try:
    topological_order(CausalDag([("A", OBSERVED, 2)], [("A", "P"), ("Q", "A"), ("A", "R")]))
except UnknownVertexError as exc:
    print(exc.args[0])
"""


def test_unknown_edge_named_independent_of_hash_seed():
    """The first unknown edge in sorted order is named, whatever order the
    edges' frozenset iterates in under each hash seed."""
    messages = {run_fresh(_UNKNOWN_EDGE_PROBE, PYTHONHASHSEED=str(seed)) for seed in range(1, 6)}
    assert messages == {"edge (A, P) references unknown vertex\n"}


def _reference_order(dag):
    """Brute force: place the smallest name whose parents are all placed."""
    names, order = set(dag.names()), []
    while len(order) < len(names):
        ready = [v for v in names - set(order) if dag.parents(v) <= set(order)]
        if not ready:
            raise CycleError(f"cycle detected among {sorted(names - set(order))}")
        order.append(min(ready))
    return order


def _order_outcome(order_of, dag):
    try:
        return order_of(dag)
    except CycleError as exc:
        return str(exc)


@st.composite
def _directed_graphs(draw):
    """One to six vertices with any edges among them, self-loops and cycles
    included."""
    names = draw(st.lists(st.sampled_from(["A", "A1", "B", "C", "L", "X", "Y"]),
                          min_size=1, max_size=6, unique=True))
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    return CausalDag([(v, OBSERVED, 2) for v in names], draw(st.lists(pairs, max_size=9)))


@given(_directed_graphs())
@settings(max_examples=300, deadline=None)
def test_topological_order_matches_brute_force(dag):
    assert _order_outcome(topological_order, dag) == _order_outcome(_reference_order, dag)


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
    neighbors = {}
    for u, v in dag.edges:
        neighbors.setdefault(u, set()).add(v)
        neighbors.setdefault(v, set()).add(u)
    stack = [(start, [start])]
    while stack:
        v, path = stack.pop()
        if v == end:
            yield path
            continue
        for n in sorted(neighbors.get(v, ())):
            if n not in path:
                stack.append((n, path + [n]))


def _reaches(dag, w, z):
    """Whether a directed path, possibly of length 0, leads from ``w`` into
    ``z``; found by scanning ``dag.edges`` until no vertex is added."""
    seen = {w}
    grew = True
    while grew:
        grew = False
        for u, v in dag.edges:
            if u in seen and v not in seen:
                seen.add(v)
                grew = True
    return bool(seen & z)


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
                        if not _reaches(dag, w, z):
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
    assert d_separated(g, set(), {"B"}, {"A"})
    assert d_separated(g, {"X"}, [], set())


def test_chsh_dsep_examples():
    g = chsh_graph()
    assert d_separated(g, {"X"}, {"B"}, set())
    # conditioning on the collider A opens the path through the latent
    assert not d_separated(g, {"X"}, {"B"}, {"A"})


def test_dsep_rejects_overlap():
    with pytest.raises(ValueError):
        d_separated(chsh_graph(), {"A"}, {"A"}, set())


@pytest.mark.parametrize("a, b, z, label", [
    ("V0", ["V2"], [], "a"), (["V0"], "V2", [], "b"), (["V0"], ["V2"], "V1", "z"), (["V0"], ["V2"], "", "z"),
])
def test_dsep_refuses_a_string_as_a_group(a, b, z, label):
    """A bare string would split into characters: "V0" would name V and 0."""
    g = _chain_with_latents(6, [(0, 2), (3, 5)])
    with pytest.raises(TypeError, match=f"^{label} is the string '.*', not a collection of names$"):
        d_separated(g, a, b, z)


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


_NAMES = ["A", "B", "C", "D", "E", "F", "G"]


@st.composite
def _latent_root_dags(draw):
    """3-7 observed vertices with edges forward in a drawn order, and 0-3
    latent roots with 1-3 observed children each.  Sometimes one name is
    repeated, with another kind or cardinality, or one edge points to a
    vertex that does not exist."""
    order = draw(st.permutations(_NAMES[: draw(st.integers(3, 7))]))
    forward = [(u, v) for i, u in enumerate(order) for v in order[i + 1:]]
    edges = draw(st.sets(st.sampled_from(forward)))
    latents = [f"L{k}" for k in range(draw(st.integers(0, 3)))]
    for lam in latents:
        edges |= {(lam, v) for v in draw(st.sets(st.sampled_from(order), min_size=1, max_size=3))}
    vertices = [(v, OBSERVED, 2) for v in order] + [(lam, LATENT) for lam in latents]
    for name, kind in draw(st.lists(st.tuples(st.sampled_from(order + latents),
                                              st.sampled_from([OBSERVED, LATENT])), max_size=1)):
        vertices.insert(draw(st.integers(0, len(vertices))),
                        (name, kind, 3) if kind == OBSERVED else (name, kind))
    edges |= set(draw(st.lists(st.tuples(st.sampled_from(order), st.just("Q")), max_size=1)))
    return CausalDag(vertices, edges)


def _outcome(query, *args):
    try:
        return query(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(_latent_root_dags(), st.data())
@settings(max_examples=200, deadline=None)
def test_graph_queries_match_edge_scanning_reference(dag, data):
    """d-separation, CI enumeration and topological order read the adjacency
    maps and give the edge-scanning reference's booleans, records in the
    same order, orders, and exception types and messages."""
    names = sorted(set(dag.names()) | {"Q", "Z"})
    groups = st.lists(st.sampled_from(names), max_size=3)
    for _ in range(8):
        a, b, z = data.draw(groups), data.draw(groups), data.draw(groups)
        assert _outcome(d_separated, dag, a, b, z) == _outcome(ref.d_separated, dag, a, b, z)
    assert _outcome(ci_constraints, dag) == _outcome(lambda g: list(ref.ci_constraints(g)), dag)
    assert _outcome(topological_order, dag) == _outcome(ref.topological_order, dag)


def _chain_with_latents(n, confounded):
    """V0 -> V1 -> ... -> V{n-1}, and latent Lk a common cause of the k-th
    pair of vertex indices in ``confounded``."""
    names = [f"V{i}" for i in range(n)]
    vertices = [(v, OBSERVED, 2) for v in names] + [(f"L{k}", LATENT) for k in range(len(confounded))]
    edges = list(zip(names, names[1:]))
    edges += [(f"L{k}", names[i]) for k, pair in enumerate(confounded) for i in pair]
    return CausalDag(vertices, edges)


@pytest.mark.parametrize("n, confounded, count", [
    (6, [(0, 2), (3, 5)], 56),  # the benchmark's nested-chain graph
    (8, [(0, 2), (3, 5), (5, 7)], 392),
], ids=["chain6", "chain8"])
def test_ci_enumeration_matches_the_reference_on_chains(n, confounded, count):
    """One search per (source, conditioning set) gives the per-pair
    reference's records in order, here also past the 7 observed vertices
    that the hypothesis strategy draws."""
    dag = _chain_with_latents(n, confounded)
    records = ci_constraints(dag)
    assert len(records) == count
    assert records == list(ref.ci_constraints(dag))


def test_ci_enumeration_refuses_a_repeated_observed_name():
    """The error the per-pair reference raises when it asks
    d_separated(dag, {A}, {A}, ...)."""
    dag = CausalDag([("A", OBSERVED, 2), ("B", OBSERVED, 2), ("A", OBSERVED, 3)], [("A", "B")])
    with pytest.raises(ValueError, match="^a, b, z must be pairwise disjoint$"):
        ci_constraints(dag)


def _mdag_fields(m):
    return m.random_vertices, m.fixed_vertices, m.edges, m.faces


@st.composite
def _face_families(draw):
    """A random and a disjoint fixed vertex set, and raw faces: empty,
    repeated and nested ones, and ones naming vertices outside the random
    set or outside the graph."""
    rnd = draw(st.sets(st.sampled_from(_NAMES), max_size=6))
    fixed = draw(st.sets(st.sampled_from(_NAMES), max_size=3)) - rnd
    faces = draw(st.lists(st.sets(st.sampled_from(_NAMES + ["Q", "Z"]), max_size=4), max_size=6))
    faces += [f - {min(f)} for f in faces[:2] if f] + faces[-1:]
    return rnd, fixed, faces


@given(_latent_root_dags(), _face_families(), st.data())
@settings(max_examples=200, deadline=None)
def test_graph_rules_match_the_reference(dag, family, data):
    """MDag's one face normalization, districts as a closure over faces, the
    shared mediator test and the shared unknown-edge check give the earlier
    per-site rules' MDags, districts in the same order, Bell-type verdicts,
    lifts, validation reports and orders or exceptions."""
    roots = sorted(v for v in dag.observed() if not dag.parents(v))
    fixed = data.draw(st.sets(st.sampled_from(roots))) if roots else set()
    mdags = [MDag(*family[:2], (), family[2])]
    assert _mdag_fields(mdags[0]) == ref.mdag_fields(*family[:2], (), family[2])
    for fix in ((), fixed):
        m = to_mdag(dag, fix)
        assert _mdag_fields(m) == ref.to_mdag_fields(dag, fix)
        mdags.append(m)
    for m in mdags:
        assert districts(m) == ref.districts(m)
    assert is_bell_type(dag) == ref.is_bell_type(dag)
    lift = _outcome(build_hypergraph, dag)
    assert lift == _outcome(ref.build_hypergraph, dag)
    if isinstance(lift, HyperDag):
        assert is_bell_type(lift.base) == ref.is_bell_type(lift.base)
    assert validate(dag) == ref.validate(dag)
    assert _outcome(topological_order, dag) == _outcome(ref.topological_order, dag)


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
    assert a.__lt__(("A", "B")) is NotImplemented
    with pytest.raises(TypeError):
        a < ("A", "B")


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
