"""Nested Markov machinery: district kernels, enumeration, membership."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbox import (
    LATENT,
    OBSERVED,
    CausalDag,
    CiConstraint,
    NotADistrictError,
    VermaConstraint,
    ZeroConditioningError,
    build_hypergraph,
    check_nested,
    chsh_graph,
    ci_constraints,
    district_kernel,
    district_kernel_recipe,
    districts,
    enumerate_constraints,
    gyni_graph,
    i_member,
    instrumental_graph,
    mediation_graph,
    prob_table,
    swapping_graph,
    to_mdag,
)
from causalbox import constraints
from causalbox.networks import random_network
from causalbox.recipes import (
    UNIT,
    Evaluator,
    FactorExpr,
    ProductExpr,
    QuotientExpr,
    SumExpr,
    canonical,
    free_vars,
    render,
)
from causalbox.recipes import product as product_expr
from causalbox.tables import (
    Kernel,
    UnknownVariableError,
    assignments,
    conditional,
    marginalize,
    uniform_table,
)

import constraints_reference
import recipes_reference
from conftest import all_test_graphs, district_demo_graph, random_rational_table
from recipes_reference import Evaluator as ReferenceEvaluator


def _mediation_table(rng):
    return random_network(mediation_graph(), rng, latent_cardinality=4).joint_observed()


def _quotient_graph():
    """The smallest graph whose Verma record keeps a quotient: B -> C -> D,
    L0 -> {A, D}, L1 -> {A, B}."""
    return CausalDag(
        [(v, OBSERVED, 2) for v in "ABCD"] + [("L0", LATENT), ("L1", LATENT)],
        [("B", "C"), ("C", "D"), ("L0", "A"), ("L0", "D"), ("L1", "A"), ("L1", "B")],
    )


def _shadowing_graph():
    """V0 -> V1, V2 -> V3 -> V4, L0 -> {V1, V4}, L1 -> {V0, V2}: a record
    sums over V3 inside a quotient whose numerator has V3 free."""
    return CausalDag(
        [(f"V{i}", OBSERVED, 2) for i in range(5)] + [("L0", LATENT), ("L1", LATENT)],
        [("V0", "V1"), ("V2", "V3"), ("V3", "V4"),
         ("L0", "V1"), ("L0", "V4"), ("L1", "V0"), ("L1", "V2")],
    )


# -- district kernels ----------------------------------------------------------


def test_mediation_district_recipe_is_the_verma_kernel():
    recipe = district_kernel_recipe(mediation_graph(), frozenset({"A", "C"}))
    assert render(recipe) == "p(A|X) p(C|A,B,X)"
    assert render(district_kernel_recipe(mediation_graph(), frozenset({"X"}))) == "p(X)"
    assert render(district_kernel_recipe(mediation_graph(), frozenset({"B"}))) == "p(B|A)"


def test_district_recipe_refuses_bad_orders_and_non_districts():
    with pytest.raises(ValueError, match="order must cover all observed vertices"):
        district_kernel_recipe(mediation_graph(), frozenset({"X"}), ["X", "A", "B"])
    with pytest.raises(NotADistrictError, match=r"\['A'\] is not a district"):
        district_kernel_recipe(mediation_graph(), frozenset({"A"}))


def test_mediation_district_kernel_values(rng):
    p = _mediation_table(rng)
    q = district_kernel(p, mediation_graph(), frozenset({"A", "C"}))
    assert q.outcome_vars == (("A", 2), ("C", 2))
    assert q.index_vars == (("B", 2), ("X", 2))
    # q(a, c | x, b) = p(a|x) p(c|x,a,b), computed independently from margins
    p_x = marginalize(p, ["A", "B", "C"])
    p_xa = marginalize(p, ["B", "C"])
    p_xab = marginalize(p, ["C"])
    for a, b, c, x in product((0, 1), repeat=4):
        direct = (
            p_xa.value({"X": x, "A": a}) / p_x.value({"X": x})
        ) * (
            p.value({"X": x, "A": a, "B": b, "C": c})
            / p_xab.value({"X": x, "A": a, "B": b})
        )
        assert q.value({"A": a, "C": c, "B": b, "X": x}) == direct


def test_district_kernel_names_the_first_undefined_conditional():
    """With B a copy of A, p(c | a, b, x) is undefined wherever b != a."""
    p = prob_table(
        (("A", 2), ("B", 2), ("C", 2), ("X", 2)),
        lambda v: Fraction(1, 8) if v["B"] == v["A"] else Fraction(0),
    )
    with pytest.raises(ZeroConditioningError) as info:
        district_kernel(p, mediation_graph(), frozenset({"A", "C"}))
    assert info.value.assignment == {"A": 0, "C": 0, "B": 1, "X": 0}


def test_district_factorization_reproduces_table(rng):
    """p(x, a, b, c) = p(x) p(b|a) q(a, c | x, b) for model tables."""
    for graph in (mediation_graph(), instrumental_graph(), gyni_graph(), swapping_graph()):
        p = random_network(graph, rng, latent_cardinality=4).joint_observed()
        m = to_mdag(graph)
        kernels = [district_kernel(p, graph, d) for d in districts(m)]
        for env, value in p.cells():
            prod = Fraction(1)
            for q in kernels:
                prod *= q.value({n: env[n] for n, _ in q.variables})
            assert prod == value


def _all_topological_orders(dag):
    observed = dag.observed()
    for perm in permutations(observed):
        position = {v: i for i, v in enumerate(perm)}
        ok = True
        for a, b in dag.edges:
            if a in position and b in position and position[a] > position[b]:
                ok = False
                break
        if ok:
            yield list(perm)


@pytest.mark.parametrize(
    "graph",
    [mediation_graph(), instrumental_graph(), gyni_graph(), swapping_graph()],
    ids=["mediation", "instrumental", "gyni", "swapping"],
)
def test_district_kernel_order_independence(graph, rng):
    """Exhaustive over topological orders: the evaluated kernel agrees."""
    p = random_network(graph, rng, latent_cardinality=4).joint_observed()
    m = to_mdag(graph)
    for d in districts(m):
        reference = None
        for order in _all_topological_orders(graph):
            q = district_kernel(p, graph, d, order=order)
            if reference is None:
                reference = q
            else:
                assert q == reference, (sorted(d), order)


@pytest.mark.parametrize("order, message", [
    (["C", "B", "A", "X"], "order lists C before its parent B"),
    (["A", "X", "B", "C"], "order lists A before its parent X"),
    (["X", "B", "A", "C"], "order lists B before its parent A"),
])
def test_district_kernel_refuses_an_order_that_is_not_topological(order, message):
    """Read in such an order, a chain factor conditions on a vertex's
    descendants: {A, C} would get the recipe p(C) p(A|B,C) under
    ['C', 'B', 'A', 'X'], yet be indexed by (B, X)."""
    p = random_network(mediation_graph(), random.Random(0)).joint_observed()
    with pytest.raises(ValueError, match=f"^{message}$"):
        district_kernel(p, mediation_graph(), frozenset({"A", "C"}), order=order)
    with pytest.raises(ValueError, match=f"^{message}$"):
        district_kernel_recipe(mediation_graph(), frozenset({"A", "C"}), order)


@pytest.mark.parametrize("order, message", [
    (["X", "A", "A", "B", "C"], "order lists A twice"),
    (["X", "A", "B", "C", "X"], "order lists X twice"),
    (["X", "Q", "A", "B", "C"], "order lists unknown vertex Q"),
], ids=["repeated", "repeated-last", "unknown"])
def test_district_kernel_refuses_a_repeated_or_unknown_name(order, message):
    """Refused before the parent check: a repeat reads as a vertex listed
    before its parent, and an unknown name was dropped without a word."""
    p = random_network(mediation_graph(), random.Random(0)).joint_observed()
    with pytest.raises(ValueError, match=f"^{message}$"):
        district_kernel(p, mediation_graph(), frozenset({"A", "C"}), order=order)
    with pytest.raises(ValueError, match=f"^{message}$"):
        district_kernel_recipe(mediation_graph(), frozenset({"A", "C"}), order)


@pytest.mark.parametrize("table, message", [
    (uniform_table((("A", 2), ("B", 2), ("C", 2), ("X", 3))), "table variables .* do not match"),
    (uniform_table((("A", 2), ("B", 2), ("C", 2), ("X", 2), ("Z", 2))),
     "table variables .* do not match"),
    (Kernel.from_function((("A", 2), ("B", 2), ("C", 2)), (("X", 2),), lambda v: Fraction(1, 8)),
     "district_kernel expects a joint probability table"),
], ids=["cardinality", "extra-variable", "conditional"])
def test_district_kernel_checks_its_joint(table, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        district_kernel(table, mediation_graph(), frozenset({"A", "C"}))


# -- enumeration -----------------------------------------------------------------


def test_mediation_constraints_exact():
    records = enumerate_constraints(mediation_graph())
    cis = [r for r in records if isinstance(r, CiConstraint)]
    vermas = [r for r in records if isinstance(r, VermaConstraint)]
    assert [str(c) for c in cis] == ["CI: B _||_ X | A"]
    assert len(vermas) == 1
    assert str(vermas[0]) == "VERMA: sum_{A} p(A|X) p(C|A,B,X) _||_ X"


def test_verma_independent_of_is_a_frozenset_whatever_the_input():
    records = enumerate_constraints(mediation_graph())
    (verma,) = [r for r in records if isinstance(r, VermaConstraint)]
    record = VermaConstraint(verma.recipe, {"X"})
    assert type(record.independent_of) is frozenset
    assert record == verma and hash(record) == hash(verma)
    assert VermaConstraint(verma.recipe, ["X"]) == verma


def test_instrumental_constraints_empty():
    assert enumerate_constraints(instrumental_graph()) == []


def test_gyni_constraints_empty():
    assert enumerate_constraints(gyni_graph()) == []


def test_swapping_has_ci_but_no_verma():
    records = enumerate_constraints(swapping_graph())
    assert any(isinstance(r, CiConstraint) for r in records)
    assert not any(isinstance(r, VermaConstraint) for r in records)


@pytest.mark.parametrize(
    "graph",
    [mediation_graph(), instrumental_graph(), gyni_graph(), swapping_graph()],
    ids=["mediation", "instrumental", "gyni", "swapping"],
)
def test_lifted_graphs_have_no_verma(graph):
    hyper = build_hypergraph(graph)
    records = enumerate_constraints(hyper.base)
    vermas = [r for r in records if isinstance(r, VermaConstraint)]
    assert vermas == []
    cis = [r for r in records if isinstance(r, CiConstraint)]
    assert cis == ci_constraints(hyper.base)


def _chain_graph():
    """The benchmark's graph: V0 -> ... -> V5, L0 -> {V0, V2}, L1 -> {V3, V5}."""
    names = [f"V{i}" for i in range(6)]
    return CausalDag(
        [(v, OBSERVED, 2) for v in names] + [("L0", LATENT), ("L1", LATENT)],
        list(zip(names, names[1:])) + [("L0", "V0"), ("L0", "V2"), ("L1", "V3"), ("L1", "V5")],
    )


def _random_dag(seed):
    """Three to seven binary observed vertices with forward edges, and one
    to three latents with two or three observed children each."""
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(rng.randint(3, 7))]
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < 0.4]
    latents = [sorted(rng.sample(names, rng.randint(2, 3))) for _ in range(rng.randint(1, 3))]
    return CausalDag(
        [(v, OBSERVED, 2) for v in names] + [(f"L{k}", LATENT) for k in range(len(latents))],
        edges + [(f"L{k}", c) for k, kids in enumerate(latents) for c in kids],
    )


def _records(graphs):
    constraints._enumerate_constraints_cached.cache_clear()
    return [[str(r) for r in enumerate_constraints(g)] for g in graphs]


def test_records_match_the_reference_normalizer(monkeypatch):
    """The one-walker normalizer gives every record of the earlier
    normalizer, in order and byte for byte: on the fixture graphs, the
    benchmark's chain graph and a seeded corpus of random DAGs."""
    graphs = list(all_test_graphs().values()) + [
        district_demo_graph(), _quotient_graph(), _shadowing_graph(), _chain_graph()
    ]
    graphs += [_random_dag(seed) for seed in range(40)]
    try:
        library = _records(graphs)
        monkeypatch.setattr(constraints, "reduce_expr", recipes_reference.reduce_expr)
        monkeypatch.setattr(constraints, "simplify", recipes_reference.simplify)
        reference = _records(graphs)
    finally:
        constraints._enumerate_constraints_cached.cache_clear()
    assert library == reference
    assert sum(r.startswith("VERMA") for records in library for r in records) >= 30


def test_one_pass_reduction_matches_the_multi_pass_reference():
    """One sorted pass over a conditioning set drops what the reference's
    repeated passes drop, and a second application drops nothing: on
    seeded random DAGs with random disjoint observed sets O and G."""
    rng = random.Random(20261020)
    dropped = 0
    for seed in range(200):
        dag = _random_dag(seed)
        names = sorted(dag.observed())
        for _ in range(4):
            rng.shuffle(names)
            k = rng.randint(1, len(names) - 1)
            f = FactorExpr(names[:k], [v for v in names[k:] if rng.random() < 0.7])
            once = constraints._reduce_factor(f, dag)
            assert once == constraints_reference._reduce_factor(f, dag), (seed, f)
            assert constraints._reduce_factor(once, dag) == once, (seed, f)
            dropped += once != f
    assert dropped == 98  # of the 800 conditionals


def _observed_parents(dag, d):
    return set().union(*map(dag.parents, d)) & set(dag.observed()) - d


def test_district_recipes_stay_within_the_district_and_its_parents():
    """By the ordered local Markov property each reduced chain factor of a
    district conditions only on the district and its observed parents, so
    ``district_kernel`` reads q_D off one table over them: on 400 seeded
    DAGs, and on every topological order of the fixture graphs."""
    cases = [(_random_dag(seed), None) for seed in range(400)]
    fixtures = list(all_test_graphs().values()) + [
        district_demo_graph(), _quotient_graph(), _shadowing_graph(), _chain_graph()
    ]
    cases += [(g, order) for g in fixtures for order in _all_topological_orders(g)]
    for dag, order in cases:
        for d in districts(to_mdag(dag)):
            recipe = district_kernel_recipe(dag, d, order)
            assert free_vars(recipe) <= d | _observed_parents(dag, d), (sorted(d), order)


def test_each_kernel_is_reduced_once_per_enumeration(monkeypatch):
    """The recursion meets 25 kernels on the benchmark's chain graph, 12 of
    them again; each distinct one is reduced once."""
    seen, reduce = [], constraints.reduce_expr

    def counting(e, dag):
        seen.append(canonical(e))
        return reduce(e, dag)

    monkeypatch.setattr(constraints, "reduce_expr", counting)
    try:
        constraints._enumerate_constraints_cached.cache_clear()
        records = enumerate_constraints(_chain_graph())
    finally:
        constraints._enumerate_constraints_cached.cache_clear()
    assert len(seen) == len(set(seen)) == 13
    assert sum(isinstance(r, VermaConstraint) for r in records) == 1


def _long_chain_graph():
    """V0 -> ... -> V7 with latents on (V0, V2), (V3, V5) and (V5, V7)."""
    names = [f"V{i}" for i in range(8)]
    latents = [("V0", "V2"), ("V3", "V5"), ("V5", "V7")]
    return CausalDag(
        [(v, OBSERVED, 2) for v in names] + [(f"L{k}", LATENT) for k in range(len(latents))],
        list(zip(names, names[1:]))
        + [(f"L{k}", c) for k, kids in enumerate(latents) for c in kids],
    )


@pytest.mark.parametrize("graph", [_chain_graph(), _long_chain_graph()], ids=["chain6", "chain8"])
def test_records_match_the_reference_recursion(graph):
    """The recursion gives the reference recursion's records, in order and
    byte for byte, on the benchmark's chain and on an 8-vertex chain."""
    constraints._enumerate_constraints_cached.cache_clear()
    try:
        records = enumerate_constraints(graph)
    finally:
        constraints._enumerate_constraints_cached.cache_clear()
    reference = list(constraints_reference.enumerate_constraints(graph))
    assert records == reference
    assert [repr(r) for r in records] == [repr(r) for r in reference]
    assert any(isinstance(r, VermaConstraint) for r in records)


# -- membership -------------------------------------------------------------------


def test_random_mediation_networks_are_members(rng):
    for _ in range(20):
        verdict = check_nested(_mediation_table(rng), mediation_graph())
        assert verdict.member
        assert not verdict.indeterminate


def test_perturbed_table_violates_with_witness(rng):
    p = _mediation_table(rng)
    cells = dict()
    names = p.var_names()
    for values in assignments(p.variables):
        cells[values] = p.value(dict(zip(names, values)))
    # shift mass between two cells that differ in B only, breaking X _||_ B | A
    k0, k1 = (0, 0, 0, 0), (0, 1, 0, 0)
    delta = cells[k0] / 2
    cells[k0] -= delta
    cells[k1] += delta
    broken = Kernel.from_mapping(p.outcome_vars, (), cells)
    verdict = check_nested(broken, mediation_graph())
    assert not verdict.member
    assert verdict.violations
    for violation in verdict.violations:
        assert violation.witness


def test_any_table_is_member_for_instrumental(rng):
    p = random_rational_table(rng, (("A", 2), ("B", 2), ("X", 2)))
    assert check_nested(p, instrumental_graph()).member


def test_verma_violation_detected():
    """A table satisfying the lone CI but violating the Verma record."""
    # deterministic pieces: A = X, C = B xor X; then
    # sum_a p(a|x) p(c|x,a,b) = [c = b xor x] depends on x, while B _||_ X | A
    # fails... instead keep B independent: B uniform independent of everything.
    def fn(v):
        if v["A"] != v["X"]:
            return Fraction(0)
        if v["C"] != (v["B"] ^ v["X"]):
            return Fraction(0)
        return Fraction(1, 4)

    p = prob_table((("A", 2), ("B", 2), ("C", 2), ("X", 2)), fn)
    verdict = check_nested(p, mediation_graph())
    assert not verdict.member
    kinds = {type(v.record) for v in verdict.violations}
    assert VermaConstraint in kinds


def test_soundness_across_graphs(rng):
    """Every classically generated distribution satisfies every record."""
    for graph in (
        chsh_graph(),
        instrumental_graph(),
        mediation_graph(),
        gyni_graph(),
        swapping_graph(),
        _quotient_graph(),
        _shadowing_graph(),
    ):
        for _ in range(100):
            p = random_network(graph, rng, latent_cardinality=4).joint_observed()
            assert check_nested(p, graph).member


@pytest.mark.parametrize(
    "name,vertices,edges,expected",
    [
        (
            "chain5",
            ["X", "A", "B", "C", "D"],
            [("X", "A"), ("A", "B"), ("B", "C"), ("C", "D"), ("L", "A"), ("L", "D")],
            ["VERMA: sum_{A} p(A|X) p(D|A,C,X) _||_ X"],
        ),
        (
            "mediation_plus",
            ["X", "W", "A", "B", "C"],
            [("X", "A"), ("A", "B"), ("W", "B"), ("B", "C"), ("L", "A"), ("L", "C")],
            ["VERMA: sum_{A} p(A|X) p(C|A,B,X) _||_ X"],
        ),
        (
            "crossed_latents",
            ["X", "A", "B", "C", "D"],
            [
                ("X", "A"), ("A", "B"), ("B", "C"), ("C", "D"),
                ("L1", "A"), ("L1", "C"), ("L2", "B"), ("L2", "D"),
            ],
            [
                "VERMA: sum_{A} p(A|X) p(C|A,B,X) _||_ X",
                "VERMA: sum_{B} p(B|A) p(D|A,B,C) _||_ A",
            ],
        ),
        (
            "quotient",
            ["A", "B", "C", "D"],
            [("B", "C"), ("C", "D"), ("L0", "A"), ("L0", "D"), ("L1", "A"), ("L1", "B")],
            ["VERMA: [sum_{A} p(D|A,B,C) p(A,B)] / [p(B)] _||_ B"],
        ),
    ],
)
def test_deeper_verma_families(name, vertices, edges, expected, rng):
    """Longer chains and crossed latents surface the right nested records,
    each violated by some full-support joint, and random classical networks
    on them stay members."""
    from causalbox import CausalDag, LATENT, OBSERVED

    latents = sorted({a for a, _ in edges} - set(vertices))
    dag = CausalDag(
        [(v, OBSERVED, 2) for v in vertices] + [(l, LATENT) for l in latents],
        edges,
    )
    records = enumerate_constraints(dag)
    assert sorted(str(r) for r in records if isinstance(r, VermaConstraint)) == sorted(
        expected
    )
    violated = set()
    for _ in range(10):
        p = random_rational_table(rng, [(v, 2) for v in vertices])
        violated |= {v.record for v in check_nested(p, dag).violations}
    assert {r for r in records if isinstance(r, VermaConstraint)} <= violated
    for _ in range(10):
        p = random_network(dag, rng, latent_cardinality=3).joint_observed()
        assert check_nested(p, dag).member


def test_evaluator_matches_direct_quotient(rng):
    """sum_a p(d|a,b,c) p(a,b) / p(b), evaluated from the recipe and from
    table operations, on a full-support random joint."""
    (recipe,) = [
        r.recipe
        for r in enumerate_constraints(_quotient_graph())
        if isinstance(r, VermaConstraint) and isinstance(r.recipe, QuotientExpr)
    ]
    assert free_vars(recipe) == {"B", "C", "D"}
    p = random_rational_table(rng, [(v, 2) for v in "ABCD"])
    d_given_abc = conditional(p, ["A", "B", "C"])
    p_ab = marginalize(p, ["C", "D"])
    p_b = marginalize(p, ["A", "C", "D"])
    evaluator = Evaluator(p)
    for b, c, d in product((0, 1), repeat=3):
        direct = sum(
            d_given_abc.value({"D": d, "A": a, "B": b, "C": c}) * p_ab.value({"A": a, "B": b})
            for a in (0, 1)
        ) / p_b.value({"B": b})
        assert evaluator.evaluate(recipe, {"B": b, "C": c, "D": d}) == direct



@pytest.mark.parametrize("env", [{"B": 0, "C": 2, "X": 0}, {"B": 0, "C": -1, "X": 0}])
def test_evaluator_rejects_values_outside_the_cardinality(env, rng):
    """C = 2 would read the cell of (B, C) = (1, 0) and C = -1 another cell."""
    (recipe,) = [
        r.recipe for r in enumerate_constraints(mediation_graph()) if isinstance(r, VermaConstraint)
    ]
    with pytest.raises(ValueError, match="C = "):
        Evaluator(_mediation_table(rng)).evaluate(recipe, env)


def test_factor_rejects_overlapping_outcomes_and_given():
    with pytest.raises(ValueError, match="overlap"):
        FactorExpr(("A", "B"), ("B",))


def test_product_flattens_nested_products():
    a, b, c = FactorExpr(("A",), ()), FactorExpr(("B",), ("A",)), FactorExpr(("C",), ())
    assert product_expr([product_expr([a, b]), c]) == ProductExpr((a, b, c))
    assert product_expr([product_expr([a])]) == a
    assert product_expr([]) == UNIT
    assert render(UNIT) == "1"


def test_evaluator_needs_a_joint_table():
    q = Kernel.from_function((("A", 2),), (("X", 2),), lambda v: Fraction(1, 2))
    with pytest.raises(ValueError, match="joint probability table"):
        Evaluator(q)


def test_evaluator_table_names_missing_and_unknown_variables(rng):
    """Every variable of a layout, and every bound variable, has its
    cardinality read off the table, so an unknown one raises there."""
    ev = Evaluator(_mediation_table(rng))
    with pytest.raises(KeyError, match=r"misses free variables \['X'\]"):
        ev.table(FactorExpr(("A",), ("X",)), ["A"])
    for recipe, names in (
        (FactorExpr(("A",), ("Q",)), ["A", "Q"]),
        (SumExpr("Q", FactorExpr(("A",), ("Q",))), ["A"]),
    ):
        with pytest.raises(UnknownVariableError, match="Q"):
            ev.table(recipe, names)


@st.composite
def _latent_root_graphs(draw):
    """Four or five observed vertices, one ternary at most, and one to three
    latents with two or three observed children each."""
    n = draw(st.integers(4, 5))
    names = [f"V{i}" for i in range(n)]
    ternary = draw(st.sampled_from([None] + names))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    edges = [pair for pair in pairs if draw(st.booleans())]
    latents = draw(st.lists(st.sets(st.sampled_from(names), min_size=2, max_size=3),
                            min_size=1, max_size=3))
    return CausalDag(
        [(v, OBSERVED, 3 if v == ternary else 2) for v in names]
        + [(f"L{k}", LATENT) for k in range(len(latents))],
        edges + [(f"L{k}", c) for k, kids in enumerate(latents) for c in sorted(kids)],
    )


@st.composite
def _graphs_with_a_redundant_latent(draw):
    """A latent-root graph, and the same graph with one more latent: over a
    nonempty subset of an existing latent's children, or over one observed
    vertex.  Both have the same mDAG."""
    dag = draw(_latent_root_graphs())
    latents = sorted(dag.latent())
    faces = [sorted(dag.children(v)) for v in latents] + [[v] for v in sorted(dag.observed())]
    face = draw(st.sampled_from(faces))
    kids = draw(st.sets(st.sampled_from(face), min_size=1))
    extra = f"L{len(latents)}"
    wider = CausalDag(
        dag.vertices + ((extra, LATENT),), dag.edges | {(extra, c) for c in kids}
    )
    return dag, wider


@given(_graphs_with_a_redundant_latent(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_a_latent_inside_a_face_changes_no_nested_or_independence_verdict(graphs, seed):
    """N and I are read off the mDAG, and a latent over part of a face, or
    over one vertex, leaves the mDAG as it is: ``check_nested`` and
    ``i_member`` print the same verdicts, witnesses included, on both
    graphs, for a network joint of either graph and for their half-half
    mixture, which can break a constraint."""
    dag, wider = graphs
    assert to_mdag(wider) == to_mdag(dag)
    rng = random.Random(seed)
    p, q = (random_network(g, rng, latent_cardinality=2).joint_observed() for g in graphs)
    assert p.variables == q.variables
    mixture = Kernel(p.outcome_vars, (), tuple((a + b) / 2 for a, b in zip(p.entries, q.entries)))
    for joint in (p, q, mixture):
        for decide in (check_nested, i_member):
            assert repr(decide(joint, wider)) == repr(decide(joint, dag))


@st.composite
def _graphs_with_joints(draw):
    """A graph, and a joint over its observed vertices with zero cells."""
    dag = draw(st.one_of(st.just(_shadowing_graph()), _latent_root_graphs()))
    variables = tuple((v, dag.cardinality(v)) for v in sorted(dag.observed()))
    cells = list(assignments(variables))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells))
                   .filter(any))
    table = {c: Fraction(w, sum(weights)) for c, w in zip(cells, weights)}
    return dag, Kernel.from_mapping(variables, (), table)


@given(_latent_root_graphs())
@settings(max_examples=60, deadline=None)
def test_district_recipe_is_the_reduced_product_of_chain_factors(dag):
    """Each chain factor p(v | pre(v)) is the chain kernel's conditional on
    v's predecessors, so the district's product of them reduces to the same
    recipe as the product of those conditionals, for every order."""
    for order in _all_topological_orders(dag):
        chain = constraints._chain_expr(order)
        for d in districts(to_mdag(dag)):
            parts = [constraints._kernel_conditional(chain, v, order) for v in order if v in d]
            expected = constraints.reduce_expr(product_expr(parts), dag)
            assert district_kernel_recipe(dag, d, order) == expected, (sorted(d), order)


def _outcome(evaluate, recipe, env):
    try:
        return evaluate(recipe, env)
    except Exception as exc:  # the same exception type counts as agreement
        return type(exc)


@given(_graphs_with_joints())
@settings(max_examples=80, deadline=None)
def test_evaluator_matches_reference(case):
    """Every Verma record and district-kernel recipe takes the scalar
    reference evaluator's value, or its None, at every assignment."""
    dag, p = case
    recipes = [r.recipe for r in enumerate_constraints(dag) if isinstance(r, VermaConstraint)]
    recipes += [district_kernel_recipe(dag, d) for d in districts(to_mdag(dag))]
    ev, reference = Evaluator(p), ReferenceEvaluator(p)
    for recipe in recipes:
        names = sorted(free_vars(recipe))
        for values in assignments([(n, dag.cardinality(n)) for n in names]):
            env = dict(zip(names, values))
            assert _outcome(ev.evaluate, recipe, env) == _outcome(
                reference.evaluate, recipe, env
            ), (render(recipe), env)


def _result(call, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


@given(_graphs_with_joints(), st.integers(0, 2**16), st.booleans())
@settings(max_examples=40, deadline=None)
def test_nested_reads_match_the_reference(case, seed, network):
    """``check_nested``'s verdict, with its witnesses and its indeterminate
    records, and every district's kernel or error under every topological
    order, match the reference reads: on joints with zero cells and on
    network joints of the same graph."""
    dag, p = case
    if network:
        p = random_network(dag, random.Random(seed), latent_cardinality=2).joint_observed()
    verdict, reference = check_nested(p, dag), constraints_reference.check_nested(p, dag)
    assert verdict == reference and repr(verdict) == repr(reference)
    for order in _all_topological_orders(dag):
        for d in districts(to_mdag(dag)):
            assert _result(district_kernel, p, dag, d, order) == _result(
                constraints_reference.district_kernel, p, dag, d, order
            ), (sorted(d), order)


def test_i_member_matches_ci_records(rng):
    p = _mediation_table(rng)
    assert i_member(p, mediation_graph()).member
    shifted = prob_table(
        (("A", 2), ("B", 2), ("C", 2), ("X", 2)),
        lambda v: Fraction(1, 8) if v["B"] == (v["X"] ^ v["A"]) else Fraction(0),
    )
    assert not i_member(shifted, mediation_graph()).member


@pytest.mark.parametrize("member", [i_member, check_nested])
def test_membership_builds_no_kernel(member, rng, monkeypatch):
    """The CI test and the recipe evaluator read margins as flat lists, so
    deciding a joint on the benchmark's chain graph builds no ``Kernel``
    once the graph's records are cached."""
    g = _chain_graph()
    joints = [random_network(g, rng).joint_observed() for _ in range(2)]
    # a mixture of two network joints, which breaks some CI record
    entries = [(p + q) / 2 for p, q in zip(joints[0].entries, joints[1].entries)]
    mixed = Kernel(joints[0].variables, (), entries)
    for joint in (joints[0], mixed):
        member(joint, g)
    built = []
    init = Kernel.__init__
    monkeypatch.setattr(Kernel, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    verdicts = [member(joint, g).member for joint in (joints[0], mixed)]
    assert verdicts == [True, False]
    assert built == []


@pytest.mark.parametrize("member", [i_member, check_nested])
def test_membership_rejects_tables_over_other_variables(member, rng):
    # the six-variable joint of a tripartite box against gyni's four vertices
    table = random_rational_table(rng, [(n, 2) for n in "ABCXYZ"])
    with pytest.raises(ValueError, match="do not match observed vertices"):
        member(table, gyni_graph())
    # the right names, but a ternary X
    table = random_rational_table(rng, [("A", 2), ("B", 2), ("X", 3), ("Y", 2)])
    with pytest.raises(ValueError, match="do not match observed vertices"):
        member(table, chsh_graph())


def test_membership_matches_handrolled_oracle(rng):
    """On the mediation graph the model is cut out by exactly two known
    equalities; an independent implementation of both must agree with the
    record-based verdict on arbitrary tables."""
    g = mediation_graph()

    def margin(p, keep):
        out = {}
        for env, v in p.cells():
            key = tuple(env[k] for k in keep)
            out[key] = out.get(key, Fraction(0)) + v
        return out

    def oracle(p):
        # X _||_ B | A
        pxa = margin(p, ("X", "A"))
        pab = margin(p, ("A", "B"))
        pa = margin(p, ("A",))
        pxab = margin(p, ("X", "A", "B"))
        for (x, a, b), v in pxab.items():
            if v * pa[(a,)] != pxa[(x, a)] * pab[(a, b)]:
                return False
        # sum_a p(a|x) p(c|x,a,b) independent of x
        px = margin(p, ("X",))
        pxabc = margin(p, ("X", "A", "B", "C"))
        for b in (0, 1):
            for c in (0, 1):
                values = set()
                for x in (0, 1):
                    total = Fraction(0)
                    for a in (0, 1):
                        if px[(x,)] == 0 or pxab[(x, a, b)] == 0:
                            # vacuous context, matches the indeterminate rule
                            if pxa[(x, a)] == 0:
                                continue
                            break
                        total += (pxa[(x, a)] / px[(x,)]) * (
                            pxabc[(x, a, b, c)] / pxab[(x, a, b)]
                        )
                    else:
                        values.add(total)
                if len(values) > 1:
                    return False
        return True

    variables = (("A", 2), ("B", 2), ("C", 2), ("X", 2))
    agree = disagree_member = 0
    for trial in range(120):
        if trial % 3 == 0:
            p = random_rational_table(rng, variables)
        else:
            p = random_network(g, rng, latent_cardinality=3).joint_observed()
        verdict = check_nested(p, g)
        if verdict.indeterminate:
            continue
        assert verdict.member == oracle(p), trial
        agree += 1
        disagree_member += verdict.member
    assert agree >= 100  # full-support tables are never indeterminate
    assert 0 < disagree_member < agree  # both verdicts appeared


def test_sparse_models_stay_sound(rng):
    """Classical models with many exact-zero CPT entries remain members;
    records hitting zero-probability conditionals go to the indeterminate
    bucket instead of producing spurious violations."""
    from causalbox import Kernel
    from causalbox.networks import ClassicalNetwork

    dag = mediation_graph()
    card = {"X": 2, "A": 2, "B": 2, "C": 2, "Lambda": 3}
    saw_indeterminate = False
    for _ in range(40):
        cpts = {}
        for v in dag.names():
            parents = sorted(dag.parents(v))
            index_vars = tuple((p, card[p]) for p in parents)
            rows = {}
            for idx in assignments(index_vars):
                weights = [
                    0 if rng.random() < 0.4 else rng.randint(1, 6)
                    for _ in range(card[v])
                ]
                if sum(weights) == 0:
                    weights[rng.randrange(card[v])] = 1
                total = sum(weights)
                for value, w in enumerate(weights):
                    rows[(value,) + idx] = Fraction(w, total)
            cpts[v] = Kernel.from_mapping(((v, card[v]),), index_vars, rows)
        p = ClassicalNetwork(dag, cpts).joint_observed()
        verdict = check_nested(p, dag)
        assert verdict.member, [str(v.record) for v in verdict.violations]
        saw_indeterminate = saw_indeterminate or bool(verdict.indeterminate)
    assert saw_indeterminate


def test_mixed_cardinalities_supported(rng):
    """Nothing in the pipeline assumes binary variables."""
    from causalbox import CausalDag, LATENT, OBSERVED

    dag = CausalDag(
        [
            ("X", OBSERVED, 3),
            ("A", OBSERVED, 2),
            ("B", OBSERVED, 3),
            ("C", OBSERVED, 2),
            ("L", LATENT),
        ],
        [("X", "A"), ("A", "B"), ("B", "C"), ("L", "A"), ("L", "C")],
    )
    records = enumerate_constraints(dag)
    assert sorted(str(r) for r in records) == [
        "CI: B _||_ X | A",
        "VERMA: sum_{A} p(A|X) p(C|A,B,X) _||_ X",
    ]
    for _ in range(5):
        p = random_network(dag, rng, latent_cardinality=3).joint_observed()
        assert check_nested(p, dag).member
    q = district_kernel(p, dag, frozenset({"A", "C"}))
    assert q.index_vars == (("B", 3), ("X", 3))


def test_indeterminate_reported_for_zero_context():
    # all mass on X = 0 makes p(a | x = 1) undefined inside the Verma recipe
    def fn(v):
        if v["X"] == 1:
            return Fraction(0)
        return Fraction(1, 8)

    p = prob_table((("A", 2), ("B", 2), ("C", 2), ("X", 2)), fn)
    verdict = check_nested(p, mediation_graph())
    assert verdict.member
    assert verdict.indeterminate
