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
)

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
def _graphs_with_joints(draw):
    """A graph, and a joint over its observed vertices with zero cells."""
    dag = draw(st.one_of(st.just(_shadowing_graph()), _latent_root_graphs()))
    variables = tuple((v, dag.cardinality(v)) for v in sorted(dag.observed()))
    cells = list(assignments(variables))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells))
                   .filter(any))
    table = {c: Fraction(w, sum(weights)) for c, w in zip(cells, weights)}
    return dag, Kernel.from_mapping(variables, (), table)


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


def test_i_member_matches_ci_records(rng):
    p = _mediation_table(rng)
    assert i_member(p, mediation_graph()).member
    shifted = prob_table(
        (("A", 2), ("B", 2), ("C", 2), ("X", 2)),
        lambda v: Fraction(1, 8) if v["B"] == (v["X"] ^ v["A"]) else Fraction(0),
    )
    assert not i_member(shifted, mediation_graph()).member


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
