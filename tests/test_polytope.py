"""Vertex enumeration, membership LPs, functional optimization, NS boxes."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from causalbox import (
    CardinalityMismatchError,
    CausalDag,
    ClassicalNetwork,
    Kernel,
    LATENT,
    MultiLatentError,
    NotNoSignallingError,
    OBSERVED,
    Vertex,
    bell_inputs,
    bell_outputs,
    build_hypergraph,
    check_nested,
    chsh_graph,
    classical_member,
    decompose_ns_box,
    enumerate_classical_vertices,
    enumerate_h_vertices,
    functional_from_indicator,
    gyni_graph,
    gyni_projected,
    instrumental_graph,
    join_inputs,
    local_box,
    marginalize,
    maximize_functional,
    mediation_graph,
    ns_box_vertices,
    pr_box,
    project,
    ps_member,
    random_network,
    reorder,
    split_joint,
    tripartite_bell_graph,
    uniform_table,
)

import causalbox.polytope
from causalbox.polytope import _convex_member, _ns_vertex_matrix
from causalbox.tables import _numerators, assignments
import ns_reference
from conftest import polytope_lps, rng, run_fresh, score2_table, ternary_x_chsh_box  # noqa: F401
from conftest import recorded_pivots


def _chsh_functional(template):
    return functional_from_indicator(
        template,
        lambda v: Fraction(1, 4) if (v["A"] ^ v["B"]) == (v["X"] & v["Y"]) else 0,
    )


# -- vertex counts ------------------------------------------------------------


def test_h_vertex_counts():
    assert len(enumerate_h_vertices(build_hypergraph(chsh_graph()))) == 16
    assert len(enumerate_h_vertices(build_hypergraph(gyni_graph()))) == 64
    assert len(enumerate_h_vertices(build_hypergraph(tripartite_bell_graph()))) == 64


def test_single_output_no_input_has_two_vertices():
    dag = CausalDag([("A", OBSERVED, 2)], [])
    vertices = enumerate_h_vertices(build_hypergraph(dag))
    assert len(vertices) == 2


def test_multi_latent_rejected():
    from causalbox import swapping_graph

    with pytest.raises(MultiLatentError):
        enumerate_h_vertices(build_hypergraph(swapping_graph()))


def test_chsh_classical_vertices():
    vertices = enumerate_classical_vertices(chsh_graph())
    assert len(vertices) == 16


def test_instrumental_classical_vertices_dedupe():
    # 16 hypergraph strategies project onto 12 distinct conditional tables:
    # a response read only off the range of a = f(x) collapses duplicates
    vertices = enumerate_classical_vertices(instrumental_graph())
    assert len(vertices) == 12
    tables = {v.table.entries for v in vertices}
    assert len(tables) == 12


def _ternary_instrumental():
    return CausalDag(
        [("X", OBSERVED, 3), ("A", OBSERVED, 2), ("B", OBSERVED, 3), ("L", LATENT)],
        [("X", "A"), ("A", "B"), ("L", "A"), ("L", "B")],
    )


def _copy_order_graph():
    # the copy Z_C sorts after C's other parent Z0, its source Z before it
    return CausalDag(
        [("W", OBSERVED, 2), ("Z", OBSERVED, 2), ("Z0", OBSERVED, 2),
         ("C", OBSERVED, 2), ("L", LATENT)],
        [("W", "Z"), ("Z", "C"), ("Z0", "C"), ("L", "Z"), ("L", "C")],
    )


def _lift_strategies(h):
    """Hypergraph strategies built cell by cell: each output of the lift
    picks a response function of its sorted observed parents."""
    base = h.base
    observed = set(base.observed())
    outputs, inputs = bell_outputs(base), bell_inputs(base)
    parents = {v: sorted(p for p in base.parents(v) if p in observed) for v in outputs}
    choices = []
    for v in outputs:
        domain = 1
        for p in parents[v]:
            domain *= base.cardinality(p)
        choices.append(list(product(range(base.cardinality(v)), repeat=domain)))

    def cell(responses, a):
        for v in outputs:
            pos = 0
            for p in parents[v]:
                pos = pos * base.cardinality(p) + a[p]
            if a[v] != responses[v][pos]:
                return Fraction(0)
        return Fraction(1)

    for combo in product(*choices):
        responses = dict(zip(outputs, combo))
        table = Kernel.from_function(
            [(v, base.cardinality(v)) for v in outputs],
            [(v, base.cardinality(v)) for v in inputs],
            lambda a: cell(responses, a),
        )
        yield Vertex(responses, table)


def _lift_reference(g):
    """Classical vertices the long way: every hypergraph strategy joined
    with uniform inputs, projected through the diagonal event and split on
    the graph's settings; the first strategy of each table is kept."""
    h = build_hypergraph(g)
    h_inputs = [(v, h.base.cardinality(v)) for v in bell_inputs(h.base)]
    settings = bell_inputs(g)
    seen = {}
    for hv in _lift_strategies(h):
        projected = project(join_inputs(hv.table, uniform_table(h_inputs)), h.copies)
        table = split_joint(projected, settings)[0] if settings else projected
        seen.setdefault(table, Vertex(hv.responses, table))
    return list(seen.values())


def _as_compared(vertices):
    return [
        (v.table.outcome_vars, v.table.index_vars, v.table.entries, dict(v.responses))
        for v in vertices
    ]


@pytest.mark.parametrize(
    "make",
    [
        chsh_graph,
        instrumental_graph,
        mediation_graph,
        gyni_graph,
        tripartite_bell_graph,
        _ternary_instrumental,
        _copy_order_graph,
    ],
    ids=lambda make: make.__name__.strip("_"),
)
def test_direct_enumeration_matches_lift_reference(make):
    """Direct substitution gives the lift-and-project vertices exactly:
    same order, same tables, same response functions."""
    g = make()
    assert _as_compared(enumerate_classical_vertices(g)) == _as_compared(
        _lift_reference(g)
    )
    h = build_hypergraph(g)
    assert _as_compared(enumerate_h_vertices(h)) == _as_compared(_lift_strategies(h))


def test_ternary_instrumental_vertices_and_membership():
    """Mixed cardinalities flow through vertex enumeration and both LPs."""
    inst = _ternary_instrumental()
    vertices = enumerate_classical_vertices(inst)
    # 8 response functions a = f(x); b = g(a) is only read on the range of f,
    # so the 2 constant f give 3 tables each and the 6 others 9 each
    assert len(vertices) == 2 * 3 + 6 * 9 == 60
    box = vertices[7].table
    assert classical_member(box, inst).member
    joint = join_inputs(box, uniform_table((("X", 3),)))
    assert ps_member(joint, inst).member


def test_chain_vertices_are_response_functions():
    dag = CausalDag([("X", OBSERVED, 2), ("A", OBSERVED, 2)], [("X", "A")])
    vertices = enumerate_classical_vertices(dag)
    assert len(vertices) == 4
    for v in vertices:
        for x in (0, 1):
            row = [v.table.value({"A": a, "X": x}) for a in (0, 1)]
            assert sorted(row) == [0, 1]


def test_gyni_case_partition_matches_golden_tables():
    """The 32 projected vertices split 4, 4, 12, 12 by the response of A,
    and each case block equals the checked-in golden support sets."""
    import json
    from pathlib import Path

    golden_path = Path(__file__).parent / "data" / "gyni_vertex_cases.json"
    golden = {
        case: {
            (tuple(int(ch) for ch in row0), tuple(int(ch) for ch in row1))
            for row0, row1 in pairs
        }
        for case, pairs in json.loads(golden_path.read_text()).items()
    }
    vertices = enumerate_classical_vertices(gyni_graph())
    assert len(vertices) == 32

    def support(v):
        rows = []
        for x in (0, 1):
            (cell,) = [
                (a, b, c)
                for a, b, c in product((0, 1), repeat=3)
                if v.table.value({"A": a, "B": b, "C": c, "X": x}) == 1
            ]
            rows.append(cell)
        return tuple(rows)

    keys = {
        (0, 0): "a_const_0",
        (1, 1): "a_const_1",
        (0, 1): "a_equals_x",
        (1, 0): "a_equals_not_x",
    }
    cases = {name: set() for name in keys.values()}
    for v in vertices:
        rows = support(v)
        cases[keys[(rows[0][0], rows[1][0])]].add(rows)

    assert {name: len(block) for name, block in cases.items()} == {
        "a_const_0": 4,
        "a_const_1": 4,
        "a_equals_x": 12,
        "a_equals_not_x": 12,
    }
    assert cases == golden


def test_classical_vertices_are_inside_every_model():
    g = instrumental_graph()
    for v in enumerate_classical_vertices(g):
        joint = join_inputs(v.table, uniform_table((("X", 2),)))
        assert check_nested(joint, g).member
        assert ps_member(joint, g).member


# -- membership ---------------------------------------------------------------


def test_pr_box_outside_classical_chsh():
    assert not classical_member(pr_box(), chsh_graph()).member


def test_gyni_projected_outside_classical():
    assert not classical_member(gyni_projected(), gyni_graph()).member


def test_vertex_mixture_weights_reconstruct(rng):
    g = chsh_graph()
    vertices = enumerate_classical_vertices(g)
    weights = [Fraction(rng.randint(0, 5)) for _ in vertices]
    total = sum(weights) or Fraction(1)
    weights = [w / total for w in weights]
    mix = Kernel.from_function(
        vertices[0].table.outcome_vars,
        vertices[0].table.index_vars,
        lambda v: sum(w * vert.table.value(v) for w, vert in zip(weights, vertices)),
    )
    verdict = classical_member(mix, g)
    assert verdict.member
    assert sum(verdict.weights) == 1
    for env, value in mix.cells():
        rebuilt = sum(
            w * vert.table.value(env) for w, vert in zip(verdict.weights, vertices)
        )
        assert rebuilt == value


def _never_sets_x(g, seed):
    """A classical joint of ``g`` whose setting X is always 0."""
    cpts = dict(random_network(g, random.Random(seed), latent_cardinality=3).cpts)
    cpts["X"] = Kernel.from_mapping((("X", 2),), (), {(0,): Fraction(1), (1,): Fraction(0)})
    return ClassicalNetwork(g, cpts).joint_observed()


@pytest.mark.parametrize("make_graph", [instrumental_graph, chsh_graph])
def test_classical_member_drops_setting_rows_of_probability_zero(make_graph):
    g = make_graph()
    p = _never_sets_x(g, 5)
    verdict = classical_member(p, g)
    assert verdict.member
    assert all(w >= 0 for w in verdict.weights) and sum(verdict.weights) == 1
    vertices = enumerate_classical_vertices(g)
    prior = marginalize(p, [n for n, _ in vertices[0].table.outcome_vars])
    supported = 0
    for env, value in p.cells():
        settings = prior.value({n: env[n] for n in prior.var_names()})
        if settings == 0:
            continue
        supported += 1
        rebuilt = sum(w * v.table.value(env) for w, v in zip(verdict.weights, vertices))
        assert rebuilt == value / settings, env
    assert 0 < supported < len(p.entries)


# -- functional optimization -----------------------------------------------------


def test_chsh_bounds_over_vertex_sets():
    g = chsh_graph()
    vertices = enumerate_classical_vertices(g)
    functional = _chsh_functional(vertices[0].table)
    value, _ = maximize_functional(functional, vertices)
    assert value == Fraction(3, 4)
    ns_tables = ns_box_vertices()
    value, best = maximize_functional(functional, ns_tables)
    assert value == 1


def test_maximize_keeps_the_first_of_tied_maxima():
    vertices = enumerate_classical_vertices(chsh_graph())
    functional = _chsh_functional(vertices[0].table)
    value, best = maximize_functional(functional, vertices)
    tied = [v for v in vertices if maximize_functional(functional, [v])[0] == value]
    assert len(tied) == 8 and best is tied[0]
    assert maximize_functional(functional, vertices[::-1]) == (value, tied[-1])


def test_maximize_reads_each_vertex_by_name():
    """Keys follow the first vertex's layout; a later vertex in another
    layout is read by name."""
    box = local_box(8)  # a = x, b = 0
    functional = functional_from_indicator(
        box, lambda v: Fraction(1, 4) if v["A"] == v["X"] and v["B"] == 0 else 0
    )
    swapped = reorder(box, (("B", 2), ("A", 2)), box.index_vars)
    assert maximize_functional(functional, [box]) == (1, box)
    assert maximize_functional(functional, [local_box(0), swapped]) == (1, swapped)


@pytest.mark.parametrize("value", [0.1, 0.25, True], ids=["float", "exact-float", "bool"])
def test_functional_values_must_be_rational(value):
    """A float or bool is refused, never read as a binary fraction: 0.1 is
    not 3602879701896397/36028797018963968, and 0.25 would turn the
    exact maximum into a float."""
    box = local_box(8)
    kind = type(value).__name__
    with pytest.raises(TypeError, match=f"indicator value is a {kind}, not an int or Fraction"):
        functional_from_indicator(box, lambda v: value if v["A"] == v["X"] else 0)
    functional = {x: value for x in assignments(box.variables)}
    with pytest.raises(TypeError, match=f"functional value is a {kind}, not an int or Fraction"):
        maximize_functional(functional, [box])
    assert functional_from_indicator(box, lambda v: 1 if v["A"] == v["X"] else 0) == {
        x: 1 for x in assignments(box.variables) if x[0] == x[2]
    }


def test_maximize_over_no_vertex_is_an_error():
    with pytest.raises(ValueError, match="vertex list is empty"):
        maximize_functional({}, [])


def test_functional_keys_must_name_a_cell():
    """A long key is not cut to the vertices' four variables, and a short
    or out-of-range one is refused as in ``Kernel.from_mapping``."""
    vertices = [local_box(0), local_box(5)]
    with pytest.raises(ValueError, match="has 5 values, expected 4"):
        maximize_functional({(0, 0, 0, 0, 9): 1}, vertices)
    with pytest.raises(ValueError, match="has 3 values, expected 4"):
        maximize_functional({(0, 0, 0): 1}, vertices)
    with pytest.raises(CardinalityMismatchError, match="Y = 2 is outside 0..1"):
        maximize_functional({(0, 0, 0, 2): 1}, vertices)


def test_gyni_win_matches_bruteforce():
    vertices = enumerate_h_vertices(build_hypergraph(tripartite_bell_graph()))
    functional = functional_from_indicator(
        vertices[0].table,
        lambda v: Fraction(1, 8)
        if v["A"] == v["Y"] and v["B"] == v["Z"] and v["C"] == v["X"]
        else 0,
    )
    value, _ = maximize_functional(functional, vertices)
    # brute force over response functions a = f(x), b = g(y), c = h(z)
    responses = [(0, 0), (1, 1), (0, 1), (1, 0)]
    best = 0
    for fa in responses:
        for fb in responses:
            for fc in responses:
                wins = sum(
                    1
                    for x, y, z in product((0, 1), repeat=3)
                    if fa[x] == y and fb[y] == z and fc[z] == x
                )
                best = max(best, wins)
    assert value == Fraction(best, 8) == Fraction(1, 4)


def test_lp_agrees_with_vertex_maximum():
    """Maximizing over convex weights by LP equals the vertex maximum."""
    from causalbox import LinearSystem, lp_solve

    g = chsh_graph()
    vertices = enumerate_classical_vertices(g)
    functional = _chsh_functional(vertices[0].table)
    names = [f"w{i}" for i in range(len(vertices))]
    scores = []
    for v in vertices:
        table_names = v.table.var_names()
        scores.append(
            sum(
                coeff * v.table.value(dict(zip(table_names, cell)))
                for cell, coeff in functional.items()
            )
        )
    system = LinearSystem(tuple(names), objective=dict(zip(names, scores)))
    system.add_equality({n: Fraction(1) for n in names}, Fraction(1))
    result = lp_solve(system)
    assert result.is_optimal and result.value == Fraction(3, 4)


# -- no-signalling decomposition ---------------------------------------------------


def test_pr_vertex_decomposes_as_itself():
    index, weights = decompose_ns_box(pr_box(1, 0, 1))
    assert index == (1, 0, 1)
    assert weights[0] == 1
    assert all(w == 0 for w in weights[1:])


def test_local_box_decomposes_without_pr():
    index, weights = decompose_ns_box(local_box(5))
    assert index is None
    assert weights[0] == 0
    assert weights[1 + 5] == 1


def test_every_ns_vertex_decomposes_as_itself():
    # in every layout: parties are matched by name, not by position
    for i, box in enumerate(ns_box_vertices()):
        results = {
            decompose_ns_box(reorder(box, [(n, 2) for n in outs], [(n, 2) for n in ins]))
            for outs in ("AB", "BA")
            for ins in ("XY", "YX")
        }
        assert len(results) == 1
        [(index, weights)] = results
        nonzero = [w for w in weights if w]
        assert nonzero == [Fraction(1)]
        if i < 16:
            assert index is None and weights[1 + i] == 1
        else:
            assert index is not None and weights[0] == 1


def test_mixture_reconstruction_exact(rng):
    vertices = ns_box_vertices()
    for _ in range(10):
        raw = [Fraction(rng.randint(0, 4)) for _ in vertices]
        total = sum(raw) or Fraction(1)
        mix_weights = [w / total for w in raw]
        box = Kernel.from_function(
            (("A", 2), ("B", 2)),
            (("X", 2), ("Y", 2)),
            lambda v: sum(w * b.value(v) for w, b in zip(mix_weights, vertices)),
        )
        index, weights = decompose_ns_box(box)
        assert sum(weights) == 1 and all(w >= 0 for w in weights)
        for env, value in box.cells():
            rebuilt = sum(
                w * local_box(i).value(env) for i, w in enumerate(weights[1:])
            )
            if index is not None:
                rebuilt += weights[0] * pr_box(*index).value(env)
            assert rebuilt == value


def test_decompose_reads_each_box_once_and_builds_no_lift(monkeypatch):
    """The CHSH lift and its no-signalling rows are built once; every box is
    read through one checked layout read."""
    import causalbox.lift

    decompose_ns_box(pr_box())  # builds the constant rows and vertex matrices
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (causalbox.polytope, causalbox.lift):
        for name in ("build_hypergraph", "chsh_graph", "_ns_rows", "_numerators"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for box in ns_box_vertices():
        decompose_ns_box(box)
    assert calls == {"_numerators": 24}


def test_ns_lift_rows_and_vertex_matrices_are_built_on_first_use():
    probe = (
        "import causalbox.polytope as p; "
        "print(p._chsh_ns_rows.cache_info().currsize, p._ns_vertex_matrix.cache_info().currsize)"
    )
    assert run_fresh(probe).split() == ["0", "0"]


def test_signalling_box_rejected():
    signalling = Kernel.from_function(
        (("A", 2), ("B", 2)),
        (("X", 2), ("Y", 2)),
        lambda v: Fraction(1) if (v["A"], v["B"]) == (v["Y"], 0) else Fraction(0),
    )
    with pytest.raises(NotNoSignallingError):
        decompose_ns_box(signalling)


def test_non_binary_box_rejected():
    box = Kernel((("A", 3), ("B", 2)), (("X", 2), ("Y", 2)), (Fraction(1, 6),) * 24)
    with pytest.raises(NotNoSignallingError, match=r"not binary A, B \| X, Y"):
        decompose_ns_box(box)


# -- one LP per decomposition, against the eight-LP reference -------------------------

_VERTICES = ns_box_vertices()
_VARIANTS = list(product((0, 1), repeat=3))
_LAYOUTS = [(outs, ins) for outs in ("AB", "BA") for ins in ("XY", "YX")]
_CELLS = list(product((0, 1), repeat=4))


def _mix(parts):
    """The box sum of w * box over ``(w, box)`` pairs in the vertex layout."""
    template = _VERTICES[0]
    entries = tuple(
        sum((w * box.entries[i] for w, box in parts), Fraction(0))
        for i in range(len(template.entries))
    )
    return Kernel(template.outcome_vars, template.index_vars, entries)


def _laid_out(box, layout):
    outs, ins = layout
    return reorder(box, [(n, 2) for n in outs], [(n, 2) for n in ins])


def _variant_scores(box):
    """S(alpha, beta, gamma) = sum over x, y of q(a + b = xy + alpha x +
    beta y + gamma | x, y), read by name."""
    return {
        (al, be, ga): sum(
            box.value({"A": a, "B": b, "X": x, "Y": y})
            for a, b, x, y in _CELLS
            if a ^ b == (x & y) ^ (al & x) ^ (be & y) ^ ga
        )
        for al, be, ga in _VARIANTS
    }


def _signalling(f_a, f_b):
    return Kernel.from_function(
        (("A", 2), ("B", 2)),
        (("X", 2), ("Y", 2)),
        lambda v: Fraction(int(v["A"] == f_a(v["X"], v["Y"]) and v["B"] == f_b(v["X"], v["Y"]))),
    )


_SIGNALLING = [
    _signalling(lambda x, y: y, lambda x, y: 0),
    _signalling(lambda x, y: x, lambda x, y: x),
    _signalling(lambda x, y: x & y, lambda x, y: y),
]


@st.composite
def sparse_mixtures(draw):
    """A few vertices, PR boxes among them, with small integer weights."""
    picks = draw(
        st.lists(st.tuples(st.integers(0, 23), st.integers(1, 6)), min_size=1, max_size=5)
    )
    total = sum(w for _, w in picks)
    return _mix([(Fraction(w, total), _VERTICES[i]) for i, w in picks])


@st.composite
def pr_dominant(draw):
    """PR weight above 2/3: a score above 3 on that PR box's variant."""
    k = draw(st.integers(16, 23))
    w = Fraction(draw(st.integers(15, 20)), 20)
    return _mix([(w, _VERTICES[k]), (1 - w, draw(sparse_mixtures()))])


@st.composite
def chsh_tight(draw):
    """A mixture moved onto the facet S(variant) = 3 of one CHSH variant,
    with no variant above 3: it is local and sits on the boundary."""
    box = draw(sparse_mixtures())
    variant = draw(st.sampled_from(_VARIANTS))
    s = _variant_scores(box)[variant]
    if s > 3:
        # deterministic locals score 1 or 3 on every variant
        lows = [v for v in _VERTICES[:16] if _variant_scores(v)[variant] == 1]
        other, t = draw(st.sampled_from(lows)), 2 / (s - 1)
    else:
        other, t = _VERTICES[16 + 4 * variant[0] + 2 * variant[1] + variant[2]], 1 / (4 - s)
    tight = _mix([(t, box), (1 - t, other)])
    assume(max(_variant_scores(tight).values()) == 3)
    return tight


@st.composite
def signalling_boxes(draw):
    t = Fraction(draw(st.integers(1, 4)), 4)
    return _mix([(t, draw(st.sampled_from(_SIGNALLING))), (1 - t, draw(sparse_mixtures()))])


def _outcome(decompose, box):
    try:
        return decompose(box)
    except (NotNoSignallingError, causalbox.polytope.DecompositionNotFoundError) as exc:
        return type(exc)


@given(
    st.one_of(sparse_mixtures(), pr_dominant(), chsh_tight(), signalling_boxes()),
    st.sampled_from(_LAYOUTS),
)
# half of two PR boxes whose variants differ in alpha scores 3 on both: local
@example(_mix([(Fraction(1, 2), _VERTICES[16]), (Fraction(1, 2), _VERTICES[20])]), ("BA", "YX"))
@settings(max_examples=200, deadline=None)
def test_decompose_matches_reference(box, layout):
    box = _laid_out(box, layout)
    assert _outcome(decompose_ns_box, box) == _outcome(ns_reference.decompose_ns_box, box)


def _lp_calls(box):
    """The number of LPs ``decompose_ns_box`` solves for ``box``."""
    return len(polytope_lps(lambda: decompose_ns_box(box)))


@pytest.mark.parametrize("layout", _LAYOUTS, ids="".join)
def test_one_lp_per_vertex(layout):
    assert [_lp_calls(_laid_out(v, layout)) for v in _VERTICES] == [1] * 24


@given(
    st.one_of(sparse_mixtures(), pr_dominant(), chsh_tight()),
    st.sampled_from(_LAYOUTS),
)
@settings(max_examples=100, deadline=None)
def test_one_lp_per_mixture(box, layout):
    assert _lp_calls(_laid_out(box, layout)) == 1


def test_ns_box_vertices_returns_a_fresh_list():
    first = ns_box_vertices()
    expected = decompose_ns_box(pr_box(0, 1, 1))
    first[16:] = first[:8]
    first.reverse()
    assert ns_box_vertices() == _VERTICES
    assert ns_box_vertices() is not ns_box_vertices()
    assert decompose_ns_box(pr_box(0, 1, 1)) == expected


# -- classical membership on integer rows, against the Fraction-LP reference ------------


def _classical_cases():
    seeded = random.Random(20261018)
    locals_ = _VERTICES[:16]
    chsh = {"pr": pr_box(), "pr101-BA-YX": _laid_out(pr_box(1, 0, 1), ("BA", "YX"))}
    chsh["ternary-x"] = ternary_x_chsh_box()
    for i in range(6):
        picks = seeded.sample(locals_, seeded.randint(2, 5))
        raw = [seeded.randint(1, 8) for _ in picks]
        box = _mix([(Fraction(w, sum(raw)), b) for w, b in zip(raw, picks)])
        chsh[f"local-mix{i}"] = _laid_out(box, seeded.choice(_LAYOUTS))
    chsh["local-mix-joint"] = join_inputs(box, uniform_table((("X", 2), ("Y", 2))))
    cases = [pytest.param(chsh_graph(), box, id=f"chsh-{name}") for name, box in chsh.items()]
    for name, g in (("instrumental", instrumental_graph()), ("gyni", gyni_graph())):
        joint = random_network(g, seeded, latent_cardinality=2).joint_observed()
        cases.append(pytest.param(g, joint, id=f"{name}-network"))
    cases.append(pytest.param(instrumental_graph(), score2_table(), id="instrumental-score2"))
    cases.append(pytest.param(gyni_graph(), gyni_projected(), id="gyni-projected"))
    # a 4 x 2 x 2 Bell scenario: 257 rows over 256 vertices, a long pivot sequence
    edges = [(f"X{i}", f"A{i}") for i in range(4)] + [("L", f"A{i}") for i in range(4)]
    bell = causalbox.boxes._binary_dag(("L",), edges)
    joint = random_network(bell, random.Random(0), latent_cardinality=3).joint_observed()
    cases.append(pytest.param(bell, joint, id="bell-4x2x2-network"))
    return cases


def _verdict(member, p, g):
    try:
        return member(p, g)
    except ValueError as exc:
        return type(exc)


def _pivoting(call):
    """The ``(row, column)`` of every simplex pivot ``call()`` makes, and its result."""
    with recorded_pivots() as steps:
        result = call()
    return steps, result


@pytest.mark.parametrize("g, p", _classical_cases())
def test_classical_member_matches_fraction_reference(g, p):
    """Same pivots, same verdict and same weights as the Fraction LP."""
    got = _pivoting(lambda: _verdict(classical_member, p, g))
    assert got == _pivoting(lambda: _verdict(ns_reference.classical_member, p, g))
    if p.variables == ternary_x_chsh_box().variables:
        assert got == ([], ValueError)


def _ns_lp_cases():
    seeded = random.Random(20261021)
    boxes = {f"vertex{i}": v for i, v in enumerate(_VERTICES)}
    for i in range(8):
        picks = seeded.sample(_VERTICES, seeded.randint(2, 4))
        raw = [seeded.randint(1, 8) for _ in picks]
        box = _mix([(Fraction(w, sum(raw)), b) for w, b in zip(raw, picks)])
        boxes[f"mix{i}"] = _laid_out(box, seeded.choice(_LAYOUTS))
    return [pytest.param(box, id=name) for name, box in boxes.items()]


@pytest.mark.parametrize("box", _ns_lp_cases())
def test_decomposition_lps_pivot_as_the_fraction_reference(box):
    """Each of the nine vertex sets of the decomposition, feasible for the
    box or not, takes the reference LP's pivots to the same weights."""
    num, den = _numerators(box, *_ns_vertex_matrix(None)[:2])
    locals_ = _VERTICES[:16]
    for pr in [None, *_VARIANTS]:
        tables = locals_ if pr is None else [pr_box(*pr), *locals_]
        got = _pivoting(lambda: _convex_member(_ns_vertex_matrix(pr), num, den))
        assert got == _pivoting(lambda: ns_reference._convex_member(box, tables)), pr


@given(st.one_of(sparse_mixtures(), pr_dominant(), chsh_tight()))
@settings(max_examples=40, deadline=None)
def test_each_ns_vertex_set_hands_the_core_its_phase_one_row(box):
    """The core trusts the phase-1 row its caller hands it, and
    ``_convex_member`` builds that row from the vertex matrix's column part,
    built once per vertex set.  On each of the nine vertex sets, which may
    or may not decompose the box, ``polytope_lps`` checks the row against
    ``_phase_one_zrow`` of the rows ``_convex_member`` assembles."""
    num, den = _numerators(box, *_ns_vertex_matrix(None)[:2])
    sets = [None, *_VARIANTS]
    lps = polytope_lps(lambda: [_convex_member(_ns_vertex_matrix(pr), num, den) for pr in sets])
    assert len(lps) == 9


@pytest.mark.parametrize("make_graph", [instrumental_graph, chsh_graph])
def test_classical_member_hands_the_core_the_phase_one_row_of_its_kept_rows(make_graph):
    """``classical_member`` builds the phase-1 row's column part over the
    rows it keeps; a joint that never sets X = 1 drops the rows of that
    setting, and ``polytope_lps`` checks the row against
    ``_phase_one_zrow`` of the rows that reach the core."""
    g = make_graph()
    p = _never_sets_x(g, 5)
    (system,) = polytope_lps(lambda: classical_member(p, g))
    # the sum row and one row per kept cell, fewer than all of them
    assert len(system.equalities) < 1 + len(p.entries)


def test_a_box_has_no_pr_part_exactly_when_it_is_classical_on_chsh():
    """Fine's theorem, which the decomposition relies on: the 16 local boxes
    are the tables of the CHSH graph's classical vertices, in the same
    layout, so a box decomposes without a PR box exactly when it lies in
    C(chsh)."""
    g = chsh_graph()
    tables = [v.table for v in enumerate_classical_vertices(g)]
    assert len(tables) == 16 and set(tables) == set(_VERTICES[:16])
    seeded = random.Random(20261021)
    boxes = list(_VERTICES)
    for _ in range(200):
        picks = seeded.sample(_VERTICES, seeded.randint(1, 5))
        raw = [seeded.randint(1, 8) for _ in picks]
        box = _mix([(Fraction(w, sum(raw)), b) for w, b in zip(raw, picks)])
        boxes.append(_laid_out(box, seeded.choice(_LAYOUTS)))
    local = [decompose_ns_box(box)[0] is None for box in boxes]
    assert local == [classical_member(box, g).member for box in boxes]
    assert 0 < local.count(False) < len(local) - 16
