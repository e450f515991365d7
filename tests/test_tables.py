"""Exact kernels: marginalization, conditioning, CI tests, projection."""

from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalbox import (
    CardinalityMismatchError,
    Kernel,
    UnknownVariableError,
    ZeroConditioningError,
    ZeroProbabilityEventError,
    ZeroSelectionProbabilityError,
    build_hypergraph,
    ci_holds,
    ci_violation,
    condition,
    conditional,
    gyni_box,
    gyni_graph,
    join_inputs,
    marginalize,
    mediation_graph,
    point_mass,
    pr_box,
    project,
    prob_table,
    reorder,
    split_joint,
    swapping_box,
    uniform_table,
)
from causalbox.networks import random_network
from causalbox.tables import Record, _check_joint, _numerators

import table_reference as ref
from conftest import random_rational_table, run_fresh


def test_kernel_validates_rows():
    with pytest.raises(ValueError):
        Kernel((("A", 2),), (), (Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        Kernel((("A", 2),), (), (Fraction(3, 2), Fraction(-1, 2)))
    # rows are the slices entries[j::2]: the row of X=1 sums to 3/4
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    with pytest.raises(ValueError, match=r"index assignment \(1,\) sums to 3/4"):
        Kernel((("A", 2),), (("X", 2),), (half, half, half, quarter))
    # a sum whose str() exceeds int()'s 4300-digit limit is not printed
    unprintable = r"^row for index assignment \(\) sums to a value too long to print, expected 1$"
    with pytest.raises(ValueError, match=unprintable):
        Kernel((("A", 2),), (), (Fraction(10**4300), Fraction(0)))


@pytest.mark.parametrize(
    "outcome_vars, entries, error, match",
    [
        ((("A", 2), ("A", 2)), (Fraction(1, 4),) * 4, ValueError, "duplicate variable names"),
        ((("A", 0),), (), CardinalityMismatchError, "cardinalities must be positive"),
        ((("A", True),), (1,), CardinalityMismatchError, "cardinalities must be positive"),
        ((("A", 2.0),), (1, 0), CardinalityMismatchError, "cardinalities must be positive"),
        ((("A", 2),), (Fraction(1),), ValueError, "expected 2 entries, got 1"),
        ((("A", 4),), (0.1, 0.2, 0.3, 0.4), TypeError, "entry is a float"),
        ((("A", 2),), (True, False), TypeError, "entry is a bool"),
        ((("A", 2),), ("1/2", "1/2"), TypeError, "entry is a str"),
    ],
    ids=["duplicate", "cardinality", "bool-cardinality", "float-cardinality", "count", "float",
         "bool", "str"],
)
def test_kernel_rejects_malformed_construction(outcome_vars, entries, error, match):
    with pytest.raises(error, match=match):
        Kernel(outcome_vars, (), entries)


def test_kernel_stores_int_entries_as_fractions():
    kernel = Kernel((("A", 2),), (), (1, 0))
    assert kernel.entries == (1, 0)
    assert all(type(e) is Fraction for e in kernel.entries)
    assert kernel == Kernel((("A", 2),), (), (Fraction(1), Fraction(0)))


def test_kernel_stores_its_layouts_as_tuples():
    """A kernel built from lists is the kernel built from tuples."""
    listed = Kernel([("A", 2), ("B", 2)], [("X", 2)], (1, 1, 0, 0, 0, 0, 0, 0))
    kernel = Kernel((("A", 2), ("B", 2)), (("X", 2),), (1, 1, 0, 0, 0, 0, 0, 0))
    assert type(listed.outcome_vars) is tuple and type(listed.index_vars) is tuple
    assert listed == kernel and hash(listed) == hash(kernel)
    assert marginalize(listed, ["A"]) == marginalize(kernel, ["A"])
    assert Kernel([("A", 2)], (), (1, 0)).variables == (("A", 2),)


def test_value_rejects_values_outside_the_cardinality():
    """X = 2 would read the cell of (A, X) = (1, 0), and A = -1 the cell
    entries[-2]."""
    q = Kernel((("A", 2),), (("X", 2),), tuple(Fraction(k, 4) for k in (1, 2, 3, 2)))
    for env in ({"A": 0, "X": 2}, {"A": -1, "X": 0}, {"A": 2, "X": 1}):
        with pytest.raises(CardinalityMismatchError, match=r"is outside 0\.\.1"):
            q.value(env)
    with pytest.raises(UnknownVariableError):
        q.value({"A": 0})
    assert q.value({"A": 1, "X": 0}) == Fraction(3, 4)


def test_value_refuses_names_that_are_not_its_variables():
    """An extra name is refused, not ignored: reading C = 7 off a table over
    A and B would otherwise answer as if C were absent."""
    with pytest.raises(UnknownVariableError, match=r"unknown variables \['C', 'D'\]"):
        uniform_table((("A", 2), ("B", 2))).value({"A": 0, "B": 1, "C": 7, "D": 0})


def test_condition_states_the_range_rule_of_value():
    """An event value out of range gets the one message of every layout read."""
    with pytest.raises(CardinalityMismatchError, match=r"^A = 2 is outside 0\.\.1$"):
        condition(uniform_table((("A", 2), ("B", 2))), {"A": 2})


def test_marginalize_pr_box_is_uniform():
    margin = marginalize(pr_box(), ["B"])
    for x in (0, 1):
        for y in (0, 1):
            for a in (0, 1):
                assert margin.value({"A": a, "X": x, "Y": y}) == Fraction(1, 2)


def test_marginalize_nothing_is_identity():
    box = pr_box()
    assert marginalize(box, []) == box
    assert condition(box, {}) is box
    assert conditional(box, []) is box


def test_gyni_box_output_marginal():
    # summing out A and B leaves p(C | X, Y, Z) depending only on Z:
    # 2/3 when C equals Z and 1/3 otherwise (computed by brute-force sum)
    margin = marginalize(gyni_box(), ["A", "B"])
    for x, y, z, c in product((0, 1), repeat=4):
        expected = Fraction(2, 3) if c == z else Fraction(1, 3)
        assert margin.value({"C": c, "X": x, "Y": y, "Z": z}) == expected


def test_condition_uniform_pair():
    p = uniform_table((("A", 2), ("B", 2)))
    conditioned = condition(p, {"A": 0})
    assert conditioned.outcome_vars == (("B", 2),)
    assert all(v == Fraction(1, 2) for v in conditioned.entries)


def test_condition_swapping_box_on_b_zero_gives_pr():
    sliced = condition(swapping_box(), {"B": 0})
    for a, c, x, z in product((0, 1), repeat=4):
        expected = Fraction(1, 2) if (a ^ c) == (x & z) else Fraction(0)
        assert sliced.value({"A": a, "C": c, "X": x, "Z": z}) == expected


def test_condition_impossible_event_raises():
    p = point_mass((("A", 2), ("B", 2)), {"A": 0, "B": 0})
    with pytest.raises(ZeroProbabilityEventError):
        condition(p, {"A": 1})


def test_conditional_moves_variables():
    p = prob_table(
        (("A", 2), ("B", 2)),
        {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 4), (1, 0): Fraction(1, 4)},
    )
    k = conditional(p, ["A"])
    assert k.index_vars == (("A", 2),)
    assert k.value({"B": 0, "A": 0}) == Fraction(2, 3)
    with pytest.raises(ZeroConditioningError):
        conditional(
            point_mass((("A", 2), ("B", 2)), {"A": 0, "B": 0}), ["A"]
        )


@pytest.mark.parametrize("build", [
    lambda table: Kernel.from_mapping((("A", 2),), (("X", 2),), table),
    lambda table: prob_table((("A", 2), ("X", 2)), table),
], ids=["from_mapping", "prob_table"])
def test_mapping_keys_must_name_a_cell(build):
    """A key that names no cell is an error, never silently dropped, even
    when its value is zero."""
    rows = {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 2), (0, 1): 1}
    with pytest.raises(CardinalityMismatchError, match="A = 7 is outside 0..1"):
        build({**rows, (7, 0): 0})
    with pytest.raises(CardinalityMismatchError, match="X = 2 is outside 0..1"):
        build({**rows, (0, 2): 0})
    for key in [(0,), (0, 0, 0)]:
        with pytest.raises(ValueError, match=f"has {len(key)} values, expected 2"):
            build({**rows, key: 0})


def test_point_mass_outside_the_range_names_the_value():
    with pytest.raises(CardinalityMismatchError, match="A = 2 is outside 0..1"):
        point_mass((("A", 2),), {"A": 2})
    assert point_mass((("A", 2),), {"A": 1}).entries == (0, 1)


@pytest.mark.parametrize("value, kind", [(1.0, "float"), (True, "bool"), ("1", "str"), (None, "NoneType")])
@pytest.mark.parametrize("read", [
    lambda v: uniform_table((("A", 2), ("B", 2))).value({"A": v, "B": 0}),
    lambda v: Kernel.from_mapping((("A", 2),), (("B", 2),), {(v, 0): 1, (0, 1): 1}),
    lambda v: condition(uniform_table((("A", 2), ("B", 2))), {"A": v}),
    lambda v: point_mass((("B", 2), ("A", 2)), {"A": v, "B": 0}),
], ids=["value", "from_mapping", "condition", "point_mass"])
def test_a_variable_value_must_be_an_int(read, value, kind):
    """A value that is not an int is refused by name, never read as a
    position (True as 1) or failed on with a bare indexing error."""
    with pytest.raises(TypeError, match=f"^A = {value!r} is a {kind}, not an int$"):
        read(value)
    read(1)


def test_ci_product_distribution():
    p = uniform_table((("X", 2), ("Y", 3)))
    assert ci_holds(p, {"X"}, {"Y"}, set())


def test_ci_mediation_network(rng):
    p = random_network(mediation_graph(), rng, latent_cardinality=4).joint_observed()
    assert ci_holds(p, {"X"}, {"B"}, {"A"})
    assert not ci_holds(p, {"X"}, {"A"}, set())


def test_ci_pr_box_with_uniform_inputs():
    joint = join_inputs(pr_box(), uniform_table((("X", 2), ("Y", 2))))
    assert ci_holds(joint, {"A"}, {"Y"}, set())
    assert not ci_holds(joint, {"A"}, {"B"}, {"X", "Y"})


@pytest.mark.parametrize("a, b, z, label", [
    ("AB", ["X"], [], "a"), (["A"], "X", [], "b"), (["A"], ["B"], "X", "z"), (["A"], ["B"], "", "z"),
])
def test_ci_refuses_a_string_as_a_group(a, b, z, label):
    """A bare string would split into characters: "AB" would test {A, B}."""
    joint = join_inputs(pr_box(), uniform_table((("X", 2), ("Y", 2))))
    with pytest.raises(TypeError, match=f"^{label} is the string '.*', not a collection of names$"):
        ci_violation(joint, a, b, z)
    with pytest.raises(TypeError, match=f"^{label} is the string"):
        ci_holds(joint, a, b, z)


def _ci_bruteforce(p, a, b, z):
    """Reference CI via both conditional factorization orders."""
    names = set(p.var_names())
    other = names - a - b - z
    pabz = marginalize(p, other)
    for assign, v in pabz.cells():
        za = {k: assign[k] for k in z}
        pz = marginalize(pabz, a | b).value(za) if z else Fraction(1)
        if pz == 0:
            continue
        paz = marginalize(pabz, b).value({k: assign[k] for k in a | z})
        pbz = marginalize(pabz, a).value({k: assign[k] for k in b | z})
        # p(a|z) p(b|z) p(z) == p(a,b,z), checked in both orders
        if paz * pbz != v * pz:
            return False
        if pbz * paz != v * pz:
            return False
    return True


def test_ci_agrees_with_bruteforce(rng):
    variables = (("A", 2), ("B", 2), ("Z", 2))
    for _ in range(25):
        p = random_rational_table(rng, variables)
        for a, b, z in [({"A"}, {"B"}, {"Z"}), ({"A"}, {"Z"}, set()), ({"B"}, {"Z"}, {"A"})]:
            assert ci_holds(p, a, b, z) == _ci_bruteforce(p, a, b, z)
    # a genuinely independent pair satisfies both
    q = join_inputs(
        uniform_table((("A", 2),)).__class__.from_function(
            (("A", 2),), (("B", 2),), lambda v: Fraction(1, 2)
        ),
        uniform_table((("B", 2),)),
    )
    assert ci_holds(q, {"A"}, {"B"}, set()) and _ci_bruteforce(q, {"A"}, {"B"}, set())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda k: ci_violation(k, {"A"}, {"B"}, set()), "CI test expects a probability table"),
        (lambda k: project(k, {"X": "A"}), "project expects a probability table"),
        (lambda k: _check_joint(k, mediation_graph(), "check_nested"),
         "check_nested expects a joint probability table"),
    ],
    ids=["ci_violation", "project", "check_joint"],
)
def test_joint_only_operations_refuse_a_conditional_kernel(call, message):
    with pytest.raises(ValueError, match=message):
        call(pr_box())


def test_join_inputs_refuses_an_inputs_kernel_with_index_variables():
    """A conditional p(X | Y) covers the PR box's settings as a set, but it is
    no distribution over them: its cells sum to 2."""
    inputs = Kernel.from_function((("X", 2),), (("Y", 2),), lambda v: Fraction(1, 2))
    with pytest.raises(ValueError, match="^join_inputs expects an inputs probability table"):
        join_inputs(pr_box(), inputs)


def test_project_empty_copy_map_is_identity():
    p = uniform_table((("A", 2), ("B", 2)))
    assert project(p, {}) == p


def test_project_gyni_box_gives_projected_family():
    g = gyni_graph()
    h = build_hypergraph(g)
    box = gyni_box()
    # the lifted box over the hypergraph's variable names (copies A_B, B_C)
    hbox = Kernel.from_function(
        tuple((o, 2) for o in ("A", "B", "C")),
        tuple((i, 2) for i in ("A_B", "B_C", "X")),
        lambda v: box.value(
            {"A": v["A"], "B": v["B"], "C": v["C"], "X": v["X"], "Y": v["A_B"], "Z": v["B_C"]}
        ),
    )
    joint = join_inputs(hbox, uniform_table((("A_B", 2), ("B_C", 2), ("X", 2))))
    projected = project(joint, h.copies)
    kernel, inputs = split_joint(projected, ["X"])
    support = {
        0: {(0, 0, 0), (1, 0, 1), (1, 1, 0)},
        1: {(0, 1, 1), (1, 0, 1), (1, 1, 0)},
    }
    for x in (0, 1):
        assert inputs.value({"X": x}) == Fraction(1, 2)
        for a, b, c in product((0, 1), repeat=3):
            expected = Fraction(1, 3) if (a, b, c) in support[x] else Fraction(0)
            assert kernel.value({"A": a, "B": b, "C": c, "X": x}) == expected


def test_project_deterministic_strategy_composes():
    # a = f(x), b = g(y), c = h(z) with copies y := a, z := b must project to
    # the composed strategy a = f(x), b = g(f(x)), c = h(g(f(x)))
    f = lambda x: 1 - x
    g = lambda y: y
    h_ = lambda z: 1 - z
    variables = (("X", 2), ("Y", 2), ("Z", 2), ("A", 2), ("B", 2), ("C", 2))

    def joint(v):
        ok = v["A"] == f(v["X"]) and v["B"] == g(v["Y"]) and v["C"] == h_(v["Z"])
        return Fraction(1, 8) if ok else Fraction(0)

    p = prob_table(variables, joint)
    projected = project(p, {"Y": "A", "Z": "B"})
    for x in (0, 1):
        a, b, c = f(x), g(f(x)), h_(g(f(x)))
        assert projected.value({"X": x, "A": a, "B": b, "C": c}) == Fraction(1, 2)


def test_project_zero_selection_raises():
    # copy anti-correlated with its source: the diagonal event never happens
    p = prob_table(
        (("A", 2), ("U", 2)),
        lambda v: Fraction(1, 2) if v["U"] != v["A"] else Fraction(0),
    )
    with pytest.raises(ZeroSelectionProbabilityError):
        project(p, {"U": "A"})


@pytest.mark.parametrize(
    "copies, message",
    [
        ({"Q": "A"}, "projection copy Q is not a table variable"),
        ({"U": "Q"}, "projection source Q of copy U is not a table variable"),
    ],
)
def test_project_names_the_unknown_variable(copies, message):
    p = uniform_table((("A", 2), ("U", 2)))
    with pytest.raises(UnknownVariableError) as info:
        project(p, copies)
    assert info.value.args == (message,)


def test_split_join_round_trip(rng):
    variables = (("A", 2), ("X", 2))
    p = random_rational_table(rng, variables)
    kernel, inputs = split_joint(p, ["X"])
    assert join_inputs(kernel, inputs) == p


@st.composite
def rational_kernels(draw):
    n_out = draw(st.integers(min_value=1, max_value=2))
    n_idx = draw(st.integers(min_value=0, max_value=2))
    names = ["A", "B", "U", "V"]
    outcome = tuple((names[i], 2) for i in range(n_out))
    index = tuple((names[2 + i], 2) for i in range(n_idx))
    rows = {}
    for idx in product(*(range(c) for _, c in index)) or [()]:
        weights = [
            draw(st.integers(min_value=0, max_value=6)) + (1 if i == 0 else 0)
            for i in range(2**n_out)
        ]
        total = sum(weights)
        for i, cell in enumerate(product(*(range(c) for _, c in outcome))):
            rows[cell + idx] = Fraction(weights[i], total)
    return Kernel.from_mapping(outcome, index, rows)


@given(rational_kernels())
@settings(max_examples=60, deadline=None)
def test_marginalize_then_condition_commutes(kernel):
    if len(kernel.outcome_vars) < 2:
        return
    drop = kernel.outcome_vars[-1][0]
    event_var = kernel.outcome_vars[0][0]
    event = {event_var: 0}
    try:
        left = condition(marginalize(kernel, [drop]), event)
        right = marginalize(condition(kernel, event), [drop])
    except ZeroProbabilityEventError:
        return
    assert left == right


# -- differential tests: positional ops against the name-keyed reference ------


@st.composite
def shuffled_kernels(draw, min_outcomes=1, max_outcomes=3, max_index=2):
    """Kernels over shuffled names with cardinalities 1-3 and zero entries."""
    names = draw(st.permutations("ABCUVW"))
    n_out = draw(st.integers(min_value=min_outcomes, max_value=max_outcomes))
    n_idx = draw(st.integers(min_value=0, max_value=max_index))
    cards = draw(st.lists(st.integers(1, 3), min_size=n_out + n_idx, max_size=n_out + n_idx))
    variables = tuple(zip(names, cards))
    outcome, index = variables[:n_out], variables[n_out:]
    cells = prod(c for _, c in outcome)
    width = prod(c for _, c in index)
    entries = [Fraction(0)] * (cells * width)
    for j in range(width):
        weights = draw(st.lists(st.integers(0, 3), min_size=cells, max_size=cells))
        if not any(weights):
            weights[draw(st.integers(0, cells - 1))] = 1
        for i, w in enumerate(weights):
            entries[i * width + j] = Fraction(w, sum(weights))
    return Kernel(outcome, index, tuple(entries))


def _outcome(fn, *args):
    """A result, or the type, message and payload of the error raised."""
    try:
        result = fn(*args)
    except Exception as exc:
        payload = (getattr(exc, "index_assignment", None), getattr(exc, "assignment", None))
        return type(exc), str(exc), payload
    return list(result.items()) if isinstance(result, dict) else result


def _names(draw, kernel):
    """Some of the kernel's outcome names, now and then with an unknown one."""
    names = draw(st.permutations([n for n, _ in kernel.outcome_vars]))
    names = names[: draw(st.integers(1, len(names)))]
    return names + ["Q"] if _rarely(draw) else names


def _rarely(draw):
    return draw(st.integers(0, 9)) == 5


@given(shuffled_kernels(), st.data())
@settings(max_examples=150, deadline=None)
def test_marginalize_matches_reference(kernel, data):
    drop = _names(data.draw, kernel)
    assert _outcome(marginalize, kernel, drop) == _outcome(ref.marginalize, kernel, drop)


@given(shuffled_kernels(), st.data())
@settings(max_examples=150, deadline=None)
def test_condition_matches_reference(kernel, data):
    cards = dict(kernel.outcome_vars)
    names = _names(data.draw, kernel)
    event = {n: data.draw(st.integers(0, cards.get(n, 1) - 1)) for n in names}
    if event and _rarely(data.draw):  # a value out of range
        name = next(iter(event))
        event[name] = cards.get(name, 1)
    assert _outcome(condition, kernel, event) == _outcome(ref.condition, kernel, event)


@given(shuffled_kernels(), st.data())
@settings(max_examples=150, deadline=None)
def test_conditional_matches_reference(kernel, data):
    given_ = _names(data.draw, kernel)
    assert _outcome(conditional, kernel, given_) == _outcome(ref.conditional, kernel, given_)


@given(shuffled_kernels(min_outcomes=2, max_outcomes=4, max_index=0), st.data())
@settings(max_examples=200, deadline=None)
def test_ci_violation_matches_reference(table, data):
    groups = ([], [], [], [])
    for name in table.var_names():
        groups[data.draw(st.integers(0, 3))].append(name)
    # now and then an unknown name, or a name in two groups
    extra = data.draw(st.one_of(st.none(), st.sampled_from(table.var_names() + ["Q"])))
    if extra is not None:
        groups[data.draw(st.integers(0, 2))].append(extra)
    a, b, z, _ = groups
    expected = _outcome(ref.ci_violation, table, a, b, z)
    assert _outcome(ci_violation, table, a, b, z) == expected


@given(shuffled_kernels(min_outcomes=2, max_outcomes=4, max_index=0), st.data())
@settings(max_examples=200, deadline=None)
def test_project_matches_reference(table, data):
    # sources may be copies themselves, so chains and cycles of copies occur;
    # now and then a source is unknown or differs in cardinality
    copies = {}
    for name in _names(data.draw, table):
        card = dict(table.variables).get(name)
        pool = [n for n, c in table.variables if c == card and n != name]
        if not pool or _rarely(data.draw):
            pool = [n for n in table.var_names() if n != name] + ["Q"]
        copies[name] = data.draw(st.sampled_from(pool))
    want = _outcome(ref.project, table, copies)
    if isinstance(want, tuple) and want[0] is UnknownVariableError:
        # the reference's message names nothing; the library names the
        # first copy or source, in map order, that the table lacks
        names = set(table.var_names())
        copy, source = next((c, s) for c, s in copies.items() if not {c, s} <= names)
        if copy not in names:
            message = f"projection copy {copy} is not a table variable"
        else:
            message = f"projection source {source} of copy {copy} is not a table variable"
        want = (UnknownVariableError, str(UnknownVariableError(message)), want[2])
    assert _outcome(project, table, copies) == want


@pytest.mark.parametrize(
    "copies",
    [{"C2": "A", "C1": "C2"}, {"C1": "C2", "C2": "A"}, {"C1": "C2", "C2": "C1"}],
    ids=["chain-source-first", "chain-copy-first", "cycle"],
)
def test_project_copy_chains_match_reference(copies, rng):
    table = random_rational_table(rng, (("C1", 2), ("A", 2), ("B", 3), ("C2", 2)))
    assert project(table, copies) == ref.project(table, copies)


@given(shuffled_kernels(), st.data())
@settings(max_examples=150, deadline=None)
def test_join_inputs_matches_reference(kernel, data):
    layout = data.draw(st.permutations(kernel.index_vars))
    weights = [data.draw(st.integers(0, 3)) for _ in range(prod(c for _, c in layout))]
    weights[0] += 0 if any(weights) else 1
    inputs = Kernel(tuple(layout), (), tuple(Fraction(w, sum(weights)) for w in weights))
    assert _outcome(join_inputs, kernel, inputs) == _outcome(ref.join_inputs, kernel, inputs)


def test_join_inputs_rejects_other_cardinalities():
    # pr_box() is indexed by binary X and Y
    for card in (1, 3):
        inputs = uniform_table((("X", card), ("Y", 2)))
        with pytest.raises(CardinalityMismatchError):
            join_inputs(pr_box(), inputs)


@given(shuffled_kernels(), st.data())
@settings(max_examples=100, deadline=None)
def test_reorder_round_trip(kernel, data):
    outcome = data.draw(st.permutations(kernel.outcome_vars))
    index = data.draw(st.permutations(kernel.index_vars))
    moved = reorder(kernel, outcome, index)
    assert (moved.outcome_vars, moved.index_vars) == (tuple(outcome), tuple(index))
    assert all(moved.value(a) == v for a, v in kernel.cells())
    assert reorder(moved, kernel.outcome_vars, kernel.index_vars) == kernel
    with pytest.raises(ValueError):
        reorder(kernel, outcome + [("Q", 2)], index)
    # each variable stays on its side
    var = data.draw(st.sampled_from(kernel.variables))
    sides = [v for v in outcome if v != var], [v for v in index if v != var]
    sides[var in kernel.outcome_vars].append(var)
    with pytest.raises(ValueError, match="cannot lay out"):
        reorder(kernel, *sides)


@given(shuffled_kernels(), st.data())
@settings(max_examples=150, deadline=None)
def test_numerators_read_a_checked_layout(kernel, data):
    outcome = list(data.draw(st.permutations(kernel.outcome_vars)))
    index = list(data.draw(st.permutations(kernel.index_vars)))
    entries = reorder(kernel, outcome, index).entries
    den = lcm(*(e.denominator for e in entries))
    num = [e.numerator * (den // e.denominator) for e in entries]
    assert _numerators(kernel, outcome, index) == (num, den)
    # the layout with one variable on the other side, at another cardinality, or unknown
    name, card = var = data.draw(st.sampled_from(kernel.variables))
    moved = ([v for v in outcome if v != var], [v for v in index if v != var])
    moved[var in outcome].append(var)

    def swap(new):
        return tuple([new if v == var else v for v in side] for side in (outcome, index))

    for outs, ins in (moved, swap((name, card % 3 + 1)), swap(("Q", card))):
        with pytest.raises(ValueError, match="cannot lay out"):
            _numerators(kernel, outs, ins)


# -- records -----------------------------------------------------------------


class _Pair(Record):
    left: int
    right: tuple = ()


class _Twin(Record):
    left: int
    right: tuple = ()


class _Single(Record):
    x: int


def test_record_takes_fields_by_position_keyword_and_default():
    assert _Pair(1, (2,)).right == (2,)
    assert _Pair(right=(2,), left=1) == _Pair(1, (2,))
    assert _Pair(1).right == ()
    assert _Pair(1) == _Pair(1, ())


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2, 3), {}), ((1,), {"middle": 2}), ((1,), {"left": 1})],
    ids=["missing", "too-many", "unknown", "repeated"],
)
def test_record_rejects_wrong_fields(args, kwargs):
    with pytest.raises(TypeError):
        _Pair(*args, **kwargs)


def test_record_is_read_only():
    pair = _Pair(1)
    with pytest.raises(AttributeError):
        pair.left = 2
    with pytest.raises(AttributeError):
        pair.other = 2
    with pytest.raises(AttributeError):
        del pair.left
    assert pair.left == 1


def test_record_equality_and_hash_follow_class_and_fields():
    assert _Pair(1, (2,)) == _Pair(1, (2,))
    assert hash(_Pair(1, (2,))) == hash(_Pair(1, (2,)))
    assert _Pair(1, (2,)) != _Pair(1, (3,))
    assert _Pair(1, (2,)) != _Twin(1, (2,))
    assert len({_Pair(1), _Pair(1, ()), _Twin(1)}) == 2


def test_record_repr_names_class_and_every_field():
    assert repr(_Pair(1, ("x",))) == "_Pair(left=1, right=('x',))"
    assert repr(_Single((1, 2))) == "_Single(x=(1, 2))"
    assert repr(uniform_table((("A", 2),))) == (
        "Kernel(outcome_vars=(('A', 2),), index_vars=(), "
        "entries=(Fraction(1, 2), Fraction(1, 2)))"
    )


def test_record_repr_sorts_frozenset_elements():
    faces = frozenset({frozenset({"C", "B"}), frozenset({"A"})})
    assert repr(_Pair(faces)) == "_Pair(left=frozenset({frozenset({'A'}), frozenset({'B', 'C'})}), right=())"
    assert repr(_Single(frozenset())) == "_Single(x=frozenset())"


_PICKLED_REPR_PROBE = """
import pickle
import causalbox as cb
for name in ("chsh", "instrumental", "mediation", "gyni", "tripartite_bell", "swapping", "triangle"):
    g = getattr(cb, name + "_graph")()
    lift = cb.build_hypergraph(g)
    for record in (g, lift, cb.to_mdag(g), cb.to_mdag(lift.base)):
        if repr(record) != repr(pickle.loads(pickle.dumps(record))):
            print(name, type(record).__name__)
"""


@pytest.mark.parametrize("seed", ["4", "5", "8", "12"])
def test_equal_records_repr_alike_under_any_hash_seed(seed):
    """A pickle round trip can rebuild a frozenset with another iteration
    order; the record's repr must not show it."""
    assert run_fresh(_PICKLED_REPR_PROBE, PYTHONHASHSEED=seed) == ""


def test_record_survives_a_pickle_round_trip():
    import pickle

    for record in (_Pair(1), _Pair(1, (2,)), pr_box(1, 0, 0), gyni_graph(), build_hypergraph(gyni_graph())):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)


def test_kernel_keeps_its_own_init():
    assert "__init__" in Kernel.__dict__
