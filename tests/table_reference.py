"""The name-keyed table ops that ``causalbox.tables`` used before its
positional core, kept verbatim as the reference for the differential tests
in ``test_tables.py``, and the per-assignment loop that
``ClassicalNetwork.joint_observed`` used before it, the reference for
``test_networks.py``.  Every cell is looked up by name through
``Kernel.value`` and every result is built through ``Kernel.from_mapping``
or ``Kernel.from_function``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from causalbox.graphs import OBSERVED, topological_order
from causalbox.networks import ClassicalNetwork
from causalbox.tables import (
    Assignment,
    CardinalityMismatchError,
    Kernel,
    UnknownVariableError,
    Var,
    ZeroConditioningError,
    ZeroProbabilityEventError,
    ZeroSelectionProbabilityError,
    assignments,
)


def _partition_vars(
    variables: Sequence[Var], names: Iterable[str]
) -> tuple[tuple[Var, ...], tuple[Var, ...]]:
    names = set(names)
    known = {n for n, _ in variables}
    unknown = names - known
    if unknown:
        raise UnknownVariableError(f"unknown variables {sorted(unknown)}")
    inside = tuple(v for v in variables if v[0] in names)
    outside = tuple(v for v in variables if v[0] not in names)
    return inside, outside


def marginalize(kernel: Kernel, drop: Iterable[str]) -> Kernel:
    """Sum out ``drop`` (a subset of the outcome variables)."""
    dropped, kept = _partition_vars(kernel.outcome_vars, drop)
    if not dropped:
        return kernel
    kept_names = [n for n, _ in kept]
    index_names = [n for n, _ in kernel.index_vars]
    result: dict[tuple[int, ...], Fraction] = {}
    for idx in assignments(kernel.index_vars):
        for keep_values in assignments(kept):
            a = dict(zip(kept_names, keep_values))
            a.update(zip(index_names, idx))
            total = Fraction(0)
            for drop_values in assignments(dropped):
                a.update(zip([n for n, _ in dropped], drop_values))
                total += kernel.value(a)
            result[keep_values + idx] = total
    return Kernel.from_mapping(kept, kernel.index_vars, result)


def condition(kernel: Kernel, event: Assignment) -> Kernel:
    """Condition on a pinned event over some outcome variables.

    The event variables disappear from the table; the remaining outcome
    variables are renormalized within every index row.  Raises
    :class:`ZeroProbabilityEventError` if the event has probability zero
    under some index assignment.
    """
    pinned, kept = _partition_vars(kernel.outcome_vars, event.keys())
    if not pinned:
        return kernel
    for name, card in pinned:
        if not 0 <= event[name] < card:
            raise CardinalityMismatchError(f"{name} = {event[name]} is outside 0..{card - 1}")
    index_names = [n for n, _ in kernel.index_vars]
    table = {}
    for idx in assignments(kernel.index_vars):
        a = dict(zip(index_names, idx))
        a.update(event)
        norm = Fraction(0)
        row = {}
        for keep_values in assignments(kept):
            a.update(zip([n for n, _ in kept], keep_values))
            v = kernel.value(a)
            row[keep_values + idx] = v
            norm += v
        if norm == 0:
            raise ZeroProbabilityEventError(dict(zip(index_names, idx)))
        for key in row:
            table[key] = row[key] / norm
    return Kernel.from_mapping(kept, kernel.index_vars, table)


def conditional(kernel: Kernel, given: Iterable[str]) -> Kernel:
    """Move outcome variables ``given`` into the index set.

    Returns q(rest | given, old index) = q(rest, given | index) / q(given | index).
    Raises :class:`ZeroConditioningError` where the conditioning assignment
    has probability zero.
    """
    moved, kept = _partition_vars(kernel.outcome_vars, given)
    if not moved:
        return kernel
    margin = marginalize(kernel, [n for n, _ in kept])
    new_index = moved + kernel.index_vars
    table = {}
    for idx in assignments(new_index):
        a = dict(zip([n for n, _ in new_index], idx))
        denom = margin.value(a)
        for keep_values in assignments(kept):
            a2 = dict(a)
            a2.update(zip([n for n, _ in kept], keep_values))
            num = kernel.value(a2)
            if denom == 0:
                if num != 0:
                    raise AssertionError("marginal smaller than joint entry")
                raise ZeroConditioningError(dict(a))
            table[keep_values + idx] = num / denom
    return Kernel.from_mapping(kept, new_index, table)


def ci_violation(
    table: Kernel, a: Iterable[str], b: Iterable[str], z: Iterable[str]
) -> dict[str, int] | None:
    """Exact conditional-independence test A independent of B given Z.

    Returns the first assignment of A, B, Z (in table order) where
    p(a,b,z) * p(z) != p(a,z) * p(b,z), or None if there is none.
    Rows with p(z) == 0 are vacuously independent.
    """
    if not table.is_prob_table:
        raise ValueError("CI test expects a probability table without index variables")
    a, b, z = set(a), set(b), set(z)
    if (a & b) or (a & z) or (b & z):
        raise ValueError("a, b, z must be disjoint")
    names = set(table.var_names())
    for group in (a, b, z):
        unknown = group - names
        if unknown:
            raise UnknownVariableError(f"unknown variables {sorted(unknown)}")
    other = names - a - b - z
    p_abz = marginalize(table, other)
    p_az = marginalize(p_abz, b)
    p_bz = marginalize(p_abz, a)
    p_z = marginalize(p_az, a)
    for assign, v_abz in p_abz.cells():
        v_z = p_z.value({k: assign[k] for k in z}) if z else Fraction(1)
        if v_z == 0:
            continue
        v_az = p_az.value({k: assign[k] for k in a | z})
        v_bz = p_bz.value({k: assign[k] for k in b | z})
        if v_abz * v_z != v_az * v_bz:
            return assign
    return None


def project(table: Kernel, copies: Mapping[str, str]) -> Kernel:
    """Post-selection projection: condition on every copy equalling its source.

    ``copies`` maps copy-variable names to source-variable names.  The copy
    variables are removed and the table over the remaining variables is
    renormalized exactly.  Raises :class:`ZeroSelectionProbabilityError` if
    the diagonal event has probability zero.
    """
    if not table.is_prob_table:
        raise ValueError("project expects a probability table without index variables")
    if not copies:
        return table
    names = set(table.var_names())
    for copy, source in copies.items():
        if copy not in names or source not in names:
            raise UnknownVariableError(f"projection references unknown variable")
        if table.cardinality(copy) != table.cardinality(source):
            raise CardinalityMismatchError(
                f"copy {copy} and source {source} differ in cardinality"
            )
    kept = tuple(v for v in table.outcome_vars if v[0] not in copies)
    kept_names = [n for n, _ in kept]
    selected = {}
    norm = Fraction(0)
    for assign, value in table.cells():
        if all(assign[c] == assign[s] for c, s in copies.items()):
            key = tuple(assign[n] for n in kept_names)
            selected[key] = selected.get(key, Fraction(0)) + value
            norm += value
    if norm == 0:
        raise ZeroSelectionProbabilityError("diagonal event has probability zero")
    return Kernel.from_mapping(kept, (), {k: v / norm for k, v in selected.items()})


def join_inputs(kernel: Kernel, inputs: Kernel) -> Kernel:
    """Joint table p(outcomes, inputs) = q(outcomes | inputs) * p(inputs).

    ``inputs`` must be a probability table over exactly the kernel's index
    variables.
    """
    if set(inputs.var_names()) != {n for n, _ in kernel.index_vars}:
        raise CardinalityMismatchError("input table must cover exactly the index variables")
    joint_vars = kernel.outcome_vars + kernel.index_vars

    def fn(a):
        return kernel.value(a) * inputs.value({n: a[n] for n, _ in inputs.variables})

    return Kernel.from_function(joint_vars, (), fn)


def joint_observed(net: ClassicalNetwork) -> Kernel:
    """Exact joint distribution of the observed vertices of ``net``.

    Sums the product of all CPTs over the latent assignments.
    """
    order = topological_order(net.dag)
    all_vars = [(v, net.cardinality(v)) for v in order]
    observed = [v for v in order if net.dag.spec(v).kind == OBSERVED]
    obs_vars = [(v, net.cardinality(v)) for v in observed]
    table: dict[tuple[int, ...], Fraction] = {}
    for values in assignments(all_vars):
        a = dict(zip(order, values))
        p = Fraction(1)
        for v in order:
            p *= net.cpts[v].value({k: a[k] for k in (v, *net.dag.parents(v))})
            if p == 0:
                break
        if p == 0:
            continue
        key = tuple(a[v] for v in observed)
        table[key] = table.get(key, Fraction(0)) + p
    return Kernel.from_mapping(obs_vars, (), table)
