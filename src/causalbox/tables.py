"""Exact-rational probability tables and kernels.

A :class:`Kernel` is a dense table of non-negative rationals over a list of
outcome variables, indexed by a (possibly empty) list of conditioning
variables.  For every assignment of the index variables the entries over the
outcome variables sum to exactly one.  A probability table is the special
case with no index variables.

All arithmetic uses :class:`fractions.Fraction`, so equality constraints on
tables are decidable: two kernels are equal iff every entry is equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as _product
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Var = tuple[str, int]
Assignment = Mapping[str, int]

__all__ = [
    "Var",
    "Kernel",
    "UnknownVariableError",
    "ZeroProbabilityEventError",
    "ZeroSelectionProbabilityError",
    "ZeroConditioningError",
    "CardinalityMismatchError",
    "prob_table",
    "uniform_table",
    "point_mass",
    "marginalize",
    "condition",
    "conditional",
    "ci_violation",
    "ci_holds",
    "project",
    "join_inputs",
    "split_joint",
]


class UnknownVariableError(KeyError):
    """A referenced variable is not part of the kernel."""


class ZeroProbabilityEventError(ValueError):
    """Conditioning event has probability zero under some index assignment."""

    def __init__(self, index_assignment: dict[str, int]):
        self.index_assignment = index_assignment
        super().__init__(f"event has probability zero at index {index_assignment}")


class ZeroSelectionProbabilityError(ValueError):
    """The post-selection (diagonal) event has probability zero."""


class ZeroConditioningError(ValueError):
    """A required conditional is undefined: the conditioning assignment has
    probability zero."""

    def __init__(self, assignment: dict[str, int]):
        self.assignment = assignment
        super().__init__(f"conditional undefined at {assignment}")


class CardinalityMismatchError(ValueError):
    """Variables do not have the expected cardinalities."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def assignments(variables: Sequence[Var]) -> Iterator[tuple[int, ...]]:
    """Iterate all joint assignments of ``variables``, last variable fastest."""
    return _product(*(range(card) for _, card in variables))


@dataclass(frozen=True)
class Kernel:
    """Dense exact table q(outcomes | index).

    Entries are stored flat in mixed-radix order over
    ``outcome_vars + index_vars`` with the last variable varying fastest.
    Instances are immutable and validated on construction: entries are
    non-negative and every index row sums to exactly one.
    """

    outcome_vars: tuple[Var, ...]
    index_vars: tuple[Var, ...]
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        names = [n for n, _ in self.outcome_vars + self.index_vars]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        for _, card in self.outcome_vars + self.index_vars:
            if card < 1:
                raise CardinalityMismatchError("cardinalities must be positive")
        size = 1
        for _, card in self.outcome_vars + self.index_vars:
            size *= card
        if len(self.entries) != size:
            raise ValueError(f"expected {size} entries, got {len(self.entries)}")
        if any(e < 0 for e in self.entries):
            raise ValueError("negative entry in kernel")
        for idx in assignments(self.index_vars):
            row = sum(self._entry(out, idx) for out in assignments(self.outcome_vars))
            if row != 1:
                raise ValueError(
                    f"row for index assignment {idx} sums to {row}, expected 1"
                )

    # -- construction ------------------------------------------------------

    @classmethod
    def from_function(
        cls,
        outcome_vars: Sequence[Var],
        index_vars: Sequence[Var],
        fn: Callable[..., Fraction],
    ) -> "Kernel":
        """Build a kernel by evaluating ``fn(assignment_dict)`` on every cell."""
        outcome_vars = tuple(outcome_vars)
        index_vars = tuple(index_vars)
        names = [n for n, _ in outcome_vars + index_vars]
        entries = []
        for values in assignments(outcome_vars + index_vars):
            entries.append(_as_fraction(fn(dict(zip(names, values)))))
        return cls(outcome_vars, index_vars, tuple(entries))

    @classmethod
    def from_mapping(
        cls,
        outcome_vars: Sequence[Var],
        index_vars: Sequence[Var],
        table: Mapping[tuple[int, ...], Fraction],
    ) -> "Kernel":
        """Build a kernel from a sparse mapping of full assignment tuples.

        Keys are assignments of ``outcome_vars + index_vars`` in order;
        missing cells are zero.
        """
        outcome_vars = tuple(outcome_vars)
        index_vars = tuple(index_vars)
        entries = []
        for values in assignments(outcome_vars + index_vars):
            entries.append(_as_fraction(table.get(values, Fraction(0))))
        return cls(outcome_vars, index_vars, tuple(entries))

    # -- access ------------------------------------------------------------

    @property
    def variables(self) -> tuple[Var, ...]:
        return self.outcome_vars + self.index_vars

    @property
    def is_prob_table(self) -> bool:
        return not self.index_vars

    def var_names(self) -> list[str]:
        return [n for n, _ in self.variables]

    def cardinality(self, name: str) -> int:
        for n, card in self.variables:
            if n == name:
                return card
        raise UnknownVariableError(name)

    def _entry(self, outcomes: tuple[int, ...], index: tuple[int, ...]) -> Fraction:
        pos = 0
        for (_, card), v in zip(self.variables, outcomes + index):
            pos = pos * card + v
        return self.entries[pos]

    def value(self, assignment: Assignment) -> Fraction:
        """Entry at a full assignment of all variables, given by name."""
        missing = [n for n, _ in self.variables if n not in assignment]
        if missing:
            raise UnknownVariableError(f"assignment missing {missing}")
        out = tuple(assignment[n] for n, _ in self.outcome_vars)
        idx = tuple(assignment[n] for n, _ in self.index_vars)
        return self._entry(out, idx)

    def cells(self) -> Iterator[tuple[dict[str, int], Fraction]]:
        """Iterate ``(assignment_dict, entry)`` over all cells."""
        names = [n for n, _ in self.variables]
        for values in assignments(self.variables):
            yield dict(zip(names, values)), self._entry(
                values[: len(self.outcome_vars)], values[len(self.outcome_vars) :]
            )

    def support(self) -> list[dict[str, int]]:
        return [a for a, v in self.cells() if v > 0]


def prob_table(variables: Sequence[Var], source) -> Kernel:
    """Probability table (kernel with no index variables).

    ``source`` is either a callable on assignment dicts or a sparse mapping
    from assignment tuples to rationals.
    """
    if callable(source):
        return Kernel.from_function(variables, (), source)
    return Kernel.from_mapping(variables, (), source)


def uniform_table(variables: Sequence[Var]) -> Kernel:
    total = 1
    for _, card in variables:
        total *= card
    return Kernel.from_function(variables, (), lambda a: Fraction(1, total))


def point_mass(variables: Sequence[Var], point: Assignment) -> Kernel:
    def fn(a):
        return Fraction(1) if all(a[n] == point[n] for n, _ in variables) else Fraction(0)

    return Kernel.from_function(variables, (), fn)


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
            raise CardinalityMismatchError(f"value {event[name]} out of range for {name}")
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


def ci_holds(
    table: Kernel, a: Iterable[str], b: Iterable[str], z: Iterable[str]
) -> bool:
    """True iff A is independent of B given Z exactly; see :func:`ci_violation`."""
    return ci_violation(table, a, b, z) is None


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


def split_joint(table: Kernel, input_names: Iterable[str]) -> tuple[Kernel, Kernel]:
    """Split a joint table into (conditional kernel, input marginal).

    The input marginal must have full support, otherwise the conditional is
    undefined and :class:`ZeroConditioningError` is raised.
    """
    input_names = list(input_names)
    outcome_names = [n for n, _ in table.outcome_vars if n not in input_names]
    margin = marginalize(table, outcome_names)
    kernel = conditional(table, input_names)
    return kernel, margin
