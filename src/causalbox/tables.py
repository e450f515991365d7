"""Exact-rational probability tables and kernels.

A :class:`Kernel` is a dense table of non-negative rationals over a list of
outcome variables, indexed by a (possibly empty) list of conditioning
variables.  For every assignment of the index variables the entries over the
outcome variables sum to exactly one.  A probability table is the special
case with no index variables.

Entries are stored flat in mixed-radix order over ``outcome_vars +
index_vars``, last variable fastest, so the row of the j-th index
assignment is the slice ``entries[j::width]``.  Every op works on that
layout by position: ``_index_map(variables, onto)`` lists the flat position
in ``onto``'s layout of each cell of ``variables``, and sums, selections,
diagonals and products over the table are read through such maps.
:func:`reorder` lays a kernel out over a permutation of its variables.
``_index_map`` is also the stride map of the lift's no-signalling rows in
:mod:`causalbox.lift`.

Entries are :class:`fractions.Fraction`, so equality constraints on tables
are decidable: two kernels are equal iff every entry is equal.  Each input
rule has one check here: ``_rational`` reads kernel entries and linear-system
data, ``_is_cardinality`` accepts a positive ``int`` only, ``_value`` accepts
an ``int`` only as a variable's value, ``_key_position`` reads an assignment
tuple of the right length and range, ``_name_sets`` refuses a bare string as
a group of names, and
``_laid_out(kernel, outcome_vars, index_vars)`` reads a kernel in another
layout, matched by name, cardinality and side.  :func:`reorder` reads
through it, and so does ``_numerators``, which gives integer numerators
over their lcm, per call, to code that compares sums or runs the simplex.

The module also holds :class:`Record`, the base of every immutable value
class in the package.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _product
from math import lcm, prod
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from . import _EXPORTS

if TYPE_CHECKING:
    from .graphs import CausalDag

Var = tuple[str, int]
Assignment = Mapping[str, int]

__all__ = _EXPORTS["tables"]


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


_set = object.__setattr__


class Record:
    """Immutable value with named fields, the base of the package's records.

    A subclass's fields are the names annotated in its class body, in
    order, and a class attribute of the same name is that field's default.
    ``__init__`` takes the fields by position or keyword.  A record is
    read-only after ``__init__``, equals only a record of its own class
    with equal fields, and hashes and reprs as its field tuple; a frozenset
    field reprs with its elements sorted, so equal records repr alike.

    Records are not ``dataclasses``: importing that module loads
    ``inspect`` and compiles generated methods for every class, which was
    the largest cost of a one-request CLI process after the interpreter.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:
            cls._fields = fields
            # one name gives the bare value, which compares and hashes alike
            cls._values = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                _set(self, name, kwargs.pop(name))
            elif not hasattr(type(self), name):
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{type(self).__name__} got unexpected or repeated fields {sorted(kwargs)}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        values = self._values(self)
        if len(self._fields) == 1:
            values = (values,)
        shown = ", ".join(f"{n}={_canonical_repr(v)}" for n, v in zip(self._fields, values))
        return f"{type(self).__qualname__}({shown})"


def _canonical_repr(value) -> str:
    """``repr(value)``, but a nonempty frozenset lists its elements sorted by
    their own canonical reprs instead of in its iteration order, which
    depends on the set's insertion history."""
    if isinstance(value, frozenset) and value:
        return f"frozenset({{{', '.join(sorted(map(_canonical_repr, value)))}}})"
    return repr(value)


def _rational(value, what: str = "kernel entry") -> Fraction:
    """``value`` as a ``Fraction``: an ``int`` is converted, and anything but
    an ``int`` or ``Fraction`` (a float or a bool included) raises
    ``TypeError`` naming it as ``what``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"{what} is a {type(value).__name__}, not an int or Fraction")


def _is_cardinality(value) -> bool:
    """True iff ``value`` is a positive ``int``: not a bool, float or string."""
    return type(value) is int and value > 0


def assignments(variables: Sequence[Var]) -> Iterator[tuple[int, ...]]:
    """Iterate all joint assignments of ``variables``, last variable fastest."""
    return _product(*(range(card) for _, card in variables))


class Kernel(Record):
    """Dense exact table q(outcomes | index).

    Entries are stored flat in mixed-radix order over
    ``outcome_vars + index_vars`` with the last variable varying fastest.
    Instances are immutable and validated on construction: entries are
    ``int`` or ``Fraction`` (stored as ``Fraction``), non-negative, and
    every index row sums to exactly one.
    """

    outcome_vars: tuple[Var, ...]
    index_vars: tuple[Var, ...]
    entries: tuple[Fraction, ...]

    def __init__(self, outcome_vars, index_vars, entries):
        index_vars = tuple(index_vars)
        _set(self, "outcome_vars", tuple(outcome_vars))
        _set(self, "index_vars", index_vars)
        names = self.var_names()
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        if not all(_is_cardinality(card) for _, card in self.variables):
            raise CardinalityMismatchError(f"cardinalities must be positive ints: {self.variables}")
        size = prod(c for _, c in self.variables)
        if len(entries) != size:
            raise ValueError(f"expected {size} entries, got {len(entries)}")
        entries = tuple(map(_rational, entries))
        if any(e.numerator < 0 for e in entries):
            raise ValueError("negative entry in kernel")
        _set(self, "entries", entries)
        width = prod(c for _, c in index_vars)
        for j, idx in enumerate(assignments(index_vars)):
            row = sum(entries[j::width])
            if row != 1:
                try:
                    total = str(row)
                except ValueError:  # past the interpreter's int-to-string digit limit
                    total = "a value too long to print"
                raise ValueError(f"row for index assignment {idx} sums to {total}, expected 1")

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
            entries.append(fn(dict(zip(names, values))))
        return cls(outcome_vars, index_vars, tuple(entries))

    @classmethod
    def from_mapping(
        cls,
        outcome_vars: Sequence[Var],
        index_vars: Sequence[Var],
        table: Mapping[tuple[int, ...], Fraction],
    ) -> "Kernel":
        """Build a kernel from a sparse mapping of full assignment tuples.

        Keys are assignments of ``outcome_vars + index_vars`` in order, each
        checked by ``_key_position``; missing cells are zero.  A layout whose
        cells cannot be allocated raises ``ValueError``.
        """
        variables = tuple(outcome_vars) + tuple(index_vars)
        try:
            entries = [Fraction(0)] * prod(c for _, c in variables)
        except (OverflowError, MemoryError):
            raise ValueError("layout has more cells than fit in memory") from None
        for key, value in table.items():
            entries[_key_position(variables, key)] = value
        return cls(outcome_vars, index_vars, entries)

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

    def value(self, assignment: Assignment) -> Fraction:
        """Entry at a full assignment of all variables, given by name; a name
        that is not a variable raises :class:`UnknownVariableError`."""
        _partition_vars(self.variables, assignment)
        return self.entries[_position(self.variables, assignment)]

    def cells(self) -> Iterator[tuple[dict[str, int], Fraction]]:
        """Iterate ``(assignment_dict, entry)`` over all cells."""
        names = self.var_names()
        for values, entry in zip(assignments(self.variables), self.entries):
            yield dict(zip(names, values)), entry


def prob_table(variables: Sequence[Var], source) -> Kernel:
    """Probability table (kernel with no index variables).

    ``source`` is either a callable on assignment dicts or a sparse mapping
    from assignment tuples to rationals.
    """
    if callable(source):
        return Kernel.from_function(variables, (), source)
    return Kernel.from_mapping(variables, (), source)


def uniform_table(variables: Sequence[Var]) -> Kernel:
    total = prod(c for _, c in variables)
    return Kernel(tuple(variables), (), (Fraction(1, total),) * total)


def point_mass(variables: Sequence[Var], point: Assignment) -> Kernel:
    return Kernel.from_mapping(variables, (), {tuple(point[n] for n, _ in variables): 1})


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


def _position(variables: Sequence[Var], assignment: Assignment) -> int:
    """Flat position in ``variables``' layout of a full assignment by name.

    Raises :class:`UnknownVariableError` for a missing name, ``TypeError``
    for a value that is not an ``int`` (see :func:`_value`) and
    :class:`CardinalityMismatchError` for a value outside its range.
    """
    missing = [n for n, _ in variables if n not in assignment]
    if missing:
        raise UnknownVariableError(f"assignment missing {missing}")
    pos = 0
    for name, card in variables:
        value = _value(name, assignment[name])
        if not 0 <= value < card:
            raise CardinalityMismatchError(f"{name} = {value} is outside 0..{card - 1}")
        pos = pos * card + value
    return pos


def _value(name: str, value) -> int:
    """``value`` of variable ``name``, which must be an ``int``: anything else
    (a bool, float, string or ``None`` included) raises ``TypeError`` naming
    the variable."""
    if type(value) is not int:
        raise TypeError(f"{name} = {value!r} is a {type(value).__name__}, not an int")
    return value


def _name_sets(a, b, z) -> tuple[set[str], set[str], set[str]]:
    """The groups of a CI statement as sets of names.  A bare string raises
    ``TypeError``: as a group it would split into its characters."""
    for label, group in (("a", a), ("b", b), ("z", z)):
        if isinstance(group, str):
            raise TypeError(f"{label} is the string {group!r}, not a collection of names")
    return set(a), set(b), set(z)


def _key_position(variables: Sequence[Var], key: Sequence[int]) -> int:
    """Flat position in ``variables``' layout of an assignment tuple ``key``.

    Raises ``ValueError`` for a key of the wrong length and
    :class:`CardinalityMismatchError` for a value outside its range.
    """
    if len(key) != len(variables):
        raise ValueError(f"assignment {tuple(key)} has {len(key)} values, "
                         f"expected {len(variables)}")
    return _position(variables, dict(zip((n for n, _ in variables), key)))


def _index_map(variables: Sequence[Var], onto: Sequence[Var]) -> list[int]:
    """Flat position in ``onto``'s layout of every cell of ``variables``.

    Cells come in table order, last variable fastest.  Variables missing
    from ``onto`` are ignored and variables of ``onto`` missing from
    ``variables`` stay at zero, so the sum of two maps over complementary
    variables reaches every cell.  A name listed twice in ``onto`` takes
    its one value at both places, which selects a diagonal.
    """
    strides: dict[str, int] = {}
    step = 1
    for name, card in reversed(onto):
        strides[name] = strides.get(name, 0) + step
        step *= card
    positions = [0]
    for name, card in variables:
        stride = strides.get(name, 0)
        positions = [p + v * stride for p in positions for v in range(card)]
    return positions


def _laid_out(kernel: Kernel, outcome_vars: Sequence[Var], index_vars: Sequence[Var]):
    """The entries of ``kernel`` laid out over ``outcome_vars`` indexed by
    ``index_vars``.  The layout must list the kernel's variables by name and
    cardinality, each on its side, or ``ValueError``.  In the kernel's own
    layout the result is ``kernel.entries`` itself; otherwise a new list."""
    layout = tuple(outcome_vars) + tuple(index_vars)
    if sorted(layout) != sorted(kernel.variables) or set(outcome_vars) != set(kernel.outcome_vars):
        raise ValueError(f"cannot lay out {kernel.outcome_vars} | {kernel.index_vars} as "
                         f"{tuple(outcome_vars)} | {tuple(index_vars)}")
    if layout == kernel.variables:
        return kernel.entries
    return [kernel.entries[p] for p in _index_map(layout, kernel.variables)]


def _numerators(kernel: Kernel, outcome_vars: Sequence[Var], index_vars: Sequence[Var]):
    """``kernel`` read through :func:`_laid_out`, as integer numerators over
    their lcm ``den``: cell i is ``num[i] / den``.  Computed on every call."""
    cells = _laid_out(kernel, outcome_vars, index_vars)
    den = lcm(*(e.denominator for e in cells))
    return [e.numerator * (den // e.denominator) for e in cells], den


def _sums(entries: Sequence[Fraction], variables: Sequence[Var], kept: Sequence[Var]):
    """Sums of ``entries``, laid out over ``variables``, for each cell of ``kept``."""
    rest = _index_map(tuple(dict.fromkeys(v for v in variables if v not in kept)), variables)
    return [sum(entries[p + r] for r in rest) for p in _index_map(kept, variables)]


def reorder(kernel: Kernel, outcome_vars: Sequence[Var], index_vars: Sequence[Var]) -> Kernel:
    """The same kernel laid out over ``outcome_vars`` indexed by ``index_vars``,
    each variable on its side; see :func:`_laid_out`."""
    entries = tuple(_laid_out(kernel, outcome_vars, index_vars))
    return Kernel(tuple(outcome_vars), tuple(index_vars), entries)


def marginalize(kernel: Kernel, drop: Iterable[str]) -> Kernel:
    """Sum out ``drop`` (a subset of the outcome variables)."""
    dropped, kept = _partition_vars(kernel.outcome_vars, drop)
    if not dropped:
        return kernel
    entries = _sums(kernel.entries, kernel.variables, kept + kernel.index_vars)
    return Kernel(kept, kernel.index_vars, tuple(entries))


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
    offset = _position(kernel.variables, {**dict.fromkeys(kernel.var_names(), 0), **event})
    index = kernel.index_vars
    cells = [
        kernel.entries[offset + p] for p in _index_map(kept + index, kernel.variables)
    ]
    width = prod(c for _, c in index)
    norms = [sum(cells[j::width]) for j in range(width)]
    for idx, norm in zip(assignments(index), norms):
        if norm == 0:
            raise ZeroProbabilityEventError(dict(zip([n for n, _ in index], idx)))
    return Kernel(kept, index, tuple(v / norms[i % width] for i, v in enumerate(cells)))


def conditional(kernel: Kernel, given: Iterable[str]) -> Kernel:
    """Move outcome variables ``given`` into the index set.

    Returns q(rest | given, old index) = q(rest, given | index) / q(given | index).
    Raises :class:`ZeroConditioningError` where the conditioning assignment
    has probability zero.
    """
    moved, kept = _partition_vars(kernel.outcome_vars, given)
    if not moved:
        return kernel
    new_index = moved + kernel.index_vars
    denoms = _sums(kernel.entries, kernel.variables, new_index)
    for idx, denom in zip(assignments(new_index), denoms):
        if denom == 0:
            raise ZeroConditioningError(dict(zip([n for n, _ in new_index], idx)))
    width = len(denoms)
    positions = _index_map(kept + new_index, kernel.variables)
    entries = tuple(kernel.entries[p] / denoms[i % width] for i, p in enumerate(positions))
    return Kernel(kept, new_index, entries)


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
    a, b, z = _name_sets(a, b, z)
    if (a & b) or (a & z) or (b & z):
        raise ValueError("a, b, z must be disjoint")
    for group in (a, b, z):  # raises UnknownVariableError, group by group
        _partition_vars(table.variables, group)
    abz = tuple(v for v in table.variables if v[0] in a | b | z)
    p_abz = _sums(table.entries, table.variables, abz)

    def at_abz(keep):  # the margin of p_abz over ``keep``, read at every cell of abz
        kept = tuple(v for v in abz if v[0] in keep)
        margin = _sums(p_abz, abz, kept)
        return [margin[p] for p in _index_map(abz, kept)]

    p_az, p_bz, p_z = at_abz(a | z), at_abz(b | z), at_abz(z)
    for i, values in enumerate(assignments(abz)):
        if p_z[i] != 0 and p_abz[i] * p_z[i] != p_az[i] * p_bz[i]:
            return dict(zip([n for n, _ in abz], values))
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
        if copy not in names:
            raise UnknownVariableError(f"projection copy {copy} is not a table variable")
        if source not in names:
            raise UnknownVariableError(
                f"projection source {source} of copy {copy} is not a table variable"
            )
        if table.cardinality(copy) != table.cardinality(source):
            raise CardinalityMismatchError(
                f"copy {copy} and source {source} differ in cardinality"
            )
    kept = tuple(v for v in table.outcome_vars if v[0] not in copies)
    # Rename each copy after the root of its chain: the diagonal is the layout
    # with repeated names, and a cycle of copies is summed over.
    root = {n: n for n in names}
    for copy, source in copies.items():
        new = root[source]
        root = {n: new if r == copy else r for n, r in root.items()}
    diagonal = tuple((root[n], c) for n, c in table.variables)
    selected = _sums(table.entries, diagonal, kept)
    norm = sum(selected)
    if norm == 0:
        raise ZeroSelectionProbabilityError("diagonal event has probability zero")
    return Kernel(kept, (), tuple(v / norm for v in selected))


def join_inputs(kernel: Kernel, inputs: Kernel) -> Kernel:
    """Joint table p(outcomes, inputs) = q(outcomes | inputs) * p(inputs).

    ``inputs`` must be a probability table over exactly the kernel's index
    variables, with the same cardinalities.
    """
    if not inputs.is_prob_table:
        raise ValueError("join_inputs expects an inputs probability table without index variables")
    if set(inputs.variables) != set(kernel.index_vars):
        raise CardinalityMismatchError("input table must cover exactly the index variables")
    at = _index_map(kernel.variables, inputs.variables)
    entries = tuple(q * inputs.entries[p] for q, p in zip(kernel.entries, at))
    return Kernel(kernel.variables, (), entries)


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


def _check_joint(table: Kernel, dag: CausalDag, caller: str) -> None:
    """Reject anything but a joint table over exactly the observed vertices."""
    if not table.is_prob_table:
        raise ValueError(f"{caller} expects a joint probability table")
    _check_observed(table, dag)


def _check_observed(table: Kernel, dag: CausalDag) -> None:
    """Reject a table, joint or conditional, whose variables are not exactly
    the observed vertices with their cardinalities."""
    expected = sorted((v, dag.cardinality(v)) for v in dag.observed())
    if sorted(table.variables) != expected:
        raise ValueError(
            f"table variables {sorted(table.variables)} do not match observed vertices {expected}"
        )
