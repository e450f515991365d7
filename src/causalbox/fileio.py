"""Text file formats for graphs and distributions.

Graph documents carry ``vertices`` (list of objects with ``name``, ``kind``
and, for observed vertices, ``cardinality``) and ``edges`` (list of
``[from, to]`` pairs).  Distribution documents carry ``variables`` and
``index_variables`` (ordered lists of ``{name, cardinality}``) plus
``table``, a mapping from comma-joined assignment strings to rational
strings such as ``"1/3"`` or ``"1"`` (integers are read too; a float is
rejected).  A key part is ASCII digits with no ``_`` (padding, a sign and
leading zeros are read), and a table with no variables has the single key
``""``.  Exact decimal strings such as ``"0.25"`` or ``"1e0"`` are read
exactly; a string with ``_`` or a non-ASCII character is rejected, so a
value reads alike on every supported Python; so is a decimal exponent
beyond 4300 in magnitude, a value whose numerator or denominator has more
than 4300 digits (it would not print back), a table with more cells than
fit in memory, an object that repeats a name, and a document that the JSON
reader refuses or that nests too deeply to parse.
Parsing and printing round-trip exactly; zero entries may be omitted.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .graphs import LATENT, OBSERVED, CausalDag, VertexSpec
from .tables import Kernel, _is_cardinality, assignments

__all__ = [
    "FileFormatError",
    "graph_to_dict",
    "graph_from_dict",
    "kernel_to_dict",
    "kernel_from_dict",
    "dump_graph",
    "load_graph",
    "dump_kernel",
    "load_kernel",
]


class FileFormatError(ValueError):
    """Malformed document; the message names the offending field."""


def graph_to_dict(dag: CausalDag) -> dict:
    vertices = []
    for v in dag.vertices:
        entry: dict[str, Any] = {"name": v.name, "kind": v.kind}
        if v.kind == OBSERVED:
            entry["cardinality"] = v.cardinality
        vertices.append(entry)
    return {"vertices": vertices, "edges": sorted([a, b] for a, b in dag.edges)}


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _typed(value, kind: type, where: str):
    """``value``, if it is a ``kind``; otherwise an error naming ``where``."""
    if not isinstance(value, kind):
        raise FileFormatError(f"{where} must be {_KINDS[kind]}")
    return value


def _fields(doc, kinds: dict[str, type], what: str) -> list:
    """The fields of a document, each checked for presence and type."""
    _typed(doc, dict, f"{what} document")
    for field in kinds:
        if field not in doc:
            raise FileFormatError(f"{what} document missing field '{field}'")
    return [_typed(doc[field], kind, f"field '{field}'") for field, kind in kinds.items()]


def _entry(entry, where: str) -> dict:
    """A ``{name, ...}`` object of a variable or vertex list."""
    if "name" not in _typed(entry, dict, where):
        raise FileFormatError(f"{where} missing field 'name'")
    _typed(entry["name"], str, f"{where}.name")
    return entry


def graph_from_dict(doc: dict) -> CausalDag:
    vertices, pairs = _fields(doc, {"vertices": list, "edges": list}, "graph")
    specs = []
    for i, entry in enumerate(vertices):
        _entry(entry, f"vertices[{i}]")
        if "kind" not in entry:
            raise FileFormatError(f"vertices[{i}] missing field 'kind'")
        kind = entry["kind"]
        if kind not in (OBSERVED, LATENT):
            raise FileFormatError(
                f"vertices[{i}].kind must be '{OBSERVED}' or '{LATENT}'"
            )
        cardinality = entry.get("cardinality")
        if kind == OBSERVED:
            if not _is_cardinality(cardinality):
                raise FileFormatError(
                    f"vertices[{i}].cardinality must be a positive integer"
                )
        elif cardinality is not None:
            raise FileFormatError(f"vertices[{i}] is latent and carries a cardinality")
        specs.append(VertexSpec(entry["name"], kind, cardinality))
    edges = []
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(v, str) for v in pair)):
            raise FileFormatError(f"edges[{i}] must be a [from, to] pair of names")
        edges.append((pair[0], pair[1]))
    return CausalDag(specs, edges)


def kernel_to_dict(kernel: Kernel) -> dict:
    table = {}
    for values, v in zip(assignments(kernel.variables), kernel.entries):
        if v:
            table[",".join(map(str, values))] = str(v)
    return {
        "variables": [{"name": n, "cardinality": c} for n, c in kernel.outcome_vars],
        "index_variables": [
            {"name": n, "cardinality": c} for n, c in kernel.index_vars
        ],
        "table": table,
    }


def _parse_vars(entries: list, field: str) -> tuple[tuple[str, int], ...]:
    out = []
    for i, entry in enumerate(entries):
        card = _entry(entry, f"{field}[{i}]").get("cardinality")
        if not _is_cardinality(card):
            raise FileFormatError(f"{field}[{i}].cardinality must be a positive integer")
        out.append((entry["name"], card))
    return tuple(out)


# Fraction expands a decimal exponent to that many digits; 4300 is CPython's
# default limit on the digits of an integer read from or printed to a string
_MAX_EXPONENT = 4300
# the least integer with more digits than that limit, which would not print back
_UNPRINTABLE = 10**_MAX_EXPONENT
# a decimal string with an exponent, as Fraction reads it; group 1 is the
# exponent's magnitude.  No two quantifiers share a run of digits, so a
# string that does not match fails in linear time
_EXPONENT = re.compile(r"\s*[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?([0-9]+)\s*")


def _check_exponent(text: str, key: str) -> None:
    """Refuse a decimal exponent beyond ``_MAX_EXPONENT`` in magnitude
    before ``Fraction`` expands it to that many digits."""
    match = _EXPONENT.fullmatch(text)
    digits = match[1].lstrip("0") if match else ""
    if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or "0") > _MAX_EXPONENT:
        raise FileFormatError(
            f"table value '{text}' at '{key}' has an exponent beyond {_MAX_EXPONENT}"
        )


def kernel_from_dict(doc: dict) -> Kernel:
    outcomes, index, cells = _fields(
        doc, {"variables": list, "index_variables": list, "table": dict}, "distribution"
    )
    outcome_vars = _parse_vars(outcomes, "variables")
    index_vars = _parse_vars(index, "index_variables")
    cards = [c for _, c in outcome_vars + index_vars]
    table, keys = {}, {}
    for key, raw in cells.items():
        parts = key.split(",") if key or cards else []  # "" is the one cell of no variables
        if len(parts) != len(cards):
            raise FileFormatError(f"table key '{key}' has wrong arity")
        try:
            if "_" in key or not key.isascii():  # as for values: int reads "1_0" as 10
                raise ValueError(key)
            values = tuple(int(p) for p in parts)
        except ValueError:
            raise FileFormatError(f"table key '{key}' is not an integer assignment")
        for v, c in zip(values, cards):
            if not 0 <= v < c:
                raise FileFormatError(f"table key '{key}' out of range")
        if values in keys:
            raise FileFormatError(f"table keys '{keys[values]}' and '{key}' name one cell")
        keys[values] = key
        if isinstance(raw, float):
            raise FileFormatError(f"table value {raw} at '{key}' is a float, not a rational")
        text = str(raw)
        _check_exponent(text, key)
        try:
            if "_" in text or not text.isascii():  # Fraction reads these by Python version
                raise ValueError(text)
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise FileFormatError(f"table value '{raw}' is not a rational")
        if max(abs(value.numerator), value.denominator) >= _UNPRINTABLE:
            raise FileFormatError(
                f"table value '{text}' at '{key}' has more than {_MAX_EXPONENT} digits"
            )
        table[values] = value
    try:
        return Kernel.from_mapping(outcome_vars, index_vars, table)
    except ValueError as exc:
        raise FileFormatError(f"table: {exc}")


def _write(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _object(pairs: list) -> dict:
    """A JSON object's members as a dict; a name given twice is refused
    rather than read as its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for name, _ in pairs:
            if name in seen:
                raise FileFormatError(f"an object repeats the name '{name}'")
            seen.add(name)
    return doc


def _read(path):
    """The JSON document in the file at ``path``; a file that is not JSON,
    not UTF-8 or holds an integer too long for ``int`` fails with the
    reader's text, and one with an object that repeats a name fails too."""
    with open(path) as fh:
        try:
            return json.load(fh, object_pairs_hook=_object)
        except ValueError as exc:
            raise FileFormatError(str(exc)) from None
        except RecursionError:
            raise FileFormatError("document nests too deeply") from None


def dump_graph(dag: CausalDag, path) -> None:
    _write(graph_to_dict(dag), path)


def load_graph(path) -> CausalDag:
    return graph_from_dict(_read(path))


def dump_kernel(kernel: Kernel, path) -> None:
    _write(kernel_to_dict(kernel), path)


def load_kernel(path) -> Kernel:
    return kernel_from_dict(_read(path))
