"""Text file formats for graphs and distributions.

Graph documents carry ``vertices`` (list of objects with ``name``, ``kind``
and, for observed vertices, ``cardinality``) and ``edges`` (list of
``[from, to]`` pairs).  Distribution documents carry ``variables`` and
``index_variables`` (ordered lists of ``{name, cardinality}``) plus
``table``, a mapping from comma-joined assignment strings to rational
strings such as ``"1/3"`` or ``"1"``.  Parsing and printing round-trip
exactly; zero entries may be omitted.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .graphs import LATENT, OBSERVED, CausalDag, VertexSpec
from .tables import Kernel, assignments

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


def graph_from_dict(doc: dict) -> CausalDag:
    if not isinstance(doc, dict):
        raise FileFormatError("graph document must be an object")
    for field in ("vertices", "edges"):
        if field not in doc:
            raise FileFormatError(f"graph document missing field '{field}'")
    specs = []
    for i, entry in enumerate(doc["vertices"]):
        if "name" not in entry:
            raise FileFormatError(f"vertices[{i}] missing field 'name'")
        if "kind" not in entry:
            raise FileFormatError(f"vertices[{i}] missing field 'kind'")
        kind = entry["kind"]
        if kind not in (OBSERVED, LATENT):
            raise FileFormatError(
                f"vertices[{i}].kind must be '{OBSERVED}' or '{LATENT}'"
            )
        cardinality = entry.get("cardinality")
        if kind == OBSERVED:
            if not isinstance(cardinality, int) or cardinality < 1:
                raise FileFormatError(
                    f"vertices[{i}].cardinality must be a positive integer"
                )
        elif cardinality is not None:
            raise FileFormatError(f"vertices[{i}] is latent and carries a cardinality")
        specs.append(VertexSpec(entry["name"], kind, cardinality))
    edges = []
    for i, pair in enumerate(doc["edges"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise FileFormatError(f"edges[{i}] must be a [from, to] pair")
        edges.append((pair[0], pair[1]))
    return CausalDag(specs, edges)


def _format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def kernel_to_dict(kernel: Kernel) -> dict:
    table = {}
    for values, v in zip(assignments(kernel.variables), kernel.entries):
        if v:
            table[",".join(map(str, values))] = _format_rational(v)
    return {
        "variables": [{"name": n, "cardinality": c} for n, c in kernel.outcome_vars],
        "index_variables": [
            {"name": n, "cardinality": c} for n, c in kernel.index_vars
        ],
        "table": table,
    }


def _parse_vars(entries, field: str) -> tuple[tuple[str, int], ...]:
    out = []
    for i, entry in enumerate(entries):
        if "name" not in entry:
            raise FileFormatError(f"{field}[{i}] missing field 'name'")
        card = entry.get("cardinality")
        if not isinstance(card, int) or card < 1:
            raise FileFormatError(f"{field}[{i}].cardinality must be a positive integer")
        out.append((entry["name"], card))
    return tuple(out)


def kernel_from_dict(doc: dict) -> Kernel:
    if not isinstance(doc, dict):
        raise FileFormatError("distribution document must be an object")
    for field in ("variables", "index_variables", "table"):
        if field not in doc:
            raise FileFormatError(f"distribution document missing field '{field}'")
    outcome_vars = _parse_vars(doc["variables"], "variables")
    index_vars = _parse_vars(doc["index_variables"], "index_variables")
    cards = [c for _, c in outcome_vars + index_vars]
    table = {}
    for key, raw in doc["table"].items():
        parts = key.split(",")
        if len(parts) != len(cards):
            raise FileFormatError(f"table key '{key}' has wrong arity")
        try:
            values = tuple(int(p) for p in parts)
        except ValueError:
            raise FileFormatError(f"table key '{key}' is not an integer assignment")
        for v, c in zip(values, cards):
            if not 0 <= v < c:
                raise FileFormatError(f"table key '{key}' out of range")
        try:
            table[values] = Fraction(str(raw))
        except (ValueError, ZeroDivisionError):
            raise FileFormatError(f"table value '{raw}' is not a rational")
    try:
        return Kernel.from_mapping(outcome_vars, index_vars, table)
    except ValueError as exc:
        raise FileFormatError(f"table: {exc}")


def dump_graph(dag: CausalDag, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(dag), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path) -> CausalDag:
    with open(path) as fh:
        return graph_from_dict(json.load(fh))


def dump_kernel(kernel: Kernel, path) -> None:
    with open(path, "w") as fh:
        json.dump(kernel_to_dict(kernel), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_kernel(path) -> Kernel:
    with open(path) as fh:
        return kernel_from_dict(json.load(fh))
