"""Text formats: exact round trips and named-field errors."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalbox import (
    gyni_projected,
    marginalize,
    mediation_graph,
    pr_box,
    swapping_graph,
    uniform_table,
)
from causalbox.fileio import (
    FileFormatError,
    dump_graph,
    dump_kernel,
    graph_from_dict,
    kernel_from_dict,
    kernel_to_dict,
    load_graph,
    load_kernel,
)

from conftest import run_fresh


@pytest.mark.parametrize("dag", [mediation_graph(), swapping_graph()])
def test_graph_round_trip(tmp_path, dag):
    path = tmp_path / "graph.json"
    dump_graph(dag, path)
    loaded = load_graph(path)
    assert set(loaded.vertices) == set(dag.vertices)
    assert loaded.edges == dag.edges


@pytest.mark.parametrize("kernel", [pr_box(1, 1, 0), gyni_projected()])
def test_kernel_round_trip(tmp_path, kernel):
    path = tmp_path / "dist.json"
    dump_kernel(kernel, path)
    assert load_kernel(path) == kernel


def test_a_kernel_with_no_variables_round_trips(tmp_path):
    kernel = marginalize(uniform_table((("A", 2),)), ["A"])
    doc = kernel_to_dict(kernel)
    assert doc == {"variables": [], "index_variables": [], "table": {"": "1"}}
    assert kernel_from_dict(doc) == kernel
    path = tmp_path / "dist.json"
    dump_kernel(kernel, path)
    assert load_kernel(path) == kernel
    with pytest.raises(FileFormatError, match="^table key '0' has wrong arity$"):
        kernel_from_dict({**doc, "table": {"0": "1"}})
    # the empty key names no cell of a table with variables
    one = {"variables": [{"name": "A", "cardinality": 1}], "index_variables": [], "table": {"": "1"}}
    with pytest.raises(FileFormatError, match="^table key '' is not an integer assignment$"):
        kernel_from_dict(one)


def test_kernel_dict_uses_rational_strings():
    doc = kernel_to_dict(pr_box())
    assert doc["table"]["0,0,0,0"] == "1/2"
    assert doc["variables"][0] == {"name": "A", "cardinality": 2}
    assert doc["index_variables"][0] == {"name": "X", "cardinality": 2}


def test_integer_entries_accepted():
    doc = {
        "variables": [{"name": "A", "cardinality": 2}],
        "index_variables": [],
        "table": {"0": "1"},
    }
    kernel = kernel_from_dict(doc)
    assert kernel.value({"A": 0}) == 1


def test_missing_fields_are_named():
    with pytest.raises(FileFormatError, match="'vertices'"):
        graph_from_dict({"edges": []})
    with pytest.raises(FileFormatError, match="'table'"):
        kernel_from_dict({"variables": [], "index_variables": []})
    with pytest.raises(FileFormatError, match="kind"):
        graph_from_dict({"vertices": [{"name": "A", "kind": "weird"}], "edges": []})
    with pytest.raises(FileFormatError, match="cardinality"):
        graph_from_dict(
            {"vertices": [{"name": "A", "kind": "observed"}], "edges": []}
        )
    with pytest.raises(FileFormatError, match=r"vertices\[0\] missing field 'name'"):
        graph_from_dict({"vertices": [{"kind": "latent"}], "edges": []})
    with pytest.raises(FileFormatError, match=r"vertices\[0\] missing field 'kind'"):
        graph_from_dict({"vertices": [{"name": "L"}], "edges": []})


@pytest.mark.parametrize("card", [0, True, "2", 2.0], ids=["zero", "true", "string", "float"])
def test_cardinalities_must_be_positive_integers(card):
    """A JSON ``true`` is a bool, not the cardinality 1."""
    message = r"\[0\]\.cardinality must be a positive integer"
    vertex = {"name": "A", "kind": "observed", "cardinality": card}
    with pytest.raises(FileFormatError, match="^vertices" + message):
        graph_from_dict({"vertices": [vertex], "edges": []})
    a = {"name": "A", "cardinality": 2}
    for outcomes, index, field in (
        ([{**a, "cardinality": card}], [], "variables"),
        ([a], [{"name": "X", "cardinality": card}], "index_variables"),
    ):
        doc = {"variables": outcomes, "index_variables": index, "table": {}}
        with pytest.raises(FileFormatError, match=f"^{field}" + message):
            kernel_from_dict(doc)


def test_mistyped_fields_are_named():
    with pytest.raises(FileFormatError, match=r"vertices\[0\] must be an object"):
        graph_from_dict({"vertices": [1], "edges": []})
    with pytest.raises(FileFormatError, match="'edges' must be a list"):
        graph_from_dict({"vertices": [], "edges": None})
    with pytest.raises(FileFormatError, match="'table' must be an object"):
        kernel_from_dict({"variables": [], "index_variables": [], "table": []})
    with pytest.raises(FileFormatError, match=r"variables\[0\]\.name must be a string"):
        kernel_from_dict(
            {"variables": [{"name": 0, "cardinality": 2}], "index_variables": [], "table": {}}
        )


def test_latent_cardinality_rejected():
    with pytest.raises(FileFormatError, match="latent"):
        graph_from_dict(
            {
                "vertices": [{"name": "L", "kind": "latent", "cardinality": 2}],
                "edges": [],
            }
        )


def test_bad_table_keys_and_values():
    base = {
        "variables": [{"name": "A", "cardinality": 2}],
        "index_variables": [],
    }
    with pytest.raises(FileFormatError, match="arity"):
        kernel_from_dict({**base, "table": {"0,0": "1"}})
    with pytest.raises(FileFormatError, match="out of range"):
        kernel_from_dict({**base, "table": {"2": "1"}})
    with pytest.raises(FileFormatError, match="table key 'a' is not an integer assignment"):
        kernel_from_dict({**base, "table": {"a": "1"}})
    with pytest.raises(FileFormatError, match="rational"):
        kernel_from_dict({**base, "table": {"0": "x"}})
    with pytest.raises(FileFormatError, match="sums"):
        kernel_from_dict({**base, "table": {"0": "1/3"}})


@pytest.mark.parametrize("value", [0.1, 0.30000000000000004])
def test_float_table_values_are_rejected(value):
    # 0.1 would read as 1/10 through its decimal repr, and 0.30000000000000004
    # would fail only at the row-sum check
    doc = {
        "variables": [{"name": "A", "cardinality": 2}],
        "index_variables": [],
        "table": {"0": value, "1": "9/10"},
    }
    with pytest.raises(FileFormatError, match=f"^table value {value} at '0' is a float"):
        kernel_from_dict(doc)
    read = kernel_from_dict({**doc, "table": {"0": "1/10", "1": "9/10"}})
    assert read.value({"A": 0}) == Fraction(1, 10)
    assert kernel_from_dict({**doc, "table": {"0": 1}}).value({"A": 0}) == 1


def test_zero_entries_may_be_omitted():
    doc = {
        "variables": [{"name": "A", "cardinality": 2}],
        "index_variables": [],
        "table": {"1": "1"},
    }
    kernel = kernel_from_dict(doc)
    assert kernel.value({"A": 0}) == 0


@pytest.mark.parametrize("again", ["00", " 0", "+0", "0 "])
def test_table_keys_naming_one_cell_twice_are_rejected(again):
    # int() accepts padding and leading zeros, so each key below names cell (0,)
    doc = {
        "variables": [{"name": "A", "cardinality": 2}],
        "index_variables": [],
        "table": {"0": "1/2", again: "1/2", "1": "1/2"},
    }
    with pytest.raises(FileFormatError, match=re.escape(f"table keys '0' and '{again}' name one cell")):
        kernel_from_dict(doc)


@pytest.mark.parametrize(
    "text, value",
    [("0.25", Fraction(1, 4)), ("1e0", 1), ("1/3", Fraction(1, 3)), ("25e-2", Fraction(1, 4))],
)
def test_exact_decimal_strings_are_read_exactly(text, value):
    doc = {
        "variables": [{"name": "A", "cardinality": 2}],
        "index_variables": [],
        "table": {"0": text, "1": str(1 - value)},
    }
    assert kernel_from_dict(doc).value({"A": 0}) == value


@pytest.mark.parametrize("text", ["1_0", "1/1_0", "١", "١/٣", "１"])
def test_underscores_and_non_ascii_digits_are_not_rationals(text):
    # Fraction reads these on some supported Pythons and not on others
    doc = {
        "variables": [{"name": "A", "cardinality": 1}],
        "index_variables": [],
        "table": {"0": text},
    }
    with pytest.raises(FileFormatError, match=f"^table value '{text}' is not a rational$"):
        kernel_from_dict(doc)


@pytest.mark.parametrize("key", ["1_0", "١", "１", "1,_1", "1,١"])
def test_underscores_and_non_ascii_digits_are_not_table_keys(key):
    # int reads "1_0" as 10 and "١" (ARABIC-INDIC DIGIT ONE) as 1; keys follow
    # the rule for values
    doc = {
        "variables": [{"name": "A", "cardinality": 12}],
        "index_variables": [{"name": "X", "cardinality": 2}] if "," in key else [],
        "table": {key: "1"},
    }
    with pytest.raises(FileFormatError, match=f"^table key '{key}' is not an integer assignment$"):
        kernel_from_dict(doc)


@pytest.mark.parametrize("load", [load_graph, load_kernel])
def test_a_deeply_nested_document_is_a_format_error(tmp_path, load):
    # json.load recurses once per bracket and would raise RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    with pytest.raises(FileFormatError, match="^document nests too deeply$"):
        load(path)


# a document json.load refuses with a ValueError: truncated JSON, a file that
# is not UTF-8, and an integer past int()'s 4300-digit limit
_UNREADABLE = {"truncated": b'{"a": ', "not-utf8": b"\xff", "long-integer": b"[" + b"7" * 5000 + b"]"}


@pytest.mark.parametrize("load", [load_graph, load_kernel])
@pytest.mark.parametrize("data", list(_UNREADABLE.values()), ids=list(_UNREADABLE))
def test_a_document_json_refuses_is_a_format_error_with_its_text(tmp_path, load, data):
    with pytest.raises(ValueError) as refused:
        json.loads(data)
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(FileFormatError) as caught:
        load(path)
    assert str(caught.value) == str(refused.value)


def _two_cells(first: str, second: str) -> dict:
    return {
        "variables": [{"name": "A", "cardinality": 2}],
        "index_variables": [],
        "table": {"0": first, "1": second},
    }


@pytest.mark.parametrize("text", ["1e-5000", "1e+5000", "1E4301", " .5e-0004301 "])
def test_an_exponent_beyond_the_digit_limit_is_refused(text):
    # Fraction would expand it to as many digits as int() refuses to read
    with pytest.raises(
        FileFormatError,
        match=f"^table value '{re.escape(text)}' at '0' has an exponent beyond 4300$",
    ):
        kernel_from_dict(_two_cells(text, "1"))


@pytest.mark.parametrize("text", ["1e+-5000", "1/2e5000", "1e\u0665\u0660\u0660\u0660"])
def test_a_malformed_exponent_is_not_a_rational(text):
    with pytest.raises(FileFormatError, match=f"^table value '{re.escape(text)}' is not a rational$"):
        kernel_from_dict(_two_cells(text, "1"))


def test_an_exponent_at_the_digit_limit_is_read():
    kernel = kernel_from_dict(_two_cells("1e-4299", f"{10**4299 - 1}e-4299"))
    assert kernel.value({"A": 0}) == Fraction(1, 10**4299)
    assert kernel_from_dict(kernel_to_dict(kernel)) == kernel


@pytest.mark.parametrize("text", ["1e-4300", ".1e-4299", "1e4300"])
def test_a_value_that_would_not_print_back_is_refused(text):
    # its numerator or denominator reaches 10**4300, which str() refuses to print
    with pytest.raises(
        FileFormatError, match=f"^table value '{re.escape(text)}' at '0' has more than 4300 digits$"
    ):
        kernel_from_dict(_two_cells(text, "1"))


@settings(max_examples=60, deadline=None)
@example(mantissa=0, point=0, exponent=-4300)
@example(mantissa=1, point=0, exponent=-4300)
@given(
    mantissa=st.integers(0, 10**6),
    point=st.integers(0, 7),
    exponent=st.one_of(st.integers(-4300, -4290), st.integers(4290, 4300)),
)
def test_every_value_read_near_the_digit_limit_prints_back(mantissa, point, exponent):
    # the value mantissa * 10**exponent, written with `point` digits after a
    # decimal point, and a second cell that completes it to 1 where it can
    digits = str(mantissa)
    point = min(point, len(digits))
    text = f"{digits[:len(digits) - point]}.{digits[len(digits) - point:]}e{exponent + point}"
    if mantissa == 0:
        rest = "1"
    elif exponent < 0:
        rest = f"{10**-exponent - mantissa}e{exponent}"
    else:
        rest = "0"
    try:
        kernel = kernel_from_dict(_two_cells(text, rest))
    except FileFormatError:
        return
    assert kernel_from_dict(kernel_to_dict(kernel)) == kernel


@pytest.mark.parametrize("cardinality", [10**29, 2**61], ids=["10**29", "2**61"])
def test_a_table_too_large_to_allocate_is_refused(cardinality):
    # both sizes are refused before any cell is allocated
    doc = {
        "variables": [{"name": "A", "cardinality": cardinality}],
        "index_variables": [],
        "table": {"0": "1"},
    }
    with pytest.raises(FileFormatError, match="^table: layout has more cells than fit in memory$"):
        kernel_from_dict(doc)


# documents whose objects repeat a name, which json.load would read as its
# last value: a table whose cell "0" then reads 1/2, one whose values then sum
# to 3/4, and a graph whose edge X -> A is then dropped
_TABLE = '{"variables": [{"name": "A", "cardinality": 2}], "index_variables": [], "table": %s}'
_REPEATED = {
    "table-one-dropped": (load_kernel, _TABLE % '{"0": "1", "0": "1/2", "1": "1/2"}', "0"),
    "table-sum-of-none": (load_kernel, _TABLE % '{"0": "1/2", "0": "1/4", "1": "1/2"}', "0"),
    "graph-edges": (
        load_graph,
        '{"vertices": [{"name": "X", "kind": "observed", "cardinality": 2},'
        ' {"name": "A", "kind": "observed", "cardinality": 2}],'
        ' "edges": [["X", "A"]], "edges": []}',
        "edges",
    ),
}


@pytest.mark.parametrize("load, text, name", list(_REPEATED.values()), ids=list(_REPEATED))
def test_a_document_that_repeats_a_name_is_refused(tmp_path, load, text, name):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(FileFormatError, match=f"^an object repeats the name '{name}'$"):
        load(path)


# prints the FileFormatError that loading the file named by argv[1] raises
_LOAD_KERNEL = (
    "import sys\n"
    "from causalbox.fileio import FileFormatError, load_kernel\n"
    "try:\n    load_kernel(sys.argv[1])\n"
    "except FileFormatError as exc:\n    print(exc)"
)


def test_a_huge_exponent_is_refused_without_expanding_it(tmp_path):
    # Fraction("1e-10000000") alone takes seconds; this value did not load in 30 s
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_two_cells("1e-999999999", "1")))
    out = run_fresh(_LOAD_KERNEL, str(path), timeout=30)
    assert out == "table value '1e-999999999' at '0' has an exponent beyond 4300\n"


@pytest.mark.parametrize(
    "text", ["1" * 200000, "1e" + "0" * 200000 + "x"], ids=["digits", "zero-exponent"]
)
def test_a_long_value_is_refused_in_linear_time(tmp_path, text):
    # a pattern that lets two quantifiers split one run of digits takes
    # minutes to reject these
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_two_cells(text, "1")))
    assert run_fresh(_LOAD_KERNEL, str(path), timeout=30).startswith("table")
