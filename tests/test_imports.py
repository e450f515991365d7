"""The package's export surface, the modules and parsers each CLI command
loads, and the imports each module reads.

``import causalbox`` loads no submodule: every public name is imported from
its defining module on first access.  The CLI imports the modules of a
command inside its handler, and builds only that command's parser, so a
later eager import or parser fails here instead of slowing every request.
"""

import argparse
import ast
import importlib
from pathlib import Path

import pytest

import causalbox
from causalbox.cli import dispatch
from conftest import run_fresh

# the 87 names the package exported when it imported every module eagerly
EXPORTS = {
    "graphs": [
        "OBSERVED", "LATENT", "VertexSpec", "CausalDag", "MDag", "HyperDag",
        "CiConstraint", "CycleError", "UnknownVertexError", "FixedNotParentlessError",
        "NotADistrictError", "MultiLatentError", "validate", "topological_order",
        "to_mdag", "districts", "subgraph", "marginal_mdag", "d_separated",
        "ci_constraints", "build_hypergraph", "is_bell_type", "bell_inputs",
        "bell_outputs",
    ],
    "tables": [
        "Kernel", "UnknownVariableError", "ZeroProbabilityEventError",
        "ZeroSelectionProbabilityError", "ZeroConditioningError",
        "CardinalityMismatchError", "prob_table", "uniform_table", "point_mass",
        "marginalize", "condition", "conditional", "ci_violation", "ci_holds",
        "reorder", "project", "join_inputs", "split_joint",
    ],
    "networks": ["ClassicalNetwork", "random_network", "lift_network"],
    "boxes": [
        "pr_box", "local_box", "local_responses", "ns_box_vertices", "gyni_box",
        "gyni_projected", "swapping_box", "chsh_score", "instrumental_score",
        "chsh_graph", "instrumental_graph", "mediation_graph", "gyni_graph",
        "tripartite_bell_graph", "swapping_graph", "triangle_graph",
    ],
    "constraints": [
        "VermaConstraint", "ConstraintRecord", "NestedVerdict", "Violation",
        "district_kernel", "district_kernel_recipe", "enumerate_constraints",
        "check_nested", "i_member",
    ],
    "linprog": ["LinearSystem", "LpResult", "lp_solve"],
    "polytope": [
        "Vertex", "NotNoSignallingError", "DecompositionNotFoundError",
        "enumerate_h_vertices", "enumerate_classical_vertices", "classical_member",
        "maximize_functional", "functional_from_indicator", "decompose_ns_box",
        "MemberVerdict",
    ],
    "lift": ["ns_member", "PsVerdict", "ps_member", "ps_system"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_exports_are_the_pinned_names():
    assert len(NAMES) == len(set(NAMES)) == 87
    assert sorted(causalbox.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_object_of_its_module(module):
    source = importlib.import_module(f"causalbox.{module}")
    for name in EXPORTS[module]:
        assert getattr(causalbox, name) is getattr(source, name), name


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_module_star_exports_its_entry(module):
    """A module's ``__all__`` is its ``_EXPORTS`` entry itself, not a copy
    that can drift from it, and a star import binds exactly those names."""
    source = importlib.import_module(f"causalbox.{module}")
    assert source.__all__ is causalbox._EXPORTS[module]
    namespace = {}
    exec(f"from causalbox.{module} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTS[module])


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from causalbox import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(NAMES)
    assert set(NAMES) <= set(dir(causalbox))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        causalbox.no_such_name
    with pytest.raises(ImportError):
        from causalbox import no_such_name  # noqa: F401


def test_bare_import_loads_no_submodule():
    probe = (
        "import sys, causalbox; "
        "loaded = lambda: sorted(m for m in sys.modules if m.partition('.')[0] == 'causalbox'); "
        "print(*loaded()); print(causalbox.recipes.Evaluator.__name__, *loaded())"
    )
    bare, attribute = run_fresh(probe).splitlines()
    assert bare == "causalbox"
    assert attribute == "Evaluator causalbox causalbox.recipes causalbox.tables"


_COMMON = {"causalbox", "causalbox.cli", "causalbox.fileio", "causalbox.graphs", "causalbox.tables"}
_NESTED = _COMMON | {"causalbox.constraints", "causalbox.recipes"}
_PROBE = """
import contextlib, io, sys
from causalbox.cli import dispatch
with contextlib.redirect_stdout(io.StringIO()):
    code = dispatch(sys.argv[1:])
print(code, "dataclasses" in sys.modules, *sorted(m for m in sys.modules if m.partition(".")[0] == "causalbox"))
"""


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        ("member --model N --graph {chsh} --dist {pr}", 0, _NESTED),
        ("member --model I --graph {chsh} --dist {pr}", 0, _NESTED),
        (
            "member --model C --graph {chsh} --dist {pr}",
            2,
            _COMMON | {"causalbox.polytope", "causalbox.linprog"},
        ),
        (
            "member --model PS --graph {chsh} --dist {pr}",
            0,
            _COMMON | {"causalbox.lift", "causalbox.linprog"},
        ),
        (
            "decompose-ns --dist {pr}",
            0,
            _COMMON | {"causalbox.boxes", "causalbox.lift", "causalbox.linprog", "causalbox.polytope"},
        ),
        ("constraints enumerate --graph {med}", 0, _NESTED),
        ("score --functional chsh --dist {pr}", 0, _COMMON | {"causalbox.boxes"}),
        ("score --functional instrumental --dist {instr}", 0, _COMMON | {"causalbox.boxes"}),
        (
            "optimize --functional chsh --graph {chsh}",
            0,
            _COMMON | {"causalbox.boxes", "causalbox.linprog", "causalbox.polytope"},
        ),
    ],
    ids=["N", "I", "C", "PS", "decompose-ns", "constraints", "score", "score-instrumental", "optimize"],
)
def test_each_command_loads_only_its_modules(fixture_files, argv, code, modules):
    got, dataclasses_loaded, *loaded = run_fresh(_PROBE, *argv.format(**fixture_files).split()).split()
    assert int(got) == code
    assert set(loaded) == modules
    # records are not dataclasses: importing that module costs a request ~12 ms
    assert dataclasses_loaded == "False"


@pytest.mark.parametrize(
    "argv, parsers",
    [
        # the top level and the command's own
        ("member --model N --graph {chsh} --dist {pr}", 2),
        ("decompose-ns --dist {pr}", 2),
        # the top level, the command and its one subcommand
        ("constraints enumerate --graph {med}", 3),
        # no command named: the top level, ten commands, seven subcommands
        ("--help", 18),
    ],
    ids=["member", "decompose-ns", "constraints", "help"],
)
def test_each_command_builds_only_its_parsers(fixture_files, monkeypatch, argv, parsers):
    """A request builds the parser of the command it names and no other:
    building every parser took 3.6-6.1 ms of a fresh ``member`` process,
    and the few it needs 1.8-2.9 ms."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    dispatch(argv.format(**fixture_files).split())
    assert len(built) == parsers


def _unread_imports(path: Path) -> list[str]:
    """Names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize(
    "path", sorted(Path(causalbox.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_each_module_reads_every_name_it_imports(path):
    assert _unread_imports(path) == []
