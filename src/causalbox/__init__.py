"""Exact-arithmetic membership tests for the causal-model hierarchy.

Given a discrete causal DAG with latent root variables, the library derives
the equality constraints of its nested Markov model (conditional
independences plus Verma constraints), constructs the Bell-type hypergraph
lift and its post-selection projection, and decides membership of observed
distributions in the hierarchy

    classical  <=  post-selection  <=  nested Markov  <=  independence

via deterministic-strategy vertex enumeration and exact rational linear
programming.  Everything is computed over arbitrary-precision rationals, so
every verdict is exact.

``import causalbox`` loads no submodule.  Each public name is imported from
its defining module on first access (PEP 562), so a caller pays only for the
modules it uses; ``causalbox.<submodule>`` works the same way.
"""

import importlib

__version__ = "0.1.0"

# the defining module of every public name; each module's ``__all__`` is its
# entry, read through ``from . import _EXPORTS`` (this file imports no module)
_EXPORTS = {
    "graphs": (
        "OBSERVED",
        "LATENT",
        "VertexSpec",
        "CausalDag",
        "MDag",
        "HyperDag",
        "CiConstraint",
        "CycleError",
        "UnknownVertexError",
        "FixedNotParentlessError",
        "NotADistrictError",
        "MultiLatentError",
        "validate",
        "topological_order",
        "to_mdag",
        "districts",
        "subgraph",
        "marginal_mdag",
        "d_separated",
        "ci_constraints",
        "build_hypergraph",
        "is_bell_type",
        "bell_inputs",
        "bell_outputs",
    ),
    "tables": (
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
        "reorder",
        "project",
        "join_inputs",
        "split_joint",
    ),
    "networks": ("ClassicalNetwork", "random_network", "lift_network"),
    "boxes": (
        "pr_box",
        "local_box",
        "local_responses",
        "ns_box_vertices",
        "gyni_box",
        "gyni_projected",
        "swapping_box",
        "chsh_score",
        "instrumental_score",
        "chsh_graph",
        "instrumental_graph",
        "mediation_graph",
        "gyni_graph",
        "tripartite_bell_graph",
        "swapping_graph",
        "triangle_graph",
    ),
    "constraints": (
        "VermaConstraint",
        "ConstraintRecord",
        "NestedVerdict",
        "Violation",
        "district_kernel",
        "district_kernel_recipe",
        "enumerate_constraints",
        "check_nested",
        "i_member",
    ),
    "linprog": ("LinearSystem", "LpResult", "lp_solve"),
    "polytope": (
        "Vertex",
        "NotNoSignallingError",
        "DecompositionNotFoundError",
        "enumerate_h_vertices",
        "enumerate_classical_vertices",
        "classical_member",
        "maximize_functional",
        "functional_from_indicator",
        "decompose_ns_box",
        "MemberVerdict",
    ),
    "lift": ("ns_member", "PsVerdict", "ps_member", "ps_system"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "fileio", "recipes"}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # binds itself here
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
