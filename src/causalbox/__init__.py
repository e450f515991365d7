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
"""

from .graphs import (
    OBSERVED,
    LATENT,
    VertexSpec,
    CausalDag,
    MDag,
    HyperDag,
    CiConstraint,
    CycleError,
    UnknownVertexError,
    FixedNotParentlessError,
    NotADistrictError,
    MultiLatentError,
    validate,
    topological_order,
    to_mdag,
    districts,
    subgraph,
    marginal_mdag,
    d_separated,
    ci_constraints,
    build_hypergraph,
    is_bell_type,
    bell_inputs,
    bell_outputs,
)
from .tables import (
    Kernel,
    UnknownVariableError,
    ZeroProbabilityEventError,
    ZeroSelectionProbabilityError,
    ZeroConditioningError,
    CardinalityMismatchError,
    prob_table,
    uniform_table,
    point_mass,
    marginalize,
    condition,
    conditional,
    ci_violation,
    ci_holds,
    reorder,
    project,
    join_inputs,
    split_joint,
)
from .networks import ClassicalNetwork, random_network, lift_network
from .boxes import (
    pr_box,
    local_box,
    local_responses,
    ns_box_vertices,
    gyni_box,
    gyni_projected,
    swapping_box,
    chsh_score,
    chsh_graph,
    instrumental_graph,
    mediation_graph,
    gyni_graph,
    tripartite_bell_graph,
    swapping_graph,
    triangle_graph,
)
from .constraints import (
    VermaConstraint,
    ConstraintRecord,
    NestedVerdict,
    Violation,
    district_kernel,
    district_kernel_recipe,
    enumerate_constraints,
    check_nested,
    i_member,
)
from .linprog import LinearSystem, LpResult, lp_solve
from .polytope import (
    Vertex,
    NotNoSignallingError,
    DecompositionNotFoundError,
    enumerate_h_vertices,
    enumerate_classical_vertices,
    classical_member,
    maximize_functional,
    functional_from_indicator,
    decompose_ns_box,
    MemberVerdict,
)
from .lift import (
    ns_member,
    instrumental_score,
    PsVerdict,
    ps_member,
    ps_system,
)

__version__ = "0.1.0"
