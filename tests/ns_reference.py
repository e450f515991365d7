"""The no-signalling code that ``causalbox.lift`` used before its stride
maps, kept verbatim as the reference for the differential tests in
``test_lift.py``: ``NsEquality`` records, ``ns_constraints`` enumerating
them, ``ns_member`` evaluating each through ``marginalize``, and
``ps_system`` expanding each into LP coefficients by name.  The tables,
graphs and LP types are the package's own, so results compare with ``==``.
This ``ps_system`` still takes designated ``input_priors``; the package
reads them off the joint (its marginal on an original setting, uniform on
a copy), and the tests hand the reference those derived priors.

Also ``decompose_ns_box`` as it was before it picked its one LP from the
CHSH variant a box violates: a locals-only LP, then one LP per PR box in
lexicographic order, each through ``_convex_member`` as it was before the
polytope LPs were built as integer rows (a ``LinearSystem`` of ``Fraction``
coefficients solved by ``lp_solve``, the target laid out by ``reorder``),
and ``classical_member`` on that ``_convex_member``.  All three are the
references for the differential tests in ``test_polytope.py``.  The
decomposition tests no-signalling with this module's ``ns_member``, which
sums ``Fraction`` marginals and matches the box's parties by name only, so
it is a reference for binary boxes only: on a box with a ternary X it
raises ``reorder``'s ``ValueError`` where the package raises
``NotNoSignallingError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from causalbox.boxes import chsh_graph, ns_box_vertices, pr_box
from causalbox.graphs import (
    CausalDag,
    HyperDag,
    MultiLatentError,
    bell_inputs,
    bell_outputs,
    build_hypergraph,
    is_bell_type,
)
from causalbox.linprog import LinearSystem, lp_solve
from causalbox.polytope import (
    DecompositionNotFoundError,
    MemberVerdict,
    NotNoSignallingError,
    enumerate_classical_vertices,
)
from causalbox.tables import Kernel, assignments, conditional, marginalize, reorder


@dataclass(frozen=True)
class NsEquality:
    """One no-signalling equality: the marginal over the outputs not fed by
    ``input_vertex`` is the same at the two stated input values, for a fixed
    assignment of the remaining outputs and inputs."""

    input_vertex: str
    kept_outputs: tuple[tuple[str, int], ...]
    other_inputs: tuple[tuple[str, int], ...]
    value_low: int
    value_high: int

    def __str__(self):
        kept = ",".join(f"{n}={v}" for n, v in self.kept_outputs)
        rest = ",".join(f"{n}={v}" for n, v in self.other_inputs)
        return (
            f"NS[{self.input_vertex}]: p({kept}|{rest},{self.input_vertex}="
            f"{self.value_low}) = p({kept}|{rest},{self.input_vertex}={self.value_high})"
        )


def _check_bell(h: HyperDag) -> None:
    if not is_bell_type(h.base):
        raise ValueError("hypergraph base is not Bell-type")
    if len(h.base.latent()) > 1:
        raise MultiLatentError(
            "no-signalling constraints require at most one latent vertex"
        )


def ns_constraints(h: HyperDag) -> list[NsEquality]:
    """No-signalling equalities of a Bell-type single-latent hypergraph.

    For every setting vertex, the marginal over the outputs it does not feed
    must not vary with its value.  Together with normalization these linear
    equalities characterize the graph's independence model at the level of
    conditional boxes when all outputs measure the shared latent state.
    """
    _check_bell(h)
    dag = h.base
    inputs = bell_inputs(dag)
    outputs = bell_outputs(dag)
    equalities = []
    for i in inputs:
        fed = sorted(dag.children(i))
        kept = [o for o in outputs if o not in fed]
        if not kept:
            continue  # implied by normalization
        kept_vars = [(o, dag.cardinality(o)) for o in kept]
        other_vars = [(j, dag.cardinality(j)) for j in inputs if j != i]
        for kept_values in assignments(kept_vars):
            for other_values in assignments(other_vars):
                for v in range(dag.cardinality(i) - 1):
                    equalities.append(
                        NsEquality(
                            i,
                            tuple(zip(kept, kept_values)),
                            tuple(zip([j for j, _ in other_vars], other_values)),
                            v,
                            v + 1,
                        )
                    )
    return equalities


def ns_member(box: Kernel, h: HyperDag) -> bool:
    """Exact evaluation of every no-signalling equality on a conditional box."""
    _check_bell(h)
    inputs = set(bell_inputs(h.base))
    outputs = set(bell_outputs(h.base))
    if {n for n, _ in box.outcome_vars} != outputs or {
        n for n, _ in box.index_vars
    } != inputs:
        raise ValueError("box variables do not match the hypergraph's parties")
    for eq in ns_constraints(h):
        kept = dict(eq.kept_outputs)
        margin = marginalize(box, [n for n, _ in box.outcome_vars if n not in kept])
        base = dict(eq.other_inputs, **kept)
        lo = dict(base, **{eq.input_vertex: eq.value_low})
        hi = dict(base, **{eq.input_vertex: eq.value_high})
        if margin.value(lo) != margin.value(hi):
            return False
    return True


def _diagonal_input_values(h: HyperDag, env: dict) -> dict:
    values = {}
    for i in bell_inputs(h.base):
        if i in h.copies:
            values[i] = env[h.copies[i]]
        else:
            values[i] = env[i]
    return values


def _qname(out_values, in_values) -> str:
    """Name of the PS unknown q(out_values | in_values)."""
    return "q[" + ",".join(map(str, out_values)) + "|" + ",".join(map(str, in_values)) + "]"


def ps_system(
    p: Kernel, g: CausalDag, input_priors=None
) -> tuple[LinearSystem, HyperDag, list, list]:
    """The post-selection membership LP for a supported graph.

    Unknowns are the box entries q(outputs | inputs) of the hypergraph plus
    a scalar t; constraints are normalization, the no-signalling equalities
    and the diagonal pinning prior(x) * q(diagonal of x) = t * p(x) for
    every joint assignment x of the observed vertices; the objective
    maximizes t.

    ``input_priors`` optionally designates a full-support marginal (a map
    from value to weight) for any setting vertex of the lift, original
    roots and added copies alike; unspecified settings are uniform.  The
    uniform copy default is a normative part of the model: it makes the
    conditioning projection coincide with direct diagonal substitution into
    the conditional box, which is the projection the whole construction
    uses, and it realizes every classically generated distribution through
    its network lift.  Verdicts genuinely depend on the designated priors,
    so they are part of the membership question, not a tuning knob.
    """
    h = build_hypergraph(g)
    dag = h.base
    inputs = bell_inputs(dag)
    outputs = bell_outputs(dag)
    in_vars = [(i, dag.cardinality(i)) for i in inputs]
    out_vars = [(o, dag.cardinality(o)) for o in outputs]

    names = [
        _qname(ov, iv)
        for iv in assignments(in_vars)
        for ov in assignments(out_vars)
    ]
    system = LinearSystem(tuple(names + ["t"]), objective={"t": Fraction(1)})
    for iv in assignments(in_vars):
        system.add_equality(
            {_qname(ov, iv): Fraction(1) for ov in assignments(out_vars)}, Fraction(1)
        )
    for eq in ns_constraints(h):
        kept = dict(eq.kept_outputs)
        coeffs: dict[str, Fraction] = {}
        for sign, value in ((Fraction(1), eq.value_low), (Fraction(-1), eq.value_high)):
            in_env = dict(eq.other_inputs)
            in_env[eq.input_vertex] = value
            iv = tuple(in_env[i] for i in inputs)
            rest = [(n, c) for n, c in out_vars if n not in kept]
            for values in assignments(rest):
                env = dict(kept)
                env.update(zip([n for n, _ in rest], values))
                ov = tuple(env[o] for o in outputs)
                name = _qname(ov, iv)
                coeffs[name] = coeffs.get(name, Fraction(0)) + sign
        coeffs = {k: v for k, v in coeffs.items() if v}
        system.add_equality(coeffs, Fraction(0))
    for values in assignments(p.variables):
        env = dict(zip(p.var_names(), values))
        in_env = _diagonal_input_values(h, env)
        iv = tuple(in_env[i] for i in inputs)
        ov = tuple(env[o] for o in outputs)
        weight = Fraction(1)
        if input_priors:
            for i in inputs:
                prior = input_priors.get(i)
                if prior is not None:
                    weight *= Fraction(prior[in_env[i]])
        if weight <= 0:
            raise ValueError("input priors must have full support")
        system.add_equality(
            {_qname(ov, iv): weight, "t": -p.value(env)}, Fraction(0)
        )
    return system, h, inputs, outputs


def _as_conditional(p: Kernel, template: Kernel) -> Kernel:
    """Bring ``p`` to the conditional shape of the vertex tables."""
    index_names = [n for n, _ in template.index_vars]
    if p.is_prob_table and index_names:
        p = conditional(p, index_names)
    if set(p.var_names()) != set(template.var_names()):
        raise ValueError("distribution variables do not match the graph's vertices")
    return reorder(p, template.outcome_vars, template.index_vars)


def classical_member(p: Kernel, g: CausalDag) -> MemberVerdict:
    """Exact membership of a conditional table in the classical polytope."""
    vertices = enumerate_classical_vertices(g)
    return _convex_member(p, [v.table for v in vertices])


def _convex_member(p: Kernel, tables: list[Kernel]) -> MemberVerdict:
    """Convex weights of ``tables``, which share one layout, that give ``p``."""
    target = _as_conditional(p, tables[0])
    names = [f"w{i}" for i in range(len(tables))]
    system = LinearSystem(tuple(names))
    system.add_equality({n: Fraction(1) for n in names}, Fraction(1))
    for i, value in enumerate(target.entries):
        coeffs = {n: t.entries[i] for n, t in zip(names, tables) if t.entries[i]}
        system.add_equality(coeffs, value)
    result = lp_solve(system)
    if not result.is_optimal:
        return MemberVerdict(False)
    return MemberVerdict(True, tuple(result.assignment[n] for n in names))


def decompose_ns_box(q: Kernel):
    """Decompose a bipartite no-signalling box into at most one PR box plus
    local deterministic boxes.

    Tries a locals-only decomposition first, then each (alpha, beta, gamma)
    PR box in lexicographic order; the first feasible exact decomposition is
    returned as ``(pr_index_or_None, weights)`` where ``weights`` lists the
    PR weight (zero for locals-only) followed by the sixteen local weights.
    The box must be binary over A, B | X, Y, in any layout: its variables
    are matched by name to the parties of the CHSH lift.
    """
    try:
        ns = ns_member(q, build_hypergraph(chsh_graph()))
    except ValueError:
        ns = False
    if not ns:
        raise NotNoSignallingError("box is not a bipartite no-signalling kernel")
    locals_ = ns_box_vertices()[:16]
    verdict = _convex_member(q, locals_)
    if verdict.member:
        return None, (Fraction(0),) + verdict.weights
    for alpha in (0, 1):
        for beta in (0, 1):
            for gamma in (0, 1):
                candidates = [pr_box(alpha, beta, gamma)] + locals_
                verdict = _convex_member(q, candidates)
                if verdict.member:
                    return (alpha, beta, gamma), verdict.weights
    raise DecompositionNotFoundError(
        "no-signalling box admits no PR-plus-local decomposition"
    )
