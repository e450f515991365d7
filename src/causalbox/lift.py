"""Membership machinery built on the Bell-type hypergraph lift.

For a graph whose hypergraph has a single latent vertex parenting every
outcome vertex, the lifted correlation set is the no-signalling polytope of
the associated Bell structure, a set cut out by finitely many linear
equalities.  Post-selection membership then reduces to one exact linear
program: find a no-signalling box whose diagonal section is proportional to
the target distribution, with the proportionality scalar maximized.  A
strictly positive optimum certifies membership and the optimizer is the
lift certificate; infeasibility or a zero optimum refutes it.

Hypergraphs outside that scope (several latent vertices, or outcome
vertices untouched by the latent) carry nonlinear independence constraints;
for those the function verifies caller-supplied lift certificates instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import (
    CausalDag,
    HyperDag,
    MultiLatentError,
    bell_inputs,
    bell_outputs,
    build_hypergraph,
    ci_constraints,
    is_bell_type,
)
from .linprog import LinearSystem, lp_solve
from .tables import Kernel, assignments, ci_holds, marginalize, project, reorder

__all__ = [
    "NsEquality",
    "ns_constraints",
    "ns_member",
    "instrumental_score",
    "PsVerdict",
    "ps_member",
    "ps_system",
]


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


def instrumental_score(k: Kernel) -> Fraction:
    """max over a of sum over b of max over x of p(a, b | x).

    At most one for post-selection members of the instrumental structure;
    deterministic signalling tables exceed it.
    """
    if len(k.outcome_vars) != 2 or len(k.index_vars) != 1:
        raise ValueError("instrumental score expects a kernel p(a, b | x)")
    (a_n, a_c), (b_n, b_c) = k.outcome_vars
    x_n, x_c = k.index_vars[0]
    best = None
    for a in range(a_c):
        total = Fraction(0)
        for b in range(b_c):
            total += max(
                k.value({a_n: a, b_n: b, x_n: x}) for x in range(x_c)
            )
        if best is None or total > best:
            best = total
    return best


@dataclass(frozen=True)
class PsVerdict:
    status: str  # "member" | "not_member" | "unsupported"
    certificate: Kernel | None = None
    scale: Fraction | None = None
    reason: str | None = None

    @property
    def member(self) -> bool:
        return self.status == "member"


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


def _certificate_check(p: Kernel, h: HyperDag, certificate: Kernel) -> PsVerdict:
    expected = sorted(h.base.observed())
    if sorted(certificate.var_names()) != expected or not certificate.is_prob_table:
        return PsVerdict(
            "not_member", reason="certificate must be a joint table over the lifted vertices"
        )
    for record in ci_constraints(h.base):
        if not ci_holds(certificate, {record.a}, {record.b}, record.given):
            return PsVerdict("not_member", reason=f"certificate violates {record}")
    projected = project(certificate, h.copies)

    if sorted(projected.variables) != sorted(p.variables) or reorder(
        p, projected.outcome_vars, projected.index_vars
    ).entries != projected.entries:
        return PsVerdict("not_member", reason="certificate does not project to the target")
    return PsVerdict("member", certificate=certificate, scale=None)


def ps_member(
    p: Kernel,
    g: CausalDag,
    certificate: Kernel | None = None,
    input_priors=None,
) -> PsVerdict:
    """Post-selection membership of a joint observed distribution.

    Supported graphs (hypergraph with exactly one latent vertex parenting
    every outcome vertex) are decided by exact LP; the verdict carries the
    maximizing scale t and the lift certificate, which projects back to the
    target exactly.  A zero optimum means the diagonal event cannot carry
    the target and the distribution is not a member.

    The setting marginals are part of the question being decided: the test
    asks whether ``p`` is the projection of a no-signalling lift operated
    with the designated setting distribution.  All settings default to
    uniform; a model run with non-uniform settings must designate them via
    ``input_priors`` (a classical network with a skewed root prior is a
    member under its own prior, not necessarily under the uniform one).
    See :func:`ps_system`.

    For unsupported graphs a caller-supplied candidate lift is verified
    instead: it must satisfy every conditional-independence constraint of
    the hypergraph and project back to the target.
    """
    if not p.is_prob_table or sorted(p.var_names()) != sorted(g.observed()):
        raise ValueError("ps_member expects a joint table over the observed vertices")
    h = build_hypergraph(g)
    latents = h.base.latent()
    supported = len(latents) <= 1
    if supported and latents:
        lam = latents[0]
        children = h.base.children(lam)
        supported = all(o in children for o in bell_outputs(h.base))
    elif supported:
        supported = len(bell_outputs(h.base)) <= 1
    if not supported:
        if certificate is not None:
            return _certificate_check(p, h, certificate)
        return PsVerdict(
            "unsupported",
            reason="hypergraph independence model is not a linear no-signalling"
            " polytope; supply a candidate lift to verify",
        )
    if certificate is not None:
        return _certificate_check(p, h, certificate)
    system, h, inputs, outputs = ps_system(p, g, input_priors=input_priors)
    result = lp_solve(system)
    if not result.is_optimal or result.value == 0:
        return PsVerdict("not_member")
    dag = h.base
    in_vars = tuple((i, dag.cardinality(i)) for i in inputs)
    out_vars = tuple((o, dag.cardinality(o)) for o in outputs)
    entries = tuple(
        result.assignment[_qname(ov, iv)]
        for ov in assignments(out_vars)
        for iv in assignments(in_vars)
    )
    box = Kernel(out_vars, in_vars, entries)
    return PsVerdict("member", certificate=box, scale=result.value)
