"""Membership machinery built on the Bell-type hypergraph lift.

For a graph whose hypergraph has a single latent vertex parenting every
outcome vertex, the lifted correlation set is the no-signalling polytope of
the associated Bell structure, a set cut out by finitely many linear
equalities.  Post-selection membership then reduces to one exact linear
program: find a no-signalling box whose diagonal section, weighted by the
setting prior (the target's own marginal on an original setting, uniform on
a copy), is proportional to the target distribution, with the
proportionality scalar maximized.  That scalar is the probability of the
diagonal event.  A strictly positive optimum certifies membership and the
optimizer is the lift certificate; infeasibility or a zero optimum refutes
it.

The no-signalling equalities are written once, by ``_ns_rows``: each
equality is two lists of flat positions in a given variable layout, read
through the stride maps of :mod:`causalbox.tables`.  ``ns_member`` reads
a box through the checked ``_numerators`` in the sorted party layout and
compares its sums at those positions; ``ps_system`` takes the same
positions in the layout of its unknowns as coefficients.

Hypergraphs outside that scope (several latent vertices, or outcome
vertices untouched by the latent) carry nonlinear independence constraints;
for those the function verifies caller-supplied lift certificates instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from . import _EXPORTS
from .graphs import (
    CausalDag,
    HyperDag,
    MultiLatentError,
    bell_inputs,
    bell_outputs,
    build_hypergraph,
    is_bell_type,
)
from .linprog import LinearSystem, lp_solve
from .tables import (
    Kernel,
    Record,
    _check_joint,
    _index_map,
    _laid_out,
    _numerators,
    _sums,
    assignments,
    project,
)

__all__ = _EXPORTS["lift"]


def _ns_rows(dag: CausalDag, layout) -> list[tuple[list[int], list[int]]]:
    """The no-signalling equalities of a Bell-type graph, such as a lift's
    base, each as the flat positions in ``layout`` of its two sides.

    For every setting vertex i, the marginal over the outputs i does not
    feed may not vary with i's value: a row sums the outputs i feeds at one
    assignment of the other outputs and settings, with i at v on the left
    and at v + 1 on the right.  Rows run over the settings in order, then
    the kept outputs' assignments, then the other settings', then v.
    Together with normalization these equalities characterize the graph's
    independence model at the level of conditional boxes when every output
    measures the shared latent state.
    """
    if not is_bell_type(dag):
        raise ValueError("hypergraph base is not Bell-type")
    if len(dag.latent()) > 1:
        raise MultiLatentError("no-signalling constraints require at most one latent vertex")
    inputs, outputs = bell_inputs(dag), bell_outputs(dag)

    def at(names):
        return _index_map([(n, dag.cardinality(n)) for n in names], layout)

    rows = []
    for i in inputs:
        fed = dag.children(i)
        kept = [o for o in outputs if o not in fed]
        if not kept:
            continue  # implied by normalization
        summed = at(o for o in outputs if o in fed)
        steps = at([i])
        for base in at(kept + [j for j in inputs if j != i]):
            for lo, hi in zip(steps, steps[1:]):
                rows.append(([base + lo + s for s in summed], [base + hi + s for s in summed]))
    return rows


def _parties(dag: CausalDag, names) -> list:
    return sorted((n, dag.cardinality(n)) for n in names)


def ns_member(box: Kernel, h: HyperDag) -> bool:
    """Exact evaluation of every no-signalling equality on a conditional box."""
    dag = h.base
    outs, ins = _parties(dag, bell_outputs(dag)), _parties(dag, bell_inputs(dag))
    rows = _ns_rows(dag, outs + ins)  # rejects unsupported hypergraphs first
    try:
        num, _ = _numerators(box, outs, ins)
    except ValueError:
        raise ValueError("box variables do not match the hypergraph's parties") from None
    return all(sum(num[k] for k in lo) == sum(num[k] for k in hi) for lo, hi in rows)


class PsVerdict(Record):
    status: str  # "member" | "not_member" | "unsupported"
    certificate: Kernel | None = None
    scale: Fraction | None = None  # probability of the diagonal event, in (0, 1]
    reason: str | None = None

    @property
    def member(self) -> bool:
        return self.status == "member"


def _qname(out_values, in_values) -> str:
    """Name of the PS unknown q(out_values | in_values)."""
    return "q[" + ",".join(map(str, out_values)) + "|" + ",".join(map(str, in_values)) + "]"


def _in_lp_scope(dag: CausalDag) -> bool:
    """Whether the PS LP decides membership on the lift ``dag``: its one
    latent parents every output, or it has no latent and at most one output."""
    latents, outputs = dag.latent(), bell_outputs(dag)
    if latents:
        return len(latents) == 1 and set(outputs) <= dag.children(latents[0])
    return len(outputs) <= 1


def ps_system(p: Kernel, g: CausalDag) -> tuple[LinearSystem, HyperDag, list, list]:
    """The post-selection membership LP for a supported graph; raises
    ``ValueError`` for others (``MultiLatentError`` for several latents).

    Unknowns are the box entries q(outputs | inputs) of the hypergraph plus
    a scalar t; constraints are normalization, the no-signalling equalities
    and the diagonal pinning prior(x) * q(diagonal of x) = t * p(x) for
    every joint assignment x of the observed vertices; the objective
    maximizes t, the probability of the diagonal (post-selection) event.

    The prior of a lifted setting row is the product of its settings'
    priors.  An original setting is observed, so its prior is its marginal
    under ``p``; a value ``p`` never takes gives pinning rows that read
    0 = 0.  A copy's prior is uniform, a constant of the model: it makes
    the conditioning projection coincide with direct diagonal substitution
    into the conditional box, and it realizes every classically generated
    distribution through its network lift.
    """
    _check_joint(p, g, "ps_system")
    h = build_hypergraph(g)
    dag = h.base
    inputs = bell_inputs(dag)
    outputs = bell_outputs(dag)
    if len(dag.latent()) <= 1 and not _in_lp_scope(dag):  # _ns_rows rejects several
        loose = [o for o in outputs if not dag.parents(o) & set(dag.latent())]
        raise ValueError(
            f"outputs without a latent parent: {', '.join(loose)};"
            " the PS LP needs one latent parenting every output"
        )
    in_vars, out_vars = _parties(dag, inputs), _parties(dag, outputs)

    # unknown k is the cell k of the layout in_vars + out_vars
    names = [
        _qname(ov, iv)
        for iv in assignments(in_vars)
        for ov in assignments(out_vars)
    ]
    width = prod(c for _, c in out_vars)
    system = LinearSystem(tuple(names + ["t"]), objective={"t": Fraction(1)})
    for j in range(0, len(names), width):
        system.add_equality(dict.fromkeys(names[j : j + width], Fraction(1)), Fraction(1))
    for lo, hi in _ns_rows(dag, in_vars + out_vars):
        coeffs = dict.fromkeys((names[k] for k in lo), Fraction(1))
        coeffs.update(dict.fromkeys((names[k] for k in hi), Fraction(-1)))
        system.add_equality(coeffs, Fraction(0))
    priors = [
        [Fraction(1, c)] * c if i in h.copies else _sums(p.entries, p.variables, [(i, c)])
        for i, c in in_vars
    ]
    weights = [
        prod((prior[v] for prior, v in zip(priors, iv)), start=Fraction(1))
        for iv in assignments(in_vars)
    ]
    # each copy input reads its source's value: the repeated-name diagonal
    diagonal = [(h.copies.get(n, n), c) for n, c in in_vars + out_vars]
    for k, value in zip(_index_map(p.variables, diagonal), p.entries):
        system.add_equality({names[k]: weights[k // width], "t": -value}, Fraction(0))
    return system, h, inputs, outputs


def _certificate_check(p: Kernel, h: HyperDag, certificate: Kernel) -> PsVerdict:
    expected = _parties(h.base, h.base.observed())
    if sorted(certificate.variables) != expected or not certificate.is_prob_table:
        raise ValueError(f"certificate must be a joint table over the lifted vertices {expected}")
    from .constraints import i_member  # only certificate mode needs the CI records

    verdict = i_member(certificate, h.base)
    if not verdict.member:
        return PsVerdict(
            "not_member", reason=f"certificate violates {verdict.violations[0].record}"
        )
    projected = project(certificate, h.copies)  # over the observed vertices of p
    if tuple(_laid_out(p, projected.outcome_vars, ())) != projected.entries:
        return PsVerdict("not_member", reason="certificate does not project to the target")
    return PsVerdict("member", certificate=certificate, scale=None)


def ps_member(p: Kernel, g: CausalDag, certificate: Kernel | None = None) -> PsVerdict:
    """Post-selection membership of a joint observed distribution.

    Supported graphs (hypergraph with exactly one latent vertex parenting
    every outcome vertex) are decided by exact LP; the verdict carries the
    maximizing scale t and the lift certificate, which projects back to the
    target exactly.  A zero optimum means the diagonal event cannot carry
    the target and the distribution is not a member.  The lift's original
    settings take their marginals under ``p`` and its copies are uniform,
    so the verdict depends on ``p`` and ``g`` alone; see :func:`ps_system`.

    For unsupported graphs a caller-supplied candidate lift is verified
    instead: it must satisfy every conditional-independence constraint of
    the hypergraph and project back to the target.
    """
    _check_joint(p, g, "ps_member")
    h = build_hypergraph(g)
    if certificate is not None:
        return _certificate_check(p, h, certificate)
    if not _in_lp_scope(h.base):
        return PsVerdict(
            "unsupported",
            reason="hypergraph independence model is not a linear no-signalling"
            " polytope; supply a candidate lift to verify",
        )
    system, h, inputs, outputs = ps_system(p, g)
    result = lp_solve(system)
    if not result.is_optimal or result.value == 0:
        return PsVerdict("not_member")
    dag = h.base
    in_vars, out_vars = _parties(dag, inputs), _parties(dag, outputs)
    q = [result.assignment[n] for n in system.variables[:-1]]
    entries = tuple(q[k] for k in _index_map(out_vars + in_vars, in_vars + out_vars))
    box = Kernel(out_vars, in_vars, entries)
    return PsVerdict("member", certificate=box, scale=result.value)
