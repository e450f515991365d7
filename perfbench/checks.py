"""Output checker.  Every function returns a list of problems; empty means
the request passed.  Checks use causalbox's public functions only and never
re-run a solver: they verify witnesses, certificates and known verdicts.
"""

from __future__ import annotations

import json
from fractions import Fraction

import causalbox as cb
from causalbox import fileio
from causalbox.recipes import Evaluator

from workloads import as_joint, mix


def _same(a: cb.Kernel, b: cb.Kernel) -> bool:
    """Equal tables regardless of variable order."""
    if sorted(a.variables) != sorted(b.variables):
        return False
    return all(b.value(env) == v for env, v in a.cells())


def _weights_ok(weights, kernels, target) -> list[str]:
    if weights is None or len(weights) != len(kernels):
        return ["weights missing or of the wrong length"]
    if any(w < 0 for w in weights) or sum(weights) != 1:
        return ["weights are not a probability vector"]
    if not _same(mix(list(weights), list(kernels)), target):
        return ["weights do not reproduce the box"]
    return []


def check_witnesses(verdict, joint: cb.Kernel) -> list[str]:
    """N or I verdict: a non-member names violations, each re-evaluated."""
    problems = []
    if verdict.member != (not verdict.violations):
        problems.append("member flag disagrees with the violation list")
    evaluator = None
    for v in verdict.violations:
        record, w = v.record, v.witness
        if isinstance(record, cb.CiConstraint):
            a, b, z = {record.a}, {record.b}, set(record.given)
            names = set(joint.var_names())
            try:
                p_abz = cb.marginalize(joint, names - a - b - z)
                p_az = cb.marginalize(p_abz, b)
                p_bz = cb.marginalize(p_abz, a)
                p_z = cb.marginalize(p_az, a)
                pick = lambda keys: {k: w[k] for k in keys}
                lhs = p_abz.value(pick(a | b | z)) * (p_z.value(pick(z)) if z else 1)
                rhs = p_az.value(pick(a | z)) * p_bz.value(pick(b | z))
            except (KeyError, TypeError):
                problems.append(f"malformed CI witness for {record}")
                continue
            if lhs == rhs:
                problems.append(f"CI witness for {record} is not violated")
        else:
            evaluator = evaluator or Evaluator(joint)
            try:
                got = [
                    evaluator.evaluate(record.recipe, dict(w["context"], **assign))
                    for assign in w["assignments"]
                ]
            except (KeyError, TypeError):
                problems.append(f"malformed Verma witness for {record}")
                continue
            if got != list(w["values"]) or None in got or got[0] == got[1]:
                problems.append(f"Verma witness for {record} does not re-evaluate as violated")
    return problems


def _monotone(flags) -> list[str]:
    names = ("C", "PS", "N", "I")[-len(flags):]
    return [
        f"hierarchy broken: in {lo} but not in {hi}"
        for (lo, a), (hi, b) in zip(zip(names, flags), zip(names[1:], flags[1:]))
        if a and not b
    ]


def check_nested_chain(req, out, ctx) -> list[str]:
    n, i = out
    joint = req.inputs["joint"]
    problems = _monotone([n.member, i.member])
    expected = req.kind == "member"
    for model, verdict in (("N", n), ("I", i)):
        if verdict.member != expected:
            problems.append(f"{req.kind}: {model} verdict {verdict.member}, expected {expected}")
    return problems + check_witnesses(n, joint) + check_witnesses(i, joint)


def _rebuild_decomposition(pr, weights, box) -> list[str]:
    if pr is None and weights and weights[0] != 0:
        return ["locals-only decomposition with a PR weight"]
    kernels = [cb.pr_box(*(pr or (0, 0, 0)))] + [cb.local_box(k) for k in range(16)]
    return _weights_ok(weights, kernels, box)


def check_ns_decompose(req, out, ctx) -> list[str]:
    pr, weights = out
    problems = []
    if pr != req.expect["pr"]:
        problems.append(f"decomposition uses PR {pr}, expected {req.expect['pr']}")
    return problems + _rebuild_decomposition(pr, weights, req.inputs["box"])


def _check_ps_certificate(cert, joint, hyper) -> list[str]:
    if cert is None:
        return ["PS member without a certificate"]
    try:
        if not cb.ns_member(cert, hyper):
            return ["PS certificate is signalling"]
        lifted = cb.join_inputs(cert, cb.uniform_table(cert.index_vars))
        projected = cb.project(lifted, hyper.copies)
    except (ValueError, KeyError) as exc:
        return [f"PS certificate is malformed: {exc}"]
    if not _same(projected, joint):
        return ["PS certificate does not project to the joint"]
    return []


def _check_c_weights(weights, graph, joint, ctx) -> list[str]:
    """The weights mix the graph's classical vertices into the joint,
    conditioned on the vertices' setting variables."""
    cache = ctx.setdefault("vertices", {})
    if graph not in cache:
        cache[graph] = [v.table for v in cb.enumerate_classical_vertices(ctx["fixtures"][graph])]
    tables = cache[graph]
    settings = [name for name, _ in tables[0].index_vars]
    target = cb.split_joint(joint, settings)[0] if settings else joint
    return _weights_ok(weights, tables, target)


def _check_cli_member(req, doc, ctx) -> list[str]:
    model, member = req.inputs["model"], doc.get("member")
    graph, dist = req.inputs["files"]
    problems = [
        f"{model} on ({graph}, {dist}): CLI verdict {member}, {source} verdict {want}"
        for source, want in (("known", req.expect["member"]),
                             ("in-process", req.expect["in_process"]))
        if member != want
    ]
    if not member:
        return problems
    joint = as_joint(ctx["fixtures"][dist])
    try:
        if model == "C":
            weights = [Fraction(w) for w in doc["weights"]]
            problems += _check_c_weights(weights, graph, joint, ctx)
        elif model == "PS":
            hypers = ctx.setdefault("hypergraphs", {})
            if graph not in hypers:
                hypers[graph] = cb.build_hypergraph(ctx["fixtures"][graph])
            cert = fileio.kernel_from_dict(doc["certificate"])
            problems += _check_ps_certificate(cert, joint, hypers[graph])
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"{model} member output is malformed: {exc!r}")
    return problems


def check_cli(req, out, ctx) -> list[str]:
    if out["rc"] != req.expect["rc"]:
        return [f"exit code {out['rc']}, expected {req.expect['rc']}: {out['stderr'].strip()[:200]}"]
    try:
        doc = json.loads(out["stdout"])
    except json.JSONDecodeError:
        return ["output is not JSON"]
    if req.kind == "member":
        return _check_cli_member(req, doc, ctx)
    if req.kind == "decompose":
        pr = tuple(doc["pr_box"]) if doc.get("pr_box") else None
        if pr != req.expect["pr"]:
            return [f"CLI decomposition uses PR {pr}, expected {req.expect['pr']}"]
        weights = [Fraction(doc["pr_weight"])] + [Fraction(w) for w in doc["local_weights"]]
        return _rebuild_decomposition(pr, weights, req.inputs["box"])
    kinds = [r["kind"] for r in doc.get("constraints", [])]
    wanted = ["ci" if k == "CiConstraint" else "verma" for k in req.expect["records"]]
    return [] if kinds == wanted else [f"CLI records {kinds}, in-process {wanted}"]


CHECKS = {
    "nested-chain": check_nested_chain,
    "ns-decompose": check_ns_decompose,
    "cli-fixtures": check_cli,
}
