"""Command-line front end.

Subcommands wire the file formats to the library operations:

    graph check|mdag|districts|dsep   structural queries on a graph file
    constraints enumerate             equality constraints of the model
    hyper build                       Bell-type hypergraph lift
    project                           diagonal post-selection of a lifted table
    member --model {I,N,NS,PS,C}      hierarchy membership tests
    score --functional {chsh,gyni,instrumental}
    optimize                          maximize a functional over vertices
    vertices                          enumerate polytope vertices
    decompose-ns                      PR-plus-local decomposition
    fixtures emit NAME                write built-in boxes and graphs

Exit codes: 0 success or member, 2 not-member or constraint violated,
1 usage or input error.  ``--format machine`` prints deterministic JSON.

A request is one process, and compiling the library's modules costs more
than most verdicts, so this module imports only ``fileio``, ``graphs`` and
``tables`` up front; each handler, or branch of ``member``, imports what it
runs.  ``member --model N|I`` and ``constraints enumerate`` add
``constraints`` and ``recipes``; ``member --model C`` adds ``polytope`` and
``linprog``; ``member --model PS`` adds ``lift`` and ``linprog``;
``decompose-ns`` adds ``polytope``, ``linprog``, ``lift`` and ``boxes``;
``score`` adds ``boxes``, which holds every scorer; ``optimize`` adds
``polytope``, ``linprog`` and ``boxes``.

For the same reason the library's records (kernels, graphs, verdicts,
constraint records, recipe nodes) derive from
:class:`causalbox.tables.Record` rather than ``dataclasses``: importing
``dataclasses`` loads ``inspect``, ``dis``, ``ast`` and ``tokenize``, and
each dataclass compiles its generated methods when its module is imported.
Without a bytecode cache, ``import causalbox.cli`` takes about 41 ms of a
request and a command's own modules 8-16 ms more; README.md has the full
split.

Parsers cost a request too: :func:`dispatch` builds the top-level parser
and the parser of the command that ``argv[0]`` names, 2 ``ArgumentParser``
objects for ``member`` instead of all 18.  Any other first argument (none,
``-h``, a misspelt command) builds every command's parser, to list or
refuse it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fileio import (
    FileFormatError,
    dump_graph,
    dump_kernel,
    graph_to_dict,
    kernel_to_dict,
    load_graph,
    load_kernel,
)
from .graphs import (
    CiConstraint,
    build_hypergraph,
    d_separated,
    districts,
    to_mdag,
    validate,
)
from .tables import Kernel, _check_joint, join_inputs, project, uniform_table

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_REJECTED = 2

# each fixture from the boxes module and the parsed arguments
_FIXTURES = {
    "pr-box": lambda boxes, args: boxes.pr_box(args.alpha, args.beta, args.gamma),
    "local-box": lambda boxes, args: boxes.local_box(args.index),
    "gyni-box": lambda boxes, args: boxes.gyni_box(),
    "gyni-projected": lambda boxes, args: boxes.gyni_projected(),
    "swapping-box": lambda boxes, args: boxes.swapping_box(),
    "chsh-graph": lambda boxes, args: boxes.chsh_graph(),
    "instrumental-graph": lambda boxes, args: boxes.instrumental_graph(),
    "mediation-graph": lambda boxes, args: boxes.mediation_graph(),
    "gyni-graph": lambda boxes, args: boxes.gyni_graph(),
    "tripartite-bell-graph": lambda boxes, args: boxes.tripartite_bell_graph(),
    "swapping-graph": lambda boxes, args: boxes.swapping_graph(),
    "triangle-graph": lambda boxes, args: boxes.triangle_graph(),
}


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "machine":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _parse_fixed(raw: str | None) -> set[str]:
    if not raw:
        return set()
    return {token.strip() for token in raw.split(",") if token.strip()}


def _load(path: str | None, flag: str, what: str, loader):
    """``loader(path)``, with a missing flag, an unreadable file and a
    malformed document all raised as ``ValueError``s that name the flag or
    the file."""
    if not path:
        raise ValueError(f"missing --{flag} PATH")
    try:
        return loader(path)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read {what} file {path}: {exc.strerror}")
    except FileFormatError as exc:
        raise ValueError(f"bad {what} file {path}: {exc}")


def _write(path: str, obj) -> None:
    """Write a kernel or a graph file through :mod:`causalbox.fileio`; a file
    that cannot be written raises a ``ValueError`` naming the path."""
    try:
        (dump_kernel if isinstance(obj, Kernel) else dump_graph)(obj, path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}")


def _load_graph(path: str | None):
    """The ``--graph`` file; a graph that :func:`validate` reports raises a
    ``ValueError`` naming the file and every violation."""
    dag = _load(path, "graph", "graph", load_graph)
    report = validate(dag)
    if report:
        raise ValueError(f"invalid graph file {path}: {'; '.join(report)}")
    return dag


def _as_joint(dist: Kernel) -> Kernel:
    """Accept either a joint table over the observed vertices or a
    conditional on the graph's setting variables with uniform settings."""
    if dist.is_prob_table:
        return dist
    return join_inputs(dist, uniform_table(dist.index_vars))


def _cmd_graph(args) -> int:
    if args.graph_cmd == "check":
        report = validate(_load(args.graph, "graph", "graph", load_graph))
        _emit(args, {"valid": not report, "violations": report},
              "valid" if not report else "\n".join(report))
        return EXIT_OK if not report else EXIT_REJECTED
    dag = _load_graph(args.graph)
    if args.graph_cmd == "mdag":
        m = to_mdag(dag, _parse_fixed(args.fixed))
        payload = {
            "random": list(m.random_vertices),
            "fixed": list(m.fixed_vertices),
            "edges": sorted([a, b] for a, b in m.edges),
            "faces": sorted(sorted(f) for f in m.faces),
        }
        text = (
            f"random: {', '.join(m.random_vertices)}\n"
            f"fixed: {', '.join(m.fixed_vertices) or '(none)'}\n"
            f"edges: {', '.join(f'{a}->{b}' for a, b in sorted(m.edges)) or '(none)'}\n"
            f"faces: {'; '.join(','.join(sorted(f)) for f in sorted(m.faces, key=sorted)) or '(none)'}"
        )
        _emit(args, payload, text)
        return EXIT_OK
    if args.graph_cmd == "districts":
        parts = districts(to_mdag(dag, _parse_fixed(args.fixed)))
        payload = {"districts": [sorted(d) for d in parts]}
        _emit(args, payload, "\n".join(",".join(sorted(d)) for d in parts))
        return EXIT_OK
    if not args.a or not args.b:
        raise ValueError("dsep requires --a and --b vertex names")
    separated = d_separated(dag, {args.a}, {args.b}, _parse_fixed(args.fixed))
    _emit(args, {"d_separated": separated}, "d-separated" if separated else "d-connected")
    return EXIT_OK if separated else EXIT_REJECTED


def _cmd_constraints(args) -> int:
    from .constraints import enumerate_constraints
    from .recipes import render

    records = enumerate_constraints(_load_graph(args.graph))
    lines = [str(r) for r in records]
    payload = {"constraints": []}
    for r in records:
        if isinstance(r, CiConstraint):
            payload["constraints"].append(
                {"kind": "ci", "a": r.a, "b": r.b, "given": sorted(r.given)}
            )
        else:
            payload["constraints"].append(
                {
                    "kind": "verma",
                    "recipe": render(r.recipe),
                    "independent_of": sorted(r.independent_of),
                }
            )
    _emit(args, payload, "\n".join(lines) if lines else "(no constraints)")
    return EXIT_OK


def _cmd_hyper(args) -> int:
    h = build_hypergraph(_load_graph(args.graph))
    if args.out:
        _write(args.out, h.base)
    payload = {
        "graph": graph_to_dict(h.base),
        "copy_map": {u: list(pair) for u, pair in sorted(h.copy_map.items())},
    }
    text_lines = [f"copies: {', '.join(sorted(h.copy_map)) or '(none; graph is Bell-type)'}"]
    for u, (src, child) in sorted(h.copy_map.items()):
        text_lines.append(f"  {u}: copy of {src} feeding {child}")
    _emit(args, payload, "\n".join(text_lines))
    return EXIT_OK


def _cmd_project(args) -> int:
    dag = _load_graph(args.graph)
    dist = _load(args.dist, "dist", "distribution", load_kernel)
    h = build_hypergraph(dag)
    _check_joint(dist, h.base, "project")
    payload = kernel_to_dict(project(dist, h.copies))
    _emit(args, payload, json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_member(args) -> int:
    if args.certificate and args.model != "PS":
        raise ValueError("--certificate applies only to --model PS")
    dag = _load_graph(args.graph)
    dist = _load(args.dist, "dist", "distribution", load_kernel)
    model = args.model
    payload = {}
    if model == "NS":
        from .lift import ns_member

        h = build_hypergraph(dag)
        if not dist.index_vars:
            raise ValueError("NS membership expects a conditional box")
        member = ns_member(dist, h)
        text = "no-signalling" if member else "signalling"
    elif model == "C":
        from .polytope import classical_member

        verdict = classical_member(dist, dag)
        member = verdict.member
        if member:
            payload["weights"] = [str(w) for w in verdict.weights]
        text = "member of C(G)" if member else "not in C(G): LP infeasible"
    elif model == "PS":
        from .lift import ps_member

        joint = _as_joint(dist)
        certificate = None
        if args.certificate:
            certificate = _load(args.certificate, "certificate", "certificate", load_kernel)
        ps = ps_member(joint, dag, certificate=certificate)
        if ps.status == "unsupported":
            print(f"unsupported: {ps.reason}", file=sys.stderr)
            return EXIT_ERROR
        member = ps.member
        if member and ps.certificate is not None:
            payload["certificate"] = kernel_to_dict(ps.certificate)
            if ps.scale is not None:
                payload["scale"] = str(ps.scale)
        text = "member of PS(G)" if member else f"not in PS(G): {ps.reason or 'LP infeasible'}"
    else:
        from .constraints import check_nested, i_member

        verdict = (i_member if model == "I" else check_nested)(_as_joint(dist), dag)
        member = verdict.member
        text = f"member of {model}(G)"
        if not member:
            payload["violations"] = [str(v) for v in verdict.violations]
            text = "\n".join([f"not in {model}(G):"] + [f"  {v}" for v in verdict.violations])
    payload["member"] = member
    _emit(args, payload, text)
    return EXIT_OK if member else EXIT_REJECTED


def _scorer(name: str):
    """The library's one scorer of the functional ``name``."""
    from .boxes import _gyni_score, chsh_score, instrumental_score

    return {"chsh": chsh_score, "gyni": _gyni_score, "instrumental": instrumental_score}[name]


def _cmd_score(args) -> int:
    dist = _load(args.dist, "dist", "distribution", load_kernel)
    value = _scorer(args.functional)(dist)
    _emit(args, {"score": str(value)}, f"{value}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    from .polytope import _argmax, enumerate_classical_vertices

    score = _scorer(args.functional)
    vertices = enumerate_classical_vertices(_load_graph(args.graph))
    value, best = _argmax(lambda v: score(v.table), vertices)
    payload = {
        "value": str(value),
        "argmax": kernel_to_dict(best.table),
    }
    _emit(args, payload, f"maximum {value}")
    return EXIT_OK


def _cmd_vertices(args) -> int:
    from .polytope import enumerate_classical_vertices

    vertices = enumerate_classical_vertices(_load_graph(args.graph))
    payload = {
        "count": len(vertices),
        "vertices": [kernel_to_dict(v.table) for v in vertices],
    }
    _emit(args, payload, f"{len(vertices)} vertices")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    from .boxes import local_responses
    from .polytope import decompose_ns_box

    pr_index, weights = decompose_ns_box(_load(args.dist, "dist", "distribution", load_kernel))
    payload = {
        "pr_box": list(pr_index) if pr_index else None,
        "pr_weight": str(weights[0]),
        "local_weights": [str(w) for w in weights[1:]],
    }
    lines = []
    if pr_index:
        lines.append(f"PR{pr_index} with weight {weights[0]}")
    else:
        lines.append("locals only")
    for i, w in enumerate(weights[1:]):
        if w:
            fa, fb = local_responses(i)
            lines.append(f"local {i} ({fa},{fb}): {w}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    name = args.name
    if name not in _FIXTURES:
        raise ValueError(
            f"unknown fixture {name}; available: {', '.join(sorted(_FIXTURES))}"
        )
    from . import boxes

    obj = _FIXTURES[name](boxes, args)
    if args.out:
        _write(args.out, obj)
    else:
        payload = kernel_to_dict(obj) if isinstance(obj, Kernel) else graph_to_dict(obj)
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the top level and ``command``
    alone, which is all that a request naming ``command`` reads."""
    parser = argparse.ArgumentParser(
        prog="causalbox",
        description="Exact membership tests for the causal-model hierarchy "
        "C(G), PS(G), N(G), I(G) on discrete DAGs with latent root variables.",
    )
    # a one-command build lists every command in its usage line all the
    # same; the full build keeps argparse's "cmd" in its invalid-choice error
    metavar = None if command is None else "{" + ",".join(_DISPATCH) + "}"
    sub = parser.add_subparsers(dest="cmd", metavar=metavar)
    names = _DISPATCH if command is None else (command,)

    def group(name, summary, usage):
        # dispatch prints the usage when the subcommand, "<name>_cmd", is missing
        p = sub.add_parser(name, help=summary)
        p.set_defaults(usage=f"{name} {usage} ...")
        return p.add_subparsers(dest=f"{name}_cmd")

    def leaf(subparsers, name, graph=True, dist=False, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        p.add_argument(
            "--format", choices=("text", "machine"), default="text",
            help="output style; machine prints deterministic JSON",
        )
        if graph:
            p.add_argument("--graph", help="graph file (JSON)")
        if dist:
            p.add_argument("--dist", help="distribution file (JSON)")
        return p

    if "graph" in names:
        queries = ("check", "mdag", "districts", "dsep")
        gsub = group("graph", "structural queries", "{" + ",".join(queries) + "}")
        for name in queries:
            p = leaf(gsub, name)
            if name != "check":
                p.add_argument("--fixed", help="comma-separated vertex names")
            if name == "dsep":
                p.add_argument("--a", help="first vertex")
                p.add_argument("--b", help="second vertex")
    if "constraints" in names:
        leaf(group("constraints", "equality constraints", "enumerate"), "enumerate")
    if "hyper" in names:
        p = leaf(group("hyper", "hypergraph lift", "build"), "build")
        p.add_argument("--out", help="write the lifted graph file here")
    if "project" in names:
        leaf(sub, "project", dist=True, help="diagonal post-selection")
    if "member" in names:
        p = leaf(sub, "member", dist=True, help="hierarchy membership")
        p.add_argument("--model", required=True, choices=("I", "N", "NS", "PS", "C"))
        p.add_argument("--certificate", help="candidate lift table for PS certificate mode")
    if "score" in names:
        p = leaf(
            sub, "score", graph=False, dist=True, help="evaluate a functional on a distribution"
        )
        p.add_argument("--functional", required=True, choices=("chsh", "gyni", "instrumental"))
    if "optimize" in names:
        p = leaf(sub, "optimize", help="maximize a functional over vertices")
        p.add_argument("--functional", required=True, choices=("chsh", "gyni"))
    if "vertices" in names:
        leaf(sub, "vertices", help="enumerate polytope vertices")
    if "decompose-ns" in names:
        leaf(sub, "decompose-ns", graph=False, dist=True, help="PR-plus-local decomposition")
    if "fixtures" in names:
        p = leaf(
            group("fixtures", "built-in boxes and graphs", "emit NAME"),
            "emit",
            graph=False,
            description="Write a built-in box or graph. Boxes: pr-box (--alpha "
            "--beta --gamma select the PR family member), local-box (--index "
            "0..15 encodes i = 4*f_a + f_b with response functions ordered "
            "const0, const1, id, not), gyni-box, gyni-projected, swapping-box. "
            "Graphs: chsh-, instrumental-, mediation-, gyni-, tripartite-bell-, "
            "swapping-, triangle-graph.",
        )
        p.add_argument("name")
        # the metavars keep the choice lists out of the usage line
        for bit in ("alpha", "beta", "gamma"):
            p.add_argument(f"--{bit}", type=int, default=0, choices=(0, 1), metavar=bit.upper())
        p.add_argument(
            "--index", type=int, default=0, choices=range(16), metavar="INDEX",
            help="local box number, i = 4*f_a + f_b over (const0, const1, id, not)",
        )
        p.add_argument("--out", help="write to a file instead of stdout")
    return parser


_DISPATCH = {
    "graph": _cmd_graph,
    "constraints": _cmd_constraints,
    "hyper": _cmd_hyper,
    "project": _cmd_project,
    "member": _cmd_member,
    "score": _cmd_score,
    "optimize": _cmd_optimize,
    "vertices": _cmd_vertices,
    "decompose-ns": _cmd_decompose,
    "fixtures": _cmd_fixtures,
}


def dispatch(argv) -> int:
    # a request that names a command needs only that command's parser; no
    # command, -h or a misspelt name needs every one, to list or refuse it
    parser = build_parser(argv[0] if argv and argv[0] in _DISPATCH else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which would read as a rejection
        return EXIT_ERROR if exc.code else EXIT_OK
    if not args.cmd:
        parser.print_help()
        return EXIT_ERROR
    if hasattr(args, "usage") and not getattr(args, f"{args.cmd}_cmd"):
        print(f"usage: causalbox {args.usage}", file=sys.stderr)
        return EXIT_ERROR
    try:
        return _DISPATCH[args.cmd](args)
    except (ValueError, KeyError) as exc:
        # missing or malformed files, and semantic mismatches between inputs
        # (wrong variables, cardinalities, unsupported structure), are input
        # errors, not crashes; a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
