"""Command-line interface: exit codes, determinism, round trips."""

import argparse
import json
from fractions import Fraction

import pytest

from causalbox import cli
from causalbox.cli import build_parser, dispatch
from causalbox.fileio import load_graph, load_kernel


@pytest.fixture
def files(tmp_path):
    def emit(name, out, *extra):
        assert dispatch(["fixtures", "emit", name, "--out", str(tmp_path / out), *extra]) == 0
        return str(tmp_path / out)

    return emit, tmp_path


def test_fixture_round_trip(files):
    emit, tmp_path = files
    path = emit("pr-box", "pr.json", "--alpha", "1")
    from causalbox import pr_box

    assert load_kernel(path) == pr_box(1, 0, 0)
    gpath = emit("mediation-graph", "med.json")
    from causalbox import mediation_graph

    loaded = load_graph(gpath)
    assert loaded.edges == mediation_graph().edges


def test_graph_subcommands(files, capsys):
    emit, _ = files
    gpath = emit("mediation-graph", "med.json")
    assert dispatch(["graph", "check", "--graph", gpath]) == 0
    assert dispatch(["graph", "districts", "--graph", gpath]) == 0
    out = capsys.readouterr().out
    assert "A,C" in out
    assert dispatch(["graph", "dsep", "--graph", gpath, "--a", "X", "--b", "B", "--fixed", "A"]) == 0
    assert dispatch(["graph", "dsep", "--graph", gpath, "--a", "X", "--b", "B"]) == 2
    capsys.readouterr()
    assert dispatch(["graph", "mdag", "--graph", gpath, "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["faces"] == [["A", "C"], ["B"], ["X"]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["graph", "dsep", "--a", "A", "--b", "Q"], "unknown vertices ['Q']"),
        (["graph", "mdag", "--fixed", "Q"], "fixed vertex Q is not observed"),
        # --fixed takes vertex names only: a name=value token is no vertex
        (["graph", "dsep", "--a", "X", "--b", "B", "--fixed", "A=0"], "unknown vertices ['A=0']"),
    ],
    ids=["dsep", "mdag", "dsep-fixed-value"],
)
def test_key_errors_print_their_message_unquoted(files, capsys, argv, message):
    emit, _ = files
    gpath = emit("mediation-graph", "med.json")
    capsys.readouterr()
    assert dispatch([*argv, "--graph", gpath]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_invalid_graph_exits_two(files, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": [
                    {"name": "A", "kind": "observed", "cardinality": 2},
                    {"name": "B", "kind": "observed", "cardinality": 2},
                ],
                "edges": [["A", "B"], ["B", "A"]],
            }
        )
    )
    assert dispatch(["graph", "check", "--graph", str(bad)]) == 2
    assert "cycle" in capsys.readouterr().out


_INVALID_GRAPHS = {
    # a latent vertex with an incoming edge and no outgoing one
    "latent_child": (
        [
            {"name": "A", "kind": "observed", "cardinality": 2},
            {"name": "X", "kind": "observed", "cardinality": 2},
            {"name": "L", "kind": "latent"},
        ],
        [["X", "L"]],
    ),
    "unknown_vertex": (
        [
            {"name": "A", "kind": "observed", "cardinality": 2},
            {"name": "X", "kind": "observed", "cardinality": 2},
            {"name": "L", "kind": "latent"},
        ],
        [["X", "A"], ["L", "A"], ["A", "Q"]],
    ),
}
_GRAPH_COMMANDS = [
    *(["member", "--model", model, "--dist", "{dist}"] for model in ("C", "PS", "N", "I")),
    ["constraints", "enumerate"],
    ["hyper", "build"],
    ["graph", "mdag"],
    ["graph", "districts"],
    ["graph", "dsep", "--a", "X", "--b", "A"],
    ["vertices"],
    ["project", "--dist", "{dist}"],
]


@pytest.mark.parametrize("command", _GRAPH_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("graph", sorted(_INVALID_GRAPHS))
def test_commands_reject_invalid_graphs(graph, command, tmp_path, capsys):
    """Every command but ``graph check`` refuses a graph that ``graph
    check`` reports: exit 1, with the file and the violation named."""
    from causalbox import uniform_table
    from causalbox.fileio import dump_kernel

    vertices, edges = _INVALID_GRAPHS[graph]
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    observed = [(v["name"], 2) for v in vertices if v["kind"] == "observed"]
    dump_kernel(uniform_table(observed), tmp_path / "dist.json")
    argv = [arg.format(dist=tmp_path / "dist.json") for arg in command]
    assert dispatch([*argv, "--graph", str(gpath)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid graph file {gpath}: "), err
    assert dispatch(["graph", "check", "--graph", str(gpath)]) == 2


def test_constraints_enumerate_prints_verma(files, capsys):
    emit, _ = files
    gpath = emit("mediation-graph", "med.json")
    assert dispatch(["constraints", "enumerate", "--graph", gpath]) == 0
    out = capsys.readouterr().out
    assert "VERMA: sum_{A} p(A|X) p(C|A,B,X) _||_ X" in out
    assert "CI: B _||_ X | A" in out


def test_member_exit_codes(files, capsys):
    emit, _ = files
    gpath = emit("gyni-graph", "gyni.json")
    dpath = emit("gyni-projected", "gp.json")
    assert dispatch(["member", "--model", "C", "--graph", gpath, "--dist", dpath]) == 2
    out = capsys.readouterr().out
    assert "not in C(G)" in out
    assert dispatch(["member", "--model", "PS", "--graph", gpath, "--dist", dpath]) == 0
    assert dispatch(["member", "--model", "N", "--graph", gpath, "--dist", dpath]) == 0
    assert dispatch(["member", "--model", "I", "--graph", gpath, "--dist", dpath]) == 0


def test_member_ns_on_box(files):
    emit, _ = files
    gpath = emit("chsh-graph", "chsh.json")
    dpath = emit("pr-box", "pr.json")
    assert dispatch(["member", "--model", "NS", "--graph", gpath, "--dist", dpath]) == 0


def test_score_and_optimize(files, capsys):
    emit, _ = files
    dpath = emit("pr-box", "pr.json")
    assert dispatch(["score", "--functional", "chsh", "--dist", dpath]) == 0
    assert capsys.readouterr().out.strip() == "1"
    gpath = emit("chsh-graph", "chsh.json")
    assert dispatch(["optimize", "--graph", gpath, "--functional", "chsh"]) == 0
    assert "3/4" in capsys.readouterr().out


def test_vertices(files, capsys):
    emit, _ = files
    gpath = emit("instrumental-graph", "ig.json")
    assert dispatch(["vertices", "--graph", gpath, "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 12


def test_decompose_ns(files, capsys):
    emit, _ = files
    dpath = emit("pr-box", "pr.json", "--alpha", "1", "--gamma", "1")
    assert dispatch(["decompose-ns", "--dist", dpath]) == 0
    assert "PR(1, 0, 1)" in capsys.readouterr().out
    # a local box laid out (A, B | Y, X) decomposes as itself
    from causalbox import local_box, reorder
    from causalbox.fileio import dump_kernel

    box = local_box(8)
    dump_kernel(reorder(box, box.outcome_vars, box.index_vars[::-1]), dpath)
    assert dispatch(["decompose-ns", "--dist", dpath]) == 0
    assert "local 8 (id,const0): 1" in capsys.readouterr().out


def test_gyni_score_rejects_values_outside_the_cardinality(tmp_path, capsys):
    """The gyni functional reads a binary box, which a unary Z does not match."""
    from causalbox import uniform_table
    from causalbox.fileio import dump_kernel

    names = ("A", "B", "C", "X", "Y")
    dump_kernel(uniform_table([*((n, 2) for n in names), ("Z", 1)]), tmp_path / "box.json")
    assert dispatch(["score", "--functional", "gyni", "--dist", str(tmp_path / "box.json")]) == 1
    assert capsys.readouterr().err.startswith("error: gyni score expects a binary box")


def test_gyni_score_refuses_a_joint(tmp_path, capsys):
    """A joint's cells are not the box's conditional probabilities, so the
    GYNI box joined with uniform inputs is an input error, as for chsh."""
    from causalbox import gyni_box, join_inputs, uniform_table
    from causalbox.fileio import dump_kernel

    box = gyni_box()
    dump_kernel(box, tmp_path / "box.json")
    dump_kernel(join_inputs(box, uniform_table(box.index_vars)), tmp_path / "joint.json")
    assert dispatch(["score", "--functional", "gyni", "--dist", str(tmp_path / "box.json")]) == 0
    assert capsys.readouterr().out.strip() == "1/6"
    for functional in ("gyni", "chsh"):
        argv = ["score", "--functional", functional, "--dist", str(tmp_path / "joint.json")]
        assert dispatch(argv) == 1, functional
        assert capsys.readouterr().err.startswith("error: "), functional


def test_instrumental_score_reads_variables_by_name(tmp_path, capsys):
    from causalbox import reorder, split_joint
    from causalbox.fileio import dump_kernel

    from conftest import score2_table

    kernel, _ = split_joint(score2_table(), ["X"])
    dpath = str(tmp_path / "score2-ba.json")
    dump_kernel(reorder(kernel, kernel.outcome_vars[::-1], kernel.index_vars), dpath)
    assert dispatch(["score", "--functional", "instrumental", "--dist", dpath]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_machine_output_is_deterministic(files, capsys):
    emit, _ = files
    gpath = emit("mediation-graph", "med.json")
    assert dispatch(["constraints", "enumerate", "--graph", gpath, "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert dispatch(["constraints", "enumerate", "--graph", gpath, "--format", "machine"]) == 0
    assert capsys.readouterr().out == first
    json.loads(first)


def test_usage_errors_exit_one(files, capsys):
    emit, _ = files
    assert dispatch(["member", "--model", "C", "--dist", "nowhere.json"]) == 1
    assert dispatch(["graph", "check", "--graph", "missing.json"]) == 1
    # argparse errors on valid inputs are usage errors too, not the rejection code 2
    chsh, pr = emit("chsh-graph", "chsh.json"), emit("pr-box", "pr.json")
    assert dispatch(["vertices", "--graph", chsh, "--jobs", "2"]) == 1
    assert dispatch(["member", "--model", "Q", "--graph", chsh, "--dist", pr]) == 1
    assert dispatch(["--help"]) == 0
    gpath = emit("swapping-graph", "swap.json")
    dpath = emit("swapping-box", "swapbox.json")
    # PS on a multi-latent graph without a certificate is an input error
    from causalbox import join_inputs, uniform_table, swapping_box
    from causalbox.fileio import dump_kernel

    joint = join_inputs(swapping_box(), uniform_table((("X", 2), ("Z", 2))))
    jpath = emit("swapping-box", "unused.json")
    dump_kernel(joint, jpath)
    assert dispatch(["member", "--model", "PS", "--graph", gpath, "--dist", jpath]) == 1
    assert (
        dispatch(
            ["member", "--model", "PS", "--graph", gpath, "--dist", jpath, "--certificate", jpath]
        )
        == 0
    )


def test_semantic_mismatch_exits_one(files, tmp_path, capsys):
    emit, _ = files
    gpath = emit("chsh-graph", "chsh.json")
    dpath = emit("gyni-box", "gbox.json")
    # tripartite box against the bipartite graph: input error, not a traceback
    assert dispatch(["member", "--model", "NS", "--graph", gpath, "--dist", dpath]) == 1
    assert "error:" in capsys.readouterr().err
    assert dispatch(["score", "--functional", "instrumental", "--dist", dpath]) == 1
    # the six-variable GYNI box against the four observed vertices of gyni
    gyni = emit("gyni-graph", "gyni.json")
    for model in ("C", "PS", "N", "I", "NS"):
        assert dispatch(["member", "--model", model, "--graph", gyni, "--dist", dpath]) == 1
    # the CHSH names with a ternary X, or a unary Y, against the binary chsh graph
    from causalbox import Kernel
    from causalbox.fileio import dump_kernel

    from conftest import ternary_x_chsh_box

    unary_y = Kernel.from_function(
        (("A", 2), ("B", 2)), (("X", 2), ("Y", 1)), lambda v: Fraction(1, 4)
    )
    capsys.readouterr()
    for box, models in ((ternary_x_chsh_box(), ("C", "PS", "N", "I", "NS")), (unary_y, ("NS",))):
        dump_kernel(box, tmp_path / "box.json")
        for model in models:
            argv = ["member", "--model", model, "--graph", gpath, "--dist", str(tmp_path / "box.json")]
            assert dispatch(argv) == 1, model
            assert "error:" in capsys.readouterr().err, model
    # the lifted vertices of the instrumental graph, with a ternary X for its binary X
    from causalbox import uniform_table

    inst = emit("instrumental-graph", "inst.json")
    dump_kernel(uniform_table((("A", 2), ("A_B", 2), ("B", 2), ("X", 3))), tmp_path / "l.json")
    argv = ["project", "--graph", inst, "--dist", str(tmp_path / "l.json"), "--format", "machine"]
    assert dispatch(argv) == 1
    assert "do not match observed vertices" in capsys.readouterr().err


def test_member_names_a_variable_mismatch_alike_for_every_model(files, tmp_path, capsys):
    """A joint or a box over other variables than the graph's observed
    vertices is one error line, the same text under C, PS, N and I."""
    import random

    from causalbox import mediation_graph
    from causalbox.fileio import dump_kernel
    from causalbox.networks import random_network

    emit, _ = files
    chsh, med = emit("chsh-graph", "chsh.json"), emit("mediation-graph", "med.json")
    pr = emit("pr-box", "pr.json")
    joint = str(tmp_path / "joint.json")
    dump_kernel(random_network(mediation_graph(), random.Random(0)).joint_observed(), joint)
    med_vars = "[('A', 2), ('B', 2), ('C', 2), ('X', 2)]"
    chsh_vars = "[('A', 2), ('B', 2), ('X', 2), ('Y', 2)]"
    capsys.readouterr()
    cases = ((chsh, joint, med_vars, chsh_vars), (med, pr, chsh_vars, med_vars))
    for gpath, dpath, table, observed in cases:
        for model in ("C", "PS", "N", "I"):
            assert dispatch(["member", "--model", model, "--graph", gpath, "--dist", dpath]) == 1, model
            captured = capsys.readouterr()
            assert captured.out == "", model
            want = f"error: table variables {table} do not match observed vertices {observed}\n"
            assert captured.err == want, model


def test_project_subcommand(files, tmp_path, capsys):
    emit, _ = files
    gpath = emit("gyni-graph", "gyni.json")
    # build the lifted joint for the GYNI box and project it back
    from causalbox import build_hypergraph, gyni_box, gyni_graph, join_inputs, uniform_table, Kernel
    from causalbox.fileio import dump_kernel

    h = build_hypergraph(gyni_graph())
    box = gyni_box()
    hbox = Kernel.from_function(
        tuple((o, 2) for o in ("A", "B", "C")),
        tuple((i, 2) for i in ("A_B", "B_C", "X")),
        lambda v: box.value(
            {"A": v["A"], "B": v["B"], "C": v["C"], "X": v["X"], "Y": v["A_B"], "Z": v["B_C"]}
        ),
    )
    joint = join_inputs(hbox, uniform_table((("A_B", 2), ("B_C", 2), ("X", 2))))
    lifted_path = tmp_path / "lifted.json"
    dump_kernel(joint, lifted_path)
    assert dispatch(["project", "--graph", gpath, "--dist", str(lifted_path), "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["table"]["0,0,0,0"] == "1/6"


def test_hyper_build_text_and_out(files, tmp_path, capsys):
    emit, _ = files
    gpath = emit("mediation-graph", "med.json")
    out = tmp_path / "lifted.json"
    assert dispatch(["hyper", "build", "--graph", gpath, "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "copies: A_B, B_C\n  A_B: copy of A feeding B\n  B_C: copy of B feeding C\n"
    )
    from causalbox import build_hypergraph, mediation_graph

    assert load_graph(out).edges == build_hypergraph(mediation_graph()).base.edges
    assert dispatch(["hyper", "build", "--graph", emit("chsh-graph", "chsh.json")]) == 0
    assert capsys.readouterr().out == "copies: (none; graph is Bell-type)\n"


@pytest.mark.parametrize("name", ["instrumental-graph", "gyni-graph"])
def test_lifted_vertices_through_hyper_build(name, files, tmp_path, capsys):
    """``hyper build --out`` and then ``vertices`` give the hypergraph's vertices."""
    emit, _ = files
    lifted = str(tmp_path / "lifted.json")
    assert dispatch(["hyper", "build", "--graph", emit(name, "g.json"), "--out", lifted]) == 0
    capsys.readouterr()
    assert dispatch(["vertices", "--graph", lifted, "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    from causalbox import boxes, build_hypergraph, enumerate_h_vertices
    from causalbox.fileio import kernel_to_dict

    graph = getattr(boxes, name.replace("-", "_"))()
    expected = [kernel_to_dict(v.table) for v in enumerate_h_vertices(build_hypergraph(graph))]
    assert payload == {"count": len(expected), "vertices": expected}


@pytest.mark.parametrize(
    "argv",
    [["hyper", "build", "--graph", "{graph}"], ["fixtures", "emit", "pr-box"]],
    ids=" ".join,
)
def test_unwritable_out_is_an_input_error(argv, files, tmp_path, capsys):
    """Nothing is printed before the write fails."""
    emit, _ = files
    out = str(tmp_path / "missing" / "out.json")
    argv = [arg.format(graph=emit("chsh-graph", "chsh.json")) for arg in argv]
    assert dispatch([*argv, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"


# every option of every command; a new option changes this test on purpose
OPTIONS = {
    "graph check": ["--format", "--graph"],
    "graph mdag": ["--fixed", "--format", "--graph"],
    "graph districts": ["--fixed", "--format", "--graph"],
    "graph dsep": ["--a", "--b", "--fixed", "--format", "--graph"],
    "constraints enumerate": ["--format", "--graph"],
    "hyper build": ["--format", "--graph", "--out"],
    "project": ["--dist", "--format", "--graph"],
    "member": ["--certificate", "--dist", "--format", "--graph", "--model"],
    "score": ["--dist", "--format", "--functional"],
    "optimize": ["--format", "--functional", "--graph"],
    "vertices": ["--format", "--graph"],
    "decompose-ns": ["--dist", "--format"],
    "fixtures emit": ["--alpha", "--beta", "--format", "--gamma", "--index", "--out", "name"],
}


def _options(parser, command=()):
    """The options (and positional names) of each command under ``parser``,
    ``--help`` left out."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        names = (n for a in parser._actions for n in a.option_strings or [a.dest])
        return {" ".join(command): sorted(set(names) - {"-h", "--help"})}
    return {
        key: names
        for action in subparsers
        for name, sub in action.choices.items()
        for key, names in _options(sub, (*command, name)).items()
    }


def test_option_surface_is_pinned():
    assert _options(build_parser()) == OPTIONS


def test_member_text_lists_violations(files, tmp_path, capsys):
    emit, _ = files
    gpath = emit("mediation-graph", "med.json")
    from causalbox import Kernel, mediation_graph
    from causalbox.fileio import dump_kernel
    from causalbox.networks import random_network
    import random

    p1, p2 = (random_network(mediation_graph(), random.Random(seed), latent_cardinality=2)
              .joint_observed() for seed in (11, 12))
    mix = Kernel.from_function(p1.outcome_vars, (), lambda v: (p1.value(v) + p2.value(v)) / 2)
    dpath = str(tmp_path / "mix.json")
    dump_kernel(mix, dpath)
    assert dispatch(["member", "--model", "N", "--graph", gpath, "--dist", dpath]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "not in N(G):"
    assert lines[1].startswith("  CI: B _||_ X | A  violated at")
    assert lines[2].startswith("  VERMA: sum_{A} p(A|X) p(C|A,B,X) _||_ X  violated at")
    assert dispatch(["member", "--model", "I", "--graph", gpath, "--dist", dpath]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "not in I(G):" and len(lines) == 2


@pytest.mark.parametrize(
    "cmd,usage",
    [
        ("graph", "usage: causalbox graph {check,mdag,districts,dsep} ..."),
        ("constraints", "usage: causalbox constraints enumerate ..."),
        ("hyper", "usage: causalbox hyper build ..."),
        ("fixtures", "usage: causalbox fixtures emit NAME ..."),
    ],
)
def test_missing_subcommand_prints_usage(cmd, usage, capsys):
    assert dispatch([cmd]) == 1
    captured = capsys.readouterr()
    assert captured.err == usage + "\n"
    assert captured.out == ""


def test_bare_command_prints_help(capsys):
    assert dispatch([]) == 1
    assert capsys.readouterr().out.startswith("usage: causalbox")


# each command and subcommand, with the fixture arguments it runs on
_RUNS = {
    "graph": ["--graph", "{med}"],
    "graph check": ["--graph", "{med}"],
    "graph mdag": ["--graph", "{med}", "--fixed", "X"],
    "graph districts": ["--graph", "{med}"],
    "graph dsep": ["--graph", "{med}", "--a", "X", "--b", "B"],
    "constraints": ["--graph", "{med}"],
    "constraints enumerate": ["--graph", "{med}"],
    "hyper": ["--graph", "{chsh}"],
    "hyper build": ["--graph", "{chsh}"],
    "project": ["--graph", "{chsh}", "--dist", "{pr}"],
    "member": ["--model", "C", "--graph", "{chsh}", "--dist", "{pr}"],
    "score": ["--functional", "chsh", "--dist", "{pr}"],
    "optimize": ["--functional", "chsh", "--graph", "{chsh}"],
    "vertices": ["--graph", "{chsh}"],
    "decompose-ns": ["--dist", "{pr}"],
    "fixtures": ["pr-box"],
    "fixtures emit": ["pr-box", "--alpha", "1"],
}
# on "member {run} stray", a one-command build without the metavar printed
# "usage: causalbox [-h] {member} ..."
_TAILS = [
    [], ["-h"], ["--help"], ["--bogus"], ["stray"],
    ["{run}"], ["{run}", "stray"], ["{run}", "--bogus"], ["{run}", "--format", "machine"],
    ["{run}", "--format", "xml"],
]
# argument vectors whose first word names no command
_OTHERS = [
    [], ["-h"], ["--help"], ["bogus"], ["mem"], ["-h", "member"],
    ["--format", "machine", "member"], ["Member", "--model", "C"],
    *(["member", "--model", model, "--graph", "{chsh}", "--dist", "{pr}"]
      for model in ("I", "N", "NS", "PS", "Q")),
]


def _corpus(command, paths):
    vectors = _OTHERS if command is None else [[*command.split(), *tail] for tail in _TAILS]
    out = []
    for vector in vectors:
        words = []
        for word in vector:
            words += _RUNS[command] if word == "{run}" else [word]
        out.append([word.format(**paths) for word in words])
    return out


@pytest.mark.parametrize("command", [*_RUNS, None], ids=str)
def test_one_command_build_answers_as_the_full_build(command, fixture_files, capsys, monkeypatch):
    """``dispatch`` builds only the parser of the command ``argv[0]`` names;
    every exit code, stdout and stderr must equal a build of every command.
    The two are compared at run time, since argparse's wording differs
    across Python versions."""
    corpus = _corpus(command, fixture_files)
    answers = []
    for argv in corpus:
        code = dispatch(argv)
        answers.append((argv, code, *capsys.readouterr()))
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    for argv, code, out, err in answers:
        assert (dispatch(argv), *capsys.readouterr()) == (code, out, err), argv


def test_an_unknown_command_is_refused_as_argument_cmd(capsys):
    assert dispatch(["bogus"]) == 1
    err = capsys.readouterr().err
    assert "{" + ",".join(cli._DISPATCH) + "}" in err
    assert "error: argument cmd: invalid choice: 'bogus'" in err


def test_a_one_command_build_holds_that_command_alone():
    for command in cli._DISPATCH:
        options = _options(build_parser(command))
        assert options == {key: value for key, value in OPTIONS.items()
                           if key.split()[0] == command}, command


_BAD_FILES = ("nowhere", "broken", "list", "folder", "under_file")
# documents that parse but carry a field of the wrong type
_BAD_GRAPHS = {
    "vertex_int": {"vertices": [1], "edges": []},
    "vertex_name_int": {"vertices": [{"name": 1, "kind": "latent"}], "edges": []},
    "vertices_object": {"vertices": {}, "edges": []},
    "edges_string": {"vertices": [], "edges": "AB"},
    "edge_ints": {"vertices": [], "edges": [[1, 2]]},
}
_BAD_DISTS = {
    "table_list": {"variables": [], "index_variables": [], "table": []},
    "variables_string": {"variables": "A", "index_variables": [], "table": {}},
    "variable_list": {"variables": [["A", 2]], "index_variables": [], "table": {}},
    "variable_name_int": {
        "variables": [{"name": 0, "cardinality": 2}], "index_variables": [], "table": {"0": "1"}
    },
    "index_object": {"variables": [], "index_variables": {}, "table": {}},
    # the uniform table over mediation's vertices, with "00,0,0,0" naming cell 0,0,0,0 again
    "duplicate_key": {
        "variables": [{"name": n, "cardinality": 2} for n in "ABCX"],
        "index_variables": [],
        "table": {
            **{f"{a},{b},{c},{x}": "1/16" for a in "01" for b in "01" for c in "01" for x in "01"},
            "00,0,0,0": "1/16",
        },
    },
}
_MALFORMED = [
    *(["graph", "check", "--graph", "{%s}" % bad] for bad in _BAD_FILES + tuple(_BAD_GRAPHS)),
    *(["member", "--model", "N", "--graph", "{med}", "--dist", "{%s}" % bad]
      for bad in _BAD_FILES + tuple(_BAD_DISTS)),
    ["score", "--functional", "chsh", "--dist", "{table_list}"],
    *(["member", "--model", "PS", "--graph", "{swap}", "--dist", "{joint}",
       "--certificate", "{%s}" % bad] for bad in _BAD_FILES),
    ["fixtures", "emit", "pr-box", "--alpha", "2"],
    ["fixtures", "emit", "pr-box", "--beta", "-1"],
    ["fixtures", "emit", "pr-box", "--gamma", "x"],
    ["fixtures", "emit", "local-box", "--index", "16"],
    ["fixtures", "emit", "local-box", "--index", "-1"],
    ["graph", "dsep", "--graph", "{med}", "--a", "Q", "--b", "X"],
    ["graph", "dsep", "--graph", "{med}", "--a", "X"],
    # the swapping joint has no Y
    ["score", "--functional", "gyni", "--dist", "{joint}"],
    # mediation's vertices have no Y
    ["optimize", "--graph", "{med}", "--functional", "chsh"],
    # lifted vertices come from `hyper build --out` and the plain command
    ["vertices", "--graph", "{med}", "--lift"],
]


@pytest.mark.parametrize("template", _MALFORMED, ids=" ".join)
def test_malformed_input_exits_one(template, files, tmp_path, capsys):
    """Missing, unreadable, broken and non-object files, mistyped fields,
    out-of-range fixture parameters and unknown vertices are input errors:
    exit 1, never an exception."""
    emit, _ = files
    from causalbox import join_inputs, swapping_box, uniform_table
    from causalbox.fileio import dump_kernel

    (tmp_path / "broken.json").write_text('{"vertices": [')
    (tmp_path / "list.json").write_text("[1, 2]\n")
    (tmp_path / "folder.json").mkdir()
    for name, doc in {**_BAD_GRAPHS, **_BAD_DISTS}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    joint = tmp_path / "joint.json"
    dump_kernel(join_inputs(swapping_box(), uniform_table((("X", 2), ("Z", 2)))), joint)
    paths = {
        "med": emit("mediation-graph", "med.json"),
        "swap": emit("swapping-graph", "swap.json"),
        "joint": str(joint),
        **{bad: str(tmp_path / f"{bad}.json") for bad in (*_BAD_FILES, *_BAD_GRAPHS, *_BAD_DISTS)},
        "under_file": str(tmp_path / "list.json" / "graph.json"),
    }
    capsys.readouterr()
    assert dispatch([arg.format(**paths) for arg in template]) == 1
    err = capsys.readouterr().err
    assert err.startswith(("error: ", "usage: ")), err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["graph", "check", "--graph", "{deep}"], "graph"),
        (["member", "--model", "N", "--graph", "{deep}", "--dist", "{pr}"], "graph"),
        (["member", "--model", "N", "--graph", "{chsh}", "--dist", "{deep}"], "distribution"),
    ],
    ids=["check", "member-graph", "member-dist"],
)
def test_a_deeply_nested_file_is_one_error_line(argv, what, fixture_files, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    assert dispatch([arg.format(deep=deep, **fixture_files) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: bad {what} file {deep}: document nests too deeply\n")


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"\xff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b"[" + b"7" * 5000 + b"]", "Exceeds the limit (4300 digits) for integer string conversion"),
        (b'{"a": ', "Expecting value: line 1 column 7 (char 6)"),
        (
            # two printable values whose sum has a 4401-digit denominator
            json.dumps({"variables": [{"name": "A", "cardinality": 2}], "index_variables": [],
                        "table": {"0": f"1/{10**2200 + 1}", "1": f"1/{10**2200 + 3}"}}).encode(),
            "table: row for index assignment () sums to a value too long to print, expected 1",
        ),
        (
            b'{"variables": [{"name": "A", "cardinality": 2}], "index_variables": [],'
            b' "table": {"0": "1", "0": "1/2", "1": "1/2"}}',
            "an object repeats the name '0'",
        ),
        (
            json.dumps({"variables": [{"name": "A", "cardinality": 2}], "index_variables": [],
                        "table": {"0": "1e-4300", "1": f"{10**4300 - 1}e-4300"}}).encode(),
            "table value '1e-4300' at '0' has more than 4300 digits",
        ),
        (
            json.dumps({"variables": [{"name": "A", "cardinality": 10**29}],
                        "index_variables": [], "table": {"0": "1"}}).encode(),
            "table: layout has more cells than fit in memory",
        ),
    ],
    ids=["not-utf8", "long-integer", "truncated", "huge-row-sum", "repeated-name",
         "unprintable-value", "too-many-cells"],
)
def test_a_malformed_distribution_is_one_error_line_naming_the_file(tmp_path, capsys, data, reason):
    path = tmp_path / "dist.json"
    path.write_bytes(data)
    assert dispatch(["score", "--functional", "chsh", "--dist", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: bad distribution file {path}: {reason}")


@pytest.mark.parametrize("model", ["I", "N"])
def test_a_non_ascii_table_key_is_one_error_line(tmp_path, capsys, model):
    # int reads "١" (ARABIC-INDIC DIGIT ONE) as 1, which made this a valid point mass
    gpath, dpath = tmp_path / "g.json", tmp_path / "d.json"
    gpath.write_text(json.dumps({"vertices": [{"name": "A", "kind": "observed", "cardinality": 2}],
                                 "edges": []}))
    dpath.write_text(json.dumps({"variables": [{"name": "A", "cardinality": 2}],
                                 "index_variables": [], "table": {"١": "1"}}))
    assert dispatch(["member", "--model", model, "--graph", str(gpath), "--dist", str(dpath)]) == 1
    assert capsys.readouterr() == (
        "", f"error: bad distribution file {dpath}: table key '١' is not an integer assignment\n"
    )


def test_a_graph_that_repeats_a_name_is_one_error_line_naming_the_file(tmp_path, capsys):
    # read as its last "edges", X and A would be d-separated
    path = tmp_path / "dupg.json"
    path.write_text(
        '{"vertices": [{"name": "X", "kind": "observed", "cardinality": 2},'
        ' {"name": "A", "kind": "observed", "cardinality": 2}],'
        ' "edges": [["X", "A"]], "edges": []}'
    )
    assert dispatch(["graph", "dsep", "--graph", str(path), "--a", "X", "--b", "A"]) == 1
    assert capsys.readouterr() == (
        "", f"error: bad graph file {path}: an object repeats the name 'edges'\n"
    )


def test_certificate_file_errors_name_the_file(files, tmp_path, capsys):
    emit, _ = files
    gpath = emit("swapping-graph", "swap.json")
    dpath = emit("swapping-box", "box.json")
    missing = str(tmp_path / "nowhere.json")
    argv = ["member", "--model", "PS", "--graph", gpath, "--dist", dpath]
    assert dispatch([*argv, "--certificate", missing]) == 1
    assert capsys.readouterr().err == f"error: certificate file not found: {missing}\n"
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert dispatch([*argv, "--certificate", str(broken)]) == 1
    assert capsys.readouterr().err.startswith(f"error: bad certificate file {broken}: Expecting")


@pytest.mark.parametrize("model", ["C", "N", "I", "NS"])
def test_certificate_applies_only_to_ps(files, capsys, model):
    emit, _ = files
    gpath = emit("chsh-graph", "chsh.json")
    dpath = emit("pr-box", "pr.json")
    capsys.readouterr()
    argv = ["member", "--model", model, "--graph", gpath, "--dist", dpath, "--certificate", dpath]
    assert dispatch(argv) == 1
    assert capsys.readouterr() == ("", "error: --certificate applies only to --model PS\n")


def _instrumental_joint(x_prior, path):
    """A seeded classical joint of the instrumental graph with X drawn by
    ``x_prior``, written to ``path``."""
    import random

    from causalbox import Kernel, instrumental_graph
    from causalbox.fileio import dump_kernel
    from causalbox.networks import ClassicalNetwork, random_network

    g = instrumental_graph()
    cpts = dict(random_network(g, random.Random(3), latent_cardinality=3).cpts)
    cpts["X"] = Kernel.from_mapping((("X", 2),), (), dict(zip([(0,), (1,)], x_prior)))
    dump_kernel(ClassicalNetwork(g, cpts).joint_observed(), path)
    return str(path)


def test_member_reads_skewed_settings_off_the_joint(files, tmp_path, capsys):
    """A classical joint whose setting X is drawn 1/5 : 4/5 is in every model."""
    emit, _ = files
    gpath = emit("instrumental-graph", "instr.json")
    dpath = _instrumental_joint((Fraction(1, 5), Fraction(4, 5)), tmp_path / "skewed.json")
    for model in ("C", "PS", "N", "I"):
        assert dispatch(["member", "--model", model, "--graph", gpath, "--dist", dpath]) == 0
        assert capsys.readouterr().out == f"member of {model}(G)\n"


def test_member_accepts_a_setting_that_never_occurs(files, tmp_path, capsys):
    """A classical joint whose setting X is always 0 is in every model: C
    leaves out the rows of X = 1, which have no conditional."""
    emit, _ = files
    gpath = emit("instrumental-graph", "instr.json")
    dpath = _instrumental_joint((Fraction(1), Fraction(0)), tmp_path / "x0.json")
    for model in ("C", "PS", "N", "I"):
        assert dispatch(["member", "--model", model, "--graph", gpath, "--dist", dpath]) == 0
        assert capsys.readouterr().out == f"member of {model}(G)\n"
    argv = ["member", "--model", "C", "--graph", gpath, "--dist", dpath, "--format", "machine"]
    assert dispatch(argv) == 0
    assert sum(Fraction(w) for w in json.loads(capsys.readouterr().out)["weights"]) == 1


def test_ps_certificate_of_another_shape_is_an_input_error(files, tmp_path, capsys):
    """The conditional box that PS prints is not a joint over the lifted
    vertices, so feeding it back is an input error, not a rejection."""
    emit, _ = files
    gpath = emit("gyni-graph", "gyni.json")
    dpath = emit("gyni-projected", "gp.json")
    argv = ["member", "--model", "PS", "--graph", gpath, "--dist", dpath]
    assert dispatch([*argv, "--format", "machine"]) == 0
    certificate = tmp_path / "certificate.json"
    certificate.write_text(json.dumps(json.loads(capsys.readouterr().out)["certificate"]))
    assert dispatch([*argv, "--certificate", str(certificate)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: certificate must be a joint table over the lifted vertices [('A', 2), ('A_B', 2)"
    )


def test_ps_certificate_rejection_prints_its_reason(files, tmp_path, capsys):
    from causalbox import Kernel, join_inputs, swapping_box, uniform_table
    from causalbox.fileio import dump_kernel

    emit, _ = files
    gpath = emit("swapping-graph", "swap.json")
    joint = join_inputs(swapping_box(), uniform_table((("X", 2), ("Z", 2))))
    # a signalling candidate: A copies Z
    bad = Kernel.from_function(
        joint.outcome_vars,
        (),
        lambda v: Fraction(1, 8) if v["A"] == v["Z"] and v["C"] == v["B"] else 0,
    )
    dump_kernel(joint, tmp_path / "joint.json")
    dump_kernel(bad, tmp_path / "bad.json")
    argv = ["member", "--model", "PS", "--graph", gpath, "--dist", str(tmp_path / "joint.json"),
            "--certificate", str(tmp_path / "bad.json")]
    assert dispatch(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("not in PS(G): certificate violates CI: ")
    assert "LP infeasible" not in out
    assert dispatch([*argv, "--format", "machine"]) == 2
    assert json.loads(capsys.readouterr().out) == {"member": False}
