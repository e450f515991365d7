"""Command-line interface: exit codes, determinism, round trips."""

import json
from fractions import Fraction

import pytest

from causalbox.cli import dispatch
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
