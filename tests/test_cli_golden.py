"""Machine output of the CLI against a recorded golden file.

``golden/cli_machine.json`` maps each command line (file arguments relative
to the fixture directory) to its exit code and stdout.  Regenerate it with
``PYTHONPATH=src:tests python tests/test_cli_golden.py`` only when a change
to the output is intended.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from fractions import Fraction

from causalbox import (
    Kernel,
    instrumental_graph,
    join_inputs,
    local_box,
    mediation_graph,
    pr_box,
    reorder,
    uniform_table,
)
from causalbox.cli import dispatch
from causalbox.fileio import dump_kernel
from causalbox.networks import ClassicalNetwork, random_network

from conftest import score2_table

GOLDEN = Path(__file__).parent / "golden" / "cli_machine.json"

PAIRS = [
    ("chsh-graph.json", "pr-box.json"),
    ("gyni-graph.json", "gyni-projected.json"),
    ("instrumental-graph.json", "score2.json"),
    ("mediation-graph.json", "mediation-joint.json"),
    ("instrumental-graph.json", "instrumental-skewed.json"),
]

COMMANDS = [
    f"member --model {model} --graph {graph} --dist {dist} --format machine"
    for graph, dist in PAIRS
    for model in ("C", "PS", "N", "I", "NS")
] + [
    "decompose-ns --dist pr-box.json --format machine",
    "decompose-ns --dist local-box.json --format machine",
    "decompose-ns --dist pr110-mix-ba-yx.json --format machine",
    "decompose-ns --dist chsh-tight-mix.json --format machine",
    "constraints enumerate --graph mediation-graph.json --format machine",
    "hyper build --graph mediation-graph.json --format machine",
    "member --model N --graph mediation-graph.json --dist mediation-mix.json --format machine",
    "member --model I --graph mediation-graph.json --dist mediation-mix.json --format machine",
    "score --functional gyni --dist gyni-box.json --format machine",
    "optimize --functional gyni --graph tripartite-bell-graph.json --format machine",
]


def _mix(parts) -> Kernel:
    """The box sum of w * box over ``(w, box)`` pairs."""
    box = parts[0][1]
    return Kernel.from_function(
        box.outcome_vars, box.index_vars, lambda v: sum(w * b.value(v) for w, b in parts)
    )


def write_fixtures(directory: Path) -> None:
    for name in ("chsh-graph", "pr-box", "gyni-graph", "gyni-projected", "gyni-box",
                 "instrumental-graph", "mediation-graph", "tripartite-bell-graph"):
        assert dispatch(["fixtures", "emit", name, "--out", str(directory / f"{name}.json")]) == 0
    dump_kernel(score2_table(), directory / "score2.json")
    net = random_network(mediation_graph(), random.Random(7), latent_cardinality=3)
    dump_kernel(net.joint_observed(), directory / "mediation-joint.json")
    # a classical joint whose setting X is drawn 1/5 : 4/5
    cpts = dict(random_network(instrumental_graph(), random.Random(5), latent_cardinality=3).cpts)
    cpts["X"] = Kernel.from_mapping((("X", 2),), (), {(0,): Fraction(1, 5), (1,): Fraction(4, 5)})
    dump_kernel(ClassicalNetwork(instrumental_graph(), cpts).joint_observed(),
                directory / "instrumental-skewed.json")
    # an even mixture of two network joints breaks B _||_ X | A and the Verma record
    p1, p2 = (random_network(mediation_graph(), random.Random(seed), latent_cardinality=2)
              .joint_observed() for seed in (11, 12))
    dump_kernel(_mix([(Fraction(1, 2), p1), (Fraction(1, 2), p2)]),
                directory / "mediation-mix.json")
    dump_kernel(local_box(9), directory / "local-box.json")
    # PR(1, 1, 0) dominant, laid out (B, A | Y, X)
    pr_mix = _mix([(Fraction(7, 10), pr_box(1, 1, 0)), (Fraction(1, 5), local_box(9)),
                   (Fraction(1, 10), local_box(3))])
    dump_kernel(reorder(pr_mix, pr_mix.outcome_vars[::-1], pr_mix.index_vars[::-1]),
                directory / "pr110-mix-ba-yx.json")
    # locals that each score 3 on the standard CHSH variant: a box on its facet
    tight = _mix([(Fraction(1, 2), local_box(2)), (Fraction(1, 3), local_box(8)),
                  (Fraction(1, 6), local_box(13))])
    dump_kernel(tight, directory / "chsh-tight-mix.json")


def run_commands(directory: Path) -> dict:
    results = {}
    for command in COMMANDS:
        argv = [str(directory / a) if a.endswith(".json") else a for a in command.split()]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = dispatch(argv)
        results[command] = {"rc": rc, "stdout": out.getvalue()}
    return results


def test_machine_output_matches_golden(tmp_path):
    write_fixtures(tmp_path)
    expected = json.loads(GOLDEN.read_text())
    assert list(expected) == COMMANDS
    actual = run_commands(tmp_path)
    for command in COMMANDS:
        assert actual[command] == expected[command], command


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_fixtures(Path(tmp))
        results = run_commands(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {len(results)} commands to {GOLDEN}", file=sys.stderr)
