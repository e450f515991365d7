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

from causalbox import join_inputs, local_box, mediation_graph, uniform_table
from causalbox.cli import dispatch
from causalbox.fileio import dump_kernel
from causalbox.networks import random_network

from conftest import score2_table

GOLDEN = Path(__file__).parent / "golden" / "cli_machine.json"

PAIRS = [
    ("chsh-graph.json", "pr-box.json"),
    ("gyni-graph.json", "gyni-projected.json"),
    ("instrumental-graph.json", "score2.json"),
    ("mediation-graph.json", "mediation-joint.json"),
]

COMMANDS = [
    f"member --model {model} --graph {graph} --dist {dist} --format machine"
    for graph, dist in PAIRS
    for model in ("C", "PS", "N", "I", "NS")
] + [
    "decompose-ns --dist pr-box.json --format machine",
    "decompose-ns --dist local-box.json --format machine",
    "constraints enumerate --graph mediation-graph.json --format machine",
]


def write_fixtures(directory: Path) -> None:
    for name in ("chsh-graph", "pr-box", "gyni-graph", "gyni-projected",
                 "instrumental-graph", "mediation-graph"):
        assert dispatch(["fixtures", "emit", name, "--out", str(directory / f"{name}.json")]) == 0
    dump_kernel(score2_table(), directory / "score2.json")
    net = random_network(mediation_graph(), random.Random(7), latent_cardinality=3)
    dump_kernel(net.joint_observed(), directory / "mediation-joint.json")
    dump_kernel(local_box(9), directory / "local-box.json")


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
