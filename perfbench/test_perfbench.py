"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import causalbox as cb  # noqa: E402
from causalbox import fileio  # noqa: E402
from causalbox.constraints import Violation  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import KNOWN_VERDICTS, WORKLOADS, mix  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# -- the checker counts corrupted outputs ----------------------------------------


def _cli_requests(tmp_path):
    wl = WORKLOADS["cli-fixtures"]
    ctx = dict(wl.prepare(), tmp=str(tmp_path), src=os.path.join(ROOT, "src"))
    return wl, ctx, wl.generate(random.Random(1), ctx)


def _member_request(reqs, model, dist):
    return next(r for r in reqs if r.kind == "member" and r.inputs["model"] == model
                and r.inputs["files"][1] == dist)


def _with_doc(out, **changes):
    doc = dict(json.loads(out["stdout"]), **changes)
    return dict(out, stdout=json.dumps(doc))


def test_known_verdict_labels_hold(tmp_path):
    """The hard-coded CLI labels agree with the library and the inputs."""
    h = cb.build_hypergraph(cb.chsh_graph())
    _, ctx, reqs = _cli_requests(tmp_path)
    fixtures = ctx["fixtures"]
    assert cb.ns_member(fixtures["pr-box"], h)
    assert not cb.ns_member(fixtures["signalling-box"], h)
    for req in reqs:
        if req.kind == "member":
            assert req.expect["member"] == req.expect["in_process"], req.inputs["files"]
    for verdicts in KNOWN_VERDICTS.values():
        flags = [verdicts[m] for m in ("C", "PS", "N", "I") if m in verdicts]
        assert flags == sorted(flags)  # once in a model, in every larger one


def test_checker_rejects_corrupted_cli_verdicts(tmp_path):
    wl, ctx, reqs = _cli_requests(tmp_path)
    ps = _member_request(reqs, "PS", "pr-box")
    out, _ = wl.run(ps, ctx)
    assert checks.check_cli(ps, out, ctx) == []
    # a flipped verdict, with a matching exit code, against the known label
    flipped = dict(_with_doc(out, member=False), rc=ps.expect["rc"])
    assert any("known" in p for p in checks.check_cli(ps, flipped, ctx))
    # a certificate for another box, and one that is missing
    foreign = fileio.kernel_to_dict(cb.join_inputs(
        ctx["fixtures"]["signalling-box"], cb.uniform_table((("X", 2), ("Y", 2)))))
    doc = json.loads(out["stdout"])
    cert = fileio.kernel_from_dict(doc["certificate"])
    other = fileio.kernel_to_dict(cb.Kernel(cert.outcome_vars, cert.index_vars,
                                            tuple(reversed(cert.entries))))
    assert checks.check_cli(ps, _with_doc(out, certificate=other), ctx)
    assert checks.check_cli(ps, _with_doc(out, certificate=foreign), ctx)
    no_cert = dict(json.loads(out["stdout"]))
    del no_cert["certificate"]
    assert checks.check_cli(ps, dict(out, stdout=json.dumps(no_cert)), ctx)


def test_checker_rejects_corrupted_c_weights(tmp_path):
    wl, ctx, reqs = _cli_requests(tmp_path)
    c = _member_request(reqs, "C", "med-joint")
    out, _ = wl.run(c, ctx)
    assert checks.check_cli(c, out, ctx) == []
    weights = json.loads(out["stdout"])["weights"]
    assert checks.check_cli(c, _with_doc(out, weights=list(reversed(weights))), ctx)
    assert checks.check_cli(c, _with_doc(out, weights=weights[:-1]), ctx)


def test_checker_rejects_corrupted_witnesses():
    g = cb.mediation_graph()
    rng = random.Random(2)
    joints = [cb.random_network(g, rng).joint_observed() for _ in range(3)]
    bad = mix([Fraction(1, 3), Fraction(2, 3)], joints[:2])
    verdict = cb.check_nested(bad, g)
    assert not verdict.member
    assert checks.check_witnesses(verdict, bad) == []
    # the same witnesses do not hold on a member joint
    assert checks.check_witnesses(verdict, joints[2])
    # a Verma witness with altered values
    verma = [v for v in verdict.violations if not isinstance(v.record, cb.CiConstraint)]
    assert verma
    w = dict(verma[0].witness, values=list(reversed(verma[0].witness["values"])))
    forged = cb.NestedVerdict(False, (Violation(verma[0].record, w),))
    assert checks.check_witnesses(forged, bad)
    # a member flag that disagrees with its violations
    assert checks.check_witnesses(cb.NestedVerdict(True, verdict.violations), bad)


def test_checker_rejects_wrong_decomposition():
    wl = WORKLOADS["ns-decompose"]
    reqs = wl.generate(random.Random(3), {})
    req = next(r for r in reqs if r.kind == "pr-dominant")
    pr, weights = wl.run(req, {})[0]
    assert checks.check_ns_decompose(req, (pr, weights), {}) == []
    assert checks.check_ns_decompose(req, (None, weights), {})
    skewed = (weights[1], weights[0]) + tuple(weights[2:])
    assert checks.check_ns_decompose(req, (pr, skewed), {})


# -- tracer ----------------------------------------------------------------------


def test_self_times_subtract_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["child", 1.0, 4.0, 0, 0],
        ["grandchild", 2.0, 3.0, 1, 0],
        ["child", 5.0, 6.0, 0, 0],
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_rebinds_and_restores_cross_module_names():
    import causalbox.lift as lift
    import causalbox.linprog as linprog

    original = linprog.lp_solve
    t = tracer.Tracer()
    t.install()
    try:
        assert lift.lp_solve is not original and linprog.lp_solve is not original
        t.request = 0
        g = cb.chsh_graph()
        cb.ps_member(cb.join_inputs(cb.pr_box(), cb.uniform_table((("X", 2), ("Y", 2)))), g)
    finally:
        t.uninstall()
    assert lift.lp_solve is original and linprog.lp_solve is original
    names = [s[0] for s in t.spans]
    lp = names.index("lp_solve")
    assert t.spans[t.spans[lp][3]][0] == "ps_member"
    assert t.counts[0]["lp.rows"] > 0


# -- the command -------------------------------------------------------------------


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_command_prints_every_metric():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        res = _result(_run("--workload", "ns-decompose", "--seed", "1",
                           "--seconds", "1", "--trace", str(trace)))
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == wanted


def test_interaction_map_covers_benchmark_json():
    with open(os.path.join(HERE, "interactions.json")) as fh:
        inter = json.load(fh)
    assert set(inter["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(inter["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in inter["per_layer"].values():
        for move in entry["moves"]:
            assert move["metric"] in e2e and move["workload"] in inter["workloads"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "ns-decompose", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
