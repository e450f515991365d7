"""The workloads: seeded input generation and one request each.

Every workload exposes ``prepare()`` (the per-graph set-up a user pays
once), ``generate(rng, ctx)`` (the inputs; a list whose length is a
multiple of ``cycle``) and ``run(request, ctx)``, which returns
``(output, {model: seconds})``.  ``fresh_processes`` says whether a
request runs in a fresh interpreter, which decides where ``run.py`` runs
its speed gauge.  Library calls go through module attributes
(``cb.ps_member``) so a tracer's rebinding takes effect.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import causalbox as cb
from causalbox import cli as cb_cli
from causalbox import fileio

HERE = os.path.dirname(os.path.abspath(__file__))


def mix(weights, kernels) -> cb.Kernel:
    """Exact convex combination of kernels with identical layout."""
    first = kernels[0]
    entries = tuple(
        sum(w * k.entries[i] for w, k in zip(weights, kernels))
        for i in range(len(first.entries))
    )
    return cb.Kernel(first.outcome_vars, first.index_vars, entries)


def _random_weights(rng: random.Random, k: int) -> list[Fraction]:
    raw = [rng.randint(1, 8) for _ in range(k)]
    return [Fraction(r, sum(raw)) for r in raw]


def _random_mixture(rng: random.Random, kernels, low=2, high=4) -> cb.Kernel:
    picks = rng.sample(range(len(kernels)), rng.randint(low, high))
    return mix(_random_weights(rng, len(picks)), [kernels[i] for i in picks])


def kernel_key(k: cb.Kernel) -> str:
    """Canonical text of a kernel, for hashing inputs."""
    return json.dumps(fileio.kernel_to_dict(k), sort_keys=True)


@dataclass
class Request:
    kind: str
    inputs: dict
    expect: dict = field(default_factory=dict)

    def key(self) -> str:
        parts = {}
        for k, v in sorted(self.inputs.items()):
            if isinstance(v, cb.Kernel):
                v = kernel_key(v)
            elif k == "argv":  # file paths differ between runs; contents are hashed apart
                v = [os.path.basename(a) for a in v]
            parts[k] = v
        return json.dumps([self.kind, parts, sorted(self.expect)], sort_keys=True, default=str)


# -- nested-chain ---------------------------------------------------------------


def chain_graph() -> cb.CausalDag:
    """V0 -> V1 -> ... -> V5; latent L0 confounds (V0, V2), L1 (V3, V5).
    56 CI records and 1 Verma record; a request takes about 0.25 s, so a
    run holds about a hundred of them."""
    names = [f"V{i}" for i in range(6)]
    vertices = [(v, cb.OBSERVED, 2) for v in names] + [("L0", cb.LATENT), ("L1", cb.LATENT)]
    edges = [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    edges += [("L0", "V0"), ("L0", "V2"), ("L1", "V3"), ("L1", "V5")]
    return cb.CausalDag(vertices, edges)


class NestedChain:
    name = "nested-chain"
    fresh_processes = False
    cycle = 3

    def prepare(self):
        g = chain_graph()
        cb.enumerate_constraints(g)
        return {"graph": g}

    def generate(self, rng, ctx, cycles=2):
        g = ctx["graph"]
        first_ci = cb.ci_constraints(g)[0]
        out = []
        for _ in range(cycles):
            # two members per non-member keeps the median inside the
            # (slower) member cluster rather than on its edge
            for kind in ("member", "non-member", "member"):
                if kind == "member":
                    joint = cb.random_network(g, rng).joint_observed()
                else:
                    # a mixture of two classical joints generically breaks CI;
                    # redraw in the measure-zero case where it does not
                    while True:
                        parts = [cb.random_network(g, rng).joint_observed() for _ in range(2)]
                        w = Fraction(rng.randint(1, 4), 5)
                        joint = mix([w, 1 - w], parts)
                        if not cb.ci_holds(joint, {first_ci.a}, {first_ci.b}, first_ci.given):
                            break
                out.append(Request(kind, {"joint": joint}))
        return out

    def run(self, req, ctx):
        g = ctx["graph"]
        joint = req.inputs["joint"]
        t0 = perf_counter()
        n = cb.check_nested(joint, g)
        t1 = perf_counter()
        i = cb.i_member(joint, g)
        t2 = perf_counter()
        return (n, i), {"N": t1 - t0, "I": t2 - t1}


# -- ns-decompose ---------------------------------------------------------------


class NsDecompose:
    name = "ns-decompose"
    fresh_processes = False
    cycle = 52

    def prepare(self):
        cb.ns_box_vertices()
        return {}

    def generate(self, rng, ctx, cycles=2):
        """Per cycle: the 24 vertices, 4 local mixtures and 24 PR-dominant
        mixtures (each PR box three times), so the median request runs a
        few LPs and does not sit on the edge between one-LP and many-LP
        requests."""
        vertices = cb.ns_box_vertices()
        locals_, prs = vertices[:16], vertices[16:]
        pr_ids = [(a, b, g) for a in (0, 1) for b in (0, 1) for g in (0, 1)]
        out = []
        for _ in range(cycles):
            for i, box in enumerate(vertices):
                pr = pr_ids[i - 16] if i >= 16 else None
                out.append(Request("vertex", {"box": box}, {"pr": pr}))
            for _ in range(4):
                out.append(Request("local", {"box": _random_mixture(rng, locals_)}, {"pr": None}))
            # a PR weight above 2/3 forces a CHSH-variant score above 3/4, so
            # exactly that PR box appears in the decomposition
            for k in list(range(8)) * 3:
                w = Fraction(rng.randint(15, 18), 20)
                box = mix([w, 1 - w], [prs[k], _random_mixture(rng, locals_)])
                out.append(Request("pr-dominant", {"box": box}, {"pr": pr_ids[k]}))
        return out

    def run(self, req, ctx):
        return cb.decompose_ns_box(req.inputs["box"]), {}


# -- cli-fixtures ---------------------------------------------------------------


class CliFixtures:
    """Each request is one fresh ``python -m causalbox.cli`` process."""

    name = "cli-fixtures"
    fresh_processes = True
    cycle = 20

    def prepare(self):
        return {}

    def generate(self, rng, ctx):
        tmp = ctx["tmp"]
        pr = cb.pr_box()
        files = {
            "chsh-graph": cb.chsh_graph(),
            "gyni-graph": cb.gyni_graph(),
            "mediation-graph": cb.mediation_graph(),
            "pr-box": pr,
            # Alice answers Bob's input: signalling, so outside NS and PS
            "signalling-box": cb.Kernel.from_function(
                pr.outcome_vars, pr.index_vars,
                lambda v: Fraction(int(v["A"] == v["Y"] and v["B"] == 0))),
            "gyni-projected": cb.gyni_projected(),
            "med-joint": cb.random_network(cb.mediation_graph(), rng).joint_observed(),
            "local-mix": _random_mixture(rng, [cb.local_box(k) for k in range(16)]),
        }
        paths = {}
        for name, obj in files.items():
            paths[name] = os.path.join(tmp, name + ".json")
            if isinstance(obj, cb.Kernel):
                fileio.dump_kernel(obj, paths[name])
            else:
                fileio.dump_graph(obj, paths[name])
            with open(paths[name]) as fh:
                ctx.setdefault("fixture_text", {})[name] = fh.read()
        ctx["fixtures"] = files
        out = []
        for (graph, dist), verdicts in KNOWN_VERDICTS.items():
            for model, member in verdicts.items():
                argv = ["member", "--model", model, "--graph", paths[graph],
                        "--dist", paths[dist], "--format", "machine"]
                expect = {"rc": cb_cli.EXIT_OK if member else cb_cli.EXIT_REJECTED,
                          "member": member,
                          "in_process": _in_process_member(model, files[graph], files[dist])}
                out.append(Request("member", {"argv": argv, "model": model,
                                              "files": [graph, dist]}, expect))
        pr_index, weights = cb.decompose_ns_box(files["pr-box"])
        out.append(Request(
            "decompose", {"argv": ["decompose-ns", "--dist", paths["pr-box"], "--format", "machine"],
                          "box": files["pr-box"]},
            {"rc": 0, "pr": pr_index}))
        records = cb.enumerate_constraints(files["mediation-graph"])
        out.append(Request(
            "constraints", {"argv": ["constraints", "enumerate", "--graph",
                                     paths["mediation-graph"], "--format", "machine"]},
            {"rc": 0, "records": [type(r).__name__ for r in records]}))
        rng.shuffle(out)
        # PS on gyni, the slowest request, runs five times per cycle, so that
        # a run of three cycles holds 15 of them and the tail (ten samples
        # beyond it) lands inside their cluster rather than on its edge
        ps_gyni = next(r for r in out if r.inputs.get("model") == "PS"
                       and r.inputs["files"][0] == "gyni-graph")
        out += [ps_gyni] * 4
        return out

    def command(self, req, spans_path: str | None):
        if spans_path:
            return [sys.executable, os.path.join(HERE, "cli_shim.py"), spans_path] + req.inputs["argv"]
        return [sys.executable, "-m", "causalbox.cli"] + req.inputs["argv"]

    def run(self, req, ctx):
        """Runs untraced, or under ``cli_shim.py`` when ctx["spans_path"] is set."""
        env = dict(os.environ, PYTHONPATH=ctx["src"])
        t0 = perf_counter()
        proc = subprocess.Popen(self.command(req, ctx.get("spans_path")), env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout = proc.stdout.read()
            stderr = proc.stderr.read()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        # wait4 rather than wait: it also returns the child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        elapsed = perf_counter() - t0
        times = {req.inputs["model"]: elapsed} if req.kind == "member" else {}
        return {"rc": proc.returncode, "stdout": stdout.decode(), "stderr": stderr.decode(),
                "maxrss_kb": usage.ru_maxrss}, times


# Verdicts known without running causalbox: the PR box breaks CHSH but is
# its own no-signalling lift; gyni_projected() is the paper's box in PS but
# not in C; a network's joint, and a mixture of the 16 local deterministic
# boxes (the classical vertices of chsh), are in C by construction; the
# signalling box breaks the CI constraint A _||_ Y | X.  The chsh and gyni
# graphs have no constraint the no-signalling boxes break, so those are in
# N and I.  PS is outside the LP's scope on the mediation graph (the CLI
# answers "unsupported" with exit 1), so it is not requested there.
KNOWN_VERDICTS = {
    ("chsh-graph", "pr-box"): {"C": False, "PS": True, "N": True, "I": True},
    ("chsh-graph", "signalling-box"): {"PS": False},
    ("chsh-graph", "local-mix"): {"C": True, "PS": True},
    ("gyni-graph", "gyni-projected"): {"C": False, "PS": True, "N": True, "I": True},
    ("mediation-graph", "med-joint"): {"C": True, "N": True, "I": True},
}


def as_joint(dist: cb.Kernel) -> cb.Kernel:
    """The joint the CLI builds from a box: uniform settings."""
    if not dist.index_vars:
        return dist
    return cb.join_inputs(dist, cb.uniform_table(dist.index_vars))


def _in_process_member(model, graph, dist) -> bool:
    """The library's own verdict, computed once per run before timing."""
    if model == "C":
        return cb.classical_member(dist, graph).member
    member = {"PS": cb.ps_member, "N": cb.check_nested, "I": cb.i_member}[model]
    return member(as_joint(dist), graph).member


WORKLOADS = {w.name: w for w in (NestedChain(), NsDecompose(), CliFixtures())}
