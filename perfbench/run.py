"""causalbox benchmark: one closed-loop client, one process, no threads.

Usage (from the repository root):

    python3 perfbench/run.py --workload nested-chain --seed 1 --seconds 30 --trace 0

Workloads are defined in ``workloads.py``; the metric list and its units
live in ``BENCHMARK.json`` at the repository root.  With ``--trace 0`` the
run measures the end-to-end metrics with no tracing.  With ``--trace 1``
it spends the first half of ``--seconds`` untraced and the second half with
the tracer's wrappers installed, and reports per-layer metrics plus the
tracing overhead.

The speed of a shared machine drifts by tens of percent within minutes, so
every latency is normalized by a gauge: a fixed loop of ``Fraction``
additions, timed before each request, after the last one and around each
set-up probe.  The gauge runs the way the timed work runs: in this process
for library requests, in a fresh interpreter for CLI requests and set-up
probes.  A time ``t`` between gauge readings ``g0`` and ``g1`` is reported
as ``t * ref / mean(g0, g1)``, seconds on a machine on which the gauge
takes ``ref`` (``GAUGE_REF_S``).  Span self times are raw wall seconds.

Every output is checked (``checks.py``); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the seed, a hash of the generated
inputs and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("nested-chain", "ns-decompose", "cli-fixtures")
SETUP_PROBES = 11
GAUGE_SOURCE = (
    "from fractions import Fraction\n"
    "total = Fraction(0)\n"
    "for i in range(1, 2000):\n"
    "    total += Fraction(1, i % 97 + 1)\n"
)
GAUGE_CODE = compile(GAUGE_SOURCE, "<gauge>", "exec")
GAUGE_REF_S = {False: 0.009, True: 0.090}  # keyed by ``fresh``


@dataclass
class Sample:
    index: int
    request: object
    output: object
    seconds: float  # wall time
    scale: float  # the gauge's reference time over the mean of the readings around the request
    model_seconds: dict
    error: str | None

    @property
    def norm_seconds(self) -> float:
        return self.seconds * self.scale


def gauge(fresh: bool) -> float:
    """Wall seconds of the gauge loop, in this process or, if ``fresh``, in
    a fresh interpreter (its start-up included)."""
    t0 = perf_counter()
    if fresh:
        subprocess.run([sys.executable, "-c", GAUGE_SOURCE], check=True)
    else:
        exec(GAUGE_CODE, {})
    return perf_counter() - t0


def scale(fresh: bool, before: float, after: float) -> float:
    return 2 * GAUGE_REF_S[fresh] / (before + after)


def quantiles(values):
    """(median, tail, tail percentile, n): the tail is the latency with
    exactly ten samples above it, or the maximum below eleven samples."""
    s = sorted(values)
    n = len(s)
    if not n:
        return 0.0, 0.0, 0.0, 0
    if n > 10:
        return statistics.median(s), s[n - 11], 100.0 * (n - 10) / n, n
    return statistics.median(s), s[-1], 100.0, n


def probe_setup(name: str) -> tuple[float, float]:
    """Median normalized set-up seconds and raw import seconds over fresh
    interpreters.

    Library workloads: import causalbox plus the workload's preparation,
    timed inside the child.  CLI workload: wall time of a fresh process
    that imports causalbox.cli.  One discarded warm-up run first.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), name]
    bare = [sys.executable, "-c", "import causalbox.cli"]
    setups, imports = [], []
    before = gauge(True)
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        # no timeout: with one, waiting polls every 50 ms and quantizes the wall time
        if name == "cli-fixtures":
            subprocess.run(bare, env=env, check=True)
            seconds = perf_counter() - t0
            imports.append(0.0)
        else:
            out = subprocess.run(probe, env=env, check=True, capture_output=True, text=True)
            doc = json.loads(out.stdout.strip().splitlines()[-1])
            seconds = doc["import_s"] + doc["prep_s"]
            imports.append(doc["import_s"])
        after = gauge(True)
        setups.append(seconds * scale(True, before, after))
        before = after
    return statistics.median(setups[1:]), statistics.median(imports[1:])


def measure(workload, ctx, pool, seconds, spans_dir=None, tracer=None):
    """Closed loop over ``pool`` in order, with a gauge reading between
    requests.  Stops at a cycle boundary once ``seconds`` of normalized time
    (requests and gauges) have passed, so that the number of cycles does not
    follow the machine's drift, or once twice that has passed on the wall
    clock."""
    samples = []
    start = perf_counter()
    fresh = workload.fresh_processes
    before = gauge(fresh)
    elapsed = 0.0
    i = 0
    while True:
        req = pool[i % len(pool)]
        ctx["spans_path"] = os.path.join(spans_dir, f"{i}.json") if spans_dir else None
        if tracer is not None:
            tracer.request = i
        t0 = perf_counter()
        try:
            output, model_seconds = workload.run(req, ctx)
            error = None
        except Exception:  # a failed request is counted, not fatal
            output, model_seconds, error = None, {}, traceback.format_exc()
        t1 = perf_counter()
        after = gauge(fresh)
        k = scale(fresh, before, after)
        samples.append(Sample(i, req, output, t1 - t0, k, model_seconds, error))
        elapsed += (t1 - t0 + after) * k
        before = after
        i += 1
        if i % workload.cycle == 0 and (elapsed >= seconds
                                        or perf_counter() - start >= 2 * seconds):
            return samples


def check(name, ctx, samples) -> int:
    from checks import CHECKS

    failed = 0
    # Inputs repeat every cycle and the checker is deterministic, so an
    # output seen before has the same verdict.  Uncached, nested-chain spent
    # about 8 s checking the ~110 samples of a 30-s run (6 distinct inputs).
    verdicts = {}
    for s in samples:
        if s.error:
            problems = [s.error]
        else:
            key = (id(s.request), repr(s.output))
            if key not in verdicts:
                verdicts[key] = CHECKS[name](s.request, s.output, ctx)
            problems = verdicts[key]
        if problems:
            failed += 1
            if failed <= 5:
                print(f"request {s.index} ({s.request.kind}) failed: {problems[:3]}", file=sys.stderr)
    return failed


def model_metrics(samples) -> dict:
    out = {}
    for model in ("C", "PS", "N", "I"):
        times = [s.model_seconds[model] * s.scale for s in samples if model in s.model_seconds]
        p50, tail, _, _ = quantiles(times)
        out[f"{model}_p50_s"] = (p50, "s")
        out[f"{model}_tail_s"] = (tail, "s")
    return out


def kind_medians(samples) -> dict:
    by_kind = defaultdict(list)
    for s in samples:
        by_kind[s.request.kind].append(s.norm_seconds)
    return {k: statistics.median(v) for k, v in sorted(by_kind.items())}


def end_to_end(name, samples, setup_s) -> dict:
    norm = [s.norm_seconds for s in samples]
    p50, tail, _, _ = quantiles(norm)
    if name == "cli-fixtures":
        rss_kb = max(s.output["maxrss_kb"] for s in samples if s.output)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "req_p50_s": (p50, "s"),
        "req_tail_s": (tail, "s"),
        "req_per_s": (len(norm) / sum(norm), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def _merge_counts(total: Counter, part: dict) -> None:
    for key, value in part.items():
        if key in ("lp.bits_max", "vertices", "records_ci", "records_verma"):
            total[key] = max(total[key], value)
        else:
            total[key] += value


def layer_metrics(span_sets, counts_sets, traced, untraced, import_s) -> dict:
    """Per-layer metrics from spans grouped by request id.

    ``span_sets`` is a list of span lists (one per process); a span's
    request id is an int for a measured request, or "setup" / "gen".
    Request-path metrics are per traced request; ``setup.*`` metrics cover
    the in-process preparation once.
    """
    from tracer import self_times

    n = max(len(traced), 1)
    self_s = defaultdict(float)
    calls = Counter()
    req_self = defaultdict(float)
    lp_in_decompose = 0
    for spans in span_sets:
        for span, own in zip(spans, self_times(spans)):
            name, _, _, parent, request = span
            scope = "req" if isinstance(request, int) else request
            self_s[scope, name] += own
            calls[scope, name] += 1
            if scope == "req":
                req_self[request] += own
            if name == "lp_solve":
                while parent >= 0 and spans[parent][0] != "decompose_ns_box":
                    parent = spans[parent][3]
                lp_in_decompose += parent >= 0
    req_counts, all_counts = Counter(), Counter()
    for counts in counts_sets:
        for request, part in counts.items():
            _merge_counts(all_counts, part)
            if request not in ("setup", "gen"):
                _merge_counts(req_counts, part)

    def per_req(name, what=self_s):
        return what["req", name] / n

    lp_calls = calls["req", "lp_solve"]
    decompositions = calls["req", "decompose_ns_box"]
    mean_u = statistics.fmean(s.norm_seconds for s in untraced)
    mean_t = statistics.fmean(s.norm_seconds for s in traced)
    cover = max((req_self[s.index] / s.seconds for s in traced), default=0.0)
    return {
        "lp_solve.calls": (per_req("lp_solve", calls), "count"),
        "lp_solve.self_s": (per_req("lp_solve"), "s"),
        "lp_rows": (req_counts["lp.rows"] / max(lp_calls, 1), "count"),
        "lp_cols": (req_counts["lp.cols"] / max(lp_calls, 1), "count"),
        "lp_nnz_frac": (req_counts["lp.nnz"] / max(req_counts["lp.cells"], 1), "ratio"),
        "lp_infeasible_frac": (req_counts["lp.infeasible"] / max(lp_calls, 1), "ratio"),
        "lp_result_bits_max": (req_counts["lp.bits_max"], "bits"),
        "ps_system.self_s": (per_req("ps_system"), "s"),
        "ps_member.self_s": (per_req("ps_member"), "s"),
        "enumerate_classical_vertices.self_s": (per_req("enumerate_classical_vertices"), "s"),
        "vertices": (all_counts["vertices"], "count"),
        "classical_member.self_s": (per_req("classical_member"), "s"),
        "decompose_ns_box.self_s": (per_req("decompose_ns_box"), "s"),
        "decompose_lp_useful_frac": (decompositions / lp_in_decompose if lp_in_decompose else 0.0,
                                     "ratio"),
        "ns_box_vertices.calls": (per_req("ns_box_vertices", calls), "count"),
        "ns_box_vertices.self_s": (per_req("ns_box_vertices"), "s"),
        "kernels_built": (per_req("Kernel", calls), "count"),
        "construct.self_s": (sum(per_req(k) for k in
                                 ("Kernel", "Kernel.from_function", "Kernel.from_mapping")), "s"),
        "marginalize.calls": (per_req("marginalize", calls), "count"),
        "marginalize.self_s": (per_req("marginalize"), "s"),
        "join_inputs.self_s": (per_req("join_inputs"), "s"),
        "project.self_s": (per_req("project"), "s"),
        "split_joint.self_s": (per_req("split_joint"), "s"),
        "d_separated.calls": (per_req("d_separated", calls), "count"),
        "d_separated.self_s": (per_req("d_separated"), "s"),
        "ci_constraints.self_s": (per_req("ci_constraints"), "s"),
        "setup.d_separated.calls": (calls["setup", "d_separated"], "count"),
        "setup.d_separated.self_s": (self_s["setup", "d_separated"], "s"),
        "setup.ci_constraints.self_s": (self_s["setup", "ci_constraints"], "s"),
        "enumerate_constraints.self_s": (per_req("enumerate_constraints"), "s"),
        "setup.enumerate_constraints.self_s": (self_s["setup", "enumerate_constraints"], "s"),
        "records_ci": (all_counts["records_ci"], "count"),
        "records_verma": (all_counts["records_verma"], "count"),
        "check_nested.self_s": (per_req("check_nested"), "s"),
        "i_member.self_s": (per_req("i_member"), "s"),
        "Evaluator.evaluate.calls": (per_req("Evaluator.evaluate", calls), "count"),
        "Evaluator.evaluate.self_s": (per_req("Evaluator.evaluate"), "s"),
        "simplify.self_s": (per_req("simplify"), "s"),
        "gen.joint_observed.self_s": (self_s["gen", "joint_observed"], "s"),
        "import_s": (import_s, "s"),
        "dispatch.self_s": (per_req("dispatch"), "s"),
        "load.self_s": (per_req("load"), "s"),
        "emit.self_s": (per_req("emit"), "s"),
        "trace.overhead_frac": (mean_t / mean_u - 1.0, "ratio"),
        "trace.self_cover_max": (cover, "ratio"),
    }


def load_child_spans(spans_dir, samples):
    """Spans written by cli_shim.py, tagged with their request index."""
    span_sets, counts_sets, imports = [], [], []
    for s in samples:
        path = os.path.join(spans_dir, f"{s.index}.json")
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            doc = json.load(fh)
        for span in doc["spans"]:
            span[4] = s.index
        span_sets.append(doc["spans"])
        counts_sets.append({s.index: c for c in doc["counts"].values()})
        imports.append(doc["import_s"])
    return span_sets, counts_sets, imports


def input_hash(seed, pool, ctx) -> str:
    h = hashlib.sha256(str(seed).encode())
    for req in pool:
        h.update(req.key().encode())
    h.update(json.dumps(ctx.get("fixture_text", {}), sort_keys=True).encode())
    return h.hexdigest()


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "lp_backend": "gmpy2.mpq" if importlib.util.find_spec("gmpy2") else "fractions.Fraction",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "causalbox", "__init__.py")):
        print(f"error: causalbox sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    import causalbox

    if not os.path.abspath(causalbox.__file__).startswith(SRC + os.sep):
        print(f"error: imported causalbox from {causalbox.__file__}, not {SRC}", file=sys.stderr)
        return 1
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_s, import_s = probe_setup(workload.name)
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
            tracer.request = "setup"
        ctx = workload.prepare()
        ctx.update(src=SRC, tmp=tmp)
        t0 = perf_counter()
        if tracer:
            tracer.request = "gen"
        pool = workload.generate(random.Random(args.seed), ctx)
        gen_s = perf_counter() - t0
        if tracer:
            tracer.uninstall()
        record = dict(machine_record(), workload=workload.name, seed=args.seed,
                      inputs_sha256=input_hash(args.seed, pool, ctx), inputs=len(pool),
                      gen_s=gen_s, setup_probes=SETUP_PROBES)
        if not args.trace:
            samples = measure(workload, ctx, pool, args.seconds)
            metrics = end_to_end(workload.name, samples, setup_s)
            _, _, pct, n = quantiles([s.seconds for s in samples])
            record.update(requests=n, tail_percentile=pct, tail_samples_beyond=min(n, 10),
                          kind_p50_s=kind_medians(samples),
                          raw_req_p50_s=statistics.median(s.seconds for s in samples),
                          gauge_p50_s=GAUGE_REF_S[workload.fresh_processes]
                          / statistics.median(s.scale for s in samples))
            attempted = samples
        else:
            untraced = measure(workload, ctx, pool, args.seconds / 2)
            spans_dir = None
            if workload.name == "cli-fixtures":
                spans_dir = os.path.join(tmp, "spans")
                os.makedirs(spans_dir)
            else:
                tracer.install()
            try:
                traced = measure(workload, ctx, pool, args.seconds / 2,
                                            spans_dir=spans_dir, tracer=tracer)
            finally:
                tracer.uninstall()
            span_sets, counts_sets = [tracer.spans], [tracer.counts]
            if spans_dir:
                child_spans, child_counts, imports = load_child_spans(spans_dir, traced)
                span_sets += child_spans
                counts_sets += child_counts
                import_s = statistics.median(imports) if imports else 0.0
            metrics = layer_metrics(span_sets, counts_sets, traced, untraced, import_s)
            metrics.update(model_metrics(untraced))
            record.update(requests_untraced=len(untraced), requests_traced=len(traced))
            attempted = untraced + traced
        t0 = perf_counter()
        failed = check(workload.name, ctx, attempted)
        record["check_s"] = perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
