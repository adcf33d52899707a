"""synchrokit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload {sweep-exhaustive,sweep-random,queries} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced pass (see README.md).  A fuller record of the run is
written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import oracle
import workloads as W
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"

SETUP_REPEATS = 9


def log(message):
    print(message, file=sys.stderr, flush=True)


def import_package():
    """Import synchrokit afresh from src/ (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "synchrokit" or m.startswith("synchrokit.")]:
        del sys.modules[name]
    return importlib.import_module("synchrokit")


def build_inputs(sk, spec, seed):
    if isinstance(spec, W.QuerySpec):
        return {"requests": W.build_requests(spec, seed)}
    return {
        "scope": W.sweep_scope(sk, spec, seed),
        "ids": W.sweep_ids(sk, spec),
        "requests": W.build_requests(spec.probe, seed),
    }


def setup(spec, seed):
    """Import and input generation, repeated, with calibration bursts
    between; returns (median s scaled to the reference host, package,
    inputs)."""
    times = []
    clock = W.HostClock()
    for _ in range(SETUP_REPEATS):
        clock.burst(2)
        start = perf_counter()
        sk = import_package()
        inputs = build_inputs(sk, spec, seed)
        times.append(perf_counter() - start)
    clock.burst(2)
    return statistics.median(times) * clock.scale(), sk, inputs


def peak_rss_mb():
    """Largest peak RSS of this process and its waited-for children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Operations attempted and failed, and whether every output checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add_queries(self, result):
        self.attempted += result.attempted
        self.failed += result.failed
        if result.wrong:
            self.correct = False

    def add_sweep(self, reports, total, nonpermutation, ops):
        """Count one sweep round; a theorem whose report fails a check fails
        all of its (automaton, theorem) operations."""
        self.attempted += ops
        problems = oracle.check_sweep(reports, total, nonpermutation)
        for tid, found in problems.items():
            log(f"sweep output check failed for {tid}: {'; '.join(found)}")
            self.failed += total
            self.correct = False


def run_sweep_rounds(sk, spec, inputs, seconds, tally):
    """Rounds of one run_checks pass and the probe batteries, until the time
    is up; (median scaled pass s, probe rounds, detail)."""
    scope, ids, requests = inputs["scope"], inputs["ids"], inputs["requests"]
    clear = sk.power.subset_image_tables.cache_clear
    ops = scope.total * len(ids)
    nonpermutation = W.nonpermutation_count(sk, spec, scope)
    passes = []
    probes = []
    start = perf_counter()
    while True:
        try:
            elapsed, scale, bursts, reports = W.calibrated_sweep_round(sk, ids, scope)
        except Exception as exc:  # counted as failed operations, the run goes on
            log(f"run_checks raised {exc!r}")
            tally.attempted += ops
            tally.failed += ops
        else:
            passes.append((elapsed, scale, bursts))
            tally.add_sweep(reports, scope.total, nonpermutation, ops)
        for _ in range(spec.probe_batteries):
            probes.append(W.query_round(sk, requests, clear, log))
            tally.add_queries(probes[-1])
        if perf_counter() - start >= seconds:
            break
    pass_s = statistics.median(e * s for e, s, _ in passes) if passes else float("inf")
    detail = {"passes": [{"s": e, "scale": s, "bursts": b} for e, s, b in passes]}
    return pass_s, probes, detail


def run_query_rounds(sk, inputs, seconds, tally):
    """Rounds of every request, until the time is up; (rounds, detail)."""
    clear = sk.power.subset_image_tables.cache_clear
    requests = inputs["requests"]
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(W.query_round(sk, requests, clear, log))
        tally.add_queries(rounds[-1])
        if perf_counter() - start >= seconds:
            break
    return rounds, {}


def end_to_end(sk, spec, inputs, seconds, tally):
    """The timed rounds; every time is scaled to the reference host by the
    calibration bursts of its round (see workloads.HostClock)."""
    requests = inputs["requests"]
    if isinstance(spec, W.QuerySpec):
        rounds, detail = run_query_rounds(sk, inputs, seconds, tally)
    else:
        pass_s, rounds, detail = run_sweep_rounds(sk, spec, inputs, seconds, tally)
    by_group = W.group_seconds(requests, rounds)
    if isinstance(spec, W.QuerySpec):
        rate = len(requests) / sum(by_group.values())
    else:
        rate = inputs["scope"].total / pass_s
    metrics = {"automata_per_s": (rate, "1/s")}
    for group, value in by_group.items():
        metrics[f"{group}_s"] = (value, "s")
    detail.update(verbs=[req.verb for req in requests],
                  rounds=[{"latencies": r.latencies, "scale": r.scale, "bursts": r.bursts}
                          for r in rounds])
    return metrics, detail


# -- traced run ---------------------------------------------------------------

PER_LAYER_SPANS = (
    "structure.satisfies_corank2_hypothesis",
    "structure.extract_certificate",
    "structure.validate_certificate",
    "structure.classify_pinlem",
    "construct.corank3_word",
    "construct.sync_pipeline",
    "construct.franklpin_word",
    "extremal.assert_equivalence",
    "extremal.pincor_check",
    "power.rank",
    "power.shortest_compressing_word",
    "automaton.load_dfa",
)


def per_layer_metrics(sk, tracer, reports):
    """Every per-layer metric; layers the workload does not reach read 0."""
    m = {
        "harness.population.automata": (tracer.calls("harness.population"), "count"),
        "harness.population.self_s": (tracer.self_s("harness.population"), "s"),
        "harness.merge.self_s": (tracer.self_s("harness.merge"), "s"),
        "checks.subset_images.calls": (tracer.calls("checks.subset_images"), "count"),
        "checks.subset_images.self_s": (tracer.self_s("checks.subset_images"), "s"),
        "checks.forward.builds": (tracer.calls("checks.forward"), "count"),
        "checks.forward.self_s": (tracer.self_s("checks.forward"), "s"),
        "checks.backward_within.calls": (tracer.calls("checks.backward_within"), "count"),
        "checks.backward_within.self_s": (tracer.self_s("checks.backward_within"), "s"),
        "checks.greedy_flags.self_s": (tracer.self_s("checks.greedy_flags"), "s"),
        "checks.bfs_stage.calls": (tracer.calls("checks.bfs_stage"), "count"),
        "checks.bfs_stage.self_s": (tracer.self_s("checks.bfs_stage"), "s"),
    }
    for tid in sk.harness.THEOREM_IDS:
        m[f"checks.{tid}.self_s"] = (tracer.self_s(f"checks.{tid}"), "s")
        applicable = reports[tid]["applicable"] if reports and tid in reports else 0
        m[f"checks.{tid}.applicable"] = (applicable, "count")
    for name in PER_LAYER_SPANS:
        m[f"{name}.calls"] = (tracer.calls(name), "count")
        m[f"{name}.self_s"] = (tracer.self_s(name), "s")
    m["power.subset_image_tables.self_s"] = (tracer.self_s("power.subset_image_tables"), "s")
    pipelines = tracer.calls("construct.sync_pipeline")
    m["power.rank_per_pipeline"] = (
        tracer.rank_in_pipeline / pipelines if pipelines else 0.0, "ratio")
    return m


def traced_run(sk, spec, inputs, tally):
    """An untraced and a traced pass of one round at jobs=1; per-layer
    metrics come from the traced pass, the overhead from the two walls."""
    clear = sk.power.subset_image_tables.cache_clear
    tracer = Tracer()
    detail = {}
    if isinstance(spec, W.QuerySpec):
        plain = W.query_round(sk, inputs["requests"], clear, log)
        tally.add_queries(plain)
        tracer.install(sk)
        try:
            traced = W.query_round(sk, inputs["requests"], clear, log)
        finally:
            tracer.uninstall()
        tally.add_queries(traced)
        untraced_s, traced_s = sum(plain.latencies), sum(traced.latencies)
        reports = None
    else:
        scope, ids = inputs["scope"], inputs["ids"]
        nonpermutation = W.nonpermutation_count(sk, spec, scope)
        ops = scope.total * len(ids)
        untraced_s, plain_reports = W.sweep_round(sk, ids, scope, 1)
        tally.add_sweep(plain_reports, scope.total, nonpermutation, ops)
        tracer.install(sk)
        try:
            traced_s, reports = W.sweep_round(sk, ids, scope, 1)
        finally:
            tracer.uninstall()
        tally.add_sweep(reports, scope.total, nonpermutation, ops)
        # Reports must not depend on tracing, nor on the job count.
        comparisons = [("untraced jobs=1", plain_reports)]
        if spec.check_jobs:
            _, pooled = W.sweep_round(sk, ids, scope, spec.check_jobs)
            tally.add_sweep(pooled, scope.total, nonpermutation, ops)
            comparisons.append((f"jobs={spec.check_jobs}", pooled))
        for label, other in comparisons:
            if W.render(other) != W.render(reports):
                log(f"{label} report differs from the traced jobs=1 report")
                tally.failed += ops
                tally.correct = False
        detail["reports"] = reports
    metrics = per_layer_metrics(sk, tracer, reports)
    metrics["tracing.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    detail.update(untraced_s=untraced_s, traced_s=traced_s,
                  spans={name: rec for name, rec in sorted(tracer.stats.items())})
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "synchrokit" / "__init__.py").is_file():
        log(f"package source not found under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, str(SRC))
    spec = W.WORKLOADS[args.workload]

    setup_s, sk, inputs = setup(spec, args.seed)
    tally = Tally()
    if args.trace:
        metrics, detail = traced_run(sk, spec, inputs, tally)
    else:
        metrics, detail = end_to_end(sk, spec, inputs, args.seconds, tally)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"args": vars(args), "result": result, "detail": detail},
                                 indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
