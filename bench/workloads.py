"""The benchmark's workloads: population sweeps and single-automaton queries.

A workload is built from the seed into plain data (a scope, a list of
requests); the package is reached only through its public functions,
looked up on the package at call time so that a tracer's wrappers apply.
"""

from __future__ import annotations

import gc
import json
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter

import oracle

# The eight ids of the acceptance suite's five-state sweep, plus corank3.
RANDOM_SWEEP_IDS = (
    "corank3",
    "franklpin",
    "corank2-cert",
    "lemmaX",
    "greedy-equiv",
    "pinlem",
    "pinlem-converse",
    "pincor",
    "greedy-stages",
)


@dataclass(frozen=True)
class SweepSpec:
    """One run_checks pass per round, then a small fixed query probe."""

    n: int
    k: int
    theorem_ids: tuple | None  # None: every theorem id
    check_jobs: int | None  # traced run: a pass at this job count must match
    samples: int | None  # None: exhaustive
    probe: QuerySpec
    probe_batteries: int  # probe repeats per round, so a run holds a dozen or more


@dataclass(frozen=True)
class QuerySpec:
    """Single-automaton requests: Cerny C_n for the rank, compress and
    pipeline verbs; the certified family for the certificate verbs."""

    cerny: range
    extremal_identity: range
    extremal_plain: range
    certified_cerny: range
    relabelings: int


# The sweeps' probe stays within the table-backed sizes (n <= 13).
_PROBE = QuerySpec(range(8, 14), range(5, 11), range(4, 11), range(4, 11), 1)

WORKLOADS = {
    "sweep-exhaustive": SweepSpec(
        n=4, k=2, theorem_ids=None, check_jobs=2, samples=None, probe=_PROBE,
        probe_batteries=8,
    ),
    "sweep-random": SweepSpec(
        n=5, k=2, theorem_ids=RANDOM_SWEEP_IDS, check_jobs=None, samples=10_000, probe=_PROBE,
        probe_batteries=1,
    ),
    "queries": QuerySpec(range(8, 16), range(5, 14), range(4, 14), range(4, 14), 3),
}


# -- sweeps -------------------------------------------------------------------


def sweep_scope(sk, spec, seed):
    if spec.samples is None:
        return sk.EnumerationScope(n=spec.n, k=spec.k)
    return sk.EnumerationScope(
        n=spec.n, k=spec.k, mode="random", sample_count=spec.samples, rng_seed=seed
    )


def sweep_ids(sk, spec):
    return tuple(sk.harness.THEOREM_IDS) if spec.theorem_ids is None else spec.theorem_ids


def nonpermutation_count(sk, spec, scope):
    """Reference count of automata with a non-permutation letter, from the
    closed form (exhaustive) or the public enumeration stream (random)."""
    if spec.samples is None:
        return oracle.exhaustive_nonpermutation_count(spec.n, spec.k)
    return sum(
        1
        for dfa in sk.enumerate_dfas(scope)
        if not all(oracle.is_permutation(table) for table in dfa.letters)
    )


def sweep_round(sk, ids, scope, jobs):
    """(seconds, canonical report JSON by theorem id) of one run_checks call."""
    start = perf_counter()
    reports = sk.run_checks(ids, scope, jobs=jobs)
    elapsed = perf_counter() - start
    return elapsed, {tid: reports[tid].to_json() for tid in ids}


def render(reports):
    return json.dumps(reports, sort_keys=True)


# -- queries ------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    verb: str
    text: str
    tables: tuple  # 0-based, for the reference checks


def _rank(sk, text):
    return sk.rank(sk.load_dfa(text))


def _compress(sk, text):
    dfa = sk.load_dfa(text)
    return sk.shortest_compressing_word(dfa, dfa.full_set(), 1).word


def _pipeline(sk, text):
    return sk.sync_pipeline(sk.load_dfa(text))


def _structure(sk, text):
    dfa = sk.load_dfa(text)
    hypothesis = sk.satisfies_corank2_hypothesis(dfa)
    cert = sk.extract_certificate(dfa)
    return hypothesis, sk.validate_certificate(dfa, cert).all_pass


def _construct(sk, text):
    dfa = sk.load_dfa(text)
    word, _tag = sk.corank3_word(dfa, sk.extract_certificate(dfa))
    return word


def _classify(sk, text):
    dfa = sk.load_dfa(text)
    return sk.classify_pinlem(dfa, sk.extract_certificate(dfa)).total


def _equivalence(sk, text):
    return sk.assert_equivalence(sk.load_dfa(text)).conditions


def _pincor(sk, text):
    dfa = sk.load_dfa(text)
    return sk.pincor_check(dfa, sk.extract_certificate(dfa))


# verb -> (metric group, request, reference check)
VERBS = {
    "rank": ("rank", _rank, oracle.check_rank),
    "compress": ("compress", _compress, oracle.check_compress),
    "pipeline": ("pipeline", _pipeline, oracle.check_pipeline),
    "structure": ("certify", _structure, oracle.check_structure),
    "construct": ("certify", _construct, oracle.check_construct),
    "classify": ("certify", _classify, oracle.check_classify),
    "greedy-conditions": ("certify", _equivalence, oracle.check_equivalence),
    "pincor": ("certify", _pincor, oracle.check_pincor),
}
GROUPS = ("rank", "compress", "pipeline", "certify")

_CERT_VERBS = ("structure", "construct", "classify", "pincor")


def build_requests(spec, seed):
    """The request list: every automaton relabelled by seeded permutations."""
    requests = []

    def add(family, n, tables, names, verbs, copies):
        for copy in range(copies):
            rng = oracle.seeded_rng(seed, family, n, copy)
            relabeled = oracle.relabel(tables, rng)
            text = oracle.to_text(relabeled, names)
            requests.extend(Request(verb, text, relabeled) for verb in verbs)

    for n in spec.cerny:
        add("cerny", n, oracle.cerny_tables(n), None, ("rank", "compress", "pipeline"), 1)
    for n in spec.certified_cerny:
        add("cerny-cert", n, oracle.cerny_tables(n), None, _CERT_VERBS, spec.relabelings)
    for identity, ns in ((True, spec.extremal_identity), (False, spec.extremal_plain)):
        for n in ns:
            tables, names = oracle.extremal_tables(n, identity)
            add(f"extremal-{identity}", n, tables, names,
                _CERT_VERBS + ("greedy-conditions",), spec.relabelings)
    return requests


@dataclass
class QueryRound:
    latencies: list  # measured seconds per request, in request order
    scale: float = 1.0  # HostClock scale of the round
    bursts: list = None  # its calibration bursts, seconds
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


def query_round(sk, requests, clear_tables, log):
    """Issue every request in turn (one client, closed loop).

    ``clear_tables`` empties the subset-image table cache before each
    request, so each pays the table build a fresh CLI invocation pays.
    Only the request itself is timed; its output is checked afterwards.
    Calibration bursts run every few requests, for the round's scale.
    """
    result = QueryRound(latencies=[])
    clock = HostClock()
    for i, req in enumerate(requests):
        if i % BURST_EVERY == 0:
            clock.burst()
        _group, call, check = VERBS[req.verb]
        result.attempted += 1
        clear_tables()
        start = perf_counter()
        try:
            out = call(sk, req.text)
        except Exception as exc:  # a failed request is counted, not fatal
            result.latencies.append(perf_counter() - start)
            result.failed += 1
            log(f"{req.verb} failed on {req.text!r}: {exc!r}")
            continue
        result.latencies.append(perf_counter() - start)
        problems = check(req.tables, out)
        if problems:
            result.failed += 1
            result.wrong += 1
            log(f"{req.verb} wrong on {req.text!r}: {'; '.join(problems)}")
    clock.burst()
    result.scale, result.bursts = clock.scale(), clock.bursts
    return result


def group_seconds(requests, rounds):
    """Per verb group, the sum over requests of each request's median
    scaled latency across rounds."""
    totals = {group: 0.0 for group in GROUPS}
    for i, req in enumerate(requests):
        totals[VERBS[req.verb][0]] += statistics.median(r.latencies[i] * r.scale for r in rounds)
    return totals


# -- host speed ---------------------------------------------------------------

# One calibration burst takes about this long on the reference host (the
# 2-CPU machine of README.md's reference figures).
REFERENCE_BURST_S = 0.0025
BURST_EVERY = 8  # requests between bursts within a query round
SAMPLE_PERIOD_S = 0.1  # pause between bursts during a sweep pass
_CALIBRATION_TABLES = oracle.cerny_tables(10)


def calibration_burst():
    """Seconds taken by the reference code's own subset search (the shortest
    reset word of C_10 by breadth-first search over frozensets): work of
    the same kind as the package's, in code no change to the package
    touches.  The cyclic collector is off meanwhile, so that the objects
    the package keeps alive do not enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        oracle.shortest_distance(_CALIBRATION_TABLES, 1)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Converts measured seconds into seconds on the reference host.

    The benchmark's host is shared, and its speed drifts by up to 1.5x
    over minutes, more than any bound on a run's figures; it drifts alike
    for the package and for the benchmark's own subset search.  So
    calibration bursts run between and around timed stretches of work,
    and ``scale()`` is the reference burst time over the median of those
    bursts: a time measured among them, multiplied by it, is that time on
    a host of the reference speed.
    """

    def __init__(self):
        self.bursts = []

    def burst(self, count=1):
        for _ in range(count):
            self.bursts.append(calibration_burst())

    def scale(self):
        return REFERENCE_BURST_S / statistics.median(self.bursts)


def calibrated_sweep_round(sk, ids, scope):
    """sweep_round at jobs=1 with calibration bursts taken all through it;
    (measured seconds, scale, bursts, reports).

    A pass is one long call, so a thread of the benchmark's own runs a
    burst every SAMPLE_PERIOD_S while it lasts; the bursts take the
    interpreter lock from the pass for about 3% of its time.  Timed passes
    run at jobs=1, on one CPU like the bursts: the speed of a pass on a
    pool of processes, one per CPU, drifts with the state of the other
    CPU, which no burst follows (README.md, "Noise").
    """
    clock = HostClock()
    stop = threading.Event()

    def sample():
        while not stop.wait(SAMPLE_PERIOD_S):
            clock.burst()

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        elapsed, reports = sweep_round(sk, ids, scope, 1)
    finally:
        stop.set()
        sampler.join()
    if not clock.bursts:  # a pass shorter than one period
        clock.burst()
    return elapsed, clock.scale(), clock.bursts, reports
