"""Population sweeps with deterministic, mergeable verification reports.

Exhaustive mode covers every k-tuple of transition tables (within a work
budget) by checking one automaton per orbit of the symmetric group S_n,
which renumbers the states: the lexicographically least member of the
orbit, counted with its orbit size n!/|stabiliser| as weight.  No check
depends on the state names, so counts and stats are those of the literal
sweep; where a representative violates a check, the check is re-run on
every member of its orbit, since a counterexample's data names states.
``enumerate_dfas`` streams the literal population in lexicographic
order.  Random mode draws seeded uniform function ids, each of weight 1.
Both modes read a function id's table, and up to five states its
subset-image table, from one per-process lookup.  Work is split into
blocks verified independently -- possibly by a process pool -- and
merged into one report per theorem.  Reports are byte-identical for
identical scope and seed, regardless of the number of jobs: counts are
summed and counterexamples are sorted by their serialized form.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from operator import mul

from .automaton import MAX_STATES, Dfa
from .checks import CHECKS, THEOREM_IDS, Auto
from .power import subset_images_for_table
from .errors import (BudgetExceeded, CertificateContradiction, ConstructionContradiction,
                     TheoremViolation)

__all__ = [
    "THEOREM_IDS",
    "EnumerationScope",
    "VerificationReport",
    "enumerate_dfas",
    "random_dfa",
    "run_check",
    "run_checks",
]

_BLOCK = 16384
_DEFAULT_BUDGET = 10_000_000
# The sweep kernel works on full subset-image tables, which enumerate the
# whole subset lattice, so sweeps are capped at this many states.
_TABLE_LIMIT = 13


@dataclass(frozen=True)
class EnumerationScope:
    """What population to sweep: exhaustive n^(n*k) or seeded random draws."""

    n: int
    k: int
    mode: str = "exhaustive"
    sample_count: int | None = None
    rng_seed: int | None = None
    work_budget: int | None = None  # exhaustive mode; None: _DEFAULT_BUDGET

    def __post_init__(self):
        if not 1 <= self.n <= _TABLE_LIMIT:
            raise ValueError(f"state count {self.n} out of range 1..{_TABLE_LIMIT} for a sweep")
        if self.k < 1:
            raise ValueError("letter count must be at least 1")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "random":
            if self.sample_count is None or self.sample_count < 1:
                raise ValueError("random mode needs sample_count >= 1")
            if self.rng_seed is None:
                raise ValueError("random mode needs an explicit rng_seed")
            if self.rng_seed < 0:
                # random.Random seeds with |seed|, so -s would draw the population of s.
                raise ValueError("rng_seed must be at least 0")
        elif self.sample_count is not None or self.rng_seed is not None:
            raise ValueError("sample_count and rng_seed apply to random mode only")
        if self.mode == "random" and self.work_budget is not None:
            raise ValueError("work_budget applies to exhaustive mode only")

    @property
    def total(self):
        if self.mode == "random":
            return self.sample_count
        return self.n ** (self.n * self.k)

    def to_json(self):
        out = {"n": self.n, "k": self.k, "mode": self.mode}
        if self.mode == "random":
            out["samples"] = self.sample_count
            out["seed"] = self.rng_seed
        return out


@dataclass
class VerificationReport:
    """Aggregate outcome of one theorem check over one scope."""

    theorem_id: str
    scope: EnumerationScope
    checked_count: int = 0
    applicable_count: int = 0
    counterexamples: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def violation_count(self):
        return len(self.counterexamples)

    def to_json(self, include_timing=False):
        out = {
            "theorem": self.theorem_id,
            "scope": self.scope.to_json(),
            "checked": self.checked_count,
            "applicable": self.applicable_count,
            "violations": self.violation_count,
            "counterexamples": self.counterexamples,
            "stats": {k: self.stats[k] for k in sorted(self.stats)},
        }
        if include_timing:
            out["wall_time_s"] = round(self.wall_time, 3)
        return out

    def render(self):
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def random_dfa(n, k, rng):
    """Uniform automaton: every image independently uniform on the states."""
    if not 1 <= n <= MAX_STATES:
        raise ValueError(f"state count {n} out of range 1..{MAX_STATES}")
    tables = [
        tuple(rng.randrange(1, n + 1) for _ in range(n)) for _ in range(k)
    ]
    return Dfa.from_tables(tables)


def _function_table(fid, n):
    digits = []
    for _ in range(n):
        fid, d = divmod(fid, n)
        digits.append(d)
    digits.reverse()
    return tuple(digits)


def enumerate_dfas(scope):
    """Stream the scope's population as Dfa values (budget enforced):
    every tuple of tables in lexicographic order, or the random draws."""
    _check_budget(scope)
    if scope.mode == "random":
        blocks = (block for _, _, block in _blocks(scope, ()))
    else:
        fids = itertools.product(range(scope.n ** scope.n), repeat=scope.k)
        blocks = [zip(fids, itertools.repeat(1))]
    for block in blocks:
        for tables, _imgs, _weight in _iter_block(scope, block):
            yield Dfa.from_tables([tuple(x + 1 for x in t) for t in tables])


def _check_budget(scope):
    budget = _DEFAULT_BUDGET if scope.work_budget is None else scope.work_budget
    if scope.mode == "exhaustive" and scope.total > budget:
        # Written as a power: n^(n*k) can have too many digits to print.
        count = f"{scope.n}^({scope.n}*{scope.k})"
        if scope.total.bit_length() <= 64:
            count += f" = {scope.total}"
        raise BudgetExceeded(
            f"exhaustive scope would enumerate {count} automata, budget is {budget}",
            count=scope.total,
        )


def _block_rng(seed, block_start):
    return random.Random(seed * 1_000_003 + block_start)


@functools.cache
def _lookup(n):
    """Function id -> (0-based table, subset-image table), built once per
    process up to five states, each image table as ``bytes`` (every mask is
    below 32); above five the images are None."""
    if n > 5:
        return lambda fid: (_function_table(fid, n), None)
    tables = [_function_table(fid, n) for fid in range(n ** n)]
    return [(table, bytes(subset_images_for_table(n, table))) for table in tables].__getitem__


def _renumberings(n):
    """Every renumbering of the states as (p, place): p maps a function f
    to the function whose id is sum(p[f[q]] * place[q]), as p.f.p^-1
    sends p[q] to p[f[q]]."""
    return [(p, [n ** (n - 1 - p[q]) for q in range(n)])
            for p in itertools.permutations(range(n))]


def _orbit_representatives(n, k):
    """Yield (function ids, weight) for the least member of every orbit of
    S_n, renumbering the states, on k-tuples of functions, in
    lexicographic order; the weight is the orbit size n!/|stabiliser|.

    A tuple is least in its orbit when its first function f1 is least in
    its conjugacy class and the rest is least under f1's centraliser C1
    (the renumberings that leave f1 alone); f2 is then least in its
    C1-orbit, with stabiliser C2 = C1 ∩ Stab(f2), and so on.  Each group is
    a list of ``_renumberings``.
    """
    size = n ** n
    lookup = _lookup(n)
    group = _renumberings(n)
    order = len(group)

    def extend(prefix, group):
        if len(group) == 1:  # only the identity fixes the prefix: every tail is least
            for tail in itertools.product(range(size), repeat=k - len(prefix)):
                yield prefix + tail, order
            return
        marked = bytearray(size)
        for fid in range(size):
            if marked[fid]:
                continue
            f = lookup(fid)[0]
            stabiliser = []
            for p, place in group:
                image = sum(map(mul, map(p.__getitem__, f), place))
                marked[image] = 1
                if image == fid:
                    stabiliser.append((p, place))
            if len(prefix) == k - 1:
                yield prefix + (fid,), order // len(stabiliser)
            else:
                yield from extend(prefix + (fid,), stabiliser)

    return extend((), group)


def _iter_block(scope, block):
    """Yield (tables, imgs, weight) for one block of the population: the
    draws numbered by the range ``block`` (random mode), or the items of
    ``block`` as (function ids, weight).  ``imgs`` is None above five
    states."""
    n = scope.n
    if scope.mode == "random":
        block = _draws(_block_rng(scope.rng_seed, block.start), n, scope.k, len(block))
    lookup = _lookup(n)
    for fids, weight in block:
        tables, imgs = zip(*map(lookup, fids))
        yield tables, None if imgs[0] is None else imgs, weight


def _draws(rng, n, k, count):
    """(function ids, 1) for ``count`` uniform automata: each function is
    n draws, the first digit most significant, as ``_function_table``
    decodes it."""
    draw = rng.randrange
    for _ in range(count):
        fids = []
        for _ in range(k):
            fid = 0
            for _ in range(n):
                fid = fid * n + draw(n)
            fids.append(fid)
        yield fids, 1


def _run_block(args):
    """Check one block; a fault a check raises is its violation there.
    Stats are collected per weight and scaled once per block, and a
    representative's violation is recorded for every member of its orbit."""
    scope, theorem_ids, block = args
    counts = {tid: [0, 0] for tid in theorem_ids}  # checked, applicable
    violations = {tid: [] for tid in theorem_ids}
    by_weight = {}  # weight -> theorem id -> stats
    times = dict.fromkeys(theorem_ids, 0.0)
    for tables, imgs, weight in _iter_block(scope, block):
        auto = Auto(scope.n, tables, imgs)
        stats = by_weight.get(weight)
        if stats is None:
            stats = by_weight[weight] = {tid: {} for tid in theorem_ids}
        clock = time.perf_counter()
        for tid in theorem_ids:
            try:
                applicable, detail = CHECKS[tid](auto, stats[tid])
            except TheoremViolation as e:
                applicable, detail = True, {"claim": tid, **e.detail}
            except CertificateContradiction as e:
                applicable, detail = True, {"claim": tid, "contradiction": str(e)}
            except ConstructionContradiction as e:
                applicable, detail = True, {"claim": tid, "error": str(e)}
            counts[tid][0] += weight
            if applicable:
                counts[tid][1] += weight
            if detail is not None:
                if weight == 1:
                    violations[tid].append({"dfa": auto.serialized(), "detail": detail})
                else:
                    violations[tid].extend(_member_violations(scope, tid, tables))
            now = time.perf_counter()
            times[tid] += now - clock
            clock = now
    merged = {tid: {} for tid in theorem_ids}
    for weight, stats in by_weight.items():
        for tid in theorem_ids:
            _merge_stats(merged[tid], stats[tid], weight)
    return counts, violations, merged, times


def _member_violations(scope, tid, tables):
    """The counterexamples of one check over the orbit of the 0-based
    tables, each distinct member checked as an automaton of weight 1."""
    members = {tuple(sum(map(mul, map(p.__getitem__, t), place)) for t in tables)
               for p, place in _renumberings(scope.n)}
    return _run_block((scope, (tid,), [(fids, 1) for fids in members]))[1][tid]


def _merge_stats(into, part, weight=1):
    """Fold stats in: ``max_`` keys by maximum, the others as counts, each
    standing for ``weight`` automata."""
    for key, value in part.items():
        if key.startswith("max_"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value * weight


def _blocks(scope, theorem_ids):
    """The scope's blocks as _run_block arguments, generated lazily."""
    if scope.mode == "random":
        for start in range(0, scope.total, _BLOCK):
            yield scope, theorem_ids, range(start, min(start + _BLOCK, scope.total))
        return
    representatives = _orbit_representatives(scope.n, scope.k)
    while block := list(itertools.islice(representatives, _BLOCK)):
        yield scope, theorem_ids, block


def run_checks(theorem_ids, scope, jobs=1):
    """Run several theorem checks in one pass over the scope's population.

    Returns a dict theorem_id -> VerificationReport.  Identical scope and
    seed give byte-identical reports for any job count.  A report's
    ``wall_time`` is the time spent in its theorem's check, summed over
    the blocks (and so over the workers when jobs > 1).  At most one
    worker process runs per block and per usable CPU.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    theorem_ids = tuple(theorem_ids)
    for tid in theorem_ids:
        if tid not in CHECKS:
            raise ValueError(f"unknown theorem id {tid!r} (known: {', '.join(CHECKS)})")
        if theorem_ids.count(tid) > 1:
            raise ValueError(f"theorem id {tid!r} given more than once")
    _check_budget(scope)
    blocks = _blocks(scope, theorem_ids)
    # One worker per block and per usable CPU: peek at that many blocks.
    head = list(itertools.islice(blocks, min(jobs, _usable_cpus())))
    workers = len(head)
    blocks = itertools.chain(head, blocks)
    reports = {tid: VerificationReport(theorem_id=tid, scope=scope) for tid in theorem_ids}
    if workers > 1:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            partials = pool.imap_unordered(_run_block, blocks)
            for part in partials:
                _fold(reports, *part)
    else:
        for block in blocks:
            _fold(reports, *_run_block(block))
    for report in reports.values():
        report.counterexamples.sort(
            key=lambda ce: (ce["dfa"], json.dumps(ce["detail"], sort_keys=True))
        )
    return reports


def _usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fold(reports, counts, violations, stats, times):
    for tid, (checked, applicable) in counts.items():
        reports[tid].checked_count += checked
        reports[tid].applicable_count += applicable
        reports[tid].counterexamples.extend(violations[tid])
        _merge_stats(reports[tid].stats, stats[tid])
        reports[tid].wall_time += times[tid]


def run_check(theorem_id, scope, jobs=1):
    """Run one theorem check over a scope; see run_checks."""
    return run_checks((theorem_id,), scope, jobs=jobs)[theorem_id]
