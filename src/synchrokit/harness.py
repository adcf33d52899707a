"""Population sweeps with deterministic, mergeable verification reports.

Exhaustive mode enumerates every k-tuple of transition tables in
lexicographic order (within a work budget); random mode draws seeded
uniform tables.  Work is split into fixed-size blocks verified
independently -- possibly by a process pool -- and merged into one report
per theorem.  Reports are byte-identical for identical scope and seed,
regardless of the number of jobs: counts are summed and counterexamples
are sorted by their serialized form.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

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
    work_budget: int = _DEFAULT_BUDGET

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
        elif self.sample_count is not None or self.rng_seed is not None:
            raise ValueError("sample_count and rng_seed apply to random mode only")

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


def _tables_from_index(index, n, k):
    base = n ** n
    fids = []
    for _ in range(k):
        index, fid = divmod(index, base)
        fids.append(fid)
    fids.reverse()
    return fids


def enumerate_dfas(scope):
    """Stream the scope's population as Dfa values (budget enforced)."""
    _check_budget(scope)
    for start in range(0, scope.total, _BLOCK):
        for tables, _imgs in _iter_block(scope, start, min(start + _BLOCK, scope.total)):
            yield Dfa.from_tables([tuple(x + 1 for x in t) for t in tables])


def _check_budget(scope):
    if scope.mode == "exhaustive" and scope.total > scope.work_budget:
        raise BudgetExceeded(
            f"exhaustive scope would enumerate {scope.total} automata, "
            f"budget is {scope.work_budget}",
            count=scope.total,
        )


def _block_rng(seed, block_start):
    return random.Random(seed * 1_000_003 + block_start)


# Per-process cache of (function tables, subset-image tables), both
# indexed by function id; (None, None) above five states.
_SI_CACHE = {}


def _si_tables(n):
    if n not in _SI_CACHE:
        funcs = si = None
        if n ** n <= 3200:  # n <= 5: precompute every function and its image table
            funcs = [_function_table(fid, n) for fid in range(n ** n)]
            si = [subset_images_for_table(n, table) for table in funcs]
        _SI_CACHE[n] = funcs, si
    return _SI_CACHE[n]


def _iter_block(scope, block_start, block_end):
    """Yield (tables, imgs) pairs for one block of the population."""
    n, k = scope.n, scope.k
    if scope.mode == "random":
        rng = _block_rng(scope.rng_seed, block_start)
        for _ in range(block_start, block_end):
            tables = tuple(
                tuple(rng.randrange(n) for _ in range(n)) for _ in range(k)
            )
            yield tables, None
        return
    funcs, si = _si_tables(n)
    for index in range(block_start, block_end):
        fids = _tables_from_index(index, n, k)
        if funcs is not None:
            tables = tuple(funcs[fid] for fid in fids)
        else:
            tables = tuple(_function_table(fid, n) for fid in fids)
        imgs = [si[fid] for fid in fids] if si is not None else None
        yield tables, imgs


def _run_block(args):
    """Check one block; a fault a check raises is its violation there."""
    scope, theorem_ids, block_start, block_end = args
    counts = {tid: [0, 0] for tid in theorem_ids}  # checked, applicable
    violations = {tid: [] for tid in theorem_ids}
    stats = {tid: {} for tid in theorem_ids}
    times = dict.fromkeys(theorem_ids, 0.0)
    for tables, imgs in _iter_block(scope, block_start, block_end):
        auto = Auto(scope.n, tables, imgs)
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
            counts[tid][0] += 1
            if applicable:
                counts[tid][1] += 1
            if detail is not None:
                violations[tid].append(
                    {"dfa": auto.serialized(), "detail": detail}
                )
            now = time.perf_counter()
            times[tid] += now - clock
            clock = now
    return counts, violations, stats, times


def _merge_stats(into, part):
    for key, value in part.items():
        if key.startswith("max_"):
            into[key] = max(into.get(key, 0), value)
        else:
            into[key] = into.get(key, 0) + value


def run_checks(theorem_ids, scope, jobs=1):
    """Run several theorem checks in one pass over the scope's population.

    Returns a dict theorem_id -> VerificationReport.  Identical scope and
    seed give byte-identical reports for any job count.  A report's
    ``wall_time`` is the time spent in its theorem's check, summed over
    the blocks (and so over the workers when jobs > 1).  At most one
    worker process runs per block.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for tid in theorem_ids:
        if tid not in CHECKS:
            raise ValueError(f"unknown theorem id {tid!r} (known: {', '.join(CHECKS)})")
    _check_budget(scope)
    total = scope.total
    blocks = [
        (scope, tuple(theorem_ids), start, min(start + _BLOCK, total))
        for start in range(0, total, _BLOCK)
    ]
    reports = {tid: VerificationReport(theorem_id=tid, scope=scope) for tid in theorem_ids}
    workers = min(jobs, len(blocks))
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
