"""Acceptance suite: every shipped bound is checked at its stated scope.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them live).  The two largest populations -- the exhaustive 5-state
two-letter sweep (9,765,625 automata, checked as 83,061 orbit
representatives) and the million-sample random sweep -- run once each
and are shared by the criteria that cite them.  Expected violation counts are exactly zero
everywhere; equalities are exact (tolerance 0).
"""

import itertools
import json
import os

import pytest

from synchrokit import (
    EnumerationScope,
    StateSet,
    apply_word,
    build_extremal_dfa,
    corank3_word,
    extract_certificate,
    load_dfa,
    pincor_check,
    rank,
    run_check,
    run_checks,
    shortest_compressing_word,
    size_profile,
)
from synchrokit.extremal import check_condition_4

from conftest import CASE_FIXTURES
from oracles import no_shorter_word, random_dfas

pytestmark = pytest.mark.slow

JOBS = min(os.cpu_count() or 1, 4)

SWEEP5_IDS = (
    "franklpin",
    "corank2-cert",
    "lemmaX",
    "greedy-equiv",
    "pinlem",
    "pinlem-converse",
    "pincor",
    "greedy-stages",
)


def record(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="session")
def corank3_small():
    return {
        n: run_check("corank3", EnumerationScope(n=n, k=2), jobs=JOBS)
        for n in (2, 3, 4)
    }


@pytest.fixture(scope="session")
def sweep5():
    # corank3 and the corank-4 hunt ride in the same pass; each report's
    # wall_time is its own.
    ids = ("corank3", "corank4") + SWEEP5_IDS
    return run_checks(ids, EnumerationScope(n=5, k=2), jobs=JOBS)


@pytest.fixture(scope="session")
def sweep_small():
    return {
        n: run_checks(SWEEP5_IDS, EnumerationScope(n=n, k=2), jobs=JOBS)
        for n in (2, 3, 4)
    }


def test_criterion_01_corank_bound_sweeps(corank3_small, sweep5):
    corank3_n5 = sweep5["corank3"]
    # The c = 4 bound is false in general (Kari's 6-state automaton), but no
    # two-letter automaton on five states breaks it: the hunt applies to
    # the 8,063,385 synchronizing ones and finds nothing.
    corank4_n5 = sweep5["corank4"]
    small_violations = sum(r.violation_count for r in corank3_small.values())
    small_time = sum(r.wall_time for r in corank3_small.values())
    counts = {n: corank3_small[n].checked_count for n in corank3_small}
    ok = (
        small_violations == 0
        and counts == {2: 16, 3: 729, 4: 65536}
        and corank3_n5.checked_count == 9765625
        and (corank3_n5.applicable_count, corank3_n5.violation_count) == (9751225, 0)
        and (corank4_n5.applicable_count, corank4_n5.violation_count) == (8063385, 0)
        and small_time < 10.0
        and corank3_n5.wall_time < 900.0
    )
    record(
        1,
        "corank3",
        ok,
        f"n<=4 in {small_time:.1f}s, n=5 in {corank3_n5.wall_time:.0f}s, 0 violations; "
        f"corank4 hunt at n=5: {corank4_n5.violation_count} hits",
    )


def test_criterion_02_tightness_witnesses(c4):
    to2 = shortest_compressing_word(c4, c4.full_set(), 2)
    to1 = shortest_compressing_word(c4, c4.full_set(), 1)
    e5 = build_extremal_dfa(5)
    to_n3 = shortest_compressing_word(e5, e5.full_set(), 2)
    profile_ok = size_profile(e5, to_n3.word) == (5, 4, 4, 4, 4, 3, 3, 3, 3, 2)
    cond4, _ = check_condition_4(e5)
    ok = (
        to2.length == 4
        and to1.length == 9
        and to_n3.length == 9
        and profile_ok
        and cond4
    )
    record(2, "tightness", ok, "C4 needs 4 and 9 steps; E5 needs 9 with the fixed profile")


def test_criterion_03_certificate_soundness(sweep5, sweep_small):
    reports = [sweep5["corank2-cert"]] + [s["corank2-cert"] for s in sweep_small.values()]
    violations = sum(r.violation_count for r in reports)
    applicable = sum(r.applicable_count for r in reports)
    # At n=5 every certificate has |X| >= 3.
    n5 = sweep5["corank2-cert"]
    ok = (
        violations == 0
        and applicable > 0
        and n5.applicable_count == 17280
        and n5.stats == {"case_X_GE_3": 17280}
    )
    record(3, "corank2-cert", ok, f"{applicable} certified automata, 0 violations")


def test_criterion_04_corank3_construction(sweep5, sweep_small):
    reports = [sweep5["lemmaX"]] + [s["lemmaX"] for s in sweep_small.values()]
    violations = sum(r.violation_count for r in reports)
    sweep_cases = set()
    for report in reports:
        sweep_cases.update(k for k in report.stats if k.startswith("CASE_"))
    fixture_cases = set()
    for text in CASE_FIXTURES.values():
        dfa = load_dfa(text)
        _, tag = corank3_word(dfa, extract_certificate(dfa))
        fixture_cases.add(tag.case)
    covered = sweep_cases | fixture_cases
    fixture_only = sorted(covered - sweep_cases)
    ok = (
        violations == 0
        and covered == {"CASE_I", "CASE_II", "CASE_III", "CASE_IV"}
        and sweep5["lemmaX"].stats == {"CASE_I": 11520, "CASE_IV": 4800}
    )
    record(
        4,
        "lemmaX",
        ok,
        f"sweep cases {sorted(sweep_cases)}; "
        f"fixture-only {fixture_only} (absent at n<=5, k=2: need 3+ letters)",
    )


def test_criterion_05_extension_bound():
    exhaustive = run_check("pin", EnumerationScope(n=4, k=2), jobs=JOBS)
    sampled5 = run_check(
        "pin",
        EnumerationScope(n=5, k=2, mode="random", sample_count=100_000, rng_seed=7),
        jobs=JOBS,
    )
    sampled6 = run_check(
        "pin",
        EnumerationScope(n=6, k=2, mode="random", sample_count=100_000, rng_seed=8),
        jobs=JOBS,
    )
    violations = sum(r.violation_count for r in (exhaustive, sampled5, sampled6))
    ok = violations == 0 and exhaustive.checked_count == 65536
    record(5, "pin", ok, "exhaustive n=4 plus 2x100k sampled, 0 violations")


def test_criterion_06_pair_compression_bound(sweep5, sweep_small):
    reports = [sweep5["franklpin"]] + [s["franklpin"] for s in sweep_small.values()]
    violations = sum(r.violation_count for r in reports)
    ok = violations == 0 and sweep5["franklpin"].applicable_count == 9751225
    record(6, "franklpin", ok, "all subsets, exhaustive n<=5, 0 violations")


def test_criterion_07_synchronization_bounds(corank3_small):
    # For n <= 4 the synchronization bound (n-1)^2 is the corank bound at
    # c = n-1, so the exhaustive corank3 reports already cover it; an
    # independent spot check at n = 3 re-derives it from plain search.
    direct_ok = True
    for dfa in _every_dfa(3, 2):
        if rank(dfa) == 1:
            res = shortest_compressing_word(dfa, dfa.full_set(), 1)
            if res is None or res.length > 4:
                direct_ok = False
    pipeline4 = run_check("pipeline", EnumerationScope(n=4, k=2), jobs=JOBS)
    pipeline5 = run_check(
        "pipeline",
        EnumerationScope(n=5, k=2, mode="random", sample_count=100_000, rng_seed=11),
        jobs=JOBS,
    )
    violations = sum(r.violation_count for r in (pipeline4, pipeline5))
    small_violations = sum(r.violation_count for r in corank3_small.values())
    ok = direct_ok and violations == 0 and small_violations == 0
    record(
        7,
        "cerny4+pipeline",
        ok,
        f"pipeline max length {pipeline4.stats.get('max_len')} at n=4 (bound 9)",
    )


def test_criterion_08_letter_classes(sweep5, sweep_small):
    pinlem_reports = [sweep5["pinlem"]] + [s["pinlem"] for s in sweep_small.values()]
    converse_reports = [s["pinlem-converse"] for s in sweep_small.values()]
    converse_applicable = sum(r.applicable_count for r in converse_reports)
    violations = sum(
        r.violation_count for r in pinlem_reports + converse_reports
    ) + sweep5["pinlem-converse"].violation_count
    ok = (
        violations == 0
        and converse_applicable > 0
        and sweep5["pinlem"].applicable_count == 17280
        and sweep5["pinlem-converse"].applicable_count == 57600
    )
    record(
        8,
        "pinlem+converse",
        ok,
        f"{converse_applicable} two-class automata at n<=4, 0 violations",
    )


def test_criterion_09_greedy_equivalence(sweep5):
    random_reports = []
    for n, k, seed in ((6, 2, 71), (6, 3, 72), (7, 2, 73), (7, 3, 74)):
        random_reports.append(
            run_check(
                "greedy-equiv",
                EnumerationScope(n=n, k=k, mode="random", sample_count=250_000, rng_seed=seed),
                jobs=JOBS,
            )
        )
    violations = sweep5["greedy-equiv"].violation_count + sum(
        r.violation_count for r in random_reports
    )
    sampled = sum(r.checked_count for r in random_reports)
    extremal_found = sweep5["greedy-equiv"].stats.get("extremal", 0)
    ok = (
        violations == 0
        and sampled == 1_000_000
        and sweep5["greedy-equiv"].applicable_count == 9294240
        and extremal_found == 480
    )
    record(
        9,
        "greedy-equiv",
        ok,
        f"exhaustive n=5 ({extremal_found} extremal instances) + 1M random, 0 violations",
    )


def test_criterion_10_fallback_word(sweep5, sweep_small, e5):
    reports = [sweep5["pincor"]] + [s["pincor"] for s in sweep_small.values()]
    violations = sum(r.violation_count for r in reports)
    # E5 exercises the non-vacuous branch: Q.badb cannot compress in 5 steps.
    cert = extract_certificate(e5)
    word = (cert.b_letter, cert.a_letter, cert.d_letter, cert.b_letter)
    start = apply_word(e5, e5.full_set(), word)
    nonvacuous = shortest_compressing_word(e5, start, 2, max_len=5) is None
    ok = (
        violations == 0
        and sweep5["pincor"].applicable_count == 16320
        and nonvacuous
        and pincor_check(e5, cert)
    )
    record(10, "pincor", ok, "0 violations; E5 hits the non-vacuous branch")


def test_criterion_11_property_suites(sweep5, sweep_small, c4, c5, e5):
    # Monotonicity and composition on a seeded population.
    algebra_ok = True
    for dfa in random_dfas(1111, 60, 5, 3):
        full = dfa.full_set()
        w = tuple(itertools.islice(itertools.cycle(range(dfa.k)), 9))
        u, v = w[:4], w[4:]
        if len(apply_word(dfa, full, w)) > dfa.n:
            algebra_ok = False
        if apply_word(dfa, full, w) != apply_word(dfa, apply_word(dfa, full, u), v):
            algebra_ok = False
    # Shortest-word minimality against brute enumeration, length up to 9.
    minimality_ok = True
    for dfa, target in ((c4, 1), (e5, 2), (c5, 2)):
        res = shortest_compressing_word(dfa, dfa.full_set(), target)
        if not no_shorter_word(dfa, dfa.full_set(), target, res.length):
            minimality_ok = False
    for dfa in random_dfas(1212, 25, 5, 3):
        res = shortest_compressing_word(dfa, dfa.full_set(), 2, max_len=9)
        if res is not None and not no_shorter_word(dfa, dfa.full_set(), 2, res.length):
            minimality_ok = False
    # Greedy stage bounds across the exhaustive sweeps.
    stage_reports = [sweep5["greedy-stages"]] + [
        s["greedy-stages"] for s in sweep_small.values()
    ]
    stage_violations = sum(r.violation_count for r in stage_reports)
    max_i = max(r.stats.get("max_i", 0) for r in stage_reports)
    max_j = max(r.stats.get("max_j", 0) for r in stage_reports)
    n5 = sweep5["greedy-stages"]
    ok = (
        algebra_ok
        and minimality_ok
        and stage_violations == 0
        and max_i <= 3
        and max_j <= 6
        and n5.applicable_count == 9333985
        and n5.stats == {"max_i": 3, "max_j": 6}
    )
    record(11, "properties", ok, f"stage bounds hit i={max_i}<=3, j={max_j}<=6")


def test_criterion_12_determinism():
    sc = EnumerationScope(n=3, k=2)
    a = run_check("greedy-equiv", sc, jobs=1).render()
    b = run_check("greedy-equiv", sc, jobs=2).render()
    c = run_check("greedy-equiv", sc, jobs=1).render()
    rand = EnumerationScope(n=5, k=2, mode="random", sample_count=20_000, rng_seed=99)
    d = run_check("corank3", rand, jobs=1).render()
    e = run_check("corank3", rand, jobs=2).render()
    ok = a == b == c and d == e and json.loads(a)["violations"] == 0
    record(12, "determinism", ok, "byte-identical reports across runs and job counts")


def _every_dfa(n, k):
    from synchrokit.harness import enumerate_dfas

    return enumerate_dfas(EnumerationScope(n=n, k=k))
