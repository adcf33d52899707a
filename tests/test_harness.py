import dataclasses
import itertools
import random
import statistics
import sys
import time

import pytest

from synchrokit import (
    BudgetExceeded,
    CertificateContradiction,
    ConstructionContradiction,
    EnumerationScope,
    StateSet,
    TheoremViolation,
    apply_word,
    enumerate_dfas,
    load_dfa,
    random_dfa,
    rank,
    run_check,
    run_checks,
    serialize_dfa,
    shortest_compressing_word,
    sync_pipeline,
)
from synchrokit import construct, harness, power, structure
from synchrokit.cli import main
from synchrokit.checks import CHECKS, Auto, check_pin
from synchrokit.extremal import (assert_equivalence, check_condition_1, check_condition_4,
                                 hypothesis_greedy)
from synchrokit.harness import _BLOCK, THEOREM_IDS, _iter_block, _lookup
from synchrokit.structure import _anchor_pair, find_adb1_structure

from conftest import A_REPLACED_FIXTURE, CASE_FIXTURES, CORANK4_HIT, fixture_path
from oracles import (
    adb1_pairs,
    brute_closure,
    brute_condition_1,
    brute_condition_4,
    brute_least_word,
    brute_min_length_to_size,
    brute_pin,
    literal_reports,
    qualifying_words,
    random_dfas,
)


def scope(n, k, **kw):
    return EnumerationScope(n=n, k=k, **kw)


def _pool_sizes(monkeypatch):
    """The pool sizes ``run_check`` asks for at jobs=1000, on three blocks
    and then on one.  A fake context records them and runs the blocks in
    this process, so no worker is ever started; the pooled report must
    equal the sequential one."""
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items):
            return map(fn, items)

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
    sc = scope(3, 2, mode="random", sample_count=3 * _BLOCK, rng_seed=5)
    pooled = run_check("corank3", sc, jobs=1000)
    assert pooled.render() == run_check("corank3", sc).render()
    run_check("corank3", scope(2, 2), jobs=1000)  # one block: no pool
    return sizes


# The golden n=4 scope: every theorem id is applicable, and 29 automata
# carry a certificate, 24 of them with rank 1.
N4_RANDOM = dict(mode="random", sample_count=3000, rng_seed=1)


def _rebind(monkeypatch, original, replacement):
    """Replace ``original`` in every package module that holds it."""
    for name, module in list(sys.modules.items()):
        if name == "synchrokit" or name.startswith("synchrokit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _count_calls(monkeypatch, original):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    _rebind(monkeypatch, original, counting)
    return calls


def _fail_every_certificate(monkeypatch):
    """Make validate_certificate report one failed clause, "forced"."""
    original = structure.validate_certificate

    def replacement(*args, **kwargs):
        return dataclasses.replace(original(*args, **kwargs), failures=("forced",))

    _rebind(monkeypatch, original, replacement)


def _raising(error):
    def fault(*args, **kwargs):
        raise error

    return fault


def _assert_greedy_matches_oracles(dfa):
    """Auto.greedy_flags, hypothesis_greedy and check_condition_1/4, with
    their witnesses, against literal enumeration of the qualifying words."""
    n = dfa.n
    full = dfa.full_set()
    words = qualifying_words(dfa)
    hyp = bool(words)
    assert hypothesis_greedy(dfa) == hyp
    cond1, witness1 = check_condition_1(dfa)
    cond4, witness4 = check_condition_4(dfa)
    assert Auto(n, dfa.letters).greedy_flags() == (hyp, cond1, cond4)
    if not hyp:
        assert (cond1, cond4) == (True, True)
        return
    assert cond1 == brute_condition_1(dfa, words)
    assert cond4 == brute_condition_4(dfa, words)
    # An early failure is witnessed by the lexicographically least shortest
    # qualifying word; a late failure of (1) by the least fat 4-prefix and
    # then the least shortest completion; a late failure of (4) by some
    # 9-letter qualifying word.
    shortest = min(words, key=lambda w: (len(w), w))
    if cond1:
        assert witness1 is None
    elif len(shortest) <= 3:
        assert witness1 == shortest
    else:
        fat = {p for p in {w[:4] for w in words} if len(apply_word(dfa, full, p)) <= n - 2}
        assert witness1 == min((w for w in words if w[:4] in fat), key=lambda w: (w[:4], len(w), w))
    if cond4:
        assert witness4 is None
    elif len(shortest) <= 8:
        assert witness4 == shortest
    else:
        sizes = tuple(len(apply_word(dfa, full, witness4[:t])) for t in range(10))
        assert len(witness4) == 9 and witness4 in words
        assert sizes != (n,) + (n - 1,) * 4 + (n - 2,) * 4 + (n - 3,)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_dfas(scope(2, 1))) == 4
        assert sum(1 for _ in enumerate_dfas(scope(2, 2))) == 16
        assert scope(4, 2).total == 65536
        assert scope(5, 2).total == 9765625

    def test_lexicographic_order(self):
        first = list(itertools.islice(enumerate_dfas(scope(2, 1)), 4))
        assert [d.letters for d in first] == [
            ((0, 0),),
            ((0, 1),),
            ((1, 0),),
            ((1, 1),),
        ]

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded) as err:
            list(enumerate_dfas(scope(5, 2, work_budget=1000)))
        assert err.value.count == 9765625

    def test_scope_validation(self):
        with pytest.raises(ValueError):
            EnumerationScope(n=0, k=1)
        with pytest.raises(ValueError):
            EnumerationScope(n=2, k=0)
        with pytest.raises(ValueError):
            EnumerationScope(n=2, k=1, mode="weird")
        with pytest.raises(ValueError):
            EnumerationScope(n=2, k=1, mode="random", sample_count=5)  # no seed
        with pytest.raises(ValueError):
            EnumerationScope(n=2, k=1, mode="random", rng_seed=1)  # no count
        with pytest.raises(ValueError, match="sample_count >= 1"):
            EnumerationScope(n=2, k=1, mode="random", sample_count=0, rng_seed=3)
        # random.Random seeds with |seed|: -1 would draw the population of 1.
        with pytest.raises(ValueError, match="rng_seed must be at least 0"):
            EnumerationScope(n=2, k=1, mode="random", sample_count=5, rng_seed=-1)
        with pytest.raises(ValueError):
            EnumerationScope(n=14, k=2)  # beyond the subset-table limit
        with pytest.raises(ValueError):
            EnumerationScope(n=64, k=2, mode="random", sample_count=1, rng_seed=1)
        # Options that would change nothing are refused.
        with pytest.raises(ValueError, match="random mode only"):
            EnumerationScope(n=4, k=2, sample_count=10, rng_seed=3)
        with pytest.raises(ValueError, match="random mode only"):
            EnumerationScope(n=4, k=2, rng_seed=3)
        with pytest.raises(ValueError, match="exhaustive mode only"):
            EnumerationScope(n=4, k=2, mode="random", sample_count=10, rng_seed=3, work_budget=5)


class TestRandomDfa:
    def test_seed_reproducibility(self):
        a = random_dfa(5, 2, random.Random(42))
        b = random_dfa(5, 2, random.Random(42))
        assert a == b

    def test_capacity(self):
        with pytest.raises(ValueError):
            random_dfa(65, 1, random.Random(0))

    def test_rank_mean_band(self):
        # Statistical smoke test; the band was frozen after the first
        # measurement (mean ~1.23 for 5-state, 2-letter automata).
        for seed in (1, 2):
            rng = random.Random(seed)
            values = [rank(random_dfa(5, 2, rng)) for _ in range(20000)]
            assert 1.15 <= statistics.fmean(values) <= 1.32

    def test_enumerate_random_matches_block_iteration(self):
        sc = scope(4, 2, mode="random", sample_count=50, rng_seed=7)
        listed = [serialize_dfa(d) for d in enumerate_dfas(sc)]
        report = run_check("corank3", sc)
        assert report.checked_count == 50
        assert len(listed) == len(set(listed)) or len(listed) == 50

    def test_block_iteration_equals_public_enumeration(self):
        # Exhaustive enumeration is the literal lexicographic product of
        # tables; random mode is the random_dfa stream, reseeded at every
        # block, each draw of weight 1.
        from synchrokit import Dfa

        def one_based(tables):
            return [tuple(x + 1 for x in t) for t in tables]

        n, k = 3, 2
        functions = itertools.product(range(n), repeat=n)
        literal = [Dfa.from_tables(one_based(t)) for t in itertools.product(functions, repeat=k)]
        assert list(enumerate_dfas(scope(n, k))) == literal

        seed, count = 13, _BLOCK + 100
        literal = []
        for start in range(0, count, _BLOCK):
            rng = random.Random(seed * 1_000_003 + start)
            literal.extend(random_dfa(4, 2, rng) for _ in range(min(_BLOCK, count - start)))
        sc = scope(4, 2, mode="random", sample_count=count, rng_seed=seed)
        assert list(enumerate_dfas(sc)) == literal
        second_block = list(_iter_block(sc, range(_BLOCK, count)))
        assert [Dfa.from_tables(one_based(t)) for t, _, _ in second_block] == literal[_BLOCK:]
        assert {weight for _, _, weight in second_block} == {1}

        # Both modes read each table's subset images from the per-process
        # lookup up to five states; above five the items carry None, and
        # Auto builds the images itself.
        for n in range(1, 7):
            exhaustive = itertools.islice(harness._orbit_representatives(n, 2), 200)
            items = list(_iter_block(scope(n, 2), exhaustive))
            random_scope = scope(n, 2, mode="random", sample_count=200, rng_seed=n)
            items += _iter_block(random_scope, range(200))
            for tables, imgs, _weight in items:
                if n <= 5:
                    assert [list(img) for img in imgs] == [power.subset_images_for_table(n, t) for t in tables]
                else:
                    assert imgs is None

    @pytest.mark.parametrize("n, k, orbits", [(1, 1, 1), (2, 3, 36), (3, 2, 129),
                                              (3, 3, 3303), (4, 2, 2836)])
    def test_orbit_representatives(self, n, k, orbits):
        # One representative per orbit of S_n renumbering the states:
        # Burnside's count, (1/n!) * sum over g of fix(g)^k, where a
        # function fixed by g maps each cycle of g into a cycle whose
        # length divides its own.
        def fixed_functions(p):
            cycles = []
            for q in range(n):
                if all(q not in c for c in cycles):
                    cycle = [q]
                    while p[cycle[-1]] != q:
                        cycle.append(p[cycle[-1]])
                    cycles.append(cycle)
            fixed = 1
            for c in cycles:
                fixed *= sum(len(d) for d in cycles if len(c) % len(d) == 0)
            return fixed

        perms = list(itertools.permutations(range(n)))
        burnside = sum(fixed_functions(p) ** k for p in perms)
        assert burnside == orbits * len(perms)
        sc = scope(n, k)
        reps = list(harness._orbit_representatives(n, k))
        assert len(reps) == orbits
        assert sum(weight for _, weight in reps) == sc.total
        if sc.total > 1000:
            return
        # Expanding every orbit gives each automaton of the literal
        # enumeration exactly once, from its least member.
        expanded = []
        for tables, _imgs, weight in _iter_block(sc, reps):
            members = {_relabelled(tables, p) for p in perms}
            assert len(members) == weight and min(members) == tables
            expanded += members
        assert sorted(expanded) == [d.letters for d in enumerate_dfas(sc)]


class TestReports:
    def test_unknown_theorem(self):
        with pytest.raises(ValueError, match="greedy-stages, corank4"):
            run_check("made-up", scope(2, 1))

    def test_repeated_theorem(self):
        # A repeated id would count every automaton, and list every
        # counterexample, once per repetition.
        with pytest.raises(ValueError, match="'corank3' given more than once"):
            run_checks(("corank3", "pin", "corank3"), scope(3, 2))

    def test_all_ids_run_on_tiny_scope(self):
        reports = run_checks(THEOREM_IDS, scope(2, 2))
        for tid in THEOREM_IDS:
            assert reports[tid].checked_count == 16
            assert reports[tid].violation_count == 0

    def test_sequential_vs_parallel_identical(self, monkeypatch):
        # Small blocks, so that jobs=2 starts a pool.
        monkeypatch.setattr(harness, "_BLOCK", 50)
        sc = scope(3, 2)
        assert len(list(harness._blocks(sc, ()))) > 1
        seq = run_checks(("corank3", "greedy-equiv", "franklpin"), sc, jobs=1)
        par = run_checks(("corank3", "greedy-equiv", "franklpin"), sc, jobs=2)
        for tid in seq:
            assert seq[tid].render() == par[tid].render()

    def test_random_mode_deterministic(self, monkeypatch):
        # Small blocks, so that jobs=2 starts a pool; the draws are reseeded
        # per block, so the block size is part of the scope's population.
        monkeypatch.setattr(harness, "_BLOCK", 500)
        sc = scope(5, 2, mode="random", sample_count=2000, rng_seed=99)
        assert len(list(harness._blocks(sc, ()))) > 1
        a = run_check("corank3", sc, jobs=1)
        b = run_check("corank3", sc, jobs=2)
        assert a.render() == b.render()
        assert a.checked_count == 2000

    def test_wall_time_is_per_theorem(self):
        start = time.perf_counter()
        reports = run_checks(("pin", "pinlem-converse"), scope(3, 2))
        elapsed = time.perf_counter() - start
        assert all(r.wall_time > 0 for r in reports.values())
        assert sum(r.wall_time for r in reports.values()) <= elapsed

    def test_wall_time_not_in_canonical_json(self):
        report = run_check("corank3", scope(2, 2))
        assert "wall_time_s" not in report.render()
        assert "wall_time_s" in str(report.to_json(include_timing=True))

    def test_corank4_hunt_random_n5(self):
        # The corank-4 bound fails in general, but not below six states, so
        # the hunt must come back empty here.  At n=5 it applies to exactly
        # the rank-1 automata, as the pipeline check does.
        sc = scope(5, 2, mode="random", sample_count=1500, rng_seed=3)
        reports = run_checks(("corank4", "pipeline"), sc)
        assert reports["corank4"].violation_count == 0
        assert reports["corank4"].applicable_count == reports["pipeline"].applicable_count > 0

    def test_corank4_hunt_hit(self):
        dfa = load_dfa(CORANK4_HIT)
        auto = Auto(dfa.n, dfa.letters)
        hit = {"claim": "corank4", "c": 4, "bound": 16, "dist": 17}
        assert CHECKS["corank4"](auto, {}) == (True, hit)
        assert CHECKS["corank3"](auto, {}) == (True, None)
        full = dfa.full_set()
        assert [shortest_compressing_word(dfa, full, m).length for m in (2, 1)] == [17, 25]
        assert brute_min_length_to_size(dfa, full, 2, 17) == 17

    def test_pool_has_at_most_one_worker_per_block(self, monkeypatch):
        # Three blocks: at most three workers, and no more than the usable
        # CPUs (no pool at all on one CPU).
        cpus = harness._usable_cpus()
        assert _pool_sizes(monkeypatch) == ([min(3, cpus)] if cpus > 1 else [])

    @pytest.mark.parametrize("cpus, expected", [(1, []), (2, [2]), (8, [3])])
    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch, cpus, expected):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        assert _pool_sizes(monkeypatch) == expected

    def test_corank2_cert_counts_frozen(self):
        # Certified automata exist in the exhaustive populations; these
        # counts are stable facts about the enumeration.
        r3 = run_check("corank2-cert", scope(3, 2))
        assert (r3.applicable_count, r3.violation_count) == (24, 0)
        r4 = run_check("corank2-cert", scope(4, 2), jobs=2)
        assert (r4.applicable_count, r4.violation_count) == (576, 0)

    def test_exhaustive_n3_all_theorems_zero_violations(self):
        reports = run_checks(THEOREM_IDS, scope(3, 2), jobs=2)
        for tid, report in reports.items():
            assert report.violation_count == 0, tid
            assert report.checked_count == 729


def _relabelled(tables, perm):
    """0-based tables with every state q renamed perm[q]."""
    out = []
    for table in tables:
        row = [0] * len(perm)
        for q, image in enumerate(table):
            row[perm[q]] = perm[image]
        out.append(tuple(row))
    return tuple(out)


def _check_outcomes(n, tables):
    """(applicable, violation found, stats) of every check on one automaton."""
    auto = Auto(n, tables)
    outcomes = []
    for tid in CHECKS:
        stats = {}
        applicable, detail = CHECKS[tid](auto, stats)
        outcomes.append((applicable, detail is not None, stats))
    return outcomes


class TestRelabelling:
    def test_checks_ignore_state_names(self):
        # Renumbering the states changes no check's decision or stats (the
        # premise of sweeping one automaton per isomorphism class).  The
        # fixtures add the X_EQ_2 and a-replacement certificates.
        rng = random.Random(11)
        population = [
            tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(k))
            for n, k, count in ((4, 2, 4000), (5, 2, 2500), (4, 3, 1000))
            for _ in range(count)
        ]
        for text in (*CASE_FIXTURES.values(), A_REPLACED_FIXTURE, CORANK4_HIT):
            population += [load_dfa(text).letters] * 5
        certified = 0
        for tables in population:
            n = len(tables[0])
            perm = list(range(n))
            rng.shuffle(perm)
            outcomes = _check_outcomes(n, tables)
            assert _check_outcomes(n, _relabelled(tables, perm)) == outcomes, (tables, perm)
            certified += outcomes[list(CHECKS).index("corank2-cert")][0]
        assert certified >= 1


class TestOrbitSweep:
    """Exhaustive sweeps check one representative per orbit of the state
    renumberings, weighted by its orbit size; their reports must be the
    literal sweep's, byte for byte."""

    @pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)]
                             + [pytest.param(4, 2, marks=pytest.mark.slow)])
    def test_reports_match_literal_sweep(self, monkeypatch, n, k):
        sc = scope(n, k)
        ids = tuple(CHECKS)
        literal = {tid: r.render() for tid, r in literal_reports(ids, sc).items()}
        sequential = run_checks(ids, sc, jobs=1)
        # Small blocks, so that the pool and the per-block stats scaling run.
        monkeypatch.setattr(harness, "_BLOCK", 300)
        pooled = run_checks(ids, sc, jobs=2)
        for tid in ids:
            assert sequential[tid].render() == literal[tid], tid
            assert pooled[tid].render() == literal[tid], tid

    @pytest.mark.parametrize("raises", [False, True])
    def test_counterexamples_cover_every_orbit_member(self, monkeypatch, raises):
        # A planted check whose detail names a state: each member of a
        # failing orbit reports its own state, as in the literal sweep.
        def planted(auto, stats):
            if auto.rank != 2:
                return False, None
            detail = {"q": auto.tables[0][0]}
            if raises:
                raise TheoremViolation("planted", detail)
            return True, {"claim": "planted", **detail}

        monkeypatch.setitem(CHECKS, "planted", planted)
        sc = scope(3, 2)
        literal = literal_reports(("planted",), sc)["planted"]
        report = run_check("planted", sc)
        assert report.counterexamples == literal.counterexamples
        assert report.render() == literal.render()
        assert report.violation_count == 144
        assert len({ce["detail"]["q"] for ce in report.counterexamples}) == 3


class TestSharedSlowPath:
    """The certificate is extracted and validated once per automaton, and
    the pipeline check runs on the kernel's own tables and searches."""

    @pytest.mark.parametrize("fault", ["extraction", "validation", "construction"])
    def test_pipeline_records_slow_path_faults(self, monkeypatch, fault):
        counts = {"lemmaX": 24, "pipeline": 24}
        if fault == "extraction":
            _rebind(monkeypatch, structure.extract_certificate,
                    _raising(CertificateContradiction("forced")))
            detail = {"contradiction": "forced"}
        elif fault == "validation":
            # Every check that uses the certificate records the failed clause.
            _fail_every_certificate(monkeypatch)
            counts = {"corank2-cert": 29, "lemmaX": 24, "greedy-equiv": 24,
                      "pinlem": 29, "pincor": 24, "pipeline": 24}
            detail = {"contradiction": "certificate does not validate: forced"}
        else:
            _rebind(monkeypatch, construct._corank3_cases,
                    _raising(ConstructionContradiction("forced")))
            detail = {"error": "forced"}
        reports = run_checks(tuple(counts), scope(4, 2, **N4_RANDOM))
        for tid, count in counts.items():
            details = [ce["detail"] for ce in reports[tid].counterexamples]
            assert details == [{"claim": tid, **detail}] * count, tid

    def test_no_verb_builds_on_a_failed_certificate(self, monkeypatch, c5, e5):
        _fail_every_certificate(monkeypatch)
        with pytest.raises(CertificateContradiction):
            sync_pipeline(c5)
        with pytest.raises(CertificateContradiction):
            assert_equivalence(e5)
        for verb, name in (("classify", "e5.dfa"), ("construct", "e5.dfa"), ("pincor", "e5.dfa"),
                           ("greedy-conditions", "e5.dfa"), ("pipeline", "c5.dfa")):
            assert main([verb, fixture_path(name)]) == 2, verb

    def test_certificate_extracted_and_validated_once(self, monkeypatch):
        extracted = _count_calls(monkeypatch, structure.extract_certificate)
        validated = _count_calls(monkeypatch, structure.validate_certificate)
        reports = run_checks(THEOREM_IDS, scope(4, 2, **N4_RANDOM))
        certified = reports["corank2-cert"].applicable_count
        assert certified == 29
        assert len(extracted) == len(validated) == certified

    def test_pipeline_check_searches_nothing_twice(self, monkeypatch):
        _lookup(4)  # the population's subset-image tables, built once per process
        counted = (
            construct.sync_pipeline,
            power.rank,
            structure.satisfies_corank2_hypothesis,
            power.shortest_compressing_word,
            power.subset_images_for_table,
        )
        calls = {f.__name__: _count_calls(monkeypatch, f) for f in counted}
        report = run_check("pipeline", scope(4, 2))
        assert report.applicable_count == 51520
        assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)


class TestKernelAgainstPublic:
    """The sweep kernel must agree with brute-force word enumeration and
    with the public implementations."""

    def test_corank3_distances_match_bfs(self):
        for dfa in random_dfas(61, 150, 4, 2) + random_dfas(62, 60, 5, 3):
            auto = Auto(dfa.n, dfa.letters)
            full = dfa.full_set()
            depth, images = brute_closure(dfa, full)
            assert auto.rank == min(len(S) for S in images)
            for m in range(1, dfa.n + 1):
                assert auto.dist_le(m) == brute_min_length_to_size(dfa, full, m, depth)

    def test_bfs_stage_matches_least_word(self):
        rng = random.Random(65)
        for dfa in random_dfas(63, 40, 4, 2) + random_dfas(64, 20, 5, 3):
            auto = Auto(dfa.n, dfa.letters)
            masks = range(1, 1 << dfa.n)
            if dfa.n == 5:
                masks = rng.sample(masks, 6)
            for mask in masks:
                start = StateSet(mask)
                depth, _ = brute_closure(dfa, start)
                for target in range(1, len(start) + 1):
                    w = brute_least_word(dfa, start, target, depth)
                    expected = None if w is None else (len(w), apply_word(dfa, start, w).mask)
                    assert auto.bfs_stage(mask, target) == expected

    def test_pin_matches_brute_force(self):
        # The check searches only c = n - |Q.w| + 1, and only when w's
        # function permutes Q.w; the oracle tries every word, corank and
        # bridge.  Claiming a rank below the true one makes coranks
        # feasible that the automaton cannot reach, so the random samples
        # also run the violation path, at every claimed rank.
        population = [(dfa, rank(dfa)) for dfa in
                      list(enumerate_dfas(scope(3, 2))) + list(enumerate_dfas(scope(2, 3)))]
        for dfa in random_dfas(91, 100, 4, 2) + random_dfas(92, 30, 5, 2):
            population += [(dfa, claimed) for claimed in range(1, dfa.n + 1)]
        # Every letter a permutation: no bridge helps the empty word at c=1.
        permutations = load_dfa("4 2\n2 3 4 1\n2 1 3 4\n")
        population.append((permutations, 1))
        violations = set()
        for dfa, claimed in population:
            auto = Auto(dfa.n, dfa.letters)
            auto._forward = (None, claimed)
            expected = brute_pin(dfa, claimed)
            if expected is not None:
                c, w, start_size = expected
                expected = {"claim": "pin", "c": c, "w": w, "start_size": start_size}
                violations.add((c, len(w)))
            assert check_pin(auto, {}) == (claimed <= dfa.n - 1, expected)
        assert check_pin(Auto(4, permutations.letters), {}) == (False, None)
        assert (1, 0) in violations and len(violations) > 3

    def test_greedy_flags_match_public_checks(self):
        # The sweep flags and the public checks share one decision
        # procedure, so each is compared with the brute-force oracles.
        for dfa in random_dfas(71, 150, 4, 2) + random_dfas(72, 80, 5, 2) + random_dfas(73, 40, 6, 3):
            _assert_greedy_matches_oracles(dfa)

    @pytest.mark.slow
    def test_greedy_decision_matches_oracles_exhaustive_n4(self):
        # Every 4-state, 2-letter automaton in which no word of length <= 3
        # reaches size 1: the ones where both conditions can fail late.
        checked = 0
        for dfa in enumerate_dfas(scope(4, 2)):
            if brute_min_length_to_size(dfa, dfa.full_set(), 1, 3) is None:
                _assert_greedy_matches_oracles(dfa)
                checked += 1
        assert checked == 23856

    def test_adb1_pair_matches_public(self):
        # The pair is anchored on the non-permutation letters, so it is the
        # only pair that works when one exists, and none is reported when
        # every letter is a permutation.
        population = list(enumerate_dfas(scope(3, 2))) + random_dfas(81, 300, 4, 2)
        found = 0
        for dfa in population:
            pair = _anchor_pair(dfa.n, dfa.letters)
            pairs = adb1_pairs(dfa)
            if all(dfa.is_permutation_letter(s) for s in range(dfa.k)):
                assert pair is None
                continue
            assert len(pairs) <= 1
            expected = pairs[0] if pairs else None
            assert find_adb1_structure(dfa) == expected
            assert pair == (None if expected is None else (expected[0] - 1, expected[1] - 1))
            found += expected is not None
        assert found > 0

    def test_franklpin_kernel_matches_per_subset_bfs(self):
        from synchrokit.checks import check_franklpin
        from synchrokit import StateSet

        for dfa in random_dfas(91, 60, 4, 2):
            auto = Auto(dfa.n, dfa.letters)
            applicable, detail = check_franklpin(auto, {})
            n = dfa.n
            r = rank(dfa)
            assert applicable == (r <= n - 1)
            if not applicable:
                continue
            # independent check: per-subset BFS for every feasible corank
            worst_ok = True
            for c in range(1, n - r + 1):
                bound = c * (c + 1) // 2
                for states in _subsets_up_to(n, n - c + 1):
                    if len(states) <= n - c:
                        continue
                    res = shortest_compressing_word(
                        dfa, StateSet.from_states(states), n - c
                    )
                    if res is None or res.length > bound:
                        worst_ok = False
            assert (detail is None) == worst_ok

    def test_backward_within_matches_brute_force(self):
        # Every set of every size, against the least length of a word that
        # shrinks it, found by enumerating all words of up to 6 letters.
        from synchrokit import StateSet

        population = [d for n in (3, 4, 5) for d in random_dfas(93 + n, 40, n, 2)]
        population += random_dfas(97, 30, 4, 3) + random_dfas(98, 20, 5, 1)
        some_missing = False
        for dfa in population:
            auto = Auto(dfa.n, dfa.letters)
            for size in range(1, dfa.n + 1):
                least = {}
                for states in itertools.combinations(range(1, dfa.n + 1), size):
                    subset = StateSet.from_states(states)
                    length = brute_min_length_to_size(dfa, subset, size - 1, 6)
                    least[subset.mask] = 7 if length is None else length
                for steps in range(1, 7):
                    expected = sum(1 << S for S, length in least.items() if length <= steps)
                    assert auto.backward_within(size, steps) == expected, (dfa, size, steps)
                    some_missing |= expected != sum(1 << S for S in least)
        assert some_missing


def _subsets_up_to(n, max_size):
    for size in range(1, max_size + 1):
        yield from itertools.combinations(range(1, n + 1), size)
