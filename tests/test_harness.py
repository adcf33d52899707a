import itertools
import random
import statistics

import pytest

from synchrokit import (
    BudgetExceeded,
    EnumerationScope,
    apply_word,
    enumerate_dfas,
    random_dfa,
    rank,
    run_check,
    run_checks,
    serialize_dfa,
    shortest_compressing_word,
)
from synchrokit.checks import Auto
from synchrokit.extremal import check_condition_1, check_condition_4, hypothesis_greedy
from synchrokit.harness import _BLOCK, THEOREM_IDS, _iter_block, canonical_form, is_canonical
from synchrokit.structure import _anchor_pair, find_adb1_structure

from oracles import (
    adb1_pairs,
    brute_condition_1,
    brute_condition_4,
    brute_min_length_to_size,
    qualifying_words,
    random_dfas,
)


def scope(n, k, **kw):
    return EnumerationScope(n=n, k=k, **kw)


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

    def test_canonical_filter_n2(self):
        kept = list(enumerate_dfas(scope(2, 1, canonical_filter=True)))
        assert len(kept) == 3

    def test_canonical_form_idempotent(self):
        rng = random.Random(5)
        for _ in range(25):
            tables = tuple(
                tuple(rng.randrange(3) for _ in range(3)) for _ in range(2)
            )
            canon = canonical_form(tables, 3)
            assert canonical_form(canon, 3) == canon
            assert is_canonical(canon, 3)

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
        with pytest.raises(ValueError):
            EnumerationScope(n=14, k=2)  # beyond the subset-table limit
        with pytest.raises(ValueError):
            EnumerationScope(n=64, k=2, mode="random", sample_count=1, rng_seed=1)


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
        # Exhaustive mode is the literal lexicographic product of tables;
        # random mode is the random_dfa stream, reseeded at every block.
        from synchrokit import Dfa

        def one_based(tables):
            return [tuple(x + 1 for x in t) for t in tables]

        n, k = 3, 2
        functions = itertools.product(range(n), repeat=n)
        literal = [Dfa.from_tables(one_based(t)) for t in itertools.product(functions, repeat=k)]
        sc = scope(n, k)
        assert list(enumerate_dfas(sc)) == literal
        assert [Dfa.from_tables(one_based(t)) for t, _ in _iter_block(sc, 0, sc.total)] == literal

        seed, count = 13, _BLOCK + 100
        literal = []
        for start in range(0, count, _BLOCK):
            rng = random.Random(seed * 1_000_003 + start)
            literal.extend(random_dfa(4, 2, rng) for _ in range(min(_BLOCK, count - start)))
        sc = scope(4, 2, mode="random", sample_count=count, rng_seed=seed)
        assert list(enumerate_dfas(sc)) == literal
        second_block = [Dfa.from_tables(one_based(t)) for t, _ in _iter_block(sc, _BLOCK, count)]
        assert second_block == literal[_BLOCK:]


class TestReports:
    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            run_check("made-up", scope(2, 1))

    def test_all_ids_run_on_tiny_scope(self):
        reports = run_checks(THEOREM_IDS, scope(2, 2))
        for tid in THEOREM_IDS:
            assert reports[tid].checked_count == 16
            assert reports[tid].violation_count == 0

    def test_sequential_vs_parallel_identical(self):
        sc = scope(3, 2)
        seq = run_checks(("corank3", "greedy-equiv", "franklpin"), sc, jobs=1)
        par = run_checks(("corank3", "greedy-equiv", "franklpin"), sc, jobs=2)
        for tid in seq:
            assert seq[tid].render() == par[tid].render()

    def test_random_mode_deterministic(self):
        sc = scope(5, 2, mode="random", sample_count=2000, rng_seed=99)
        a = run_check("corank3", sc, jobs=1)
        b = run_check("corank3", sc, jobs=2)
        assert a.render() == b.render()
        assert a.checked_count == 2000

    def test_wall_time_not_in_canonical_json(self):
        report = run_check("corank3", scope(2, 2))
        assert "wall_time_s" not in report.render()
        assert "wall_time_s" in str(report.to_json(include_timing=True))

    def test_corank4_hunt_opt_in(self):
        # The corank-4 bound fails in general, but not below six states, so
        # the opt-in hunt must come back empty here.
        sc = scope(5, 2, mode="random", sample_count=1500, rng_seed=3, include_c4=True)
        report = run_check("corank3", sc)
        assert report.violation_count == 0
        assert report.scope.to_json()["include_c4"] is True

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


class TestKernelAgainstPublic:
    """The sweep kernel must agree with the public implementations."""

    def test_corank3_distances_match_bfs(self):
        for dfa in random_dfas(61, 150, 4, 2) + random_dfas(62, 60, 5, 3):
            tables = dfa.letters
            auto = Auto(dfa.n, tables)
            assert auto.rank == rank(dfa)
            for m in range(1, dfa.n + 1):
                res = shortest_compressing_word(dfa, dfa.full_set(), m)
                assert auto.dist_le(m) == (res.length if res else None)

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


def _subsets_up_to(n, max_size):
    for size in range(1, max_size + 1):
        yield from itertools.combinations(range(1, n + 1), size)
