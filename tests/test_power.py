import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrokit import (
    Dfa,
    StateSet,
    apply_word,
    build_extremal_dfa,
    format_word,
    greedy_word,
    parse_word,
    rank,
    shortest_compressing_word,
    size_profile,
    sync_pipeline,
)
from synchrokit import power
from synchrokit.automaton import _ImageMap

from oracles import brute_closure, brute_min_length_to_size, no_shorter_word, random_dfas
from test_construct import _cerny
from test_harness import _count_calls, _rebind, _relabelled


def _every_dfa(n, k):
    tables = list(itertools.product(range(1, n + 1), repeat=n))
    return [Dfa.from_tables(list(letters)) for letters in itertools.product(tables, repeat=k)]


def _search_rank(dfa):
    return power._rank_search(power._steppers(dfa, range(dfa.k)), dfa.n)[1]


def _brute_rank(dfa):
    return min(len(S) for S in brute_closure(dfa, dfa.full_set())[1])


class TestShortestCompressingWord:
    def test_c4_sync_word_frozen(self, c4):
        res = shortest_compressing_word(c4, c4.full_set(), 1)
        assert res.length == 9
        assert format_word(c4, res.word) == "baaabaaab"
        assert res.final_set.states() == (2,)
        assert res.profile == (4, 3, 3, 3, 3, 2, 2, 2, 2, 1)

    def test_trivial_target_is_empty_word(self, c4):
        res = shortest_compressing_word(c4, c4.full_set(), 4)
        assert res.word == () and res.profile == (4,)

    def test_identity_never_compresses(self, i3):
        assert shortest_compressing_word(i3, i3.full_set(), 2) is None

    def test_c4_corank2_frozen(self, c4):
        res = shortest_compressing_word(c4, c4.full_set(), 2)
        assert format_word(c4, res.word) == "baab"
        assert res.final_set.states() == (2, 4)

    def test_e5_corank2_frozen(self, e5):
        res = shortest_compressing_word(e5, e5.full_set(), 3)
        assert res.length == 4
        assert format_word(e5, res.word) == "baab"
        assert res.final_set.states() == (2, 4, 5)

    def test_max_len_cutoff(self, c4):
        assert shortest_compressing_word(c4, c4.full_set(), 1, max_len=8) is None
        assert shortest_compressing_word(c4, c4.full_set(), 1, max_len=9) is not None

    def test_allowed_letters(self, c4):
        # Only the cycle letter: nothing compresses.
        assert shortest_compressing_word(c4, c4.full_set(), 3, allowed_letters=[0]) is None
        res = shortest_compressing_word(c4, c4.full_set(), 3, allowed_letters=[1])
        assert res.word == (1,)

    def test_argument_validation(self, c4):
        with pytest.raises(ValueError):
            shortest_compressing_word(c4, c4.full_set(), 0)
        with pytest.raises(ValueError):
            shortest_compressing_word(c4, StateSet.from_states([1]), 2)
        with pytest.raises(ValueError):
            shortest_compressing_word(c4, c4.full_set(), 1, allowed_letters=[])
        with pytest.raises(ValueError):
            shortest_compressing_word(c4, c4.full_set(), 1, allowed_letters=[9])

    def test_start_subset(self, c4):
        res = shortest_compressing_word(c4, StateSet.from_states([2, 4]), 1)
        assert res.length == 6
        assert format_word(c4, res.word) == "abaaab"

    def test_bfs_minimality_against_brute_force_fixtures(self, c4, c5, e5):
        for dfa, target in ((c4, 1), (c4, 2), (e5, 2), (e5, 3), (c5, 2)):
            res = shortest_compressing_word(dfa, dfa.full_set(), target)
            assert no_shorter_word(dfa, dfa.full_set(), target, res.length)

    def test_bfs_minimality_against_brute_force_random(self):
        rng = random.Random(99)
        for dfa in random_dfas(5150, 40, 4, 2) + random_dfas(5151, 20, 5, 3):
            target = rng.randrange(1, dfa.n)
            res = shortest_compressing_word(dfa, dfa.full_set(), target, max_len=9)
            brute = brute_min_length_to_size(dfa, dfa.full_set(), target, 9)
            assert (res.length if res else None) == brute

    def test_lexicographic_tie_break(self):
        # Both letters merge immediately; the lower index must win the tie.
        from synchrokit import Dfa

        dfa = Dfa.from_tables([(1, 1, 3), (2, 2, 2)])
        res = shortest_compressing_word(dfa, dfa.full_set(), 2)
        assert res.word == (0,)

    def test_restriction_monotonicity(self):
        for dfa in random_dfas(777, 30, 4, 3):
            full = shortest_compressing_word(dfa, dfa.full_set(), 2)
            restricted = shortest_compressing_word(
                dfa, dfa.full_set(), 2, allowed_letters=[0, 1]
            )
            if restricted is not None:
                assert full is not None and full.length <= restricted.length


class TestRank:
    def test_fixture_ranks(self, c4, i3, e5, c3, c5):
        assert rank(c4) == 1
        assert rank(i3) == 3
        assert rank(e5) == 2
        assert rank(c3) == 1
        assert rank(c5) == 1

    def test_pair_merging_matches_the_searches(self):
        # Every automaton with n <= 4, k = 2 and n <= 3, k = 3, seeded random
        # ones with n = 5..9, k = 1..3, Cerny C3..C15 and the extremal family.
        # The exact forward search covers all of them; word enumeration
        # (brute_closure) is affordable on the smallest automata, a stride of
        # the exhaustive populations, the one-letter ones, the 200 random
        # ones with n = 5, k = 2 and C3, C4.
        exhaustive = [d for n in range(1, 5) for d in _every_dfa(n, 2)]
        exhaustive += [d for n in range(1, 4) for d in _every_dfa(n, 3)]
        randoms = [
            d for n in range(5, 10) for k in (1, 2, 3) for d in random_dfas(8000 + 10 * n + k, 200, n, k)
        ]
        cerny = [_cerny(n) for n in range(3, 16)]
        extremal = [build_extremal_dfa(n, e) for n in range(4, 14) for e in (True, False)]
        for dfa in exhaustive + randoms + cerny + extremal:
            assert rank(dfa) == _search_rank(dfa), dfa
        brute = [d for d in exhaustive if d.n ** d.k <= 9] + exhaustive[::397]
        brute += [d for d in randoms if d.k == 1 or (d.n, d.k) == (5, 2)] + cerny[:2]
        for dfa in brute:
            assert rank(dfa) == _brute_rank(dfa), dfa
        assert {rank(d) for d in cerny} == {1}
        assert [rank(d) for d in extremal] == [d.n - 3 for d in extremal]
        assert {rank(d) for d in randoms} >= set(range(1, 9))

    def test_64_states(self):
        # Cerny C64 synchronizes; two disjoint 32-state Cerny blocks keep one
        # state each.  Both are far past any search over subsets.
        blocks = [[q % 32 + 1 + base for q in range(1, 33)] for base in (0, 32)]
        merges = [[2 + base] + list(range(2 + base, 33 + base)) for base in (0, 32)]
        twin = Dfa.from_tables([sum(blocks, []), sum(merges, [])])
        for dfa, expected in ((_cerny(64), 1), (twin, 2)):
            start = time.perf_counter()
            assert rank(dfa) == expected
            assert time.perf_counter() - start < 1.0

    def test_rank_runs_no_search(self, monkeypatch):
        power.subset_image_tables.cache_clear()
        searches = _count_calls(monkeypatch, power._bfs)
        built = _count_calls(monkeypatch, power.subset_images_for_table)
        assert rank(_cerny(15)) == 1
        assert (len(searches), len(built)) == (0, 0)

    def test_rank_lower_bounds_random_words(self, e5):
        rng = random.Random(4)
        r = rank(e5)
        for _ in range(50):
            w = tuple(rng.randrange(e5.k) for _ in range(rng.randrange(12)))
            assert len(apply_word(e5, e5.full_set(), w)) >= r


def _relabelled_cerny(n, seed):
    """Cerny C_n with its states renumbered by a seeded permutation."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return Dfa(n, _relabelled(_cerny(n).letters, perm), ("a", "b"))


def _bit_walk_steppers(dfa, letter_indices):
    return [_ImageMap(dfa.letters[j]) for j in letter_indices]


class TestByteImageMap:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 14, 15, 16, 17, 31, 64])
    def test_matches_the_bit_walk(self, n):
        rng = random.Random(n)
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(300)]
        kinds = [power._ByteImageMap] + ([power._TwoByteImageMap] if 9 <= n <= 16 else [])
        for _ in range(5):
            table = tuple(rng.randrange(n) for _ in range(n))
            walk = _ImageMap(table)
            for kind in kinds:
                image = kind(table)
                assert [image[m] for m in masks] == [walk[m] for m in masks]

    def test_steppers_above_the_table_limit(self):
        for n, kind in ((14, power._TwoByteImageMap), (16, power._TwoByteImageMap),
                        (17, power._ByteImageMap)):
            assert [type(image) for image in power._steppers(_cerny(n), (0, 1))] == [kind, kind]
        assert power._steppers(_cerny(13), (1,)) == [power.subset_image_tables(_cerny(13))[1]]

    @pytest.mark.parametrize("n", [14, 15, 16])
    def test_relabelled_cerny_needs_n_minus_1_squared(self, n):
        dfa = _relabelled_cerny(n, n)
        result = shortest_compressing_word(dfa, dfa.full_set(), 1)
        assert result.length == (n - 1) ** 2
        assert len(apply_word(dfa, dfa.full_set(), result.word)) == 1

    def test_words_match_the_bit_walk_search(self):
        dfas = [_relabelled_cerny(n, 3 * n) for n in (14, 15)]
        dfas += [d for n in (14, 15, 16) for d in random_dfas(900 + n, 4, n, 2)]
        dfas += random_dfas(917, 2, 17, 3)
        for dfa in dfas:
            images = _bit_walk_steppers(dfa, range(dfa.k))
            full = (1 << dfa.n) - 1
            for target in range(dfa.n - 1, rank(dfa) - 1, -1):
                parent, hit = power._bfs(images, full, lambda T: T.bit_count() <= target)
                expected = power._word_to(images, range(dfa.k), parent, hit)
                result = shortest_compressing_word(dfa, dfa.full_set(), target)
                assert (result.word, result.final_set.mask) == (expected, hit)

    def test_greedy_and_pipeline_words_match_the_bit_walk(self, monkeypatch):
        dfas = [_cerny(14), _cerny(15), _relabelled_cerny(14, 1), _relabelled_cerny(15, 2)]
        dfas += [d for n in (14, 15) for d in random_dfas(950 + n, 3, n, 2) if rank(d) == 1]
        assert len(dfas) > 4
        words = [(greedy_word(d, d.n - 1), sync_pipeline(d)) for d in dfas]
        _rebind(monkeypatch, power._steppers, _bit_walk_steppers)
        assert words == [(greedy_word(d, d.n - 1), sync_pipeline(d)) for d in dfas]


class TestSizeProfile:
    def test_e5_extremal_profile(self, e5):
        w = parse_word(e5, "baaabaaab")
        assert size_profile(e5, w) == (5, 4, 4, 4, 4, 3, 3, 3, 3, 2)

    def test_c4_baab(self, c4):
        assert size_profile(c4, parse_word(c4, "baab")) == (4, 3, 3, 3, 2)

    def test_empty_word(self, c4):
        assert size_profile(c4, ()) == (4,)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_profile_non_increasing_and_consistent(self, seed):
        (dfa,) = random_dfas(seed, 1, 5, 2)
        rng = random.Random(seed)
        w = tuple(rng.randrange(dfa.k) for _ in range(rng.randrange(10)))
        prof = size_profile(dfa, w)
        assert all(a >= b for a, b in zip(prof, prof[1:]))
        assert prof[-1] == len(apply_word(dfa, dfa.full_set(), w))


class TestGreedy:
    def test_c4_stages_frozen(self, c4):
        profile = greedy_word(c4, 3)
        assert profile.stage_lengths == (1, 3, 6)
        assert format_word(c4, profile.total) == "baababaaab"
        assert len(profile.total) == 10

    def test_e5_stages_frozen(self, e5):
        profile = greedy_word(e5, 3)
        assert profile.stage_lengths == (1, 3, 6)
        assert len(profile.total) == 10

    def test_c5_stages_frozen(self, c5):
        profile = greedy_word(c5, 3)
        assert profile.stage_lengths == (1, 3, 3)
        assert len(profile.total) == 7

    def test_identity_stalls(self, i3):
        assert greedy_word(i3, 1) is None

    def test_concatenation_reproduces_total(self, e5):
        profile = greedy_word(e5, 3)
        assert sum(profile.stage_words, ()) == profile.total

    def test_stages_strictly_decrease(self, c5):
        profile = greedy_word(c5, 4)
        sizes = [5]
        current = c5.full_set()
        for word in profile.stage_words:
            current = apply_word(c5, current, word)
            assert len(current) < sizes[-1]
            sizes.append(len(current))
        assert c5.n - sizes[-1] >= 4

    def test_validation(self, c4):
        with pytest.raises(ValueError):
            greedy_word(c4, 0)
        assert greedy_word(c4, 4) is None  # cannot go below one state
