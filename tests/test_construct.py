import itertools
import random

import pytest

from synchrokit import (
    Dfa,
    HypothesisFailed,
    PreconditionFailed,
    StateSet,
    apply_word,
    build_extremal_dfa,
    corank2_word,
    corank3_word,
    extract_certificate,
    format_word,
    franklpin_word,
    greedy_word,
    load_dfa,
    parse_word,
    pin_extension,
    rank,
    shortest_compressing_word,
    sync_pipeline,
    validate_certificate,
)
from synchrokit import construct, power
from synchrokit.automaton import _ImageMap
from synchrokit.checks import Auto

from conftest import CASE_FIXTURES
from oracles import random_dfas
from test_harness import _count_calls, _rebind


def _recorded_searches(monkeypatch):
    """(start, result) of every power._bfs call, wherever it is imported."""
    searches = []
    original = power._bfs

    def recording(images, start, *args, **kwargs):
        result = original(images, start, *args, **kwargs)
        searches.append((start, result))
        return result

    _rebind(monkeypatch, original, recording)
    return searches


def _cerny(n):
    return Dfa.from_tables([[q % n + 1 for q in range(1, n + 1)], [2] + list(range(2, n + 1))])


class TestCorank2Word:
    def test_c4(self, c4):
        word = corank2_word(extract_certificate(c4))
        assert format_word(c4, word) == "baab"
        assert apply_word(c4, c4.full_set(), word).states() == (2, 4)

    def test_e5(self, e5):
        word = corank2_word(extract_certificate(e5))
        landed = apply_word(e5, e5.full_set(), word)
        assert landed.states() == (2, 4, 5) and len(landed) == e5.n - 2

    def test_length_always_four(self, c3, c4, c5, e5):
        for dfa in (c3, c4, c5, e5):
            assert len(corank2_word(extract_certificate(dfa))) == 4


class TestCorank3Word:
    def test_c4_frozen(self, c4):
        word, tag = corank3_word(c4, extract_certificate(c4))
        assert format_word(c4, word) == "baaabaaab"
        assert (tag.case, tag.qb_is_3) == ("CASE_I", True)
        assert len(apply_word(c4, c4.full_set(), word)) == 1

    def test_e5_frozen(self, e5):
        word, tag = corank3_word(e5, extract_certificate(e5))
        assert format_word(e5, word) == "baaabaaab"
        assert (tag.case, tag.qb_is_3) == ("CASE_I", True)
        assert apply_word(e5, e5.full_set(), word).states() == (2, 5)

    def test_c5_case_i_other_subcase(self, c5):
        word, tag = corank3_word(c5, extract_certificate(c5))
        assert format_word(c5, word) == "baabaab"
        assert (tag.case, tag.qb_is_3) == ("CASE_I", False)
        assert len(apply_word(c5, c5.full_set(), word)) == c5.n - 3

    def test_identity_rejected(self, i3):
        with pytest.raises(HypothesisFailed):
            extract_certificate(i3)

    def test_rank_precondition(self):
        # Orbit {1,2} structure whose outside states never enter the core:
        # certificate exists but nothing compresses to n-3.
        dfa = load_dfa("4 3\nnames: a d b\n2 1 3 4\n1 3 2 4\n2 2 3 4\n")
        cert = extract_certificate(dfa)
        assert validate_certificate(dfa, cert).all_pass
        assert rank(dfa) > dfa.n - 3
        with pytest.raises(HypothesisFailed):
            corank3_word(dfa, cert)

    @pytest.mark.parametrize("name", sorted(CASE_FIXTURES))
    def test_case_coverage(self, name):
        dfa = load_dfa(CASE_FIXTURES[name])
        cert = extract_certificate(dfa)
        assert validate_certificate(dfa, cert).all_pass
        word, tag = corank3_word(dfa, cert)
        expected_case = name.split("_qb")[0].split("_3b")[0].split("_X")[0]
        assert tag.case == expected_case
        assert len(word) <= 9
        assert len(apply_word(dfa, dfa.full_set(), word)) == dfa.n - 3
        # oracle dominance: the exact search can never do worse
        best = shortest_compressing_word(dfa, dfa.full_set(), dfa.n - 3)
        assert best.length <= len(word)

    def test_case_subcase_flags(self):
        word, tag = _construct(CASE_FIXTURES["CASE_I_qb_ne_3"])
        assert tag.case == "CASE_I" and tag.qb_is_3 is False
        word, tag = _construct(CASE_FIXTURES["CASE_III_3b_4"])
        assert tag.case == "CASE_III" and tag.b3_is_4 is True
        word, tag = _construct(CASE_FIXTURES["CASE_III_3b_ne_4"])
        assert tag.case == "CASE_III" and tag.b3_is_4 is False
        word, tag = _construct(CASE_FIXTURES["CASE_IV_X2"])
        assert tag.case == "CASE_IV" and tag.s_letter is not None

    def test_all_four_cases_exercised(self):
        seen = set()
        for text in CASE_FIXTURES.values():
            _, tag = _construct(text)
            seen.add(tag.case)
        assert seen == {"CASE_I", "CASE_II", "CASE_III", "CASE_IV"}

    @pytest.mark.parametrize(
        "text, word, tag",
        [
            ("4 3\n1 1 4 3\n3 2 4 1\n2 1 3 4\n", "acbacbba",
             {"case": "CASE_II", "route": "mid a, pair {1,r}"}),
            ("4 3\n1 3 2 2\n3 1 2 4\n2 1 4 3\n", "acbabcbba",
             {"case": "CASE_II", "route": "mid da, pair {1,r}"}),
            ("4 3\n1 2 4 3\n3 2 4 3\n4 3 2 1\n", "bcabacab",
             {"case": "CASE_III", "route": "pair {3,r}", "b3_is_4": False}),
            # Case IV continues from the first set, in (length, lex) order of
            # the look-ahead words of at most 2 letters, meeting the core twice.
            ("4 3\n1 2 3 1\n2 4 3 1\n4 3 2 1\n", "abbacba",
             {"case": "CASE_IV", "route": "pair {1,3}", "s": "c", "s3_in_core": False}),
            ("4 3\n1 2 2 4\n3 1 2 4\n1 4 2 3\n", "abbabcba",
             {"case": "CASE_IV", "route": "pair {1,3}", "s": "c", "s3_in_core": True}),
            ("4 3\n1 3 4 2\n1 3 2 3\n2 3 1 4\n", "baabacb",
             {"case": "CASE_IV", "route": "pair {1,2}", "s": "c", "s3_in_core": False}),
            ("4 3\n1 1 3 4\n1 1 4 3\n3 1 2 4\n", "accabcca",
             {"case": "CASE_IV", "route": "pair {2,3}", "s": "b", "s3_in_core": False}),
            ("4 3\n1 1 3 4\n3 1 2 4\n4 4 1 3\n", "abbabcbba",
             {"case": "CASE_IV", "route": "pair {2,3}", "s": "c", "s3_in_core": True}),
        ],
        ids=["II-1r-mid-a", "II-1r-mid-da", "III-3r", "IV-13-look-1", "IV-13-look-2",
             "IV-12-look-2", "IV-23-look-1", "IV-23-look-2"],
    )
    def test_frozen_routes(self, text, word, tag):
        # The routes no fixture reaches, found in seeded draws of the AD/B1
        # family: case II "pair {1,r}" after mid a and after mid da, case III
        # "pair {3,r}", and case IV each of its three core pairs, after a
        # look-ahead of one or two letters.  The certificate rules out the
        # two other routes.  Case II never lands on "pair {1,2}": Q.badb
        # misses 1, d fixes 1 and a takes 1 to 2, so the transported set
        # misses 2.  Case IV never reaches size n-3 early: by clause (iii) a
        # set shrinks only when it holds {1,2}, and Q.badb misses 1, so the
        # look-ahead meets the core twice before any set shrinks.
        dfa = load_dfa(text)
        got, got_tag = _construct(text)
        assert (format_word(dfa, got), got_tag.to_json(dfa)) == (word, tag)


def _construct(text):
    dfa = load_dfa(text)
    return corank3_word(dfa, extract_certificate(dfa))


class TestPinExtension:
    def test_c4_frozen(self, c4):
        w = parse_word(c4, "baab")
        m = pin_extension(c4, w, 3)
        assert format_word(c4, m) == "aba"
        assert len(apply_word(c4, c4.full_set(), w + m + w)) == 1

    def test_empty_bridge_when_word_repeats(self, c4):
        w = parse_word(c4, "baaabaaab")
        assert pin_extension(c4, w, 3) == ()

    def test_e5_within_three(self, e5):
        w = parse_word(e5, "baab")
        m = pin_extension(e5, w, 3)
        assert len(m) <= 3
        assert len(apply_word(e5, e5.full_set(), w + m + w)) <= e5.n - 3

    def test_preconditions(self, c4, i3):
        with pytest.raises(PreconditionFailed):
            pin_extension(c4, (), 3)  # |Q.w| = 4 > n-c+1 = 2
        with pytest.raises(PreconditionFailed):
            pin_extension(i3, (), 1)  # rank 3 > n-1
        with pytest.raises(PreconditionFailed):
            pin_extension(c4, (), 0)

    def test_same_bridges_as_applying_w_per_set(self):
        # The stop predicate applies w's state function to each set; the
        # reference tests every discovered set with apply_word, on bit-walk maps.
        def by_apply_word(dfa, w, c):
            images = [_ImageMap(table) for table in dfa.letters]
            start = apply_word(dfa, dfa.full_set(), w).mask
            target = dfa.n - c
            parent, hit = power._bfs(
                images, start, lambda T: len(apply_word(dfa, StateSet(T), w)) <= target, max_depth=c
            )
            return None if hit is None else power._word_to(images, range(dfa.k), parent, hit)

        rng = random.Random(12)
        cases = []
        for n in (4, 5, 6):
            for dfa in random_dfas(120 + n, 60, n, rng.choice((2, 3))):
                w = tuple(rng.randrange(dfa.k) for _ in range(rng.randrange(6)))
                c = n + 1 - len(apply_word(dfa, dfa.full_set(), w))
                if 1 <= c <= n - 1 and rank(dfa) <= n - c:
                    cases.append((dfa, w, c))
        for n in (14, 15):
            cerny = _cerny(n)
            cases += [(cerny, greedy_word(cerny, c - 1).total, c) for c in (2, 5, 9)]
        assert len(cases) > 100
        for dfa, w, c in cases:
            assert pin_extension(dfa, w, c) == by_apply_word(dfa, w, c)

    def test_bridge_is_shortest(self, c4):
        w = parse_word(c4, "baab")
        m = pin_extension(c4, w, 3)
        full = c4.full_set()
        for length in range(len(m)):
            for cand in itertools.product(range(c4.k), repeat=length):
                assert len(apply_word(c4, full, w + cand + w)) > 1


class TestFranklpinWord:
    def test_c4_frozen(self, c4):
        word = franklpin_word(c4, StateSet.from_states([2, 4]), 3)
        assert format_word(c4, word) == "abaaab"
        assert len(word) == 6  # meets the bound c(c+1)/2 = 6 exactly

    def test_trivial_when_small_enough(self, c4):
        assert franklpin_word(c4, StateSet.from_states([2]), 3) == ()
        # also when R is strictly below the target size
        assert franklpin_word(c4, StateSet.from_states([2]), 2) == ()

    def test_preconditions(self, c4, i3):
        with pytest.raises(PreconditionFailed):
            franklpin_word(c4, c4.full_set(), 3)  # |R| = 4 > 2
        with pytest.raises(PreconditionFailed):
            franklpin_word(i3, i3.full_set(), 1)

    def test_bound_on_random_subsets(self, c5):
        for states in itertools.combinations(range(1, 6), 2):
            word = franklpin_word(c5, StateSet.from_states(states), 4)
            assert len(word) <= 10


class TestSyncPipeline:
    def test_c4_meets_tight_bound(self, c4):
        word = sync_pipeline(c4)
        assert len(word) == 9 == (4 ** 3 - 4) // 6 - 1
        assert len(apply_word(c4, c4.full_set(), word)) == 1

    def test_c5_within_bound(self, c5):
        word = sync_pipeline(c5)
        assert len(word) <= (5 ** 3 - 5) // 6 - 1 == 19
        assert len(apply_word(c5, c5.full_set(), word)) == 1

    def test_small_n_rejected(self, c3):
        with pytest.raises(PreconditionFailed):
            sync_pipeline(c3)

    def test_nonsynchronizable_rejected(self, e5):
        with pytest.raises(PreconditionFailed):
            sync_pipeline(e5)

    def test_direct_route_without_certificate(self):
        # Compresses to n-2 in 2 steps, so the certificate route is skipped.
        dfa = load_dfa("4 2\n2 2 3 4\n1 2 2 3\n")
        assert rank(dfa) == 1
        word = sync_pipeline(dfa)
        assert len(word) <= 9
        assert len(apply_word(dfa, dfa.full_set(), word)) == 1

    def test_one_rank_search(self, monkeypatch):
        # The polynomial rank decides synchronizability; the one search from
        # the full set stops at its first set of size <= n-3, which serves
        # the hypothesis and the direct prefix (certificate extraction runs
        # its own).  The corank-3 prefix and the pair-compression stages skip
        # their compressibility checks.
        ranked = _count_calls(monkeypatch, construct.rank)
        exact = _count_calls(monkeypatch, power._rank_search)
        searches = _recorded_searches(monkeypatch)
        n = 10
        cerny = _cerny(n)
        full = (1 << n) - 1
        word = sync_pipeline(cerny)
        assert len(apply_word(cerny, cerny.full_set(), word)) == 1
        assert (len(ranked), len(exact)) == (1, 0)
        start, (parent, hit) = searches[0]
        assert start == full and hit.bit_count() == n - 3 and list(parent)[-1] == hit

    def test_preconditions_search_nothing_from_the_full_set(self, monkeypatch):
        n = 10
        cerny = _cerny(n)
        cert = extract_certificate(cerny)
        w = greedy_word(cerny, 4).total
        searches = _recorded_searches(monkeypatch)
        corank3_word(cerny, cert)
        pin_extension(cerny, w, 5)
        franklpin_word(cerny, apply_word(cerny, cerny.full_set(), w), 5)
        assert searches and (1 << n) - 1 not in [start for start, _ in searches]

    def test_core_on_sweep_data_matches_public_word(self):
        # The sweep runs the pipeline core on an Auto's tables, rank-search
        # links and shared certificate; it must spell sync_pipeline's word.
        dfas = [dfa for n in range(4, 8) for k in (2, 3) for dfa in random_dfas(70 + 2 * n + k, 150, n, k)]
        dfas += [_cerny(n) for n in range(4, 14)]
        dfas += [build_extremal_dfa(n, identity) for n in range(4, 14) for identity in (True, False)]
        dfas += [load_dfa(text) for text in CASE_FIXTURES.values()]
        certified = checked = 0
        for dfa in dfas:
            if rank(dfa) != 1:
                continue
            auto = Auto(dfa.n, dfa.letters)
            cert = None
            if auto.corank2_hypothesis:
                cert = auto.certificate()
                certified += 1
            word = construct._pipeline(auto.imgs, dfa.n, auto.forward()[0], cert, auto.dfa)
            assert word == sync_pipeline(dfa)
            assert len(word) <= (dfa.n ** 3 - dfa.n) // 6 - 1
            assert len(apply_word(dfa, dfa.full_set(), word)) == 1
            checked += 1
        assert 0 < certified < checked
