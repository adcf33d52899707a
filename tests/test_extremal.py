import random

import pytest

from synchrokit import (
    BudgetExceeded,
    Dfa,
    HypothesisFailed,
    PreconditionFailed,
    apply_word,
    assert_equivalence,
    build_extremal_dfa,
    check_condition_1,
    check_condition_2,
    check_condition_3,
    check_condition_4,
    extract_certificate,
    format_word,
    hypothesis_greedy,
    load_dfa,
    pincor_check,
    serialize_dfa,
    shortest_compressing_word,
)
from synchrokit import extremal, power, structure
from synchrokit.extremal import classify_greedy_letter

from conftest import A_REPLACED_FIXTURE
from oracles import (
    brute_condition_1,
    brute_condition_4,
    brute_hypothesis_greedy,
    random_dfas,
)
from test_construct import _cerny
from test_harness import _assert_greedy_matches_oracles, _count_calls, _rebind, _relabelled
from test_power import _full_tables


class TestHypothesisGreedy:
    def test_fixtures(self, c4, c5, e5, i3):
        assert hypothesis_greedy(c4)
        assert hypothesis_greedy(c5)
        assert hypothesis_greedy(e5)
        assert not hypothesis_greedy(i3)

    def test_matches_brute_force(self):
        for dfa in random_dfas(11, 60, 4, 2) + random_dfas(12, 25, 5, 2):
            assert hypothesis_greedy(dfa) == brute_hypothesis_greedy(dfa)

    @pytest.mark.parametrize("seed, n, k", [(0, 40, 6), (5, 64, 8)])
    def test_search_budget(self, seed, n, k):
        # The 9-letter search on these many-letter automata discovers over a
        # million sets; the search budget stops it with the count it reached.
        (dfa,) = random_dfas(seed, 1, n, k)
        with pytest.raises(BudgetExceeded, match=r"discovered \d+ sets") as err:
            hypothesis_greedy(dfa)
        assert err.value.count > power._SEARCH_BUDGET
        assert str(err.value.count) in str(err.value)


class TestConditionChecks:
    def test_e5_all_conditions_hold(self, e5):
        report = assert_equivalence(e5)
        assert report.conditions == (True, True, True, True)
        assert report.consistent
        assert report.renumbering3 == (1, 2, 3, 4, 5)

    def test_c4_is_extremal_too(self, c4):
        # The 4-state cycle-plus-merge automaton has a unique qualifying
        # word (the 9-step synchronizer), whose 4-prefix stays at size 3,
        # so all four conditions hold.
        report = assert_equivalence(c4)
        assert report.conditions == (True, True, True, True)
        assert report.consistent

    def test_c5_no_condition_holds(self, c5):
        report = assert_equivalence(c5)
        assert report.conditions == (False, False, False, False)
        assert report.consistent
        assert format_word(c5, report.witness1) == "baabaab"
        assert format_word(c5, report.witness4) == "baabaab"

    def test_witnesses_are_genuine(self, c5):
        cond1, witness = check_condition_1(c5)
        assert not cond1
        landed = apply_word(c5, c5.full_set(), witness)
        assert len(landed) == c5.n - 3 and len(witness) <= 9
        prefix = apply_word(c5, c5.full_set(), witness[:4])
        assert len(witness) < 4 or len(prefix) <= c5.n - 2

    def test_conditions_match_brute_force(self):
        checked = 0
        for dfa in random_dfas(21, 80, 4, 2) + random_dfas(22, 30, 5, 2):
            if not hypothesis_greedy(dfa):
                continue
            cond1, _ = check_condition_1(dfa)
            cond4, _ = check_condition_4(dfa)
            assert cond1 == brute_condition_1(dfa)
            assert cond4 == brute_condition_4(dfa)
            checked += 1
        assert checked >= 40

    @pytest.mark.parametrize(
        "text, witness1, witness4",
        [
            # (4) fails late: the deviating word spelled differs from the
            # least one, abbaaabba.
            ("5 2\n2 4 5 1 5\n2 4 5 3 1\n", "abbaaabba", "abbbbabba"),
            # (1) fails late: no qualifying word is shorter than 4 letters.
            ("4 2\n1 1 1 4\n4 1 1 2\n", "aaaabba", "abba"),
        ],
        ids=["late-4", "late-1"],
    )
    def test_frozen_witnesses(self, text, witness1, witness4):
        dfa = load_dfa(text)
        cond1, word1 = check_condition_1(dfa)
        cond4, word4 = check_condition_4(dfa)
        assert not cond1 and format_word(dfa, word1) == witness1
        assert not cond4 and format_word(dfa, word4) == witness4
        report = assert_equivalence(dfa)
        assert (report.witness1, report.witness4) == (word1, word4)

    @pytest.mark.parametrize(
        "text, witness2",
        [
            # The certificate's own a (letter b) is tried first; plain
            # letter order would report cbac.
            ("4 3\n1 2 4 3\n3 2 4 1\n2 3 2 4\n", "cbbc"),
            # Orbit of size 4, own a (letter c) first; letter order: bcab.
            ("4 3\n1 4 3 2\n2 4 4 1\n3 4 2 1\n", "bccb"),
        ],
        ids=["orbit-3", "orbit-4"],
    )
    def test_frozen_condition2_witnesses(self, text, witness2):
        dfa = load_dfa(text)
        res = check_condition_2(dfa)
        assert not res.holds and format_word(dfa, res.witness) == witness2
        assert assert_equivalence(dfa).witness2 == res.witness

    def test_condition2_requires_certificate(self):
        # Fast compressor: hypothesis holds but the certificate does not.
        dfa = Dfa.from_tables([(2, 2, 3, 4), (1, 2, 2, 3)])
        assert hypothesis_greedy(dfa)
        res = check_condition_2(dfa)
        assert not res.holds and res.certificate is None

    def test_condition3_none_for_c5(self, c5):
        assert check_condition_3(c5) is None

    def test_condition3_soundness(self, e5):
        # Re-classifying under the returned renumbering must use only the
        # three permitted letter shapes.
        for dfa in (e5, build_extremal_dfa(6), build_extremal_dfa(4, False)):
            renum = check_condition_3(dfa)
            assert renum is not None
            numbering = tuple(renum.index(label) + 1 for label in (1, 2, 3, 4))
            classes = [
                classify_greedy_letter(dfa, s, numbering) for s in range(dfa.k)
            ]
            assert all(c in ("EQ_I", "EQ_A", "EQ_B") for c in classes)

    def test_equivalence_decides_the_flags_once(self, monkeypatch):
        decided = []
        original = extremal._greedy_flags

        def counting(n, tables):
            decided.append(n)
            return original(n, tables)

        monkeypatch.setattr(extremal, "_greedy_flags", counting)
        assert assert_equivalence(build_extremal_dfa(13)).consistent
        assert decided == [13]

    def test_equivalence_searches_each_late_word_once(self, monkeypatch):
        # The decision's deviating word is the witness of (4): the search
        # runs once per call, not again for the witness.
        calls = _count_calls(monkeypatch, extremal._deviating_word)
        dfa = _embedded(_LATE_FAILURES[0], 9)
        report = assert_equivalence(dfa)
        assert len(calls) == 1
        assert (report.cond4, report.witness4) == (False, (0, 1, 1, 1, 1, 0, 1, 1, 0))
        assert check_condition_4(dfa) == (False, report.witness4) and len(calls) == 2

    def test_equivalence_extracts_the_certificate_once(self, monkeypatch):
        extracted = []
        original = structure.extract_certificate

        def counting(dfa):
            extracted.append(dfa.n)
            return original(dfa)

        monkeypatch.setattr(structure, "extract_certificate", counting)
        assert assert_equivalence(build_extremal_dfa(9)).consistent
        assert extracted == [9]

    def test_equivalence_requires_hypothesis(self, i3):
        with pytest.raises(HypothesisFailed):
            assert_equivalence(i3)

    def test_random_equivalence_always_consistent(self):
        checked = 0
        for dfa in random_dfas(33, 120, 5, 2) + random_dfas(34, 40, 6, 3):
            if not hypothesis_greedy(dfa):
                continue
            assert assert_equivalence(dfa).consistent
            checked += 1
        assert checked >= 100


def _embedded(text, n):
    """The automaton of ``text`` with states up to n added, fixed by every
    letter: sizes shift by the added count, so the conditions, witnesses and
    qualifying words stay those of the small automaton."""
    small = load_dfa(text)
    return Dfa.from_tables([[q + 1 for q in table] + list(range(small.n + 1, n + 1))
                            for table in small.letters])


# The frozen late failures of (4) and of (1) (see test_frozen_witnesses).
_LATE_FAILURES = ("5 2\n2 4 5 1 5\n2 4 5 3 1\n", "4 2\n1 1 1 4\n4 1 1 2\n")


def _greedy_outcomes(dfas):
    return [
        (assert_equivalence(dfa).to_json(), check_condition_1(dfa), check_condition_2(dfa),
         check_condition_3(dfa), check_condition_4(dfa))
        for dfa in dfas
    ]


class TestConditionsOnMaps:
    """Above 8 states the conditions read byte-sliced maps; they must give
    what the full subset-image tables give."""

    def test_same_outcomes_as_the_full_tables(self, monkeypatch):
        rng = random.Random(13)
        dfas = []
        for n in range(9, 14):
            for identity in (True, False):
                dfa = build_extremal_dfa(n, identity)
                perm = list(range(n))
                rng.shuffle(perm)
                dfas += [dfa, Dfa(n, _relabelled(dfa.letters, perm), dfa.names)]
            dfas += [d for d in random_dfas(40 + n, 4, n, 2) if hypothesis_greedy(d)]
            # Late failures: (4) through the deviating word, (1) through a
            # fat 4-letter prefix (the frozen witnesses above).
            dfas += [_embedded("5 2\n2 4 5 1 5\n2 4 5 3 1\n", n),
                     _embedded("4 2\n1 1 1 4\n4 1 1 2\n", n)]
        called = {f.__name__: _count_calls(monkeypatch, f) for f in (
            extremal._condition_1_witness, extremal._condition_4_witness)}
        deviating = extremal._deviating_word
        deviations = []

        def recording(n, tables):
            deviations.append((n, deviating(n, tables)))
            return deviations[-1][1]

        _rebind(monkeypatch, deviating, recording)
        outcomes = _greedy_outcomes(dfas)
        # Every automaton whose qualifying words all have 9 letters runs the
        # deviating-word search; only the embedded late failure of (4) has a
        # deviating word, abbbbabba, and it has it at every n.
        assert all(called.values()) and {(n, word) for n, word in deviations if word} == {
            (n, (0, 1, 1, 1, 1, 0, 1, 1, 0)) for n in range(9, 14)}
        assert [type(images[0]) for images in map(power.subset_image_tables, dfas)] == [
            power._TwoByteImageMap] * len(dfas)
        assert sum(not out[0]["cond1"] for out in outcomes) >= 20
        _rebind(monkeypatch, power.subset_image_tables, _full_tables)
        assert _greedy_outcomes(dfas) == outcomes
        assert type(power.subset_image_tables(dfas[0])[0]) is list


class TestNoStateCap:
    """No search of the greedy decision goes beyond 9 letters, so the
    conditions take automata of any size."""

    @pytest.mark.parametrize("n", [14, 15, 16])
    def test_decision_matches_the_oracles(self, n):
        rng = random.Random(n)
        perm = list(range(n))
        rng.shuffle(perm)
        cerny = _cerny(n)
        dfas = [Dfa(n, _relabelled(cerny.letters, perm), cerny.names),
                build_extremal_dfa(n), build_extremal_dfa(n, False)]
        dfas += [_embedded(text, n) for text in _LATE_FAILURES] + random_dfas(60 + n, 3, n, 2)
        for dfa in dfas:
            _assert_greedy_matches_oracles(dfa)

    def test_extremal_family_at_64_states(self):
        report = assert_equivalence(build_extremal_dfa(64))
        assert report.consistent and report.conditions == (True, True, True, True)


class TestLetterClasses:
    def test_e5_letter_classes(self, e5):
        numbering = (1, 2, 3, 4)
        classes = [classify_greedy_letter(e5, s, numbering) for s in range(e5.k)]
        assert classes == ["EQ_I", "EQ_A", "EQ_B"]

    def test_eq_d_letter(self):
        # 4-cycle + merge + the diagonal swap letter.
        dfa = load_dfa("4 3\n2 3 4 1\n2 2 3 4\n1 4 3 2\n")
        assert classify_greedy_letter(dfa, 2, (1, 2, 3, 4)) == "EQ_D"

    def test_other_letter(self, c5):
        assert classify_greedy_letter(c5, 0, (1, 2, 3, 4)) == "OTHER"


class TestBuildExtremal:
    def test_e5_matches_fixture(self, e5):
        assert build_extremal_dfa(5) == e5

    def test_without_identity_is_two_letters(self):
        dfa = build_extremal_dfa(5, include_identity=False)
        assert dfa.k == 2 and dfa.names == ("a", "b")
        assert assert_equivalence(dfa).conditions == (True, True, True, True)

    def test_n4_is_the_cycle_merge_automaton(self, c4):
        assert build_extremal_dfa(4, include_identity=False) == c4

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_family_is_extremal(self, n):
        report = assert_equivalence(build_extremal_dfa(n))
        assert report.conditions == (True, True, True, True)

    def test_tail_permutation(self):
        dfa = build_extremal_dfa(6, tail_permutation=(6, 5))
        assert dfa.delta(5, 1) == 6 and dfa.delta(6, 1) == 5
        assert assert_equivalence(dfa).conditions == (True, True, True, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_extremal_dfa(3)
        with pytest.raises(ValueError):
            build_extremal_dfa(6, tail_permutation=(5, 5))

    def test_shortest_corank3_word_is_exactly_nine(self):
        for n in (5, 6):
            dfa = build_extremal_dfa(n)
            res = shortest_compressing_word(dfa, dfa.full_set(), n - 3)
            assert res.length == 9


class TestPincor:
    def test_e5_nonvacuous(self, e5):
        cert = extract_certificate(e5)
        # Q.badb needs 6 further steps, so the fallback word must land.
        start = apply_word(e5, e5.full_set(), (2, 1, 1, 2))
        assert shortest_compressing_word(e5, start, 2, max_len=5) is None
        assert pincor_check(e5, cert)

    def test_c4_nonvacuous(self, c4):
        cert = extract_certificate(c4)
        start = apply_word(c4, c4.full_set(), (1, 0, 0, 1))
        assert shortest_compressing_word(c4, start, 1, max_len=5) is None
        assert pincor_check(c4, cert)

    def test_c3_needs_four_states(self, c3):
        with pytest.raises(PreconditionFailed, match="n >= 4"):
            pincor_check(c3, extract_certificate(c3))

    def test_rank_above_n_minus_3_is_a_precondition_error(self):
        # Certified with rank 2 on 4 states: the 5-step search misses, and
        # the fallback claim does not cover the automaton.
        dfa = load_dfa(A_REPLACED_FIXTURE)
        with pytest.raises(PreconditionFailed, match="does not compress to size n-3"):
            pincor_check(dfa, extract_certificate(dfa))

    def test_c5_vacuous(self, c5):
        cert = extract_certificate(c5)
        word = (cert.b_letter, cert.a_letter, cert.d_letter, cert.b_letter)
        start = apply_word(c5, c5.full_set(), word)
        assert shortest_compressing_word(c5, start, 2, max_len=5) is not None
        assert pincor_check(c5, cert)
