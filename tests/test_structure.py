import dataclasses
import itertools
import random

import pytest

from synchrokit import (
    CertificateContradiction,
    Dfa,
    HypothesisFailed,
    PreconditionFailed,
    StructureCertificate,
    apply_word,
    build_extremal_dfa,
    classify_pinlem,
    extract_certificate,
    greedy_word,
    load_dfa,
    parse_dfa,
    pincor_check,
    pinlem_converse_check,
    satisfies_corank2_hypothesis,
    sync_pipeline,
    validate_certificate,
)
from synchrokit import construct, power
from synchrokit.checks import Auto
from synchrokit.structure import find_adb1_structure

from conftest import A_REPLACED_FIXTURE, CASE_FIXTURES, load_fixture
from oracles import adb1_shape, brute_min_length_to_size, quantified_clause_iii, random_dfas
from test_construct import _cerny
from test_harness import _count_calls, _raising, _rebind


def _hypothesis_population():
    for n in range(1, 4):
        rows = list(itertools.product(range(1, n + 1), repeat=n))
        for tables in itertools.product(rows, repeat=2):
            yield Dfa.from_tables(tables)
    for seed, count, n, k in ((41, 3000, 4, 2), (42, 1000, 4, 3), (43, 4000, 5, 2),
                              (44, 1000, 5, 3), (45, 2000, 6, 2), (46, 500, 6, 3)):
        yield from random_dfas(seed, count, n, k)
    yield from (load_dfa(text) for text in CASE_FIXTURES.values())
    yield from (_cerny(n) for n in range(4, 10))
    yield from (build_extremal_dfa(n) for n in range(4, 10))


class TestHypothesis:
    def test_fixtures(self, c3, c4, c5, e5, i3):
        assert satisfies_corank2_hypothesis(c3)
        assert satisfies_corank2_hypothesis(c4)
        assert satisfies_corank2_hypothesis(c5)
        assert satisfies_corank2_hypothesis(e5)
        assert not satisfies_corank2_hypothesis(i3)

    def test_fast_compressor_fails_hypothesis(self):
        # Two merge letters: size n-2 within two steps.
        dfa = Dfa.from_tables([(2, 2, 3, 4), (1, 3, 3, 4)])
        assert not satisfies_corank2_hypothesis(dfa)

    def test_every_decider_matches_brute_force(self, monkeypatch):
        # A shortest word to size n-2 passes only distinct sets of size n or
        # n-1, so n+1 letters bound the enumeration exactly.
        extracted = _count_calls(monkeypatch, construct.extract_certificate)
        holds_count = converse_count = pipeline_count = 0
        for dfa in _hypothesis_population():
            n = dfa.n
            dist = brute_min_length_to_size(dfa, dfa.full_set(), n - 2, n + 1)
            holds = dist is not None and dist >= 4
            assert satisfies_corank2_hypothesis(dfa) == holds
            assert Auto(n, dfa.letters).corank2_hypothesis == holds
            try:
                extract_certificate(dfa)
            except HypothesisFailed:
                assert not holds
            except CertificateContradiction:
                assert holds
            else:
                assert holds
            if find_adb1_structure(dfa) is not None:
                assert pinlem_converse_check(dfa) == (dist is None or dist >= 4)
                converse_count += 1
            if n >= 4:
                extracted.clear()
                try:
                    sync_pipeline(dfa)
                except PreconditionFailed:
                    pass  # not synchronizing
                else:
                    assert bool(extracted) == holds
                    pipeline_count += holds
            holds_count += holds
        assert (holds_count, converse_count, pipeline_count) == (80, 300, 42)

    def test_no_subset_tables_and_no_public_search(self, monkeypatch):
        # The hypothesis search expands only sets of size n and n-1, and
        # pincor's search from Q.badb at most five levels: per-set images
        # serve both, and nothing goes through shortest_compressing_word.
        power.subset_image_tables.cache_clear()
        built = _count_calls(monkeypatch, power.subset_images_for_table)
        _rebind(monkeypatch, power.shortest_compressing_word, _raising(AssertionError("search")))
        assert satisfies_corank2_hypothesis(_cerny(13))
        extremal = build_extremal_dfa(13)
        assert pincor_check(extremal, extract_certificate(extremal))
        assert built == []

    def test_greedy_and_converse_skip_the_public_search(self, monkeypatch, e5):
        _rebind(monkeypatch, power.shortest_compressing_word, _raising(AssertionError("search")))
        assert satisfies_corank2_hypothesis(e5)
        assert pinlem_converse_check(e5)
        assert pincor_check(e5, extract_certificate(e5))
        profiles = [greedy_word(e5, c) for c in range(1, e5.n)]
        assert [p and p.stage_lengths for p in profiles] == [(1,), (1, 3), (1, 3, 6), None]


class TestExtraction:
    def test_c4_certificate_frozen(self, c4):
        cert = extract_certificate(c4)
        assert cert.renumbering == (1, 2, 3, 4)
        assert c4.names[cert.b_letter] == "b"
        assert c4.names[cert.a_letter] == "a"
        assert cert.d_letter == cert.a_letter
        assert cert.q == 3
        assert cert.X == (1, 2, 3, 4)
        assert cert.case_tag == "X_GE_3"
        assert not cert.a_replaced
        # landing set of the canonical 4-step word
        w = (cert.b_letter, cert.a_letter, cert.d_letter, cert.b_letter)
        assert apply_word(c4, c4.full_set(), w).states() == (2, 4)

    def test_e5_certificate_frozen(self, e5):
        cert = extract_certificate(e5)
        assert e5.names[cert.b_letter] == "b"
        assert e5.names[cert.a_letter] == "a"
        assert cert.q == 3 and cert.X == (1, 2, 3, 4)
        w = (cert.b_letter, cert.a_letter, cert.d_letter, cert.b_letter)
        assert apply_word(e5, e5.full_set(), w).states() == (2, 4, 5)

    def test_c3_certificate(self, c3):
        cert = extract_certificate(c3)
        assert cert.X == (1, 2, 3) and cert.case_tag == "X_GE_3"
        assert validate_certificate(c3, cert).all_pass

    def test_c5_certificate_orbit_five(self, c5):
        cert = extract_certificate(c5)
        assert cert.X == (1, 2, 3, 4, 5)
        assert validate_certificate(c5, cert).all_pass

    def test_hypothesis_failed(self, i3):
        with pytest.raises(HypothesisFailed):
            extract_certificate(i3)

    def test_renumbering_applied(self):
        # Same shape as the 4-state cycle-plus-merge automaton, states shuffled.
        dfa = parse_dfa("4 2\n3 4 2 1\n3 2 3 4\n")
        cert = extract_certificate(dfa)
        report = validate_certificate(dfa, cert)
        assert report.all_pass
        assert cert.renumbering != (1, 2, 3, 4)

    def test_a_replacement_path(self):
        dfa = load_dfa(A_REPLACED_FIXTURE)
        cert = extract_certificate(dfa)
        assert cert.a_replaced
        assert cert.a_letter == cert.d_letter == dfa.letter_index("d")
        assert cert.case_tag == "X_GE_3" and len(cert.X) == 3
        assert validate_certificate(dfa, cert).all_pass


# One tampered automaton row or certificate field per clause condition that
# only validate_certificate checks, on fixtures whose certificate keeps the
# identity numbering: (condition, fixture, replaced rows, certificate
# changes, the other failures).  The clauses are linked, so most conditions
# cannot fail alone; each case pins every failure it causes.
_TAMPERS = {
    "Q.ba": ("clause (ii): Q.ba != Q \\ {2}", "c5", {"b": "2 2 1 4 5"}, {"q": 5},
             ("clause (i): Q.b != Q \\ {1}", "clause (iv): Q.badb != Q \\ {1, qb}")),
    "Q.a": ("clause (ii): Q.a != Q", "CASE_II", {"a": "2 2 3 1"}, {"q": 3},
            ("clause (ii): Q.ba != Q \\ {2}",)),
    "1a": ("clause (ii): 1a != 2", "CASE_II", {"a": "1 1 3 4"}, {},
           ("clause (ii): Q.a != Q", "clause (iv): X is not the orbit of 1 under a")),
    # d = a with the orbit {1,2}: an a-replacement that left X at two states.
    "replaced-orbit": ("clause (iv): 1d != 1", "CASE_II", {}, {"d_letter": 0},
                       ("clause (iv): Q.bad != Q \\ {q}", "clause (iv): Q.badb != Q \\ {1, qb}",
                        "clause (iv): 3d != 2")),
    "1d": ("clause (iv): 1d != 1", "CASE_II", {"d": "3 4 2 1"}, {}, ()),
    "Q.d": ("clause (iv): Q.d != Q", "CASE_II", {"d": "1 1 2 3"}, {}, ()),
    "q": ("clause (iv): q in {1,2}", "c4", {}, {"q": 1},
          ("clause (iv): Q.bad != Q \\ {q}", "clause (iv): Q.badb != Q \\ {1, qb}")),
    "Q.bad": ("clause (iv): Q.bad != Q \\ {q}", "c4", {}, {"q": 4},
              ("clause (iv): Q.badb != Q \\ {1, qb}",)),
    "qb": ("clause (iv): qb == 1", "e5", {"b": "2 2 3 4 1"}, {"q": 5},
           ("clause (i): Q.b != Q \\ {1}", "clause (ii): Q.ba != Q \\ {2}")),
    "Q.badb": ("clause (iv): Q.badb != Q \\ {1, qb}", "c3", {"b": "3 2 3"}, {},
               ("clause (i): 1b != 2b", "clause (iii): letter 1 merges (1, 3), not {1,2}")),
}


class TestValidation:
    def test_all_clauses_pass(self, c4, e5):
        for dfa in (c4, e5):
            report = validate_certificate(dfa, extract_certificate(dfa))
            assert report.all_pass
            assert report.failures == ()

    def test_tampered_q_fails_clause_iv(self, c4):
        cert = dataclasses.replace(extract_certificate(c4), q=4)
        report = validate_certificate(c4, cert)
        assert report.clause_i and report.clause_ii and report.clause_iii
        assert not report.clause_iv

    @pytest.mark.parametrize("condition, base, rows, changes, others",
                             list(_TAMPERS.values()), ids=list(_TAMPERS))
    def test_tampered_condition_fails_its_clause(self, condition, base, rows, changes, others):
        if base in CASE_FIXTURES:
            dfa = load_dfa(CASE_FIXTURES[base])
        else:
            dfa = load_fixture(f"{base}.dfa")
        cert = extract_certificate(dfa)
        assert validate_certificate(dfa, cert).all_pass
        tables = [tuple(x + 1 for x in t) for t in dfa.letters]
        for name, row in rows.items():
            tables[dfa.letter_index(name)] = tuple(int(x) for x in row.split())
        tampered = Dfa.from_tables(tables, dfa.names)
        report = validate_certificate(tampered, dataclasses.replace(cert, **changes))
        assert sorted(report.failures) == sorted((condition, *others))
        clauses = zip(("i", "ii", "iii", "iv"), (report.clause_i, report.clause_ii,
                                                 report.clause_iii, report.clause_iv))
        for num, ok in clauses:
            assert ok == (not any(f.startswith(f"clause ({num}):") for f in report.failures))

    def test_tampered_renumbering_rejected(self, c4):
        cert = dataclasses.replace(extract_certificate(c4), renumbering=(1, 1, 3, 4))
        with pytest.raises(ValueError):
            validate_certificate(c4, cert)

    def test_letter_level_iii_matches_quantified_form(self):
        # Clause (iii) depends only on the numbering, so every automaton
        # under every renumbering is a case, certified or not.
        outcomes = []
        for n in (2, 3):
            rows = list(itertools.product(range(1, n + 1), repeat=n))
            for tables in itertools.product(rows, repeat=2):
                dfa = Dfa.from_tables(tables)
                for renumbering in itertools.permutations(range(1, n + 1)):
                    outcomes.append(_assert_clause_iii_matches(dfa, renumbering))
        for dfa, renumbering in _shaped_population(2024, 20_000):
            outcomes.append(_assert_clause_iii_matches(dfa, renumbering))
        assert len(outcomes) == 24_406
        assert outcomes.count(True) >= 1_000 and outcomes.count(False) >= 1_000


def _numbering_only(renumbering):
    """A certificate whose letter roles, q and X are arbitrary: for what
    depends on the numbering alone (clause (iii), the letter classes)."""
    return StructureCertificate(renumbering, 0, 0, 0, 1, (1,), "X_GE_3", False)


def _assert_clause_iii_matches(dfa, renumbering):
    holds = validate_certificate(dfa, _numbering_only(renumbering)).clause_iii
    assert holds == quantified_clause_iii(dfa, renumbering), (dfa.letters, renumbering)
    return holds


def _shaped_population(seed, count):
    """(dfa, renumbering) pairs with n = 4..6 and k = 1..3, biased toward the
    certificate shapes around a random pair (u, v) of states: each letter is
    a permutation (half of them sending u into {u, v}), a letter of image
    Q minus u merging {u, v} or a random pair, or a uniform table, and three
    renumberings in four give u and v the labels 1 and 2 in some order."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k = rng.randint(4, 6), rng.randint(1, 3)
        u, v = rng.sample(range(n), 2)
        tables = []
        for _ in range(k):
            kind = rng.randrange(4)
            if kind == 0:
                table = rng.sample(range(n), n)
                if rng.random() < 0.5:
                    w = table.index(rng.choice((u, v)))
                    table[u], table[w] = table[w], table[u]
            elif kind == 3:
                table = [rng.randrange(n) for _ in range(n)]
            else:
                x, y = (v, u) if kind == 1 else rng.sample(range(n), 2)
                table = [0] * n
                images = rng.sample([q for q in range(n) if q != u], n - 1)
                for q, image in zip([q for q in range(n) if q != x], images):
                    table[q] = image
                table[x] = table[y]
            tables.append(tuple(q + 1 for q in table))
        labels = rng.sample(range(1, n + 1), n)
        if rng.random() < 0.75:
            first, second = (1, 2) if rng.random() < 0.5 else (2, 1)
            for q, label in ((u, first), (v, second)):
                w = labels.index(label)
                labels[q], labels[w] = labels[w], labels[q]
        yield Dfa.from_tables(tables), tuple(labels)


class TestClassification:
    def test_c4_classes(self, c4):
        cls = classify_pinlem(c4, extract_certificate(c4))
        assert cls.classes == ("AD", "B1")
        assert cls.total

    def test_e5_classes(self, e5):
        cls = classify_pinlem(e5, extract_certificate(e5))
        assert cls.classes == ("AD", "AD", "B1")

    def test_extra_permutation_letter_breaks_classes_and_hypothesis(self, e5):
        cert = extract_certificate(e5)
        # Add a permutation swapping states 1 and 3: it is neither shape,
        # and indeed the extended automaton stops satisfying the hypothesis.
        tables = [tuple(x + 1 for x in t) for t in e5.letters]
        tables.append((3, 2, 1, 4, 5))
        extended = Dfa.from_tables(tables, e5.names + ("c",))
        cls = classify_pinlem(extended, cert)
        assert cls.classes[-1] is None and not cls.total
        assert cls.unclassified == (3,)
        assert not satisfies_corank2_hypothesis(extended)


    def test_classes_match_oracle_shapes(self):
        # Against the per-letter shape test of the brute-force oracle,
        # under random renumberings of shaped and uniform automata.
        rng = random.Random(5)
        counts = {"AD": 0, "B1": 0, None: 0}
        population = list(_shaped_population(77, 3000))
        for dfa in random_dfas(78, 1000, 5, 3):
            population.append((dfa, tuple(rng.sample(range(1, 6), 5))))
        for dfa, renumbering in population:
            u, v = renumbering.index(1) + 1, renumbering.index(2) + 1
            expected = tuple(adb1_shape(dfa, s, u, v) for s in range(dfa.k))
            cls = classify_pinlem(dfa, _numbering_only(renumbering))
            assert cls.classes == expected, (dfa.letters, renumbering)
            assert cls.unclassified == tuple(s for s, c in enumerate(expected) if c is None)
            for c in expected:
                counts[c] += 1
        assert min(counts.values()) >= 500


class TestConverse:
    def test_fixture_converse(self, c4, e5, c5, c3):
        for dfa in (c3, c4, c5, e5):
            assert pinlem_converse_check(dfa)

    def test_identity_letters_only_is_rejected(self, i3):
        with pytest.raises(PreconditionFailed):
            pinlem_converse_check(i3)

    def test_mismatched_letter_rejected(self):
        # Non-permutation letter whose missing state is outside its merged pair.
        dfa = Dfa.from_tables([(2, 3, 3, 4)])
        assert find_adb1_structure(dfa) is None
        with pytest.raises(PreconditionFailed):
            pinlem_converse_check(dfa)

    def test_two_merge_letters_same_pair(self):
        dfa = Dfa.from_tables([(2, 2, 3, 4), (2, 2, 4, 3)])
        assert find_adb1_structure(dfa) == (1, 2)
        assert pinlem_converse_check(dfa)

    def test_two_merge_letters_different_pairs(self):
        dfa = Dfa.from_tables([(2, 2, 3, 4), (1, 3, 3, 4)])
        assert find_adb1_structure(dfa) is None

    def test_permutation_moving_state_one_rejected(self, c4):
        tables = [tuple(x + 1 for x in t) for t in c4.letters]
        tables.append((3, 2, 1, 4))
        dfa = Dfa.from_tables(tables)
        assert find_adb1_structure(dfa) is None


class TestCertificateSoundnessSweepSample:
    def test_random_certified_always_validate(self):
        found = 0
        for dfa in random_dfas(31337, 6000, 5, 2):
            if not satisfies_corank2_hypothesis(dfa):
                continue
            cert = extract_certificate(dfa)  # no CertificateContradiction
            assert validate_certificate(dfa, cert).all_pass
            cls = classify_pinlem(dfa, cert)
            assert cls.total
            found += 1
        assert found >= 3
