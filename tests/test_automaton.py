import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synchrokit import (
    Dfa,
    ParseError,
    StateSet,
    apply_letter,
    apply_word,
    dfa_from_json,
    dfa_to_json,
    format_word,
    load_dfa,
    parse_dfa,
    parse_word,
    serialize_dfa,
)

C4_TEXT = "4 2\n2 3 4 1\n2 2 3 4\n"


@st.composite
def dfas(draw, max_n=6, max_k=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    tables = [
        tuple(draw(st.integers(1, n)) for _ in range(n)) for _ in range(k)
    ]
    return Dfa.from_tables(tables)


@st.composite
def near_valid_texts(draw):
    """A serialized automaton with drawn letter names and one line perhaps
    replaced by drawn tokens."""
    dfa = draw(dfas(max_n=3))
    lines = serialize_dfa(dfa).splitlines()
    if draw(st.booleans()):
        names = st.sampled_from(["a", "b", "c", "#a", ""])
        lines.insert(1, "names: " + " ".join(draw(st.lists(names, min_size=dfa.k, max_size=dfa.k))))
    if draw(st.booleans()):
        tokens = st.lists(st.sampled_from(["0", "1", "2", "3", "4", "x", "-1", "#", "names:"]), max_size=4)
        lines[draw(st.integers(0, len(lines) - 1))] = " ".join(draw(tokens))
    return "\n".join(lines) + "\n"


def json_object_texts():
    """JSON objects with the automaton's keys and arbitrary nested values."""
    keys = st.sampled_from(["n", "k", "letters", "names"])

    def nest(inner):
        return st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4)

    scalars = st.none() | st.booleans() | st.integers(-3, 70) | st.floats() | st.text(max_size=3)
    value = st.recursive(scalars, nest, max_leaves=12)
    return st.dictionaries(keys, value, max_size=4).map(json.dumps)


# Arbitrary text, near-valid automaton text, or JSON-shaped text.
AUTOMATON_TEXTS = st.text(max_size=40) | near_valid_texts() | json_object_texts()


@st.composite
def dfa_with_word(draw, max_len=8):
    dfa = draw(dfas())
    word = tuple(draw(st.lists(st.integers(0, dfa.k - 1), max_size=max_len)))
    return dfa, word


@st.composite
def subset_of(draw, dfa):
    states = draw(st.sets(st.integers(1, dfa.n)))
    return StateSet.from_states(states)


class TestStateSet:
    def test_from_states_and_members(self):
        s = StateSet.from_states([3, 1, 3])
        assert s.states() == (1, 3)
        assert len(s) == 2
        assert 1 in s and 3 in s and 2 not in s

    def test_full_and_repr(self):
        assert StateSet.full(3).states() == (1, 2, 3)
        assert repr(StateSet.from_states([2, 4])) == "{2,4}"

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            StateSet.from_states([0])
        with pytest.raises(ValueError):
            StateSet.from_states([65])


class TestParse:
    def test_c4(self):
        dfa = parse_dfa(C4_TEXT)
        assert dfa.n == 4 and dfa.k == 2
        assert dfa.names == ("a", "b")
        assert dfa.delta(1, 0) == 2 and dfa.delta(4, 0) == 1
        assert dfa.delta(1, 1) == 2 and dfa.delta(2, 1) == 2

    def test_comments_and_names(self):
        text = "# automaton\n3 2\nnames: x y\n# tables\n2 3 1\n2 2 3\n"
        dfa = parse_dfa(text)
        assert dfa.names == ("x", "y")
        assert dfa.letter_index("y") == 1

    def test_round_trip_canonical(self):
        assert serialize_dfa(parse_dfa(C4_TEXT)) == C4_TEXT

    def test_entry_out_of_range_with_line(self):
        with pytest.raises(ParseError) as err:
            parse_dfa("2 1\n3 1\n")
        assert err.value.line == 2
        assert "3" in str(err.value)

    def test_capacity_cap(self):
        with pytest.raises(ParseError, match="capacity"):
            parse_dfa("65 1\n" + " ".join(["1"] * 65) + "\n")

    def test_header_errors(self):
        with pytest.raises(ParseError):
            parse_dfa("")
        with pytest.raises(ParseError):
            parse_dfa("4\n")
        with pytest.raises(ParseError):
            parse_dfa("0 1\n")
        with pytest.raises(ParseError):
            parse_dfa("2 0\n")

    def test_table_shape_errors(self):
        with pytest.raises(ParseError):
            parse_dfa("2 2\n1 2\n")  # missing table
        with pytest.raises(ParseError):
            parse_dfa("2 1\n1 2 1\n")  # too many entries
        with pytest.raises(ParseError):
            parse_dfa("2 1\n1 2\n1 2\n")  # extra line
        with pytest.raises(ParseError, match="entry 'x' is not an integer"):
            parse_dfa("2 1\n1 x\n")

    def test_duplicate_names(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_dfa("2 2\nnames: a a\n1 2\n2 1\n")

    @pytest.mark.parametrize("letters, names, message", [
        (((0,),), ("a",), "table has 1 entries, expected 2"),
        (((0, 2),), ("a",), "image of state 2 out of range"),
        (((0, 1), (1, 0)), ("a",), "one name per letter"),
        (((0, 1), (1, 0)), ("a", "a"), "pairwise distinct"),
    ])
    def test_dfa_field_errors(self, letters, names, message):
        with pytest.raises(ValueError, match=message):
            Dfa(2, letters, names)

    @given(AUTOMATON_TEXTS)
    @settings(max_examples=300, deadline=None)
    def test_load_dfa_raises_only_parse_error(self, text):
        try:
            assert isinstance(load_dfa(text), Dfa)
        except ParseError:
            pass

    def test_json_mirror(self):
        dfa = parse_dfa(C4_TEXT)
        blob = json.dumps(dfa_to_json(dfa))
        assert dfa_from_json(blob) == dfa
        assert dfa_from_json({"n": 4, "letters": dfa_to_json(dfa)["letters"]}) == dfa
        assert load_dfa(blob) == dfa
        assert load_dfa(C4_TEXT) == dfa

    @pytest.mark.parametrize(
        "blob",
        [
            {"n": "3", "letters": [[1, 2, 3]]},
            {"n": True, "letters": [[1]]},
            {"n": 2.0, "letters": [[1, 2]]},
            {"n": 3, "letters": 5},
            {"n": 3, "letters": [5]},
            {"n": 3, "letters": "abc"},
            {"n": 2, "letters": [[True, 2]]},
            {"n": 2, "letters": [[1, 2]], "names": "a"},
            {"n": 2, "letters": [[1, 2]], "names": [7]},
            {"letters": [[1]]},
            {"n": 65, "letters": [[1] * 65]},
            {"n": 2, "letters": [[1, 2], [1]]},
            {"n": 2, "k": "1", "letters": [[1, 2]]},
            pytest.param('{"n": ' + "[" * 100_000, id="deep-nesting"),
            pytest.param("2 2\nnames: #a b\n1 2\n2 1\n", id="bad-letter-name"),
        ],
    )
    def test_json_shape_errors(self, blob):
        with pytest.raises(ParseError):
            load_dfa(blob if isinstance(blob, str) else json.dumps(blob))


class TestApply:
    def test_apply_letter_c4(self, c4):
        assert apply_letter(c4, c4.full_set(), 1).states() == (2, 3, 4)

    def test_apply_letter_empty(self, c4):
        assert apply_letter(c4, StateSet(0), 0).states() == ()

    def test_apply_letter_identity(self, i3):
        s = StateSet.from_states([1, 3])
        assert apply_letter(i3, s, 0) == s

    def test_apply_word_badb(self, c4):
        w = parse_word(c4, "baab")
        assert apply_word(c4, c4.full_set(), w).states() == (2, 4)

    def test_apply_word_sync(self, c4):
        w = parse_word(c4, "baaabaaab")
        assert apply_word(c4, c4.full_set(), w).states() == (2,)

    def test_apply_empty_word(self, c4):
        s = StateSet.from_states([1, 3])
        assert apply_word(c4, s, ()) == s

    def test_invalid_letter(self, c4):
        with pytest.raises(ValueError):
            apply_letter(c4, c4.full_set(), 2)

    def test_subset_beyond_states(self, c4):
        with pytest.raises(ValueError):
            apply_letter(c4, StateSet.from_states([5]), 0)


class TestWords:
    def test_parse_word_concatenated(self, c4):
        assert parse_word(c4, "baab") == (1, 0, 0, 1)

    def test_parse_word_spaced(self, e5):
        assert parse_word(e5, "b a a b") == (2, 1, 1, 2)

    def test_format_word(self, c4):
        assert format_word(c4, (1, 0, 0, 1)) == "baab"
        assert format_word(c4, ()) == "(empty)"

    def test_unknown_letter(self, c4):
        with pytest.raises(ValueError):
            parse_word(c4, "xy")

    def test_multichar_names(self):
        dfa = parse_dfa("2 2\nnames: go stop\n2 1\n1 1\n")
        assert parse_word(dfa, "go stop go") == (0, 1, 0)
        assert format_word(dfa, (0, 1)) == "go stop"
        assert parse_word(dfa, "  \n") == ()
        with pytest.raises(ValueError, match="cannot parse word 'go halt'"):
            parse_word(dfa, "go halt")


class TestInvariants:
    @given(dfa_with_word())
    @settings(max_examples=150, deadline=None)
    def test_monotone_size(self, dw):
        dfa, word = dw
        full = dfa.full_set()
        assert len(apply_word(dfa, full, word)) <= len(full)

    @given(dfa_with_word(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_composition(self, dw, data):
        dfa, word = dw
        cut = data.draw(st.integers(0, len(word)))
        R = data.draw(subset_of(dfa))
        u, v = word[:cut], word[cut:]
        assert apply_word(dfa, R, word) == apply_word(dfa, apply_word(dfa, R, u), v)

    @given(dfa_with_word(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_singleton_stability(self, dw, data):
        dfa, word = dw
        q = data.draw(st.integers(1, dfa.n))
        assert len(apply_word(dfa, StateSet.from_states([q]), word)) == 1

    @given(dfa_with_word(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_image_bound(self, dw, data):
        dfa, word = dw
        R = data.draw(subset_of(dfa))
        bigger = apply_word(dfa, dfa.full_set(), word)
        assert apply_word(dfa, R, word).issubset(bigger)

    @given(dfas())
    @settings(max_examples=150, deadline=None)
    def test_serialize_parse_identity(self, dfa):
        assert parse_dfa(serialize_dfa(dfa)) == dfa
        assert dfa_from_json(dfa_to_json(dfa)) == dfa
