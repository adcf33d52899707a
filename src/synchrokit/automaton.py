"""Deterministic finite automata, state subsets, and word actions.

An automaton here is just a finite state set acted on by total functions
(one per letter); there is no initial state or accepting set.  States are
1-based in every external format and message.  Internally transitions are
stored 0-based and subsets are machine-word bitmasks, which is why the
state count is capped at 64.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass

from .errors import ParseError

MAX_STATES = 64

#: A word is a tuple of letter indices into ``Dfa.letters``; () is the empty word.
Word = tuple

__all__ = [
    "MAX_STATES",
    "Word",
    "StateSet",
    "Dfa",
    "apply_letter",
    "apply_word",
    "parse_dfa",
    "serialize_dfa",
    "dfa_to_json",
    "dfa_from_json",
    "load_dfa",
    "parse_word",
    "format_word",
    "default_names",
]


@dataclass(frozen=True, slots=True)
class StateSet:
    """An immutable subset of the states, backed by a bitmask.

    Bit ``i`` of ``mask`` represents state ``i + 1``.
    """

    mask: int

    @classmethod
    def from_states(cls, states):
        """Build a set from an iterable of 1-based state numbers."""
        mask = 0
        for q in states:
            if q < 1 or q > MAX_STATES:
                raise ValueError(f"state {q} out of range 1..{MAX_STATES}")
            mask |= 1 << (q - 1)
        return cls(mask)

    @classmethod
    def full(cls, n):
        """The set of all ``n`` states."""
        return cls((1 << n) - 1)

    def states(self):
        """The members as an ascending tuple of 1-based state numbers."""
        return tuple(self)

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, state):
        return state >= 1 and (self.mask >> (state - 1)) & 1 == 1

    def __iter__(self):
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length()
            m ^= low

    def __or__(self, other):
        return StateSet(self.mask | other.mask)

    def __and__(self, other):
        return StateSet(self.mask & other.mask)

    def issubset(self, other):
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return "{%s}" % ",".join(str(q) for q in self)


def default_names(k):
    """Default letter names in file order: a, b, c, ... (then s27, s28, ...)."""
    names = []
    for j in range(k):
        names.append(string.ascii_lowercase[j] if j < 26 else f"s{j + 1}")
    return tuple(names)


@dataclass(frozen=True, slots=True)
class Dfa:
    """A state count plus one total transition table per letter.

    ``letters[j][q]`` is the 0-based image of 0-based state ``q`` under
    letter ``j``.  ``names`` are the display names, pairwise distinct.
    """

    n: int
    letters: tuple
    names: tuple

    def __post_init__(self):
        if not 1 <= self.n <= MAX_STATES:
            raise ValueError(f"state count {self.n} out of range 1..{MAX_STATES}")
        if len(self.letters) < 1:
            raise ValueError("at least one letter is required")
        for j, table in enumerate(self.letters):
            if len(table) != self.n:
                raise ValueError(f"letter {j}: table has {len(table)} entries, expected {self.n}")
            for q, image in enumerate(table):
                if not 0 <= image < self.n:
                    raise ValueError(f"letter {j}: image of state {q + 1} out of range")
        if len(self.names) != len(self.letters):
            raise ValueError("one name per letter is required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("letter names must be pairwise distinct")
        for name in self.names:
            if not name or any(c.isspace() for c in name) or name.startswith("#"):
                raise ValueError(f"invalid letter name {name!r}")

    @classmethod
    def from_tables(cls, tables, names=None):
        """Build from 1-based transition tables (the file-format convention)."""
        n = len(tables[0]) if tables else 0
        internal = tuple(tuple(entry - 1 for entry in table) for table in tables)
        if names is None:
            names = default_names(len(internal))
        return cls(n, internal, tuple(names))

    @property
    def k(self):
        return len(self.letters)

    def full_set(self):
        return StateSet.full(self.n)

    def delta(self, state, letter):
        """Image of a 1-based state under a letter index, 1-based."""
        return self.letters[letter][state - 1] + 1

    def letter_index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown letter name {name!r}") from None

    def is_permutation_letter(self, letter):
        return len(set(self.letters[letter])) == self.n


def _check_letter(dfa, s):
    if not isinstance(s, int) or not 0 <= s < dfa.k:
        raise ValueError(f"invalid letter index {s} (alphabet has {dfa.k} letters)")


def _check_subset(dfa, R):
    if R.mask >> dfa.n:
        raise ValueError("state set contains states beyond the automaton")


class _ImageMap:
    """Subset images under one 0-based transition table, computed per set:
    ``_ImageMap(table)[mask]`` is the bitmask of { table[q] : q in mask }."""

    __slots__ = ("bits",)

    def __init__(self, table):
        self.bits = [1 << image for image in table]

    def __getitem__(self, mask):
        bits = self.bits
        out = 0
        while mask:
            low = mask & -mask
            out |= bits[low.bit_length() - 1]
            mask ^= low
        return out


def apply_letter(dfa, R, s):
    """The image set { q.s : q in R }."""
    _check_letter(dfa, s)
    _check_subset(dfa, R)
    return StateSet(_ImageMap(dfa.letters[s])[R.mask])


def apply_word(dfa, R, w):
    """Left fold of apply_letter; the empty word acts as the identity."""
    _check_subset(dfa, R)
    for s in w:
        _check_letter(dfa, s)
    m = R.mask
    for s in w:
        m = _ImageMap(dfa.letters[s])[m]
    return StateSet(m)


def parse_dfa(text):
    """Parse the plain-text automaton format.

    Line 1 is ``n k``; the next k significant lines hold n space-separated
    1-based images (line j giving the images of states 1..n under letter j).
    An optional ``names: ...`` line directly after the header overrides the
    default letter names.  Lines starting with ``#`` and blank lines are
    ignored.  Raises ParseError with the offending line number.
    """
    header = None
    names = None
    tables = []
    n = k = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("expected header 'n k'", lineno)
            try:
                n, k = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError("header entries must be integers", lineno) from None
            if n < 1:
                raise ParseError("state count must be at least 1", lineno)
            if n > MAX_STATES:
                raise ParseError(f"state count {n} exceeds the capacity cap {MAX_STATES}", lineno)
            if k < 1:
                raise ParseError("letter count must be at least 1", lineno)
            header = (n, k)
            continue
        if line.startswith("names:"):
            if names is not None:
                raise ParseError("duplicate names line", lineno)
            if tables:
                raise ParseError("names line must appear before the transition tables", lineno)
            names = tuple(line[len("names:"):].split())
            if len(names) != k:
                raise ParseError(f"expected {k} letter names, got {len(names)}", lineno)
            if len(set(names)) != k:
                raise ParseError("duplicate letter name", lineno)
            continue
        if len(tables) == k:
            raise ParseError("unexpected extra line after the transition tables", lineno)
        parts = line.split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries, got {len(parts)}", lineno)
        row = []
        for p in parts:
            try:
                value = int(p)
            except ValueError:
                raise ParseError(f"entry {p!r} is not an integer", lineno) from None
            if not 1 <= value <= n:
                raise ParseError(f"entry {value} out of range 1..{n}", lineno)
            row.append(value)
        tables.append(tuple(row))
    if header is None:
        raise ParseError("empty input: missing header")
    if len(tables) != k:
        raise ParseError(f"expected {k} transition tables, got {len(tables)}")
    try:
        return Dfa.from_tables(tables, names)
    except ValueError as e:
        raise ParseError(str(e)) from None


def serialize_dfa(dfa):
    """Canonical text form; inverse of parse_dfa up to whitespace."""
    lines = [f"{dfa.n} {dfa.k}"]
    if dfa.names != default_names(dfa.k):
        lines.append("names: " + " ".join(dfa.names))
    for table in dfa.letters:
        lines.append(" ".join(str(image + 1) for image in table))
    return "\n".join(lines) + "\n"


def dfa_to_json(dfa):
    """JSON mirror of the text format (1-based tables)."""
    return {
        "n": dfa.n,
        "k": dfa.k,
        "names": list(dfa.names),
        "letters": [[image + 1 for image in table] for table in dfa.letters],
    }


def dfa_from_json(obj):
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except (ValueError, RecursionError) as e:  # ValueError covers JSONDecodeError
            raise ParseError(f"invalid JSON: {e}") from None
    try:
        n = obj["n"]
        letters = obj["letters"]
    except (TypeError, KeyError) as e:
        raise ParseError(f"JSON automaton missing field: {e}") from None
    names = obj.get("names")
    if type(n) is not int:  # bool is an int subclass
        raise ParseError(f"state count {n!r} is not an integer")
    if n > MAX_STATES:
        raise ParseError(f"state count {n} exceeds the capacity cap {MAX_STATES}")
    if not isinstance(letters, list) or not all(isinstance(t, list) for t in letters):
        raise ParseError("letters must be a list of transition-table lists")
    if names is not None and (
        not isinstance(names, list) or not all(isinstance(x, str) for x in names)
    ):
        raise ParseError("names must be a list of strings")
    tables = []
    for j, table in enumerate(letters):
        if len(table) != n:
            raise ParseError(f"letter {j}: table has {len(table)} entries, expected {n}")
        for value in table:
            if type(value) is not int or not 1 <= value <= n:
                raise ParseError(f"letter {j}: entry {value!r} out of range 1..{n}")
        tables.append(tuple(table))
    try:
        return Dfa.from_tables(tables, tuple(names) if names is not None else None)
    except ValueError as e:
        raise ParseError(str(e)) from None


def load_dfa(text):
    """Parse either the text format or its JSON mirror (sniffed by first char)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return dfa_from_json(text)
    return parse_dfa(text)


def parse_word(dfa, text):
    """Parse a word written with letter names.

    Accepts whitespace-separated names, or (when every name is a single
    character) a bare concatenation like ``baab``.
    """
    text = text.strip()
    if not text:
        return ()
    tokens = text.split()
    if all(t in dfa.names for t in tokens):
        return tuple(dfa.letter_index(t) for t in tokens)
    if all(len(name) == 1 for name in dfa.names):
        joined = "".join(tokens)
        return tuple(dfa.letter_index(c) for c in joined)
    raise ValueError(f"cannot parse word {text!r} with letters {list(dfa.names)}")


def format_word(dfa, w):
    """Render a word with letter names; the empty word prints as (empty)."""
    if not w:
        return "(empty)"
    names = [dfa.names[s] for s in w]
    if all(len(name) == 1 for name in names):
        return "".join(names)
    return " ".join(names)
