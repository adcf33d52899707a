"""Detection of automata on which greedy compression is as slow as possible.

For automata admitting a word of length at most 9 whose image has size
exactly n-3, four conditions are equivalent: (1) every such word has
length >= 4 and its 4-letter prefix still has size > n-2; (2) the
corank-2 certificate exists and no qualifying word shaped b.a.?.b drops
to n-2 at step 4; (3) under some renumbering every letter is the
identity on {1,2,3,4}, the 4-cycle 1->2->3->4->1, or the {1,2}-merge
fixing 3 and 4; (4) every qualifying word has length exactly 9 and the
fixed size profile (n-1 four times, n-2 four times, n-3).  Conditions
(1) and (4), and the hypothesis, are decided by the searches that spell
their witnesses (``_greedy_flags``, shared with the verification sweep).
Each is a ``power._bfs`` call under the search budget, and none goes
beyond 9 letters, so they take any n; a late failure of (4) is witnessed
by the least 9-letter word leaving the forced profile.  (2) runs the
fat-prefix scan of (1) on its own prefixes b.a.?.b, and (3) is decided
independently of the others.  The module asserts the equivalence and
builds the extremal witness family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automaton import Dfa, _ImageMap, apply_letter, apply_word
from .errors import HypothesisFailed, PreconditionFailed
from .power import _bfs, _depth, _word_to, rank, subset_image_tables
from .structure import _adb1_shape, _initial_renumbering, certify

__all__ = [
    "GreedyConditionReport",
    "Condition2Result",
    "hypothesis_greedy",
    "check_condition_1",
    "check_condition_2",
    "check_condition_3",
    "check_condition_4",
    "assert_equivalence",
    "classify_greedy_letter",
    "build_extremal_dfa",
    "pincor_check",
]


@dataclass(frozen=True)
class Condition2Result:
    holds: bool
    certificate: object
    witness: tuple | None


@dataclass(frozen=True)
class GreedyConditionReport:
    """The four condition outcomes plus witness data per condition.

    ``consistent`` is False exactly when the four booleans disagree, which
    would be a counterexample to their equivalence.
    """

    cond1: bool
    cond2: bool
    cond3: bool
    cond4: bool
    witness1: tuple | None
    witness2: tuple | None
    renumbering3: tuple | None
    witness4: tuple | None

    @property
    def conditions(self):
        return (self.cond1, self.cond2, self.cond3, self.cond4)

    @property
    def consistent(self):
        return len(set(self.conditions)) == 1

    def to_json(self):
        return {
            "cond1": self.cond1,
            "cond2": self.cond2,
            "cond3": self.cond3,
            "cond4": self.cond4,
            "consistent": self.consistent,
            "witness1": list(self.witness1) if self.witness1 else None,
            "witness2": list(self.witness2) if self.witness2 else None,
            "renumbering3": list(self.renumbering3) if self.renumbering3 else None,
            "witness4": list(self.witness4) if self.witness4 else None,
        }


def _profile(n):
    """The forced size profile of a qualifying word under condition (4)."""
    return (n,) + (n - 1,) * 4 + (n - 2,) * 4 + (n - 3,)


def _greedy_flags(n, tables):
    """(hypothesis, cond1, cond4, words), decided by the searches that spell
    their witnesses on the per-letter subset-image maps ``tables``.

    One search from the full set, stopped at the first set of size exactly
    n-3 within 9 letters, decides the hypothesis; cond1 and cond4 only mean
    something when it holds (both are True otherwise).  The depth t of that
    set settles almost every automaton: (1) fails when t <= 3 and (4) when
    t <= 8.  Otherwise (1) fails exactly when ``_fat_prefix_word`` finds a
    word, and (4) when ``_deviating_word`` does.  No search goes beyond 9
    letters, so there is no cap on n.  The sweep kernel and the public
    checks both decide here.  ``words`` is None without the hypothesis,
    else (parent, hit, fat, deviating): the first search's parent links and
    hit, and the late searches' words (None when not run or not found),
    from which the witnesses are spelled without searching again.
    """
    parent, hit = _bfs(tables, (1 << n) - 1, lambda T: T.bit_count() == n - 3, 9)
    if hit is None:
        return False, True, True, None
    t = _depth(parent, hit)
    every_prefix = itertools.product(range(len(tables)), repeat=4)
    fat = _fat_prefix_word(n, tables, every_prefix) if t > 3 else None
    deviating = _deviating_word(n, tables) if t > 8 else None
    return True, t > 3 and fat is None, t > 8 and deviating is None, (parent, hit, fat, deviating)


def _decide(dfa):
    """(subset-image maps, greedy flags); the maps are the cached ones,
    byte-sliced above 8 states, so the decision and the witnesses share them."""
    tables = subset_image_tables(dfa)
    return tables, _greedy_flags(dfa.n, tables)


def hypothesis_greedy(dfa):
    """True when some word of length <= 9 reaches size exactly n-3."""
    return _decide(dfa)[1][0]


def check_condition_1(dfa):
    """Every qualifying word has length >= 4 and a 4-prefix of size > n-2.

    Qualifying means length <= 9 with image of size exactly n-3.  Returns
    (holds, violating word or None).
    """
    tables, (_, cond1, _, words) = _decide(dfa)
    return (True, None) if cond1 else (False, _witness(tables, words, words[2]))


def _witness(tables, words, late):
    """The qualifying word breaking condition (1) or (4), given the decision's
    ``words`` (see ``_greedy_flags``) when it fails: ``late``, the word of the
    condition's late search (fat-prefix or deviating), or where none was
    searched, the least shortest qualifying word, of at most 3 letters for
    (1) and 8 for (4)."""
    parent, hit = words[:2]
    return _word_to(tables, range(len(tables)), parent, hit) if late is None else late


def _fat_prefix_word(n, tables, prefixes):
    """The first of the 4-letter ``prefixes`` whose image has size <= n-2
    and reaches size n-3 within five more letters, completed by its least
    shortest such word, or None."""
    for prefix in prefixes:
        S = (1 << n) - 1
        for j in prefix:
            S = tables[j][S]
        if S.bit_count() <= n - 2:
            parent, hit = _bfs(tables, S, lambda T: T.bit_count() == n - 3, 5)
            if hit is not None:
                return prefix + _word_to(tables, range(len(tables)), parent, hit)
    return None


class _ProfileStep:
    """One letter of ``_deviating_word``'s search, over nodes (S, t): a set,
    and how many letters kept to ``_profile(n)`` (-1, for good, once one did not)."""

    __slots__ = ("image", "profile")

    def __init__(self, image, profile):
        self.image = image
        self.profile = profile

    def __getitem__(self, node):
        S, t = node
        T = self.image[S]
        return T, (t + 1 if t >= 0 and T.bit_count() == self.profile[t + 1] else -1)


def _deviating_word(n, tables):
    """The least 9-letter word to size n-3 leaving the forced size profile,
    or None.  Precondition, which ``_greedy_flags`` ensures: no word of at
    most 8 letters reaches size n-3.  So a set off the profile keeps one
    node, at its least depth j, losing no hit: at depth j' > j of a 9-letter
    word to n-3, it would give one of j + 9 - j' < 9 letters."""
    steps = [_ProfileStep(table, _profile(n)) for table in tables]
    stop = lambda node: node[1] < 0 and node[0].bit_count() == n - 3
    parent, hit = _bfs(steps, ((1 << n) - 1, 0), stop, 9)
    return None if hit is None else _word_to(steps, range(len(steps)), parent, hit)


def check_condition_4(dfa):
    """Every qualifying word has length 9 and the fixed 4+4+1 size profile."""
    tables, (_, _, cond4, words) = _decide(dfa)
    return (True, None) if cond4 else (False, _witness(tables, words, words[3]))


def _certificate(dfa):
    """The validated corank-2 certificate, or None when the hypothesis
    fails; a CertificateContradiction propagates."""
    try:
        return certify(dfa)
    except HypothesisFailed:
        return None


def check_condition_2(dfa):
    """The certificate exists and no qualifying word shaped b.a.?.b is fast.

    The quantifier ranges over qualifying words (length <= 9, image of size
    exactly n-3) whose first, second and fourth letters play the b, a and b
    roles under some valid renumbering; the condition demands their
    4-prefix stays above size n-2.  Because all candidate b letters share
    one merged pair and one missing state, the candidate roles can be
    enumerated directly.
    """
    return _condition_2(dfa, _certificate(dfa))


def _condition_2(dfa, cert):
    if cert is None:
        return Condition2Result(False, None, None)
    u, v = cert.renumbering.index(1), cert.renumbering.index(2)
    shapes = [_adb1_shape(table, u, v) for table in dfa.letters]
    b_candidates = [s for s in range(dfa.k) if shapes[s] == "B1"]
    a_candidates = [s for s in range(dfa.k) if shapes[s] == "AD" and dfa.letters[s][u] == v]
    # The certificate's own a is tried first; ``holds`` tries every w3, so
    # only the reported witness depends on this order.
    w3_order = [cert.a_letter] + [s for s in range(dfa.k) if s != cert.a_letter]
    prefixes = ((b, a, w3, b) for b in b_candidates for a in a_candidates for w3 in w3_order)
    word = _fat_prefix_word(dfa.n, subset_image_tables(dfa), prefixes)
    return Condition2Result(word is None, cert, None if word is None else word[:4])


def classify_greedy_letter(dfa, s, numbering):
    """Class of letter s under a 4-state numbering (p1, p2, p3, p4).

    EQ_I fixes all four (a full-image letter), EQ_A cycles them, EQ_B
    merges {p1,p2} missing p1 and fixes p3, p4, EQ_D fixes p1 and p3 and
    swaps p2 with p4; anything else is OTHER.  Action outside the four
    states is only constrained through the image clause.
    """
    p1, p2, p3, p4 = numbering
    full = dfa.full_set()
    image = apply_letter(dfa, full, s)
    act = lambda q: dfa.delta(q, s)
    if image == full:
        if act(p1) == p1 and act(p2) == p2 and act(p3) == p3 and act(p4) == p4:
            return "EQ_I"
        if act(p1) == p2 and act(p2) == p3 and act(p3) == p4 and act(p4) == p1:
            return "EQ_A"
        if act(p1) == p1 and act(p2) == p4 and act(p3) == p3 and act(p4) == p2:
            return "EQ_D"
        return "OTHER"
    missing = full.mask & ~image.mask
    if missing == 1 << (p1 - 1) and act(p1) == act(p2) and act(p3) == p3 and act(p4) == p4:
        return "EQ_B"
    return "OTHER"


def check_condition_3(dfa):
    """A renumbering making every letter EQ_I, EQ_A or EQ_B, if one exists.

    Candidates come from the certificate: the orbit of 1 under the a role
    must be exactly the four cycled states, tried in its four rotations.
    Returns the full renumbering (original -> new label) or None.
    """
    return _condition_3(dfa, _certificate(dfa))


def _condition_3(dfa, cert):
    if cert is None or len(cert.X) != 4:
        return None
    new_to_old = {new: old for old, new in enumerate(cert.renumbering, start=1)}
    orbit = [new_to_old[label] for label in cert.X]
    for rot in range(4):
        numbering = tuple(orbit[(i + rot) % 4] for i in range(4))
        classes = [classify_greedy_letter(dfa, s, numbering) for s in range(dfa.k)]
        if all(c in ("EQ_I", "EQ_A", "EQ_B") for c in classes):
            return _initial_renumbering(dfa.n, *numbering)
    return None


def assert_equivalence(dfa):
    """Evaluate all four conditions; disagreement flags a counterexample."""
    tables, (hyp, cond1, cond4, words) = _decide(dfa)
    if not hyp:
        raise HypothesisFailed("no word of length <= 9 reaches size exactly n-3")
    cert = _certificate(dfa)
    res2 = _condition_2(dfa, cert)
    renum3 = _condition_3(dfa, cert)
    return GreedyConditionReport(
        cond1=cond1,
        cond2=res2.holds,
        cond3=renum3 is not None,
        cond4=cond4,
        witness1=None if cond1 else _witness(tables, words, words[2]),
        witness2=res2.witness,
        renumbering3=renum3,
        witness4=None if cond4 else _witness(tables, words, words[3]),
    )


def build_extremal_dfa(n, include_identity=True, tail_permutation=None):
    """The witness family: 4-cycle letter, {1,2}-merge letter, optional identity.

    States 5..n form a tail; the cycle letter acts on it by
    ``tail_permutation`` (a tuple of images for states 5..n, default
    identity), the merge letter fixes it.  Requires n >= 4; n = 4 has an
    empty tail.
    """
    if n < 4:
        raise ValueError("the extremal family needs at least 4 states")
    tail = list(range(5, n + 1))
    if tail_permutation is None:
        tail_permutation = tuple(tail)
    else:
        tail_permutation = tuple(tail_permutation)
        if sorted(tail_permutation) != tail:
            raise ValueError("tail_permutation must permute states 5..n")
    cycle = [2, 3, 4, 1] + list(tail_permutation)
    merge = [2, 2, 3, 4] + tail
    tables = []
    names = []
    if include_identity:
        tables.append(list(range(1, n + 1)))
        names.append("e")
    tables.append(cycle)
    names.append("a")
    tables.append(merge)
    names.append("b")
    return Dfa.from_tables(tables, tuple(names))


def pincor_check(dfa, cert):
    """When Q.badb needs more than 5 further steps, b a a a b a a a b works.

    Vacuously true when the 5-step compression from Q.badb exists;
    otherwise evaluates |Q.(b a^3 b a^3 b)| = n-3 directly.  Needs n >= 4,
    so that size n-3 is not empty, and rank <= n-3, which a 5-step hit
    already proves.
    """
    n = dfa.n
    if n < 4:
        raise PreconditionFailed(f"the pincor check needs n >= 4 states, got {n}")
    b, a, d = cert.b_letter, cert.a_letter, cert.d_letter
    start = apply_word(dfa, dfa.full_set(), (b, a, d, b)).mask
    images = [_ImageMap(table) for table in dfa.letters]
    if _bfs(images, start, lambda T: T.bit_count() <= n - 3, 5)[1] is not None:
        return True
    if rank(dfa) > n - 3:
        raise PreconditionFailed("automaton does not compress to size n-3")
    word = (b, a, a, a, b, a, a, a, b)
    landed = apply_word(dfa, dfa.full_set(), word)
    return len(landed) == n - 3
