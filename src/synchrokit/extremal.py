"""Detection of automata on which greedy compression is as slow as possible.

For automata admitting a word of length at most 9 whose image has size
exactly n-3, four conditions are equivalent: (1) every such word has
length >= 4 and its 4-letter prefix still has size > n-2; (2) the
corank-2 certificate exists and no qualifying word shaped b.a.?.b drops
to n-2 at step 4; (3) under some renumbering every letter is the
identity on {1,2,3,4}, the 4-cycle 1->2->3->4->1, or the {1,2}-merge
fixing 3 and 4; (4) every qualifying word has length exactly 9 and the
fixed size profile (n-1 four times, n-2 four times, n-3).  This module
implements each condition independently, asserts their equivalence, and
builds the extremal witness family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import Dfa, apply_letter, apply_word, default_names
from .errors import CertificateContradiction, HypothesisFailed
from .power import _TABLE_LIMIT, _bfs, shortest_compressing_word, subset_image_tables
from .structure import (
    _View,
    extract_certificate,
    satisfies_corank2_hypothesis,
)

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


def _tables_or_raise(dfa):
    tables = subset_image_tables(dfa)
    if tables is None:
        raise ValueError(
            f"condition checks enumerate the subset lattice and are capped at n <= {_TABLE_LIMIT}"
        )
    return tables


def _exact_layers(dfa, limit):
    """Layer t maps every set reachable by some length-t word to its
    lexicographically least such word's (parent, letter) link."""
    tables = _tables_or_raise(dfa)
    full = (1 << dfa.n) - 1
    layers = [{full: None}]
    letters = list(range(dfa.k))
    for _ in range(limit):
        new = {}
        prev = layers[-1]
        for S in prev:
            for j in letters:
                T = tables[j][S]
                if T not in new:
                    new[T] = (S, j)
        layers.append(new)
    return layers


def _word_from_layers(layers, t, mask):
    word = []
    node = mask
    for depth in range(t, 0, -1):
        node, letter = layers[depth][node]
        word.append(letter)
    word.reverse()
    return tuple(word)


def _exact_dist(dfa, target_size):
    """For every subset, distance to some set of size exactly target_size."""
    tables = _tables_or_raise(dfa)
    nsub = 1 << dfa.n
    preds = [[] for _ in range(nsub)]
    for S in range(nsub):
        for j in range(dfa.k):
            preds[tables[j][S]].append(S)
    dist = [None] * nsub
    frontier = [S for S in range(nsub) if S.bit_count() == target_size]
    for S in frontier:
        dist[S] = 0
    d = 0
    while frontier:
        d += 1
        nxt = []
        for T in frontier:
            for S in preds[T]:
                if dist[S] is None:
                    dist[S] = d
                    nxt.append(S)
        frontier = nxt
    return dist


def hypothesis_greedy(dfa):
    """True when some word of length <= 9 reaches size exactly n-3."""
    target = dfa.n - 3
    if target < 1:
        return False
    layers = _exact_layers(dfa, 9)
    return any(
        any(S.bit_count() == target for S in layer) for layer in layers
    )


def _first_exact_hit(layers, target, lo, hi):
    for t in range(lo, hi + 1):
        for S in layers[t]:
            if S.bit_count() == target:
                return t, S
    return None


def check_condition_1(dfa):
    """Every qualifying word has length >= 4 and a 4-prefix of size > n-2.

    Qualifying means length <= 9 with image of size exactly n-3.  Returns
    (holds, violating word or None).
    """
    n = dfa.n
    target = n - 3
    layers = _exact_layers(dfa, 9)
    hit = _first_exact_hit(layers, target, 0, 3)
    if hit is not None:
        return False, _word_from_layers(layers, hit[0], hit[1])
    dist = _exact_dist(dfa, target)
    tables = subset_image_tables(dfa)
    for S, link in layers[4].items():
        if S.bit_count() <= n - 2 and dist[S] is not None and dist[S] <= 5:
            prefix = _word_from_layers(layers, 4, S)
            completion = []
            node = S
            while node.bit_count() != target:
                d = dist[node]
                for j in range(dfa.k):
                    T = tables[j][node]
                    if dist[T] is not None and dist[T] == d - 1:
                        completion.append(j)
                        node = T
                        break
            return False, prefix + tuple(completion)
    return True, None


def check_condition_4(dfa):
    """Every qualifying word has length 9 and the fixed 4+4+1 size profile."""
    n = dfa.n
    target = n - 3
    layers = _exact_layers(dfa, 9)
    hit = _first_exact_hit(layers, target, 0, 8)
    if hit is not None:
        return False, _word_from_layers(layers, hit[0], hit[1])
    profile = (n, n - 1, n - 1, n - 1, n - 1, n - 2, n - 2, n - 2, n - 2, n - 3)
    tables = subset_image_tables(dfa)
    full = (1 << n) - 1
    on_profile = {full: None}
    deviated = {}
    trace = [(dict(on_profile), dict(deviated))]
    for t in range(1, 10):
        new_on = {}
        new_dev = {}
        for S in on_profile:
            for j in range(dfa.k):
                T = tables[j][S]
                if T.bit_count() == profile[t]:
                    new_on.setdefault(T, (S, j, "P"))
                else:
                    new_dev.setdefault(T, (S, j, "P"))
        for S in deviated:
            for j in range(dfa.k):
                T = tables[j][S]
                new_dev.setdefault(T, (S, j, "N"))
        on_profile, deviated = new_on, new_dev
        trace.append((on_profile, deviated))
    for S in deviated:
        if S.bit_count() == target:
            word = []
            node, src = S, "N"
            for t in range(9, 0, -1):
                table = trace[t][1] if src == "N" else trace[t][0]
                node, letter, src = table[node]
                word.append(letter)
            word.reverse()
            return False, tuple(word)
    return True, None


def _reachable_exact_within(dfa, start_mask, target_size, steps):
    _parent, hit = _bfs(
        dfa, start_mask, range(dfa.k), lambda T: T.bit_count() == target_size, steps
    )
    return hit is not None


def check_condition_2(dfa):
    """The certificate exists and no qualifying word shaped b.a.?.b is fast.

    The quantifier ranges over qualifying words (length <= 9, image of size
    exactly n-3) whose first, second and fourth letters play the b, a and b
    roles under some valid renumbering; the condition demands their
    4-prefix stays above size n-2.  Because all candidate b letters share
    one merged pair and one missing state, the candidate roles can be
    enumerated directly.
    """
    n = dfa.n
    if not satisfies_corank2_hypothesis(dfa):
        return Condition2Result(False, None, None)
    try:
        cert = extract_certificate(dfa)
    except CertificateContradiction:
        return Condition2Result(False, None, None)
    view = _View(dfa, cert.renumbering)
    b_candidates = [
        s
        for s in range(dfa.k)
        if view.image(view.full, s) == view.without(1) and view.act(1, s) == view.act(2, s)
    ]
    a_candidates = [
        s
        for s in range(dfa.k)
        if view.image(view.full, s) == view.full and view.act(1, s) == 2
    ]
    # Sharpened search order: the certificate's own a first, then letters
    # fixing 1 and swapping the orbit diagonal, then everything else; the
    # outcome is order-independent since all of them are tried.
    def w3_order():
        ranked = [cert.a_letter]
        if len(cert.X) == 4:
            x = cert.X
            for s in range(dfa.k):
                if s in ranked:
                    continue
                if (
                    view.image(view.full, s) == view.full
                    and view.act(1, s) == 1
                    and view.act(x[1], s) == x[3]
                    and view.act(x[2], s) == x[2]
                    and view.act(x[3], s) == x[1]
                ):
                    ranked.append(s)
        ranked.extend(s for s in range(dfa.k) if s not in ranked)
        return ranked

    target = n - 3
    for b in b_candidates:
        for a in a_candidates:
            for w3 in w3_order():
                word = (b, a, w3, b)
                S = apply_word(dfa, dfa.full_set(), word).mask
                if S.bit_count() <= n - 2 and _reachable_exact_within(dfa, S, target, 5):
                    return Condition2Result(False, cert, word)
    return Condition2Result(True, cert, None)


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
    if not satisfies_corank2_hypothesis(dfa):
        return None
    try:
        cert = extract_certificate(dfa)
    except CertificateContradiction:
        return None
    if len(cert.X) != 4:
        return None
    new_to_old = {new: old for old, new in enumerate(cert.renumbering, start=1)}
    orbit = [new_to_old[label] for label in cert.X]
    for rot in range(4):
        numbering = tuple(orbit[(i + rot) % 4] for i in range(4))
        classes = [classify_greedy_letter(dfa, s, numbering) for s in range(dfa.k)]
        if all(c in ("EQ_I", "EQ_A", "EQ_B") for c in classes):
            renumbering = [0] * dfa.n
            for label, state in enumerate(numbering, start=1):
                renumbering[state - 1] = label
            label = 5
            for q in range(1, dfa.n + 1):
                if q not in numbering:
                    renumbering[q - 1] = label
                    label += 1
            return tuple(renumbering)
    return None


def assert_equivalence(dfa):
    """Evaluate all four conditions; disagreement flags a counterexample."""
    if not hypothesis_greedy(dfa):
        raise HypothesisFailed("no word of length <= 9 reaches size exactly n-3")
    cond1, witness1 = check_condition_1(dfa)
    res2 = check_condition_2(dfa)
    renum3 = check_condition_3(dfa)
    cond4, witness4 = check_condition_4(dfa)
    return GreedyConditionReport(
        cond1=cond1,
        cond2=res2.holds,
        cond3=renum3 is not None,
        cond4=cond4,
        witness1=witness1,
        witness2=res2.witness,
        renumbering3=renum3,
        witness4=witness4,
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
    if include_identity:
        return Dfa.from_tables(tables, tuple(names))
    return Dfa.from_tables(tables, default_names(2))


def pincor_check(dfa, cert):
    """When Q.badb needs more than 5 further steps, b a a a b a a a b works.

    Vacuously true when the 5-step compression from Q.badb exists;
    otherwise evaluates |Q.(b a^3 b a^3 b)| = n-3 directly.
    """
    n = dfa.n
    b, a, d = cert.b_letter, cert.a_letter, cert.d_letter
    start = apply_word(dfa, dfa.full_set(), (b, a, d, b))
    res = shortest_compressing_word(dfa, start, n - 3, max_len=5)
    if res is not None:
        return True
    word = (b, a, a, a, b, a, a, a, b)
    landed = apply_word(dfa, dfa.full_set(), word)
    return len(landed) == n - 3
