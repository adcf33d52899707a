"""Per-automaton theorem checks used by the verification sweeps.

Everything here works on raw transition tables and subset bitmasks so
that the exhaustive sweeps stay fast; an automaton object is only built
for the rare automata whose corank-2 hypothesis holds, and their
certificate is extracted and validated once (``structure.certify``),
shared by every check.  The harness records the faults checks raise.
Where a fast path and a public function decide the same thing, they
share one implementation: forward searches run ``power._bfs`` on the
subset-image tables (the rank search, BFS distances and greedy stages)
and on the pairs (state function, image) of the pin check's words, the
pin check's bridges are decided by ``construct._bridge_search``, the
search ``pin_extension`` runs, the greedy conditions (1) and (4) are
decided by ``extremal._greedy_flags``, and the pipeline check runs
``construct._pipeline``, the core of ``sync_pipeline``, on the tables
and the rank search's parent links.  The only search written here is
``Auto.backward_within``.
The independent reference is the brute-force code in the test suite
(``brute_pin`` for the pin check).
"""

from __future__ import annotations

from functools import lru_cache

from .automaton import Dfa, StateSet, default_names
from .construct import _bridge_search, _corank3_cases, _pipeline
from .extremal import _condition_2, _condition_3, _greedy_flags, pincor_check
from .power import _bfs, _depth, _first_le, _rank_search, _word_to, subset_images_for_table
from .structure import _anchor_pair, _hypothesis_holds, certify, classify_pinlem


@lru_cache(maxsize=None)
def _size_masks(n):
    """Masks over subset indices, one per subset size: the whole subset
    lattice, which only the sweep kernel enumerates."""
    exact = [0] * (n + 1)
    for S in range(1 << n):
        exact[S.bit_count()] |= 1 << S
    return exact


class Auto:
    """Lazy per-automaton analysis shared across the theorem checks."""

    __slots__ = ("n", "tables", "imgs", "full", "_forward", "_dfa", "_cert", "_greedy_flags")

    def __init__(self, n, tables, imgs=None):
        self.n = n
        self.tables = tables
        self.imgs = imgs if imgs is not None else [
            subset_images_for_table(n, t) for t in tables
        ]
        self.full = (1 << n) - 1
        self._forward = None
        self._dfa = None
        self._cert = None
        self._greedy_flags = None

    # -- basic power-automaton data -------------------------------------

    def forward(self):
        """(parent, rank): the power-automaton search from the full set,
        stopped at the first singleton (``power._rank_search``)."""
        if self._forward is None:
            self._forward = _rank_search(self.imgs, self.n)
        return self._forward

    @property
    def rank(self):
        return self.forward()[1]

    def dist_le(self, m):
        """BFS distance from the full set to size <= m (None if unreachable)."""
        parent = self.forward()[0]
        hit = _first_le(parent, m)
        return None if hit is None else _depth(parent, hit)

    def backward_within(self, size, steps):
        """Mask of the sets of ``size`` states that some word of at most
        ``steps`` >= 1 letters takes to a smaller set: a backward search over
        the sets of ``size`` states alone, since images never grow."""
        rest = _size_masks(self.n)[size]
        done = 0
        sources = {}  # layer set -> mask of the layer sets one letter takes to it
        while rest:
            low = rest & -rest
            rest ^= low
            S = low.bit_length() - 1
            for img in self.imgs:
                T = img[S]
                if T.bit_count() < size:
                    done |= low
                    break
                sources[T] = sources.get(T, 0) | low
        frontier = done
        for _ in range(steps - 1):
            grown = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grown |= sources.get(low.bit_length() - 1, 0)
            frontier = grown & ~done
            if not frontier:
                break
            done |= frontier
        return done

    def bfs_stage(self, start_mask, target_size):
        """(length, endpoint) of the lex-least shortest word from start_mask
        to size <= target_size, or None."""
        parent, hit = _bfs(self.imgs, start_mask, lambda T: T.bit_count() <= target_size)
        return None if hit is None else (_depth(parent, hit), hit)

    # -- hypotheses -------------------------------------------------------

    @property
    def corank2_hypothesis(self):
        """Compression to n-2 possible but not in fewer than 4 steps."""
        return _hypothesis_holds(self.forward()[0], self.n)

    def greedy_flags(self):
        """(hypothesis, cond1, cond4) of the greedy conditions, memoized;
        decided by the same procedure as the public condition checks."""
        if self._greedy_flags is None:
            self._greedy_flags = _greedy_flags(self.n, self.imgs)[:3]
        return self._greedy_flags

    # -- objects for the slow path ---------------------------------------

    def dfa(self):
        if self._dfa is None:
            self._dfa = Dfa(self.n, self.tables, default_names(len(self.tables)))
        return self._dfa

    def certificate(self):
        """The validated certificate (``structure.certify``), memoized.

        Only called when corank2_hypothesis holds.  A contradiction is
        raised to each check that asks, certify running again for each.
        """
        if self._cert is None:
            self._cert = certify(self.dfa())
        return self._cert


# ---------------------------------------------------------------------------
# Per-theorem check functions.  Each returns (applicable, violation_detail)
# where violation_detail is None when the claim holds, plus optional stats
# via the collector.
# ---------------------------------------------------------------------------


def check_corank3(auto, stats):
    n = auto.n
    if auto.rank > n - 1:
        return False, None
    for c in (1, 2, 3):
        if auto.rank <= n - c:
            dist = auto.dist_le(n - c)
            if dist is None or dist > c * c:
                return True, {"claim": "corank3", "c": c, "bound": c * c, "dist": dist}
    return True, None


def check_corank4(auto, stats):
    if auto.rank > auto.n - 4:
        return False, None
    dist = auto.dist_le(auto.n - 4)
    if dist > 16:
        return True, {"claim": "corank4", "c": 4, "bound": 16, "dist": dist}
    return True, None


def check_franklpin(auto, stats):
    n = auto.n
    if auto.rank > n - 1:
        return False, None
    for c in range(1, n - auto.rank + 1):
        bound = c * (c + 1) // 2
        layer = _size_masks(n)[n - c + 1]
        missing = layer & ~auto.backward_within(n - c + 1, bound)
        if missing:
            R = (missing & -missing).bit_length() - 1
            return True, {
                "claim": "franklpin",
                "c": c,
                "bound": bound,
                "R": list(StateSet(R)),
            }
    return True, None


def check_greedy_stages(auto, stats):
    n = auto.n
    if n < 4 or auto.rank > n - 3:
        return False, None
    current = auto.full
    stages = []
    while n - current.bit_count() < 3:
        size = current.bit_count()
        hit = auto.bfs_stage(current, size - 1)
        if hit is None:
            return True, {"claim": "greedy-stages", "stalled_at_size": size}
        length, endpoint = hit
        stages.append((size, endpoint.bit_count(), length))
        current = endpoint
    i = j = 0
    for start_size, end_size, length in stages:
        if start_size == n - 1:
            i += length - 1
        if start_size == n - 2:
            j += length - 1
        if end_size == n - 1:
            i += 1
        if end_size == n - 2:
            j += 1
    stats["max_i"] = max(stats.get("max_i", 0), i)
    stats["max_j"] = max(stats.get("max_j", 0), j)
    if i > 3 or j > 6:
        return True, {
            "claim": "greedy-stages",
            "i": i,
            "j": j,
            "stages": [list(s) for s in stages],
        }
    return True, None


def check_corank2_cert(auto, stats):
    if not auto.corank2_hypothesis:
        return False, None
    cert = auto.certificate()
    if cert.a_replaced:
        stats["a_replaced"] = stats.get("a_replaced", 0) + 1
    stats["case_" + cert.case_tag] = stats.get("case_" + cert.case_tag, 0) + 1
    return True, None


def check_lemmaX(auto, stats):
    n = auto.n
    if not auto.corank2_hypothesis or auto.rank > n - 3:
        return False, None
    word, tag = _corank3_cases(auto.dfa(), auto.certificate())
    stats[tag.case] = stats.get(tag.case, 0) + 1
    shortest = auto.dist_le(n - 3)
    if len(word) > 9 or shortest is None or shortest > len(word):
        return True, {
            "claim": "lemmaX",
            "word": list(word),
            "bfs_shortest": shortest,
        }
    return True, None


def check_greedy_equiv(auto, stats):
    hyp, cond1, cond4 = auto.greedy_flags()
    if not hyp:
        return False, None
    if auto.corank2_hypothesis:
        dfa, cert = auto.dfa(), auto.certificate()
        conditions = (cond1, _condition_2(dfa, cert).holds, _condition_3(dfa, cert) is not None, cond4)
        if cond1:
            stats["extremal"] = stats.get("extremal", 0) + 1
    else:
        # Without the corank-2 hypothesis no certificate exists, so
        # conditions (2) and (3) are False.
        conditions = (cond1, False, False, cond4)
    if len(set(conditions)) > 1:
        return True, {"claim": "greedy-equiv", "conditions": list(conditions)}
    return True, None


def check_pinlem(auto, stats):
    if not auto.corank2_hypothesis:
        return False, None
    classification = classify_pinlem(auto.dfa(), auto.certificate())
    if not classification.total:
        return True, {
            "claim": "pinlem",
            "unclassified_letters": list(classification.unclassified),
        }
    return True, None


def check_pinlem_converse(auto, stats):
    pair = _anchor_pair(auto.n, auto.tables)
    if pair is None:
        return False, None
    dist = auto.dist_le(auto.n - 2)
    if dist is not None and dist <= 3:
        return True, {"claim": "pinlem-converse", "dist": dist}
    return True, None


def check_pincor(auto, stats):
    if not auto.corank2_hypothesis or auto.rank > auto.n - 3:
        return False, None
    if not pincor_check(auto.dfa(), auto.certificate()):
        return True, {"claim": "pincor"}
    return True, None


def check_pipeline(auto, stats):
    n = auto.n
    if n < 4 or auto.rank != 1:
        return False, None
    cert = auto.certificate() if auto.corank2_hypothesis else None
    word = _pipeline(auto.imgs, n, auto.forward()[0], cert, auto.dfa)
    stats["max_len"] = max(stats.get("max_len", 0), len(word))
    return True, None


_PIN_WORD_LEN = 6


class _PinStep:
    """One letter of the ``check_pin`` walk: maps a word's node (f, A), its
    state function and its image Q.w, to the node of the word with the
    letter appended, since Q.wj = (Q.w).j is one subset-image lookup."""

    __slots__ = ("table", "img")

    def __init__(self, table, img):
        self.table = table
        self.img = img

    def __getitem__(self, node):
        func, A = node
        return tuple(map(self.table.__getitem__, func)), self.img[A]


def check_pin(auto, stats):
    """Extension-bound check over all words of up to ``_PIN_WORD_LEN`` letters.

    For a word w with state function f and image A = Q.w of a states, the
    bound asks, for every feasible corank c (rank <= n-c) with a <= n-c+1,
    for a bridge u of at most c letters with |A.u.f| <= n-c.  Only
    c* = n-a+1 can fail: for every smaller c, a <= n-c and the empty
    bridge works, since |A.f| <= a.  c* is feasible only when rank < a, and
    then ``construct._bridge_search``, the search ``pin_extension`` runs,
    looks for a bridge of at most c* letters, stopping at the first.  Its
    first candidate, the empty bridge, settles every w whose function does
    not permute A, so c* is the only corank ever reported.

    The words are walked by ``power._bfs`` over the nodes (f, A), one
    ``_PinStep`` per letter: a prefix tree deduplicated on the induced
    state function (A is f's image), since words acting identically have
    identical continuations.  Each node is tested as it is discovered, so
    the first failing word is the lex-least shortest one, and a walk that
    discovers more than ``power._SEARCH_BUDGET`` nodes raises
    ``BudgetExceeded``.
    """
    n = auto.n
    rank = auto.rank
    if rank > n - 1:
        return False, None

    def fails(node):
        func, A = node
        a = A.bit_count()
        return rank < a and _bridge_search(auto.imgs, func, A, n - a + 1)[1] is None

    steps = [_PinStep(table, img) for table, img in zip(auto.tables, auto.imgs)]
    parent, hit = _bfs(steps, (tuple(range(n)), auto.full), fails, _PIN_WORD_LEN)
    if hit is None:
        return True, None
    a = hit[1].bit_count()
    word = _word_to(steps, range(len(steps)), parent, hit)
    return True, {"claim": "pin", "c": n - a + 1, "w": list(word), "start_size": a}


CHECKS = {
    "corank3": check_corank3,
    "pin": check_pin,
    "franklpin": check_franklpin,
    "corank2-cert": check_corank2_cert,
    "lemmaX": check_lemmaX,
    "greedy-equiv": check_greedy_equiv,
    "pinlem": check_pinlem,
    "pinlem-converse": check_pinlem_converse,
    "pincor": check_pincor,
    "pipeline": check_pipeline,
    "greedy-stages": check_greedy_stages,
}

# The theorem ids, in report order: the proved bounds.
THEOREM_IDS = tuple(CHECKS)
# The c = 4 bound is a hunt for findings, not a theorem (Kari's 6-state automaton
# breaks it, Bull. EATCS 73, 2001): kept out of the ids the benchmark sweeps.
CHECKS["corank4"] = check_corank4
