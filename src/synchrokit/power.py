"""Breadth-first search over the power automaton, and the rank.

This module is the oracle everything else is checked against: exact
shortest compressing words, size profiles, and the stage-wise greedy
compressor.  It owns the power-automaton primitives the rest of the
package builds on: the subset-image tables, the per-letter steppers, and
``_bfs``, the one forward search, with lexicographically least parent
links.  Every forward search in the package runs on it, over the forward
closure of its start only, never the full subset lattice.
A search looks images up in one cached map per letter: up to 8 states
the full subset-image table, above that a byte-sliced map (one 256-entry
table per block of 8 states, ORed per byte of the set), so no search
builds a table of more than 256 entries.  Code that takes the images of
only a few sets walks their bits instead (``_ImageMap``).  The reverse
searches are ``rank``, pair merging on the pair automaton in polynomial
time, and ``checks.Auto.backward_within``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automaton import StateSet, _check_letter, _check_subset, _ImageMap
from .errors import BudgetExceeded

__all__ = [
    "CompressionResult",
    "GreedyProfile",
    "shortest_compressing_word",
    "rank",
    "size_profile",
    "greedy_word",
]


@dataclass(frozen=True)
class CompressionResult:
    """A shortest compressing word with its landing set and size profile."""

    word: tuple
    final_set: StateSet
    profile: tuple

    @property
    def length(self):
        return len(self.word)


@dataclass(frozen=True)
class GreedyProfile:
    """Stage decomposition of a greedy compression run.

    Each stage is a shortest word that strictly shrinks the current image;
    concatenating the stages reproduces ``total``.
    """

    stage_words: tuple
    stage_lengths: tuple
    total: tuple


def subset_images_for_table(n, table):
    """Subset-image array (indexed by mask) for one transition table."""
    nsub = 1 << n
    bits = [1 << image for image in table]
    out = [0] * nsub
    for m in range(1, nsub):
        low = m & -m
        out[m] = out[m ^ low] | bits[low.bit_length() - 1]
    return out


class _ByteImageMap:
    """Subset images under one 0-based transition table, one lookup per byte
    of the set: ``blocks[i]`` is the subset-image table of states 8i..8i+7,
    so ``_ByteImageMap(table)[mask]`` ORs one entry per byte of ``mask``."""

    __slots__ = ("blocks",)

    def __init__(self, table):
        slices = [table[i:i + 8] for i in range(0, len(table), 8)]
        self.blocks = [subset_images_for_table(len(part), part) for part in slices]

    def __getitem__(self, mask):
        out = 0
        for block in self.blocks:
            out |= block[mask & 255]
            mask >>= 8
        return out


class _TwoByteImageMap(_ByteImageMap):
    """``_ByteImageMap`` unrolled for 9..16 states, where the loop costs
    about as much as the lookups: unrolled, the benchmark's ``compress_s``
    (mostly C_14 and C_15) fell 0.054 -> 0.040 s (2 CPUs, Python 3.11.7)."""

    __slots__ = ()

    def __getitem__(self, mask):
        low, high = self.blocks
        return low[mask & 255] | high[mask >> 8]


@lru_cache(maxsize=128)
def subset_image_tables(dfa):
    """One subset-image map per letter, indexed by mask: the full table up to
    8 states (the single 256-entry block of a byte-sliced map), a
    ``_TwoByteImageMap`` up to 16 and a ``_ByteImageMap`` above."""
    n = dfa.n
    if n <= 8:
        return [subset_images_for_table(n, table) for table in dfa.letters]
    byte_map = _TwoByteImageMap if n <= 16 else _ByteImageMap
    return [byte_map(table) for table in dfa.letters]


def _steppers(dfa, letter_indices):
    """The cached subset-image maps of the given letters, in order.  Every
    search that may expand many sets gets its maps here."""
    maps = subset_image_tables(dfa)
    return [maps[j] for j in letter_indices]


def _normalize_letters(dfa, allowed_letters):
    if allowed_letters is None:
        return tuple(range(dfa.k))
    letters = sorted(set(allowed_letters))
    if not letters:
        raise ValueError("allowed_letters must be non-empty when given")
    for j in letters:
        if not isinstance(j, int) or not 0 <= j < dfa.k:
            raise ValueError(f"invalid letter index {j}")
    return tuple(letters)


# The most nodes one search may discover.  No automaton of at most 18 states
# has more nonempty subsets, and a sweep (at most 13 states) has 8,191; the
# ``pin`` check's walk over state functions can reach it with many letters.
_SEARCH_BUDGET = 1 << 18


def _bfs(images, start, stop=None, max_depth=None):
    """Forward breadth-first search over the power automaton.

    ``images`` are the per-letter maps, indexed by node, explored in order
    from a FIFO frontier: a node is a set with the subset-image maps (see
    ``_steppers``), or a pair led by a set or by the pin check's state
    function, which names the nodes in the budget error.  Returns
    (parent, hit): ``parent`` maps every discovered node to the node it was
    first reached from (None for the start), in discovery order, and
    ``hit`` is the first discovered node satisfying ``stop`` -- the start
    included -- or None when the search ends, or reaches ``max_depth``,
    without one.  Raises ``BudgetExceeded`` once more than
    ``_SEARCH_BUDGET`` nodes are discovered.
    """
    parent = {start: None}
    if stop is not None and stop(start):
        return parent, start
    frontier = [start]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        nxt = []
        # Each expanded set adds at most one set per letter, so only a layer
        # that could pass the budget is checked, after every expanded set.
        careful = len(parent) + len(frontier) * len(images) > _SEARCH_BUDGET
        for S in frontier:
            for image in images:
                T = image[S]
                if T not in parent:
                    parent[T] = S
                    if stop is not None and stop(T):
                        return parent, T
                    nxt.append(T)
            if careful and len(parent) > _SEARCH_BUDGET:
                first = start[0] if isinstance(start, tuple) else start
                nodes = "sets" if isinstance(first, int) else "state functions"
                raise BudgetExceeded(
                    f"power-automaton search discovered {len(parent)} {nodes}, "
                    f"budget is {_SEARCH_BUDGET}",
                    count=len(parent),
                )
        frontier = nxt
    return parent, None


def _rank_search(images, n):
    """(parent, rank): the search from the full set, stopped at the first singleton."""
    parent, hit = _bfs(images, (1 << n) - 1, lambda T: T.bit_count() == 1)
    return parent, 1 if hit is not None else min(S.bit_count() for S in parent)


def _first_le(parent, m):
    """The first discovered set of size <= m in ``_bfs`` parent links, or
    None.  Sets are found in BFS order, so it ends the lex-least shortest
    word, even in a search run on to a smaller set (the rank search)."""
    for S in parent:
        if S.bit_count() <= m:
            return S
    return None


def _depth(parent, node):
    """Length of the parent chain from the search start to ``node``."""
    depth = 0
    while parent[node] is not None:
        node = parent[node]
        depth += 1
    return depth


def _word_to(images, letter_indices, parent, node):
    """The lexicographically least shortest word from the BFS start to ``node``.

    ``images`` are the maps the search ran on, one per letter of
    ``letter_indices``.  The letter of each parent link is the first
    letter, in search order, taking the parent onto the child: the one
    that discovered the child.
    """
    labelled = list(zip(letter_indices, images))
    word = []
    while parent[node] is not None:
        S = parent[node]
        word.append(next(j for j, image in labelled if image[S] == node))
        node = S
    word.reverse()
    return tuple(word)


def shortest_compressing_word(dfa, start, target_size, allowed_letters=None, max_len=None):
    """Minimal-length word over the allowed letters compressing ``start``.

    Returns a CompressionResult whose word takes ``start`` to a set of size
    at most ``target_size``, or None when no such word exists (within
    ``max_len`` steps, if given).  Ties are broken by the lexicographically
    smallest letter-index sequence, which makes results reproducible.
    """
    if not 1 <= target_size <= len(start):
        raise ValueError(f"target size {target_size} out of range 1..{len(start)}")
    if max_len is not None and max_len < 0:
        raise ValueError("max_len must be non-negative")
    if start.mask >> dfa.n:
        raise ValueError("start set contains states beyond the automaton")
    letters = _normalize_letters(dfa, allowed_letters)
    images = _steppers(dfa, letters)
    parent, hit = _bfs(images, start.mask, lambda T: T.bit_count() <= target_size, max_len)
    if hit is None:
        return None
    word = _word_to(images, letters, parent, hit)
    profile = size_profile(dfa, word, start=start)
    return CompressionResult(word=word, final_set=StateSet(hit), profile=profile)


def rank(dfa):
    """Minimum reachable image size of the full state set; 1 means synchronizable.

    Greedy pair merging, polynomial in n: while some pair of the image S = Q.w
    has a merging word, apply it.  Then no word shrinks S, and Q.wv, a subset
    of Q.v, gives |S| <= |Q.v| for every word v, so |S| is the rank.
    """
    n, tables = dfa.n, dfa.letters
    preimages = [[[] for _ in range(n)] for _ in tables]
    for pre, table in zip(preimages, tables):
        for q, image in enumerate(table):
            pre[image].append(q)
    # Reverse search over the pair automaton, out of the diagonal: merge[(p, q)],
    # p < q, is a letter taking {p, q} to a pair found earlier, or to one state.
    merge = {}
    frontier = [(r, r) for r in range(n)]
    while frontier:
        found = []
        for p1, q1 in frontier:
            for j, pre in enumerate(preimages):
                for p in pre[p1]:
                    for q in pre[q1]:
                        pair = (p, q) if p < q else (q, p)
                        if p != q and pair not in merge:
                            merge[pair] = j
                            found.append(pair)
        frontier = found
    S = (1 << n) - 1
    images = [_ImageMap(table) for table in tables]
    while True:
        states = [q for q in range(n) if S >> q & 1]
        pair = next(((p, q) for i, p in enumerate(states) for q in states[i + 1:]
                     if (p, q) in merge), None)
        if pair is None:
            return len(states)
        p, q = pair
        while p != q:
            j = merge[(p, q) if p < q else (q, p)]
            S = images[j][S]
            p, q = tables[j][p], tables[j][q]


def size_profile(dfa, w, start=None):
    """Sizes of start.prefix for every prefix of ``w``, including the empty one."""
    if start is None:
        start = dfa.full_set()
    _check_subset(dfa, start)
    images = _steppers(dfa, range(dfa.k))
    mask = start.mask
    sizes = [mask.bit_count()]
    for s in w:
        _check_letter(dfa, s)
        mask = images[s][mask]
        sizes.append(mask.bit_count())
    return tuple(sizes)


def greedy_word(dfa, target_corank):
    """Stage-wise greedy compression of the full state set.

    Repeatedly appends a shortest word that strictly shrinks the current
    image, until the corank reaches ``target_corank``.  Returns None when a
    stage finds no shrinking word (greedy stalls).
    """
    if target_corank < 1:
        raise ValueError("target corank must be at least 1")
    images = _steppers(dfa, range(dfa.k))
    current = (1 << dfa.n) - 1
    stage_words = []
    total = []
    while dfa.n - current.bit_count() < target_corank:
        size = current.bit_count()
        parent, current = _bfs(images, current, lambda T: T.bit_count() < size)
        if current is None:
            return None
        stage_words.append(_word_to(images, range(dfa.k), parent, current))
        total.extend(stage_words[-1])
    return GreedyProfile(
        stage_words=tuple(stage_words),
        stage_lengths=tuple(len(word) for word in stage_words),
        total=tuple(total),
    )
