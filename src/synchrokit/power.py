"""Breadth-first search over the power automaton.

This module is the oracle everything else is checked against: exact
shortest compressing words, the rank of an automaton (the minimum
reachable image size), size profiles, and the stage-wise greedy
compressor.  It owns the power-automaton primitives the rest of the
package builds on: the subset-image tables, the per-letter steppers, and
the one forward search with lexicographically least parent links, which
the verification sweep's kernel runs too.  All searches run over the
forward closure of the start set only, never the full subset lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .automaton import StateSet, _check_letter, _check_subset, _ImageMap

__all__ = [
    "CompressionResult",
    "GreedyProfile",
    "shortest_compressing_word",
    "rank",
    "size_profile",
    "greedy_word",
]

# Full subset-image tables are precomputed up to this many states; beyond
# that images are computed per set (the tables would need 2^n entries).
_TABLE_LIMIT = 13


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


@lru_cache(maxsize=None)
def _size_masks(n):
    """(exact, le): masks over subset indices grouped by subset size."""
    exact = [0] * (n + 1)
    for S in range(1 << n):
        exact[S.bit_count()] |= 1 << S
    le = [0] * (n + 1)
    acc = 0
    for s in range(n + 1):
        acc |= exact[s]
        le[s] = acc
    return exact, le


@lru_cache(maxsize=128)
def subset_image_tables(dfa):
    """Per-letter tables mapping every subset bitmask to its image bitmask.

    Returns None when the automaton is too large for full tables.
    """
    if dfa.n > _TABLE_LIMIT:
        return None
    return [subset_images_for_table(dfa.n, table) for table in dfa.letters]


def _steppers(dfa, letter_indices):
    """One subset-image map per letter, indexed by mask: the full table when
    possible, per-set images above the table limit."""
    tables = subset_image_tables(dfa)
    if tables is not None:
        return [tables[j] for j in letter_indices]
    return [_ImageMap(dfa.letters[j]) for j in letter_indices]


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


def _bfs(images, start_mask, stop=None, max_depth=None):
    """Forward breadth-first search over the power automaton.

    ``images`` are the per-letter subset-image maps (see ``_steppers``),
    explored in order from a FIFO frontier.  Returns (parent, hit):
    ``parent`` maps every discovered set to the set it was first reached
    from (None for the start), in discovery order, and ``hit`` is the first
    discovered set satisfying ``stop`` -- the start included -- or None
    when the search ends, or reaches ``max_depth``, without one.
    """
    parent = {start_mask: None}
    if stop is not None and stop(start_mask):
        return parent, start_mask
    frontier = [start_mask]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        nxt = []
        for S in frontier:
            for image in images:
                T = image[S]
                if T not in parent:
                    parent[T] = S
                    if stop is not None and stop(T):
                        return parent, T
                    nxt.append(T)
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
    """Minimum reachable image size of the full state set; 1 means synchronizable."""
    return _rank_search(_steppers(dfa, range(dfa.k)), dfa.n)[1]


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
