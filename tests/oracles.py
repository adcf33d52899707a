"""Brute-force reference computations the library is tested against.

Everything here is deliberately naive: plain word enumeration and set
application, with no shared machinery with the package internals beyond
apply_word itself.
"""

import itertools
import random

from synchrokit import Dfa, apply_word


def all_words(k, length):
    return itertools.product(range(k), repeat=length)


def brute_min_length_to_size(dfa, start, target_size, max_len):
    """Minimal word length reaching size <= target_size, by raw enumeration."""
    if len(start) <= target_size:
        return 0
    for length in range(1, max_len + 1):
        for w in all_words(dfa.k, length):
            if len(apply_word(dfa, start, w)) <= target_size:
                return length
    return None


def brute_least_word(dfa, start, target_size, max_len):
    """The first word, by length and then in itertools.product order, taking
    ``start`` to size <= target_size within max_len letters, or None."""
    for length in range(max_len + 1):
        for w in all_words(dfa.k, length):
            if len(apply_word(dfa, start, w)) <= target_size:
                return w
    return None


def brute_reach_within(dfa, start, steps):
    """The images of ``start`` under every word of length <= steps."""
    return {
        apply_word(dfa, start, w)
        for length in range(steps + 1)
        for w in all_words(dfa.k, length)
    }


def brute_closure(dfa, start):
    """(depth, images): the least depth such that every image of ``start``
    under any word is an image under a word of at most that length, and
    those images.  Once one more letter adds no image, none ever does.
    Each depth extends the image of every word of the previous length by
    one letter, keeping one image per word even where words act alike."""
    depth = 0
    images = {start}
    layer = [start]
    while True:
        layer = [apply_word(dfa, image, (s,)) for image in layer for s in range(dfa.k)]
        wider = images.union(layer)
        if wider == images:
            return depth, images
        depth, images = depth + 1, wider


def no_shorter_word(dfa, start, target_size, length):
    """True when no word strictly shorter than ``length`` reaches the target."""
    for shorter in range(0, length):
        for w in all_words(dfa.k, shorter):
            if len(apply_word(dfa, start, w)) <= target_size:
                return False
    return True


def qualifying_words(dfa, limit=9):
    """All words of length <= limit whose full-set image has size exactly n-3.

    Prunes branches whose image already dropped below n-3 (sizes never
    grow back).  Every word is still walked; only the image of a set
    under one letter is remembered, since many words pass through the
    same set.
    """
    n = dfa.n
    target = n - 3
    out = []
    if target < 1:
        return out
    full = dfa.full_set()
    step = {}

    def walk(word, current):
        size = len(current)
        if size < target:
            return
        if size == target:
            out.append(tuple(word))
        if len(word) == limit:
            return
        if current.mask not in step:
            step[current.mask] = [apply_word(dfa, current, (j,)) for j in range(dfa.k)]
        for j, image in enumerate(step[current.mask]):
            walk(word + [j], image)

    walk([], full)
    return out


def brute_condition_1(dfa, words=None):
    """Condition (1) by literal enumeration of qualifying words (``words``,
    when given, are the precomputed qualifying_words(dfa))."""
    n = dfa.n
    full = dfa.full_set()
    for w in qualifying_words(dfa) if words is None else words:
        if len(w) < 4:
            return False
        if len(apply_word(dfa, full, w[:4])) <= n - 2:
            return False
    return True


def brute_condition_4(dfa, words=None):
    """Condition (4) by literal enumeration of qualifying words (``words``
    as for brute_condition_1)."""
    n = dfa.n
    full = dfa.full_set()
    profile = (n, n - 1, n - 1, n - 1, n - 1, n - 2, n - 2, n - 2, n - 2, n - 3)
    for w in qualifying_words(dfa) if words is None else words:
        if len(w) != 9:
            return False
        sizes = [n]
        current = full
        for s in w:
            current = apply_word(dfa, current, (s,))
            sizes.append(len(current))
        if tuple(sizes) != profile:
            return False
    return True


def brute_hypothesis_greedy(dfa):
    return bool(qualifying_words(dfa))


def random_dfa_tables(rng, n, k):
    return [tuple(rng.randrange(1, n + 1) for _ in range(n)) for _ in range(k)]


def random_dfas(seed, count, n, k):
    rng = random.Random(seed)
    return [Dfa.from_tables(random_dfa_tables(rng, n, k)) for _ in range(count)]


def adb1_shape(dfa, s, u, v):
    """The shape of letter s under the 1-based states u, v: "AD" when s is a
    permutation sending u into {u, v}, "B1" when its image misses exactly u
    and u, v share an image, else None."""
    full = dfa.full_set()
    image = apply_word(dfa, full, (s,))
    if image == full and dfa.delta(u, s) in (u, v):
        return "AD"
    if set(full) - set(image) == {u} and dfa.delta(u, s) == dfa.delta(v, s):
        return "B1"
    return None


def adb1_pairs(dfa):
    """Every ordered pair (u, v) of distinct 1-based states under which each
    letter is AD or B1 (see adb1_shape), by trying all pairs."""
    return [
        (u, v)
        for u, v in itertools.permutations(range(1, dfa.n + 1), 2)
        if all(adb1_shape(dfa, s, u, v) for s in range(dfa.k))
    ]


def quantified_clause_iii(dfa, renumbering):
    """Clause (iii) of the corank-2 certificate in its literal quantified
    form: for every letter s and every set R of states, |Rs| differs from
    |R| exactly when 1s = 2s and {1,2} is inside R, and then by exactly one.
    ``renumbering[i-1]`` is the label of original state i; labels 1 and 2
    are the only ones that matter, since set sizes ignore the numbering."""
    state = {label: q for q, label in enumerate(renumbering, start=1)}
    pair = {state[1], state[2]} if dfa.n >= 2 else None
    for s in range(dfa.k):
        merges_12 = pair is not None and len({dfa.delta(q, s) for q in pair}) == 1
        for size in range(dfa.n + 1):
            for R in itertools.combinations(range(1, dfa.n + 1), size):
                image_size = len({dfa.delta(q, s) for q in R})
                shrinks = image_size != size
                if shrinks != (merges_12 and pair <= set(R)):
                    return False
                if shrinks and image_size != size - 1:
                    return False
    return True


def brute_pin(dfa, rank, max_word_len=6):
    """Pin's extension bound by literal enumeration: the first (c, w,
    start_size) it fails on, or None.

    Words w of at most ``max_word_len`` letters go in length-lex order,
    then every corank c in ascending order with rank <= n-c and
    |Q.w| <= n-c+1; the bound holds for (w, c) when some bridge u of at
    most c letters gives |Q.w.u.w| <= n-c.  Each word's state function is
    composed letter by letter from its prefix's, so every word is
    evaluated, also where words act alike.
    """
    n = dfa.n
    states = range(1, n + 1)
    step = [{q: dfa.delta(q, s) for q in states} for s in range(dfa.k)]

    def image(subset, word):
        for s in word:
            subset = {step[s][q] for q in subset}
        return subset

    layer = [((), {q: q for q in states})]
    for length in range(max_word_len + 1):
        if length:
            layer = [(w + (s,), {q: step[s][f[q]] for q in states})
                     for w, f in layer for s in range(dfa.k)]
        for w, f in layer:
            start = set(f.values())
            for c in range(1, n):
                if rank > n - c or len(start) > n - c + 1:
                    continue
                if not any(len({f[q] for q in image(start, u)}) <= n - c
                           for size in range(c + 1) for u in all_words(dfa.k, size)):
                    return c, list(w), len(start)
    return None
