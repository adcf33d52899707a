"""Reference computations for the benchmark's output checks.

Everything here works on plain 0-based transition tables and Python sets,
independently of the package's bitmask code, so a wrong answer from the
package cannot also be a wrong reference.  Each ``check_*`` function
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import random
from collections import deque
from math import factorial


def cerny_tables(n):
    """C_n: ``a`` is the n-cycle q -> q+1, ``b`` merges state 1 into 2."""
    return (
        tuple((q + 1) % n for q in range(n)),
        tuple([1] + list(range(1, n))),
    )


def extremal_tables(n, identity):
    """The extremal witness family (as documented): optional identity,
    4-cycle on states 1..4, merge of 1 into 2; states 5..n fixed."""
    cycle = tuple([1, 2, 3, 0] + list(range(4, n)))
    merge = tuple([1, 1, 2, 3] + list(range(4, n)))
    if identity:
        return (tuple(range(n)), cycle, merge), ("e", "a", "b")
    return (cycle, merge), None


def relabel(tables, rng):
    """The same automaton with its states renumbered by a random permutation."""
    n = len(tables[0])
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for table in tables:
        new = [0] * n
        for q in range(n):
            new[perm[q]] = perm[table[q]]
        out.append(tuple(new))
    return tuple(out)


def to_text(tables, names=None):
    """The plain-text automaton format, as a CLI user would write it."""
    lines = [f"{len(tables[0])} {len(tables)}"]
    if names:
        lines.append("names: " + " ".join(names))
    lines.extend(" ".join(str(image + 1) for image in table) for table in tables)
    return "\n".join(lines) + "\n"


def image(tables, states, word):
    current = set(states)
    for letter in word:
        table = tables[letter]
        current = {table[q] for q in current}
    return current


def shortest_distance(tables, target_size):
    """BFS distance from the full set to a set of size <= target_size."""
    start = frozenset(range(len(tables[0])))
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        current, depth = queue.popleft()
        if len(current) <= target_size:
            return depth
        for table in tables:
            nxt = frozenset(table[q] for q in current)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    return None


def is_permutation(table):
    return len(set(table)) == len(table)


def exhaustive_nonpermutation_count(n, k):
    """Automata in the exhaustive n-state, k-letter population with at
    least one non-permutation letter: n^(n k) - (n!)^k."""
    return n ** (n * k) - factorial(n) ** k


# -- query outputs ------------------------------------------------------------


def check_rank(tables, value):
    # Every member of the Cerny family synchronizes.
    return [] if value == 1 else [f"rank {value}, expected 1"]


def check_compress(tables, word):
    n = len(tables[0])
    problems = []
    if len(word) != (n - 1) ** 2:
        problems.append(f"reset word length {len(word)}, expected {(n - 1) ** 2}")
    if len(image(tables, range(n), word)) != 1:
        problems.append("compress word does not synchronize")
    return problems


def check_pipeline(tables, word):
    n = len(tables[0])
    bound = (n ** 3 - n) // 6 - 1
    problems = []
    if len(word) > bound:
        problems.append(f"pipeline word length {len(word)} exceeds {bound}")
    if len(image(tables, range(n), word)) != 1:
        problems.append("pipeline word does not synchronize")
    return problems


def check_structure(tables, out):
    hypothesis, all_pass = out
    problems = []
    dist = shortest_distance(tables, len(tables[0]) - 2)
    if not hypothesis or dist is None or dist < 4:
        problems.append(f"corank-2 hypothesis: package {hypothesis}, reference distance {dist}")
    if not all_pass:
        problems.append("certificate does not validate")
    return problems


def check_construct(tables, word):
    n = len(tables[0])
    problems = []
    if len(word) > 9:
        problems.append(f"corank-3 word length {len(word)} exceeds 9")
    size = len(image(tables, range(n), word))
    if size != n - 3:
        problems.append(f"corank-3 word lands on size {size}, expected {n - 3}")
    return problems


def check_classify(tables, total):
    return [] if total else ["some letter is neither AD nor B1"]


def check_equivalence(tables, conditions):
    # The family is the extremal witness family: all four conditions hold.
    return [] if all(conditions) else [f"conditions {list(conditions)}, expected all true"]


def check_pincor(tables, ok):
    return [] if ok else ["fallback word check failed"]


# -- sweep outputs ------------------------------------------------------------


def check_sweep(reports, total, nonpermutation):
    """Problems in a run_checks result, by theorem id.

    ``reports`` maps theorem id -> report JSON (the canonical form);
    ``nonpermutation`` is the reference count of automata with a letter
    that is not a permutation.  Checked counts, zero violations, the
    applicable counts fixed by the population, and equal applicable counts
    for theorems sharing a hypothesis.
    """
    problems = {tid: [] for tid in reports}
    for tid, rep in reports.items():
        if rep["checked"] != total:
            problems[tid].append(f"checked {rep['checked']}, expected {total}")
        if rep["violations"] or rep["counterexamples"]:
            problems[tid].append(f"{rep['violations']} violations")
    for tid in ("corank3", "franklpin"):
        if tid in reports and reports[tid]["applicable"] != nonpermutation:
            problems[tid].append(
                f"applicable {reports[tid]['applicable']}, expected {nonpermutation}"
            )
    for left, right in (("pinlem", "corank2-cert"), ("pincor", "lemmaX")):
        if left in reports and right in reports:
            if reports[left]["applicable"] != reports[right]["applicable"]:
                problems[left].append(f"applicable differs from {right}")
    return {tid: found for tid, found in problems.items() if found}


def seeded_rng(seed, *salt):
    """A generator fixed by the seed and the salt (string seeding is stable
    across processes, unlike ``hash``)."""
    return random.Random(":".join(str(part) for part in (seed,) + salt))
