"""Structural certificates for automata that compress slowly.

An automaton whose full state set can be compressed to size n-2, but only
in four or more steps, carries a rigid structure: after renumbering, one
letter ``b`` merges exactly the pair {1,2} and misses state 1, one letter
``a`` is a permutation sending 1 to 2, and a third letter ``d`` (possibly
equal to ``a``) continues the compression.  This module decides the
hypothesis (by one search and one predicate on its parent links),
extracts the certificate deterministically, validates its clauses, and
classifies letters into the two shapes every letter of a certified
automaton must take.  ``certify`` does both steps and is the package's
one source of certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import _ImageMap
from .errors import CertificateContradiction, HypothesisFailed, PreconditionFailed
from .power import _bfs, _depth, _first_le, _word_to

__all__ = [
    "StructureCertificate",
    "CertificateReport",
    "LetterClassification",
    "satisfies_corank2_hypothesis",
    "extract_certificate",
    "validate_certificate",
    "certify",
    "classify_pinlem",
    "find_adb1_structure",
    "pinlem_converse_check",
    "renumbered_tables",
]


@dataclass(frozen=True)
class StructureCertificate:
    """The renumbering and letter roles certifying slow corank-2 compression.

    ``renumbering[i-1]`` is the new label of original state ``i`` (both
    1-based).  ``q`` and the orbit ``X`` are given in the new numbering.
    ``case_tag`` is ``X_GE_3`` (orbit of 1 under ``a`` has >= 3 states and
    ``d == a``) or ``X_EQ_2`` (orbit {1,2} with a separate letter ``d``
    fixing 1 and sending 3 to 2).  ``a_replaced`` records whether the
    extraction had to promote the third minimal-word letter to the ``a``
    role.
    """

    renumbering: tuple
    b_letter: int
    a_letter: int
    d_letter: int
    q: int
    X: tuple
    case_tag: str
    a_replaced: bool

    def to_json(self, dfa=None):
        names = dfa.names if dfa is not None else None
        letter = (lambda j: names[j]) if names else (lambda j: j)
        return {
            "renumbering": list(self.renumbering),
            "b": letter(self.b_letter),
            "a": letter(self.a_letter),
            "d": letter(self.d_letter),
            "q": self.q,
            "X": list(self.X),
            "case_tag": self.case_tag,
            "a_replaced": self.a_replaced,
        }


@dataclass(frozen=True)
class CertificateReport:
    """Validation outcome: one human-readable message per failed condition,
    each starting with its clause, as in ``clause (iv): q in {1,2}``."""

    failures: tuple

    def _holds(self, clause):
        return not any(f.startswith(f"clause ({clause}):") for f in self.failures)

    clause_i = property(lambda self: self._holds("i"))
    clause_ii = property(lambda self: self._holds("ii"))
    clause_iii = property(lambda self: self._holds("iii"))
    clause_iv = property(lambda self: self._holds("iv"))

    @property
    def all_pass(self):
        return not self.failures


@dataclass(frozen=True)
class LetterClassification:
    """Letter classes under a certificate: AD (permutation with 1s in {1,2})
    or B1 (image misses exactly state 1 and 1s = 2s).  A None entry is a
    counterexample to the classification claim."""

    classes: tuple
    unclassified: tuple

    @property
    def total(self):
        return not self.unclassified


def _hypothesis_search(dfa):
    """(images, parent, hit): the search from the full set, stopped at its
    first set of size <= n-2, on per-set images.  Every set it expands has
    size n or n-1, so these beat building the 2^n-entry subset tables."""
    n = dfa.n
    images = [_ImageMap(table) for table in dfa.letters]
    parent, hit = _bfs(images, (1 << n) - 1, lambda T: T.bit_count() <= n - 2)
    return images, parent, hit


def _hypothesis_holds(parent, n):
    """The corank-2 hypothesis on the parent links of a search from the full
    set: its first set of size <= n-2 exists and is at least 4 letters away."""
    hit = _first_le(parent, n - 2)
    return hit is not None and _depth(parent, hit) >= 4


def satisfies_corank2_hypothesis(dfa):
    """True when compression to size n-2 is possible but needs >= 4 steps."""
    return _hypothesis_holds(_hypothesis_search(dfa)[1], dfa.n)


def renumbered_tables(dfa, renumbering):
    """Transition tables rewritten in the certificate numbering (0-based)."""
    n = dfa.n
    new_of_old = [renumbering[q] - 1 for q in range(n)]
    tables = []
    for table in dfa.letters:
        out = [0] * n
        for q in range(n):
            out[new_of_old[q]] = new_of_old[table[q]]
        tables.append(tuple(out))
    return tuple(tables)


class _View:
    """Scratch view of an automaton in certificate numbering (1-based states)."""

    def __init__(self, dfa, renumbering):
        self.n = dfa.n
        self.tables = renumbered_tables(dfa, renumbering)
        self.images = [_ImageMap(table) for table in self.tables]
        self.full = (1 << dfa.n) - 1

    def act(self, state, letter):
        return self.tables[letter][state - 1] + 1

    def image(self, mask, letter):
        return self.images[letter][mask]

    def word_image(self, mask, word):
        for letter in word:
            mask = self.image(mask, letter)
        return mask

    def set_of(self, *states):
        mask = 0
        for q in states:
            mask |= 1 << (q - 1)
        return mask

    def without(self, *states):
        return self.full & ~self.set_of(*states)

    def orbit(self, start, letter):
        seen = [start]
        current = self.act(start, letter)
        while current not in seen:
            seen.append(current)
            current = self.act(current, letter)
        return tuple(seen)

    def is_permutation(self, letter):
        return len(set(self.tables[letter])) == self.n


def _initial_renumbering(n, missing, partner):
    """missing -> 1, partner -> 2, remaining states ascending (all 1-based)."""
    renumbering = [0] * n
    renumbering[missing - 1] = 1
    renumbering[partner - 1] = 2
    label = 3
    for q in range(1, n + 1):
        if q not in (missing, partner):
            renumbering[q - 1] = label
            label += 1
    return tuple(renumbering)


def _swap_labels(renumbering, x, y):
    return tuple(y if label == x else x if label == y else label for label in renumbering)


def _merged_pair(table):
    """(pair, missing) for a 0-based table of image deficiency one, else None.

    ``pair`` is the ascending pair of states the table merges and
    ``missing`` the one state outside its image, both 0-based.
    """
    n = len(table)
    if len(set(table)) != n - 1:
        return None
    first = {}
    for q, image in enumerate(table):
        if image in first:
            pair = (first[image], q)
        else:
            first[image] = q
    missing = (set(range(n)) - set(table)).pop()
    return pair, missing


def extract_certificate(dfa):
    """Extract the canonical certificate, following the minimal compressing word.

    The construction takes a lexicographically least minimal word ``w``
    witnessing the corank-2 hypothesis, reads the roles ``b = w1``,
    ``a = w2`` (and when the orbit of 1 under ``a`` is just {1,2},
    ``d = w3``), and pins the renumbering: the state missing from the image
    of ``b`` becomes 1 and its merge partner becomes 2, remaining states
    keeping relative order; in the X_EQ_2 case state 3 is re-chosen so that
    3d = 2.  Extraction only derives the roles; it checks no clause, so the
    certificate is to be checked with ``validate_certificate``.  Raises
    HypothesisFailed when the hypothesis does not hold and
    CertificateContradiction only when a role cannot be derived: ``b`` does
    not merge exactly one pair containing its missing state, no unique
    outside state is sent to 2 by ``d``, or Q.bad does not miss exactly one
    state (each would be a counterexample to the structure theory, and is
    recorded as such by the verification harness).
    """
    images, parent, hit = _hypothesis_search(dfa)
    if not _hypothesis_holds(parent, dfa.n):
        raise HypothesisFailed(
            "automaton does not compress to size n-2 in 4-or-more-step fashion"
        )
    w = _word_to(images, range(dfa.k), parent, hit)
    b = w[0]

    def contradiction(msg):
        return CertificateContradiction(f"certificate extraction: {msg}", {"word": w})

    pm = _merged_pair(dfa.letters[b])
    if pm is None:
        raise contradiction("first letter of the minimal word does not merge exactly one pair")
    pair, missing = pm
    if missing not in pair:
        raise contradiction("missing state of the b letter is not one of its merged pair")
    partner = pair[0] if pair[1] == missing else pair[1]
    renumbering = _initial_renumbering(dfa.n, missing + 1, partner + 1)
    view = _View(dfa, renumbering)

    a = w[1]
    a_replaced = False
    d = a
    if len(view.orbit(1, a)) < 3:
        d = w[2]
        hits_one = [r for r in range(3, dfa.n + 1) if view.act(r, d) == 1]
        if hits_one:
            # The third letter maps some outside state onto 1; it can take
            # over the a role, which forces the orbit of 1 to grow past 2.
            a = d
            a_replaced = True
        else:
            hits_two = [r for r in range(3, dfa.n + 1) if view.act(r, d) == 2]
            if len(hits_two) != 1:
                raise contradiction("clause (iv): no unique outside state mapping to 2 under d")
            r = hits_two[0]
            if r != 3:
                renumbering = _swap_labels(renumbering, 3, r)
                view = _View(dfa, renumbering)
    X = view.orbit(1, a)

    if len(X) >= 3:
        case_tag = "X_GE_3"
        q = view.act(2, a)
    else:
        case_tag = "X_EQ_2"
        qbad = view.word_image(view.full, (b, a, d))
        missing_mask = view.full & ~qbad
        if missing_mask.bit_count() != 1:
            raise contradiction("clause (iv): Q.bad does not miss exactly one state")
        q = missing_mask.bit_length()

    return StructureCertificate(
        renumbering=renumbering,
        b_letter=b,
        a_letter=a,
        d_letter=d,
        q=q,
        X=X,
        case_tag=case_tag,
        a_replaced=a_replaced,
    )


def _check_cert_shape(dfa, cert):
    if dfa.n < 2:
        raise ValueError("a certificate needs states 1 and 2")
    if sorted(cert.renumbering) != list(range(1, dfa.n + 1)):
        raise ValueError("renumbering is not a permutation of the states")
    for letter in (cert.b_letter, cert.a_letter, cert.d_letter):
        if not 0 <= letter < dfa.k:
            raise ValueError(f"letter index {letter} out of range")
    if not 1 <= cert.q <= dfa.n:
        raise ValueError(f"state q={cert.q} out of range")
    if cert.case_tag not in ("X_GE_3", "X_EQ_2"):
        raise ValueError(f"unknown case tag {cert.case_tag!r}")


def validate_certificate(dfa, cert):
    """Check every certificate clause directly against the automaton.

    Clause (iii) is checked at letter level: every letter is either
    injective on the states or merges exactly the pair {1,2}.  This decides
    its quantified form (for every set R and letter s, |Rs| differs from |R|
    exactly when 1s = 2s and {1,2} is inside R, and then by exactly one):
    a letter shrinks some R by more than one exactly when its image has at
    most n-2 states, and shrinks some R not holding both 1 and 2 exactly
    when it merges a pair other than {1,2}.
    """
    _check_cert_shape(dfa, cert)
    view = _View(dfa, cert.renumbering)
    b, a, d = cert.b_letter, cert.a_letter, cert.d_letter
    failures = []

    if view.image(view.full, b) != view.without(1):
        failures.append("clause (i): Q.b != Q \\ {1}")
    if view.act(1, b) != view.act(2, b):
        failures.append("clause (i): 1b != 2b")

    if view.word_image(view.full, (b, a)) != view.without(2):
        failures.append("clause (ii): Q.ba != Q \\ {2}")
    if view.image(view.full, a) != view.full:
        failures.append("clause (ii): Q.a != Q")
    if view.act(1, a) != 2:
        failures.append("clause (ii): 1a != 2")

    for s in range(dfa.k):
        if view.is_permutation(s):
            continue
        pm = _merged_pair(view.tables[s])
        if pm is None:
            failures.append(f"clause (iii): letter {s} merges more than one pair")
            continue
        merged_pair = (pm[0][0] + 1, pm[0][1] + 1)
        if merged_pair != (1, 2):
            failures.append(f"clause (iii): letter {s} merges {merged_pair}, not {{1,2}}")

    if tuple(view.orbit(1, a)) != tuple(cert.X):
        failures.append("clause (iv): X is not the orbit of 1 under a")
    q = cert.q
    if q in (1, 2):
        failures.append("clause (iv): q in {1,2}")
    if view.word_image(view.full, (b, a, d)) != view.without(q):
        failures.append("clause (iv): Q.bad != Q \\ {q}")
    qb_state = view.act(q, b)
    if qb_state == 1:
        failures.append("clause (iv): qb == 1")
    elif view.word_image(view.full, (b, a, d, b)) != view.without(1, qb_state):
        failures.append("clause (iv): Q.badb != Q \\ {1, qb}")
    if cert.case_tag == "X_GE_3":
        if len(cert.X) < 3:
            failures.append("clause (iv): case X_GE_3 but |X| < 3")
        if d != a:
            failures.append("clause (iv): case X_GE_3 but d != a")
    else:
        if len(cert.X) != 2:
            failures.append("clause (iv): case X_EQ_2 but |X| != 2")
        if view.image(view.full, d) != view.full:
            failures.append("clause (iv): Q.d != Q")
        if view.act(1, d) != 1:
            failures.append("clause (iv): 1d != 1")
        if dfa.n < 3 or view.act(3, d) != 2:
            failures.append("clause (iv): 3d != 2")

    return CertificateReport(tuple(failures))


def certify(dfa):
    """The extracted certificate, once every clause validates.  Raises
    HypothesisFailed when the hypothesis does not hold, and
    CertificateContradiction when a role cannot be derived or a clause
    fails: either refutes the structure theory."""
    cert = extract_certificate(dfa)
    failures = validate_certificate(dfa, cert).failures
    if failures:
        raise CertificateContradiction("certificate does not validate: " + "; ".join(failures))
    return cert


def classify_pinlem(dfa, cert):
    """Classify every letter as AD or B1 in the certificate numbering.

    For certified automata every letter must match one of the two shapes;
    a letter matching neither is reported in ``unclassified`` rather than
    raised, so sweeps can record it as a counterexample.
    """
    _check_cert_shape(dfa, cert)
    u, v = cert.renumbering.index(1), cert.renumbering.index(2)
    classes = tuple(_adb1_shape(table, u, v) for table in dfa.letters)
    unclassified = tuple(s for s, shape in enumerate(classes) if shape is None)
    return LetterClassification(classes=classes, unclassified=unclassified)


def _adb1_shape(table, u, v):
    """The shape of a raw 0-based table, "AD", "B1" or None, when the
    original states u and v (0-based) carry the labels 1 and 2.  AD is a
    permutation sending 1 into {1,2}; B1 misses exactly state 1 from its
    image and sends 1 and 2 to one state."""
    image = set(table)
    if len(image) == len(table):
        return "AD" if table[u] in (u, v) else None
    if len(image) == len(table) - 1 and u not in image and table[u] == table[v]:
        return "B1"
    return None


def find_adb1_structure(dfa):
    """Original-state pair (u, v) making every letter AD or B1, if one exists.

    The renumbering freedom is resolved as in certificate extraction: u is
    the state missing from the image of every non-permutation letter (all of
    them must agree) and v is its merge partner; permutation letters must
    map u into {u, v}.  Returns None when the shape does not hold or when
    every letter is a permutation (nothing ever compresses then, so there is
    no pair to anchor the numbering).
    """
    pair = _anchor_pair(dfa.n, dfa.letters)
    return None if pair is None else (pair[0] + 1, pair[1] + 1)


def _anchor_pair(n, tables):
    """The pair of find_adb1_structure, 0-based, on raw 0-based tables:
    read off the first non-permutation letter, then every letter must be
    AD or B1 under it."""
    first = next((table for table in tables if len(set(table)) < n), None)
    pm = None if first is None else _merged_pair(first)
    if pm is None or pm[1] not in pm[0]:
        return None
    (p, r), u = pm
    v = r if p == u else p
    return (u, v) if all(_adb1_shape(table, u, v) for table in tables) else None


def pinlem_converse_check(dfa):
    """True when no word of length <= 3 compresses the full set to size n-2.

    Precondition: every letter matches the AD/B1 shape (see
    find_adb1_structure); the converse claim is that the conclusion then
    always holds.
    """
    if find_adb1_structure(dfa) is None:
        raise PreconditionFailed("letters do not all match the AD/B1 shapes")
    # Size n-2 is either out of reach or, by the hypothesis, 4+ letters away.
    _, parent, hit = _hypothesis_search(dfa)
    return hit is None or _hypothesis_holds(parent, dfa.n)
