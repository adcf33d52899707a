"""Explicit witness words realizing the compression bounds.

Given a structural certificate, ``corank2_word`` emits the canonical
4-step word reaching size n-2, and ``corank3_word`` runs the four-case
construction producing a word of length at most 9 reaching size n-3.
``pin_extension`` finds the bounded bridge word m with |Q.w.m.w| <= n-c
and |m| <= c, ``franklpin_word`` realizes the c(c+1)/2 step bound from an
arbitrary subset, and ``sync_pipeline`` chains the two into a full
synchronizing word of length at most (n^3-n)/6 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automaton import StateSet, _check_subset, apply_word, serialize_dfa
from .errors import (
    ConstructionContradiction,
    HypothesisFailed,
    PreconditionFailed,
    TheoremViolation,
)
from .power import _bfs, _first_le, _steppers, _word_to, rank
from .structure import _View, _hypothesis_holds, certify, validate_certificate

__all__ = [
    "CaseTag",
    "corank2_word",
    "corank3_word",
    "pin_extension",
    "franklpin_word",
    "sync_pipeline",
]


@dataclass(frozen=True)
class CaseTag:
    """Which construction case fired, with its subcase data for audit.

    ``case`` is CASE_I (orbit length >= 4), CASE_II (orbit {1,2} and
    2d != 3), CASE_III (orbit {1,2}, 2d = 3, 3a != 3) or CASE_IV (the
    rest); the optional fields record the subcase decisions and, for
    CASE_IV, the auxiliary letter moving states into the core.
    """

    case: str
    qb_is_3: bool | None = None
    b3_is_4: bool | None = None
    s_letter: int | None = None
    s3_in_core: bool | None = None
    route: str = ""

    def to_json(self, dfa=None):
        out = {"case": self.case, "route": self.route}
        if self.qb_is_3 is not None:
            out["qb_is_3"] = self.qb_is_3
        if self.b3_is_4 is not None:
            out["b3_is_4"] = self.b3_is_4
        if self.s_letter is not None:
            out["s"] = dfa.names[self.s_letter] if dfa is not None else self.s_letter
        if self.s3_in_core is not None:
            out["s3_in_core"] = self.s3_in_core
        return out


def corank2_word(cert):
    """The 4-letter word b.a.d.b; by the certificate it lands on size n-2."""
    return (cert.b_letter, cert.a_letter, cert.d_letter, cert.b_letter)


def corank3_word(dfa, cert):
    """A word of length <= 9 taking the full set to size exactly n-3.

    Requires a valid certificate and rank <= n-3 (the case analysis for
    the smallest orbits needs some letter to move states from outside
    {1,2,3} into it, which compressibility to n-3 guarantees).  The
    certificate may come from anywhere, so it is validated here: one that
    fails a clause raises HypothesisFailed.  Returns the word together
    with the CaseTag recording the construction path.  Raises
    ConstructionContradiction when no case lands on size n-3 -- that would
    refute the bound and is recorded by the harness.
    """
    failures = validate_certificate(dfa, cert).failures
    if failures:
        raise HypothesisFailed("certificate does not validate: " + "; ".join(failures))
    return _corank3_certified(dfa, cert)


def _corank3_certified(dfa, cert):
    """``corank3_word`` for a certificate already validated, such as one
    from ``certify``: the rank precondition, then the case analysis."""
    if rank(dfa) > dfa.n - 3:
        raise HypothesisFailed("automaton does not compress to size n-3")
    return _corank3_cases(dfa, cert)


def _corank3_cases(dfa, cert):
    """The case analysis of ``corank3_word``, for a valid certificate of an
    automaton known to compress to size n-3."""
    n = dfa.n
    view = _View(dfa, cert.renumbering)
    b, a, d = cert.b_letter, cert.a_letter, cert.d_letter
    X = cert.X
    q = cert.q

    def contradiction(msg, **detail):
        detail["dfa"] = serialize_dfa(dfa)
        detail["cert"] = cert.to_json(dfa)
        return ConstructionContradiction(f"corank-3 construction: {msg}", detail)

    def pair(x, y):
        return view.set_of(x, y)

    def finish(word, tag):
        final = view.word_image(view.full, word)
        if len(word) > 9 or final.bit_count() != n - 3:
            raise contradiction(
                "construction missed size n-3",
                word=word,
                case=tag.case,
                final_size=final.bit_count(),
            )
        return word, tag

    if len(X) >= 4:
        # s4 closes the orbit cycle onto 1, s3 precedes it, r precedes s3.
        s4 = X[-1]
        s3 = X[-2]
        r = X[-3]
        qb = view.act(q, b)
        if qb != s3:
            base = (b, a, a, b)
            tag_qb = False
        else:
            base = (b, a, a, a, b)
            tag_qb = True
        R = view.word_image(view.full, base)
        if R & pair(r, s3) == pair(r, s3):
            suffix, route = (a, a, a), "pair {r,3}"
        elif R & pair(s3, s4) == pair(s3, s4):
            suffix, route = (a, a), "pair {3,4}"
        else:
            raise contradiction("case I: neither {r,3} nor {3,4} in the landing set")
        return finish(base + suffix + (b,), CaseTag("CASE_I", qb_is_3=tag_qb, route=route))

    # rank <= n-3 with rank >= 1 forces n >= 4 here, so state 3 exists.
    two_d = view.act(2, d)
    three_a = view.act(3, a)

    if len(X) == 2 and two_d != 3:
        base = (b, a, d, b)
        qb = view.act(q, b)
        mid = (a,) if qb != 2 else (d, a)
        R1 = view.word_image(view.full, base + mid)
        hits_three = [r for r in range(1, n + 1) if r not in (1, 2, 3) and view.act(r, d) == 3]
        if len(hits_three) != 1:
            raise contradiction("case II: no unique outside state mapping to 3 under d")
        r = hits_three[0]
        if R1 & pair(1, r) == pair(1, r):
            suffix, route = (d, d), "pair {1,r}"
        elif R1 & pair(1, 3) == pair(1, 3):
            suffix, route = (d,), "pair {1,3}"
        elif R1 & pair(1, 2) == pair(1, 2):
            suffix, route = (), "pair {1,2}"
        else:
            raise contradiction("case II: none of {1,r}, {1,3}, {1,2} in the transported set")
        return finish(
            base + mid + suffix + (b,),
            CaseTag("CASE_II", route=f"mid {'a' if mid == (a,) else 'da'}, {route}"),
        )

    if len(X) == 2 and two_d == 3 and three_a != 3:
        if q != 3:
            raise contradiction("case III: q is not state 3")
        s4_candidates = [y for y in range(1, n + 1) if view.act(y, a) == 3]
        if len(s4_candidates) != 1 or s4_candidates[0] in (1, 2, 3):
            raise contradiction("case III: no outside state mapping to 3 under a")
        s4 = s4_candidates[0]
        r_candidates = [
            y for y in range(1, n + 1) if y not in (1, 2, 3) and view.act(y, d) == s4
        ]
        if len(r_candidates) != 1:
            raise contradiction("case III: no unique outside state mapping to 4 under d")
        r = r_candidates[0]
        b3 = view.act(3, b)
        if b3 != s4:
            base = (b, a, d, b)
            tag_b3 = False
        else:
            base = (b, a, d, b, b)
            tag_b3 = True
        R = view.word_image(view.full, base)
        if R & pair(3, r) == pair(3, r):
            suffix, route = (d, a, d), "pair {3,r}"
        elif R & pair(2, s4) == pair(2, s4):
            suffix, route = (a, d), "pair {2,4}"
        else:
            raise contradiction("case III: neither {3,r} nor {2,4} in the landing set")
        return finish(base + suffix + (b,), CaseTag("CASE_III", b3_is_4=tag_b3, route=route))

    # CASE_IV: orbit {1,2} with 2d = 3 and 3a = 3, or an orbit of exactly 3.
    s3 = X[2] if len(X) == 3 else 3
    core = view.set_of(1, 2, s3)
    outside = view.full & ~core
    s_letter = None
    for s in range(dfa.k):
        if view.image(outside, s) != outside:
            s_letter = s
            break
    if s_letter is None:
        raise contradiction(
            "case IV: every letter fixes the outside set, contradicting rank <= n-3"
        )
    s3_in_core = (1 << (view.act(s3, s_letter) - 1)) & core != 0
    base = (b, a, d, b)
    R = view.word_image(view.full, base)
    letters4 = sorted({a, b, d, s_letter})
    # Breadth-first over words of length <= 2 in lex order; the first set
    # meeting the core in two states continues the construction, and a set
    # already at size n-3 finishes the word outright.
    candidates = [((), R)]
    for first in letters4:
        S1 = view.image(R, first)
        candidates.append(((first,), S1))
    for first in letters4:
        S1 = view.image(R, first)
        for second in letters4:
            candidates.append(((first, second), view.image(S1, second)))
    chosen = None
    for mid, S in candidates:
        if S.bit_count() == n - 3:
            return finish(
                base + mid,
                CaseTag("CASE_IV", s_letter=s_letter, s3_in_core=s3_in_core,
                        route="early size n-3"),
            )
        if (S & core).bit_count() >= 2:
            chosen = (mid, S)
            break
    if chosen is None:
        raise contradiction("case IV: no two-step image meets the core twice")
    mid, S = chosen
    if S & pair(2, s3) == pair(2, s3):
        suffix, route = (a, d), "pair {2,3}"
    elif S & pair(1, s3) == pair(1, s3):
        suffix, route = (d,), "pair {1,3}"
    elif S & pair(1, 2) == pair(1, 2):
        suffix, route = (), "pair {1,2}"
    else:
        raise contradiction("case IV: core pair vanished")
    return finish(
        base + mid + suffix + (b,),
        CaseTag("CASE_IV", s_letter=s_letter, s3_in_core=s3_in_core, route=route),
    )


def pin_extension(dfa, w, c):
    """Shortest bridge m with |Q.w.m.w| <= n-c and |m| <= c.

    Preconditions: the automaton compresses to size n-c at all, and the
    given word already reaches size n-c+1.  Existence within c letters is
    the extension bound; exhausting the candidates raises TheoremViolation
    with full reproduction data.
    """
    n = dfa.n
    if c < 1 or c > n - 1:
        raise PreconditionFailed(f"corank {c} out of range 1..{n - 1}")
    if rank(dfa) > n - c:
        raise PreconditionFailed(f"automaton does not compress to size {n - c}")
    A = apply_word(dfa, dfa.full_set(), w)
    if len(A) > n - c + 1:
        raise PreconditionFailed(
            f"|Q.w| = {len(A)} exceeds n-c+1 = {n - c + 1}"
        )

    # BFS over bridge words by (length, lex); deduplicating on the current
    # set is sound because only the set reached matters downstream.
    target = n - c
    images = _steppers(dfa, range(dfa.k))

    def lands(T):
        for s in w:
            T = images[s][T]
        return T.bit_count() <= target

    parent, hit = _bfs(images, A.mask, lands, max_depth=c)
    if hit is not None:
        return _word_to(images, range(dfa.k), parent, hit)
    raise TheoremViolation(
        "extension bound: no bridge word of length <= c found",
        {
            "dfa": serialize_dfa(dfa),
            "w": list(w),
            "c": c,
            "start_size": len(A),
        },
    )


def franklpin_word(dfa, R, c):
    """Shortest word compressing R to size <= n-c; its length must be <= c(c+1)/2.

    Preconditions: the automaton compresses to size n-c and |R| <= n-c+1.
    A longer-than-bound witness raises TheoremViolation.
    """
    n = dfa.n
    if c < 1 or c > n - 1:
        raise PreconditionFailed(f"corank {c} out of range 1..{n - 1}")
    if rank(dfa) > n - c:
        raise PreconditionFailed(f"automaton does not compress to size {n - c}")
    if len(R) > n - c + 1:
        raise PreconditionFailed(f"|R| = {len(R)} exceeds n-c+1 = {n - c + 1}")
    _check_subset(dfa, R)
    return _franklpin_stage(_steppers(dfa, range(dfa.k)), n, R.mask, c, lambda: dfa)[0]


def _franklpin_stage(images, n, R, c, dfa):
    """(word, landing set): the lex-least shortest word taking the set R
    (a mask, |R| <= n-c+1) to size <= n-c, over the per-letter subset-image
    maps ``images``.  ``dfa()`` returns the automaton for a violation's record."""
    bound = c * (c + 1) // 2
    parent, hit = _bfs(images, R, lambda T: T.bit_count() <= n - c)
    word = () if hit is None else _word_to(images, range(len(images)), parent, hit)
    if hit is None or len(word) > bound:
        raise TheoremViolation(
            "pair-compression bound: shortest word exceeds c(c+1)/2",
            {
                "dfa": serialize_dfa(dfa()),
                "R": list(StateSet(R)),
                "c": c,
                "bound": bound,
                "found": None if hit is None else len(word),
            },
        )
    return word, hit


def sync_pipeline(dfa):
    """Full synchronizing word of length <= (n^3 - n)/6 - 1 for n >= 4.

    The prefix compresses to size n-3 in at most 9 steps -- through the
    certificate construction when the corank-2 hypothesis holds, otherwise
    by direct search -- and each later stage applies the pair-compression
    bound for c = 4, ..., n-1 in order.  One search from the full set, to its
    first set of size <= n-3, serves the hypothesis and the direct prefix.
    A certificate that does not validate raises CertificateContradiction.
    """
    n = dfa.n
    if n < 4:
        raise PreconditionFailed("the pipeline bound requires n >= 4")
    if rank(dfa) != 1:
        raise PreconditionFailed("automaton is not synchronizable")
    images = _steppers(dfa, range(dfa.k))
    parent, _hit = _bfs(images, (1 << n) - 1, lambda T: T.bit_count() <= n - 3)
    cert = certify(dfa) if _hypothesis_holds(parent, n) else None
    return _pipeline(images, n, parent, cert, lambda: dfa)


def _pipeline(images, n, parent, cert, dfa):
    """``sync_pipeline`` on the subset-image maps of a synchronizing automaton,
    n >= 4, and the parent links of a search from the full set that reached
    size n-3.  ``cert`` is a valid certificate when the corank-2 hypothesis
    holds, else None; ``dfa()`` returns the automaton, for the certified
    prefix and a violation's record."""
    if cert is not None:
        u = _corank3_cases(dfa(), cert)[0]
    else:
        u = _word_to(images, range(len(images)), parent, _first_le(parent, n - 3))
    current = (1 << n) - 1
    for s in u:
        current = images[s][current]
    if len(u) > 9:
        raise TheoremViolation(
            "corank-3 bound: prefix word exceeds 9 letters",
            {"dfa": serialize_dfa(dfa()), "prefix": list(u)},
        )
    word = list(u)
    for c in range(4, n):
        stage, current = _franklpin_stage(images, n, current, c, dfa)
        word.extend(stage)
    bound = (n ** 3 - n) // 6 - 1
    if len(word) > bound or current.bit_count() != 1:
        raise TheoremViolation(
            "pipeline bound: synchronizing word exceeds (n^3-n)/6 - 1",
            {
                "dfa": serialize_dfa(dfa()),
                "word": word,
                "bound": bound,
                "final_size": current.bit_count(),
            },
        )
    return tuple(word)
