"""Command-line surface: one verb per library operation.

Exit status is 0 on success, 1 on usage errors and domain errors (bad
input, failed hypothesis or precondition), and 2 when a verification
found or hit a bound violation.  Every verb accepts --json for
machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .automaton import (
    StateSet,
    apply_word,
    dfa_to_json,
    format_word,
    load_dfa,
    parse_word,
    serialize_dfa,
)
from .construct import _corank3_certified, corank2_word, pin_extension, sync_pipeline
from .errors import (
    BudgetExceeded,
    CertificateContradiction,
    ConstructionContradiction,
    HypothesisFailed,
    ParseError,
    PreconditionFailed,
    SynchroError,
    TheoremViolation,
)
from .extremal import assert_equivalence, build_extremal_dfa, pincor_check
from .harness import _DEFAULT_BUDGET, CHECKS, EnumerationScope, run_check
from .power import (
    _bfs,
    _steppers,
    greedy_word,
    rank,
    shortest_compressing_word,
    size_profile,
)
from .structure import certify, classify_pinlem, extract_certificate, validate_certificate


def _read_dfa(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return load_dfa(fh.read())
    except OSError as e:
        raise SynchroError(f"cannot read {path}: {e.strerror}") from None


def _emit(args, human_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _parse_state_set(dfa, text):
    states = []
    for tok in text.replace(",", " ").split():
        try:
            q = int(tok)
        except ValueError:
            raise SynchroError(f"state {tok!r} is not an integer") from None
        if not 1 <= q <= dfa.n:
            raise SynchroError(f"state {q} out of range 1..{dfa.n}")
        states.append(q)
    return StateSet.from_states(states)


def cmd_rank(args):
    dfa = _read_dfa(args.file)
    r = rank(dfa)
    witness = shortest_compressing_word(dfa, dfa.full_set(), r).word
    _emit(
        args,
        [f"rank = {r}, witness length = {len(witness)}"],
        {"rank": r, "witness_length": len(witness),
         "witness": format_word(dfa, witness)},
    )
    return 0


def cmd_compress(args):
    dfa = _read_dfa(args.file)
    if (args.target_size is None) == (args.corank is None):
        raise SynchroError("exactly one of --target-size or --corank is required")
    target = args.target_size if args.target_size is not None else dfa.n - args.corank
    letters = None
    if args.letters:
        tokens = args.letters.split(",") if "," in args.letters else list(args.letters)
        letters = [dfa.letter_index(name) for name in tokens]
    res = shortest_compressing_word(
        dfa, dfa.full_set(), target, allowed_letters=letters, max_len=args.max_len
    )
    if res is None:
        _emit(args, [f"no word reaches size <= {target}"],
              {"target_size": target, "word": None})
        return 1
    _emit(
        args,
        [
            f"word = {format_word(dfa, res.word)} (length {res.length})",
            f"final set = {res.final_set}, profile = {list(res.profile)}",
        ],
        {
            "target_size": target,
            "word": format_word(dfa, res.word),
            "length": res.length,
            "final_set": list(res.final_set),
            "profile": list(res.profile),
        },
    )
    return 0


def _dot_graph(dfa, word_path):
    full = (1 << dfa.n) - 1
    images = _steppers(dfa, range(dfa.k))
    order, _hit = _bfs(images, full)  # keys in discovery order
    def label(mask):
        return "{" + ",".join(str(q + 1) for q in range(dfa.n) if (mask >> q) & 1) + "}"
    path_edges = set()
    node = full
    for s in word_path:
        nxt = images[s][node]
        path_edges.add((node, s, nxt))
        node = nxt
    lines = ["digraph power {", '  rankdir="LR";']
    for S in order:
        lines.append(f'  "{label(S)}";')
    for S in order:
        for j in range(dfa.k):
            T = images[j][S]
            style = ' style="bold"' if (S, j, T) in path_edges else ""
            lines.append(f'  "{label(S)}" -> "{label(T)}" [label="{dfa.names[j]}"{style}];')
    lines.append("}")
    return "\n".join(lines)


def cmd_profile(args):
    dfa = _read_dfa(args.file)
    word = parse_word(dfa, args.word)
    if args.dot:
        print(_dot_graph(dfa, word))
        return 0
    profile = size_profile(dfa, word)
    final = apply_word(dfa, dfa.full_set(), word)
    _emit(
        args,
        [f"profile = {list(profile)}", f"final set = {final}"],
        {"word": format_word(dfa, word), "profile": list(profile),
         "final_set": list(final)},
    )
    return 0


def cmd_greedy(args):
    dfa = _read_dfa(args.file)
    profile = greedy_word(dfa, args.corank)
    if profile is None:
        _emit(args, ["greedy compression stalls"], {"stages": None})
        return 1
    boundaries = []
    pos = 0
    for length in profile.stage_lengths:
        pos += length
        boundaries.append(pos)
    sizes = list(size_profile(dfa, profile.total))
    _emit(
        args,
        [
            f"total = {format_word(dfa, profile.total)} (length {len(profile.total)})",
            f"stage lengths = {list(profile.stage_lengths)}",
            f"profile = {sizes}",
        ],
        {
            "word": format_word(dfa, profile.total),
            "length": len(profile.total),
            "stage_lengths": list(profile.stage_lengths),
            "stage_boundaries": boundaries,
            "profile": sizes,
        },
    )
    return 0


def cmd_apply(args):
    dfa = _read_dfa(args.file)
    word = parse_word(dfa, args.word)
    start = _parse_state_set(dfa, args.set) if args.set is not None else dfa.full_set()
    result = apply_word(dfa, start, word)
    _emit(
        args,
        [f"{start} -> {result}"],
        {"start": list(start), "word": format_word(dfa, word), "result": list(result)},
    )
    return 0


def cmd_structure(args):
    dfa = _read_dfa(args.file)
    try:
        cert = extract_certificate(dfa)
    except HypothesisFailed:
        _emit(args, ["hypothesis does not hold: automaton compresses to size n-2 "
                     "in at most 3 steps, or not at all"],
              {"hypothesis": False, "certificate": None})
        return 1
    report = validate_certificate(dfa, cert)
    payload = {
        "hypothesis": True,
        "certificate": cert.to_json(dfa),
        "clauses": {
            "i": report.clause_i,
            "ii": report.clause_ii,
            "iii": report.clause_iii,
            "iv": report.clause_iv,
        },
        "failures": list(report.failures),
    }
    lines = [
        "hypothesis holds",
        f"b = {dfa.names[cert.b_letter]}, a = {dfa.names[cert.a_letter]}, "
        f"d = {dfa.names[cert.d_letter]}, q = {cert.q}",
        f"renumbering = {list(cert.renumbering)}",
        f"X = {list(cert.X)} ({cert.case_tag}, a_replaced = {cert.a_replaced})",
        "clauses: " + ", ".join(
            f"({num}) {'pass' if ok else 'FAIL'}"
            for num, ok in zip(("i", "ii", "iii", "iv"),
                               (report.clause_i, report.clause_ii,
                                report.clause_iii, report.clause_iv))
        ),
    ]
    lines.extend(report.failures)
    _emit(args, lines, payload)
    return 0 if report.all_pass else 2


def cmd_classify(args):
    dfa = _read_dfa(args.file)
    try:
        cert = certify(dfa)
    except HypothesisFailed:
        raise HypothesisFailed(
            "letter classification requires the corank-2 certificate hypothesis"
        ) from None
    classification = classify_pinlem(dfa, cert)
    lines = []
    for j, cls in enumerate(classification.classes):
        lines.append(f"{dfa.names[j]}: {cls if cls else 'UNCLASSIFIED'}")
    payload = {
        "classes": {dfa.names[j]: classification.classes[j] for j in range(dfa.k)},
        "total": classification.total,
    }
    _emit(args, lines, payload)
    return 0 if classification.total else 2


def cmd_construct(args):
    dfa = _read_dfa(args.file)
    cert = certify(dfa)
    word, tag = _corank3_certified(dfa, cert)
    image = apply_word(dfa, dfa.full_set(), word)
    word4 = corank2_word(cert)
    _emit(
        args,
        [
            f"corank-2 word = {format_word(dfa, word4)}",
            f"corank-3 word = {format_word(dfa, word)} (length {len(word)})",
            f"case = {tag.case} {tag.route}",
            f"image = {image} (size {len(image)})",
        ],
        {
            "corank2_word": format_word(dfa, word4),
            "word": format_word(dfa, word),
            "length": len(word),
            "case": tag.to_json(dfa),
            "image": list(image),
        },
    )
    return 0


def cmd_extend(args):
    dfa = _read_dfa(args.file)
    word = parse_word(dfa, args.word)
    m = pin_extension(dfa, word, args.corank)
    final = apply_word(dfa, dfa.full_set(), word + m + word)
    _emit(
        args,
        [f"m = {format_word(dfa, m)} (length {len(m)})",
         f"|Q.w.m.w| = {len(final)}"],
        {"m": format_word(dfa, m), "length": len(m), "final_size": len(final)},
    )
    return 0


def cmd_pipeline(args):
    dfa = _read_dfa(args.file)
    word = sync_pipeline(dfa)
    bound = (dfa.n ** 3 - dfa.n) // 6 - 1
    _emit(
        args,
        [f"word = {format_word(dfa, word)} (length {len(word)}, bound {bound})"],
        {"word": format_word(dfa, word), "length": len(word), "bound": bound},
    )
    return 0


def cmd_greedy_conditions(args):
    report = assert_equivalence(_read_dfa(args.file))
    payload = report.to_json()
    lines = [
        f"cond1 = {report.cond1}, cond2 = {report.cond2}, "
        f"cond3 = {report.cond3}, cond4 = {report.cond4}",
        "equivalent" if report.consistent else "MISMATCH: counterexample found",
    ]
    _emit(args, lines, payload)
    return 0 if report.consistent else 2


def cmd_extremal(args):
    tail = tuple(int(t) for t in args.tail_perm.split(",")) if args.tail_perm else None
    dfa = build_extremal_dfa(args.n, include_identity=not args.no_identity,
                             tail_permutation=tail)
    if args.json:
        print(json.dumps(dfa_to_json(dfa), indent=2, sort_keys=True))
    else:
        sys.stdout.write(serialize_dfa(dfa))
    return 0


def cmd_pincor(args):
    dfa = _read_dfa(args.file)
    ok = pincor_check(dfa, certify(dfa))
    _emit(args, [f"pincor: {'pass' if ok else 'FAIL'}"], {"pass": ok})
    return 0 if ok else 2


def cmd_verify(args):
    mode = "random" if args.samples is not None else "exhaustive"
    scope = EnumerationScope(
        n=args.n,
        k=args.k,
        mode=mode,
        sample_count=args.samples,
        rng_seed=args.seed,
        work_budget=args.budget,
    )
    report = run_check(args.theorem, scope, jobs=args.jobs)
    if args.json:
        sys.stdout.write(report.render())
    else:
        print(
            f"{report.theorem_id}: checked {report.checked_count}, "
            f"applicable {report.applicable_count}, "
            f"violations {report.violation_count} "
            f"({report.wall_time:.1f}s)"
        )
        for ce in report.counterexamples[:10]:
            print(json.dumps(ce, sort_keys=True))
        if report.stats:
            print("stats: " + json.dumps(report.stats, sort_keys=True))
    return 2 if report.violation_count else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as domain errors do: 2 means a violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="synchrokit",
        description="Exact compression-word search and bound verification "
                    "for synchronizing automata.",
    )
    parser.add_argument("--version", action="version", version=f"synchrokit {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        return p

    p = add("rank", cmd_rank, help="minimum reachable image size and a witness length")
    p.add_argument("file")

    p = add("compress", cmd_compress, help="shortest compressing word from the full set")
    p.add_argument("file")
    p.add_argument("--target-size", type=int)
    p.add_argument("--corank", type=int)
    p.add_argument("--letters", help="restrict to these letter names, e.g. 'ab'")
    p.add_argument("--max-len", type=int)

    p = add("profile", cmd_profile, help="size profile of a word, or the power graph as DOT")
    p.add_argument("file")
    p.add_argument("word")
    p.add_argument("--dot", action="store_true",
                   help="emit the reachable power automaton as a DOT graph")

    p = add("greedy", cmd_greedy, help="stage-wise greedy compression")
    p.add_argument("file")
    p.add_argument("--corank", type=int, required=True)

    p = add("apply", cmd_apply, help="apply a word to a state set")
    p.add_argument("file")
    p.add_argument("word")
    p.add_argument("--set", help="start set, e.g. '1,3,4' (default: all states)")

    p = add("structure", cmd_structure, help="corank-2 certificate extraction and validation")
    p.add_argument("file")

    p = add("classify", cmd_classify, help="letter classes under the certificate")
    p.add_argument("file")

    p = add("construct", cmd_construct, help="explicit corank-3 word of length <= 9")
    p.add_argument("file")

    p = add("extend", cmd_extend, help="bridge word m with |Q.w.m.w| <= n-c, |m| <= c")
    p.add_argument("file")
    p.add_argument("word")
    p.add_argument("--corank", type=int, required=True)

    p = add("pipeline", cmd_pipeline, help="full synchronizing word within (n^3-n)/6 - 1")
    p.add_argument("file")

    p = add("greedy-conditions", cmd_greedy_conditions,
            help="evaluate the four extremality conditions")
    p.add_argument("file")

    p = add("extremal", cmd_extremal, help="emit an extremal automaton")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--no-identity", action="store_true")
    p.add_argument("--tail-perm", help="comma-separated images of states 5..n")

    p = add("pincor", cmd_pincor, help="check the b a^3 b a^3 b fallback word")
    p.add_argument("file")

    p = add("verify", cmd_verify, help="sweep a population checking one bound")
    p.add_argument("theorem", choices=CHECKS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--samples", type=int, help="random mode with this many draws")
    p.add_argument("--seed", type=int, help="seed for random mode")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int,
                   help=f"refuse exhaustive scopes larger than this (default {_DEFAULT_BUDGET})")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TheoremViolation, ConstructionContradiction, CertificateContradiction) as e:
        print(f"violation: {e}", file=sys.stderr)
        if e.detail:
            print(json.dumps(e.detail, indent=2, sort_keys=True), file=sys.stderr)
        return 2
    except (ParseError, HypothesisFailed, PreconditionFailed, BudgetExceeded,
            SynchroError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
