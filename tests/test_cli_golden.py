"""CLI output compared byte for byte with a committed transcript.

``tests/golden/cli_transcript.txt`` holds the exit code, stdout and
stderr of the single-automaton verbs built on the power-automaton
searches (``rank``, ``greedy --corank 2``, ``structure``, ``classify``,
``construct``, ``pincor``, ``pipeline``, ``greedy-conditions`` and
``compress --target-size 1``), human and ``--json``.  The inputs are the
fixtures, the case fixtures, seeded random automata with n = 1..7 and
k = 1..3, so automata with n < 3, with n < 4 and without a synchronizing
word all appear, and two automata above the 13-state table limit: a seeded
relabelling of Cerny C_14 and a seeded random n = 15, k = 2 automaton.  If
a change means to alter the output, regenerate the file with
``render_transcript`` and review the diff:

    PYTHONPATH=src:tests python -c "import test_cli_golden as t; t.write_transcript()"
"""

import contextlib
import io
import pathlib
import random
import re
import tempfile

from synchrokit.cli import main

from conftest import A_REPLACED_FIXTURE, CASE_FIXTURES, FIXTURES
from test_construct import _cerny
from test_harness import _relabelled

TRANSCRIPT = pathlib.Path(__file__).resolve().parent / "golden" / "cli_transcript.txt"

VERBS = (
    ("rank",),
    ("greedy", "--corank", "2"),
    ("structure",),
    ("classify",),
    ("construct",),
    ("pincor",),
    ("pipeline",),
    ("greedy-conditions",),
    ("compress", "--target-size", "1"),
)

# (n, k) of the seeded random automata, in drawing order.
RANDOM_SHAPES = (
    (1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 2), (3, 3), (4, 1),
    (4, 2), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2), (7, 3),
)


def transcript_inputs():
    """(name, automaton text) pairs, in transcript order."""
    inputs = [(path.name, path.read_text()) for path in sorted(FIXTURES.glob("*.dfa"))]
    inputs.extend(sorted(CASE_FIXTURES.items()))
    inputs.append(("A_REPLACED", A_REPLACED_FIXTURE))
    rng = random.Random(7)
    for i, (n, k) in enumerate(RANDOM_SHAPES):
        rows = [" ".join(str(rng.randint(1, n)) for _ in range(n)) for _ in range(k)]
        inputs.append((f"random{i:02d}_n{n}_k{k}", f"{n} {k}\n" + "\n".join(rows) + "\n"))
    # Above the table limit: Cerny C_14 under a seeded renumbering, then a
    # random n = 15, k = 2 automaton.
    perm = list(range(14))
    rng.shuffle(perm)
    tables = _relabelled(_cerny(14).letters, perm)
    rows = [" ".join(str(image + 1) for image in table) for table in tables]
    inputs.append(("cerny14_relabelled", "14 2\n" + "\n".join(rows) + "\n"))
    rows = [" ".join(str(rng.randint(1, 15)) for _ in range(15)) for _ in range(2)]
    inputs.append(("random_n15_k2", "15 2\n" + "\n".join(rows) + "\n"))
    return inputs


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def render_transcript():
    blocks = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in transcript_inputs():
            path = pathlib.Path(tmp) / name
            path.write_text(text)
            for verb, *options in VERBS:
                for json_flag in ([], ["--json"]):
                    code, out, err = _run([verb, str(path), *options, *json_flag])
                    command = " ".join(["synchrokit", verb, name, *options, *json_flag])
                    blocks.append(
                        f"$ {command}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"
                    )
    return "".join(blocks)


def write_transcript():
    TRANSCRIPT.write_text(render_transcript())


def _blocks(transcript):
    """The transcript split before each ``$ synchrokit ...`` command line."""
    return re.split(r"(?m)^(?=\$ synchrokit )", transcript)


def test_cli_matches_transcript():
    rendered, expected = render_transcript(), TRANSCRIPT.read_text()
    # Name the first differing block, and diff that block alone.
    for new, old in zip(_blocks(rendered), _blocks(expected)):
        assert new == old, f"first differing block: {old.splitlines()[0]}"
    assert rendered == expected
