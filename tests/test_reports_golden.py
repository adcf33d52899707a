"""Sweep reports compared byte for byte with committed expected text.

The expected files in ``tests/golden/`` hold the rendered reports of
fixed scopes, one report after another in theorem-id order.  A
change to the sweep kernel or to anything it calls must leave them
unchanged.  If a change means to alter a report, regenerate every file
with ``write_reports`` and review the diff:

    PYTHONPATH=src:tests python -c "import test_reports_golden as t; t.write_reports()"
"""

import pathlib

import pytest

from synchrokit import EnumerationScope, run_checks
from synchrokit.checks import THEOREM_IDS

from test_acceptance import SWEEP5_IDS

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

GOLDEN = {
    # The whole two-letter 4-state population, one orbit representative
    # each, weighted by its orbit size.
    "n4_k2_exhaustive": (EnumerationScope(4, 2), THEOREM_IDS),
    # Every id is applicable here, and pipeline, greedy-stages, lemmaX,
    # corank2-cert and greedy-equiv all carry stats.
    "n4_k2_random3000_seed1": (
        EnumerationScope(4, 2, mode="random", sample_count=3000, rng_seed=1),
        THEOREM_IDS,
    ),
    "n5_k2_random2000_seed1": (
        EnumerationScope(5, 2, mode="random", sample_count=2000, rng_seed=1),
        ("corank3",) + SWEEP5_IDS,
    ),
    # These sizes reach the pair-compression stages of the pipeline.
    "n6_k2_random3000_seed1": (
        EnumerationScope(6, 2, mode="random", sample_count=3000, rng_seed=1),
        ("pipeline",),
    ),
    "n5_k3_random3000_seed1": (
        EnumerationScope(5, 3, mode="random", sample_count=3000, rng_seed=1),
        ("pipeline",),
    ),
}


def render_reports(scope, theorem_ids):
    reports = run_checks(theorem_ids, scope)
    return "".join(reports[tid].render() for tid in theorem_ids)


def write_reports():
    for name, (scope, theorem_ids) in GOLDEN.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(render_reports(scope, theorem_ids))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden(name):
    scope, theorem_ids = GOLDEN[name]
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    assert render_reports(scope, theorem_ids) == expected
