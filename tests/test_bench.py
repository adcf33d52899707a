"""The benchmark's self-test, run as part of the suite.

``bench/`` drives the package through names it rebinds from outside,
such as ``checks.Auto.greedy_flags`` with its ``_greedy_flags`` memo slot
and ``checks.subset_images_for_table``; a change that renames one of them
away breaks the benchmark, and this test with it.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
