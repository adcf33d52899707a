"""Fast self-test of the benchmark: every workload at a tiny scope, and
every output check fed a wrong answer.

    python3 bench/selftest.py

Runs from the repository root in a few seconds; it does not touch
``bench/results/``.
"""

from __future__ import annotations

import json
import sys
import unittest
from dataclasses import replace
from pathlib import Path

import oracle
import run
import workloads as W

sys.path.insert(0, str(run.SRC))

TINY_PROBE = W.QuerySpec(range(5, 7), range(5, 6), range(4, 6), range(4, 6), 1)
TINY = {
    "sweep-exhaustive": replace(W.WORKLOADS["sweep-exhaustive"], n=3, probe=TINY_PROBE),
    "sweep-random": replace(W.WORKLOADS["sweep-random"], samples=300, probe=TINY_PROBE),
    "queries": W.QuerySpec(range(5, 8), range(5, 7), range(4, 7), range(4, 7), 2),
}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def quiet(_message):
    pass


class TinyWorkloads(unittest.TestCase):
    """Each workload at a tiny scope: correct, nothing failed, every metric."""

    def test_every_workload_has_a_tiny_twin(self):
        self.assertEqual(set(TINY), set(W.WORKLOADS))
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(W.WORKLOADS))

    def _run(self, name, trace):
        _setup_s, sk, inputs = run.setup(TINY[name], seed=3)
        tally = run.Tally()
        if trace:
            metrics, _ = run.traced_run(sk, TINY[name], inputs, tally)
            expected = {m["name"] for m in BENCHMARK["per_layer"]}
        else:
            metrics, _ = run.end_to_end(sk, TINY[name], inputs, 0, tally)
            expected = {m["name"] for m in BENCHMARK["end_to_end"]} - {"setup_s", "peak_rss_mb"}
        self.assertTrue(tally.correct, name)
        self.assertGreater(tally.attempted, 0)
        self.assertEqual(tally.failed, 0, name)
        self.assertEqual(set(metrics), expected, name)
        return metrics

    def test_end_to_end(self):
        for name in TINY:
            with self.subTest(workload=name):
                metrics = self._run(name, trace=False)
                for metric, (value, _unit) in metrics.items():
                    self.assertGreater(value, 0, f"{name} {metric}")

    def test_traced(self):
        for name in TINY:
            with self.subTest(workload=name):
                metrics = self._run(name, trace=True)
                layer = "harness.population.automata" if name.startswith("sweep") else "automaton.load_dfa.calls"
                self.assertGreater(metrics[layer][0], 0)

    def test_tracer_restores_the_package(self):
        sk = run.import_package()
        before = (sk.rank, sk.power.rank, sk.construct.rank, dict(sk.checks.CHECKS),
                  sk.checks.Auto.forward, sk.harness._iter_block)
        tracer = run.Tracer()
        tracer.install(sk)
        self.assertIsNot(sk.construct.rank, before[2])
        tracer.uninstall()
        after = (sk.rank, sk.power.rank, sk.construct.rank, dict(sk.checks.CHECKS),
                 sk.checks.Auto.forward, sk.harness._iter_block)
        self.assertEqual(before, after)


class WrongAnswersAreCaught(unittest.TestCase):
    """The output checks reject wrong answers."""

    C6 = oracle.cerny_tables(6)
    E6 = oracle.extremal_tables(6, False)[0]

    def test_query_checks(self):
        short_word = (1,) + (0,) * 5 + (1,)
        cases = [
            (oracle.check_rank, self.C6, 2),
            (oracle.check_compress, self.C6, short_word),
            (oracle.check_compress, self.C6, (0,) * 25),
            (oracle.check_pipeline, self.C6, (0,) * 10),
            (oracle.check_pipeline, self.C6, (1, 0) * 40),
            (oracle.check_structure, self.E6, (False, True)),
            (oracle.check_structure, self.E6, (True, False)),
            (oracle.check_structure, ((0, 0, 0, 0, 0),), (True, True)),
            (oracle.check_construct, self.E6, (1,)),
            (oracle.check_construct, self.E6, (1, 0) * 5),
            (oracle.check_classify, self.E6, False),
            (oracle.check_equivalence, self.E6, (True, True, False, True)),
            (oracle.check_pincor, self.E6, False),
        ]
        for check, tables, answer in cases:
            with self.subTest(check=check.__name__, answer=answer):
                self.assertTrue(check(tables, answer))

    def test_right_answers_pass(self):
        sk = run.import_package()
        for req in W.build_requests(TINY_PROBE, seed=5):
            _group, call, check = W.VERBS[req.verb]
            with self.subTest(verb=req.verb, text=req.text):
                self.assertEqual(check(req.tables, call(sk, req.text)), [])

    def test_sweep_checks(self):
        sk = run.import_package()
        spec = TINY["sweep-exhaustive"]
        scope = W.sweep_scope(sk, spec, 1)
        ids = W.sweep_ids(sk, spec)
        _, reports = W.sweep_round(sk, ids, scope, 1)
        nonperm = W.nonpermutation_count(sk, spec, scope)
        self.assertEqual(oracle.check_sweep(reports, scope.total, nonperm), {})

        def corrupt(tid, **changes):
            bad = json.loads(W.render(reports))
            bad[tid].update(changes)
            return oracle.check_sweep(bad, scope.total, nonperm)

        self.assertIn("corank3", corrupt("corank3", checked=scope.total - 1))
        self.assertIn("franklpin", corrupt("franklpin", applicable=nonperm + 1))
        self.assertIn("pinlem", corrupt("pinlem", applicable=reports["pinlem"]["applicable"] + 1))
        self.assertIn("pincor", corrupt("pincor", applicable=reports["pincor"]["applicable"] + 1))
        self.assertIn("pin", corrupt("pin", violations=1, counterexamples=[{"dfa": "", "detail": {}}]))

    def test_random_reference_count(self):
        sk = run.import_package()
        spec = TINY["sweep-random"]
        scope = W.sweep_scope(sk, spec, 2)
        count = W.nonpermutation_count(sk, spec, scope)
        self.assertLess(count, scope.total)
        _, reports = W.sweep_round(sk, W.sweep_ids(sk, spec), scope, 1)
        self.assertEqual(reports["corank3"]["applicable"], count)

    def test_wrong_package_answer_fails_the_run(self):
        sk = run.import_package()
        real_rank = sk.rank
        sk.rank = lambda dfa: real_rank(dfa) + 1
        try:
            requests = [r for r in W.build_requests(TINY_PROBE, 1) if r.verb == "rank"]
            result = W.query_round(sk, requests, sk.power.subset_image_tables.cache_clear, quiet)
        finally:
            sk.rank = real_rank
        tally = run.Tally()
        tally.add_queries(result)
        self.assertFalse(tally.correct)
        self.assertEqual(tally.failed, len(requests))

    def test_wrong_sweep_report_fails_the_run(self):
        sk = run.import_package()
        spec = TINY["sweep-exhaustive"]
        scope = W.sweep_scope(sk, spec, 1)
        ids = W.sweep_ids(sk, spec)
        _, reports = W.sweep_round(sk, ids, scope, 1)
        reports["lemmaX"]["applicable"] += 1
        tally = run.Tally()
        run.log, saved = quiet, run.log
        try:
            tally.add_sweep(reports, scope.total, W.nonpermutation_count(sk, spec, scope),
                            scope.total * len(ids))
        finally:
            run.log = saved
        self.assertFalse(tally.correct)
        self.assertEqual(tally.failed, scope.total)


class MissingSource(unittest.TestCase):
    def test_missing_source_exits_nonzero(self):
        saved = run.SRC
        run.SRC = Path(run.ROOT / "no-such-dir")
        run.log, saved_log = quiet, run.log
        try:
            self.assertNotEqual(run.main(["--workload", "queries", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"]), 0)
        finally:
            run.SRC = saved
            run.log = saved_log


if __name__ == "__main__":
    unittest.main()
