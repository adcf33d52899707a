import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synchrokit import (EnumerationScope, TheoremViolation, apply_word, load_dfa, power,
                        run_check, serialize_dfa, structure)
from synchrokit.checks import CHECKS
from synchrokit.cli import build_parser, main

from conftest import A_REPLACED_FIXTURE, FIXTURES, fixture_path, load_fixture
from oracles import random_dfas
from test_harness import _count_calls


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicVerbs:
    def test_rank_human(self, capsys):
        code, out, _ = run_cli(capsys, "rank", fixture_path("c4.dfa"))
        assert code == 0
        assert out.strip() == "rank = 1, witness length = 9"

    def test_rank_json(self, capsys):
        code, out, _ = run_cli(capsys, "rank", fixture_path("c4.dfa"), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload == {"rank": 1, "witness_length": 9, "witness": "baaabaaab"}

    def test_rank_searches_once(self, capsys, monkeypatch):
        searches = []
        original = power._bfs

        def counting(*args, **kwargs):
            searches.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(power, "_bfs", counting)
        code, out, _ = run_cli(capsys, "rank", fixture_path("c5.dfa"), "--json")
        assert code == 0
        assert json.loads(out) == {"rank": 1, "witness_length": 16, "witness": "baaaabaaaabaaaab"}
        assert searches == [0b11111]

    @pytest.mark.parametrize("verb", ["structure", "classify"])
    def test_certificate_verbs_search_once_without_tables(self, capsys, monkeypatch, verb):
        # Extraction decides the hypothesis itself, on per-set images.
        power.subset_image_tables.cache_clear()
        searches = _count_calls(monkeypatch, power._bfs)
        built = _count_calls(monkeypatch, power.subset_images_for_table)
        code, _, _ = run_cli(capsys, verb, fixture_path("e5.dfa"))
        assert code == 0
        assert (len(searches), len(built)) == (1, 0)

    def test_compress_target(self, capsys):
        code, out, _ = run_cli(
            capsys, "compress", fixture_path("c4.dfa"), "--target-size", "2", "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["word"] == "baab" and payload["final_set"] == [2, 4]

    def test_compress_corank(self, capsys):
        code, out, _ = run_cli(
            capsys, "compress", fixture_path("e5.dfa"), "--corank", "3", "--json"
        )
        payload = json.loads(out)
        assert payload["length"] == 9

    def test_compress_unreachable_exits_1(self, capsys):
        code, out, _ = run_cli(
            capsys, "compress", fixture_path("i3.dfa"), "--target-size", "2"
        )
        assert code == 1

    def test_compress_letters_restriction(self, capsys):
        code, out, _ = run_cli(
            capsys, "compress", fixture_path("e5.dfa"), "--target-size", "4",
            "--letters", "e", "--json",
        )
        assert code == 1  # identity alone cannot compress

    def test_compress_empty_letters_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "compress", fixture_path("c4.dfa"), "--target-size", "1", "--letters", "",
        )
        assert code == 1 and out == ""
        assert err.strip() == "error: allowed_letters must be non-empty when given"

    def test_profile(self, capsys):
        code, out, _ = run_cli(
            capsys, "profile", fixture_path("e5.dfa"), "baaabaaab", "--json"
        )
        payload = json.loads(out)
        assert payload["profile"] == [5, 4, 4, 4, 4, 3, 3, 3, 3, 2]

    def test_profile_dot(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "profile", fixture_path("c4.dfa"), "baab", "--dot")
        assert code == 0
        assert out.startswith("digraph power")
        assert '"{1,2,3,4}" -> "{2,3,4}" [label="b" style="bold"]' in out
        # Above 8 states the graph's images come from byte-sliced maps.
        n = 14
        cycle = [q % n + 1 for q in range(1, n + 1)]
        merge = [2] + list(range(2, n + 1))
        path = tmp_path / "c14.dfa"
        path.write_text(f"{n} 2\n" + " ".join(map(str, cycle)) + "\n" + " ".join(map(str, merge)) + "\n")
        code, out, _ = run_cli(capsys, "profile", str(path), "ba", "--dot")
        assert code == 0
        dfa = load_dfa(path.read_text())
        seen = frontier = {dfa.full_set()}
        while frontier:
            frontier = {apply_word(dfa, S, (j,)) for S in frontier for j in range(dfa.k)} - seen
            seen = seen | frontier
        nodes = [line for line in out.splitlines() if line.startswith('  "') and line.endswith('";')]
        assert len(nodes) == len(seen)
        assert len(out.splitlines()) == 3 + len(seen) * (1 + dfa.k)

    def test_greedy(self, capsys):
        code, out, _ = run_cli(capsys, "greedy", fixture_path("c4.dfa"), "--corank", "3", "--json")
        payload = json.loads(out)
        assert payload["stage_lengths"] == [1, 3, 6]
        assert payload["stage_boundaries"] == [1, 4, 10]

    def test_apply(self, capsys):
        # An empty --set is the empty set, not the default full set.
        for states, start, result in (("1,3", [1, 3], [2, 4]), ("", [], [])):
            code, out, _ = run_cli(
                capsys, "apply", fixture_path("c4.dfa"), "baab", "--set", states, "--json"
            )
            payload = json.loads(out)
            assert code == 0
            assert payload["start"] == start and payload["result"] == result

    def test_apply_default_full(self, capsys):
        code, out, _ = run_cli(capsys, "apply", fixture_path("c4.dfa"), "baaabaaab")
        assert "{2}" in out

    def test_greedy_stall_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "greedy", fixture_path("i3.dfa"), "--corank", "1")
        assert code == 1 and "stalls" in out

    def test_compress_flag_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "compress", fixture_path("c4.dfa"),
            "--target-size", "2", "--corank", "1",
        )
        assert code == 1 and "exactly one" in err


class TestStructureVerbs:
    def test_structure(self, capsys):
        code, out, _ = run_cli(capsys, "structure", fixture_path("e5.dfa"), "--json")
        payload = json.loads(out)
        assert code == 0
        assert payload["certificate"]["b"] == "b" and payload["certificate"]["q"] == 3
        assert all(payload["clauses"].values())

    def test_structure_hypothesis_fails(self, capsys):
        code, out, _ = run_cli(capsys, "structure", fixture_path("i3.dfa"))
        assert code == 1

    def test_classify(self, capsys):
        code, out, _ = run_cli(capsys, "classify", fixture_path("e5.dfa"), "--json")
        payload = json.loads(out)
        assert payload["classes"] == {"e": "AD", "a": "AD", "b": "B1"}

    def test_construct(self, capsys):
        code, out, _ = run_cli(capsys, "construct", fixture_path("e5.dfa"), "--json")
        payload = json.loads(out)
        assert payload["word"] == "baaabaaab"
        assert payload["case"]["case"] == "CASE_I" and payload["case"]["qb_is_3"]

    def test_construct_extracts_the_certificate_once(self, capsys, monkeypatch):
        # certify extracts and validates; corank3_word validates again, a
        # letter-level check, rather than trusting where the certificate
        # came from.
        extracted = _count_calls(monkeypatch, structure.extract_certificate)
        validated = _count_calls(monkeypatch, structure.validate_certificate)
        code, _, _ = run_cli(capsys, "construct", fixture_path("e5.dfa"))
        assert code == 0
        assert (len(extracted), len(validated)) == (1, 2)

    def test_construct_needs_rank_n_minus_3(self, capsys, tmp_path):
        # The certificate validates, but nothing compresses to size n-3.
        path = tmp_path / "orbit12.dfa"
        path.write_text("4 3\nnames: a d b\n2 1 3 4\n1 3 2 4\n2 2 3 4\n")
        code, _, err = run_cli(capsys, "construct", str(path))
        assert code == 1
        assert err == "error: automaton does not compress to size n-3\n"

    def test_extend(self, capsys):
        code, out, _ = run_cli(
            capsys, "extend", fixture_path("c4.dfa"), "baab", "--corank", "3", "--json"
        )
        payload = json.loads(out)
        assert payload["m"] == "aba" and payload["final_size"] == 1

    def test_pipeline(self, capsys):
        code, out, _ = run_cli(capsys, "pipeline", fixture_path("c5.dfa"), "--json")
        payload = json.loads(out)
        assert payload["length"] <= payload["bound"] == 19

    def test_greedy_conditions(self, capsys):
        code, out, _ = run_cli(
            capsys, "greedy-conditions", fixture_path("e5.dfa"), "--json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["consistent"] and payload["cond1"]

    def test_pincor(self, capsys):
        code, out, _ = run_cli(capsys, "pincor", fixture_path("e5.dfa"))
        assert code == 0
        # Three states leave no size n-3 to reach: a precondition error.
        code, out, err = run_cli(capsys, "pincor", fixture_path("c3.dfa"))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "n >= 4" in err

    def test_pincor_needs_rank_n_minus_3(self, capsys, tmp_path):
        # Certified, but rank 2 on 4 states: the claim does not cover it.
        path = tmp_path / "a_replaced.dfa"
        path.write_text(A_REPLACED_FIXTURE)
        for output in ([], ["--json"]):
            code, out, err = run_cli(capsys, "pincor", str(path), *output)
            assert (code, out) == (1, "")
            assert err == "error: automaton does not compress to size n-3\n"

    def test_extremal_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "extremal", "--n", "5")
        assert code == 0
        assert out == (
            "5 3\nnames: e a b\n1 2 3 4 5\n2 3 4 1 5\n2 2 3 4 5\n"
        )

    def test_extremal_no_identity(self, capsys):
        code, out, _ = run_cli(capsys, "extremal", "--n", "5", "--no-identity")
        assert out.splitlines()[0] == "5 2"


class TestVerifyVerb:
    def test_verify_exhaustive(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "corank3", "--n", "3", "--k", "2"
        )
        assert code == 0
        assert "violations 0" in out

    def test_verify_json_deterministic(self, capsys):
        args = ("verify", "greedy-equiv", "--n", "3", "--k", "2", "--json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["violations"] == 0
        assert "wall_time_s" not in payload

    def test_verify_prints_counterexamples_and_stats(self, capsys, monkeypatch):
        # A planted check failing on every automaton of rank 2, with a stat:
        # the summary line, the first 10 counterexamples and the stats line.
        def planted(auto, stats):
            stats["planted"] = stats.get("planted", 0) + 1
            if auto.rank != 2:
                return False, None
            return True, {"claim": "corank3", "q": auto.tables[0][0]}

        monkeypatch.setitem(CHECKS, "corank3", planted)
        report = run_check("corank3", EnumerationScope(3, 2))
        code, out, _ = run_cli(capsys, "verify", "corank3", "--n", "3", "--k", "2")
        assert code == 2 and report.violation_count == 144
        summary, *examples, stats = out.splitlines()
        assert summary.startswith(f"corank3: checked 729, applicable {report.applicable_count}, "
                                  "violations 144 (")
        assert [json.loads(line) for line in examples] == report.counterexamples[:10]
        assert stats == 'stats: {"planted": 729}'

    def test_verify_random_requires_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "corank3", "--n", "5", "--k", "2", "--samples", "10"
        )
        assert code == 1
        assert "seed" in err

    @pytest.mark.parametrize(
        "n, samples, seed, message",
        [("3", "0", "3", "random mode needs sample_count >= 1"),
         ("64", "1", "3", "out of range 1..13"),
         ("4", "10", "-1", "rng_seed must be at least 0")],
        ids=["3-0-random mode needs sample_count >= 1", "64-1-out of range 1..13", "negative-seed"],
    )
    def test_verify_bad_scope_exits_1(self, capsys, n, samples, seed, message):
        code, out, err = run_cli(
            capsys, "verify", "corank3", "--n", n, "--samples", samples, "--seed", seed
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("corank3", "--n", "3", "--seed", "5"), "random mode only"),
            (("corank3", "--n", "4", "--samples", "10", "--seed", "1", "--budget", "5"),
             "exhaustive mode only"),
            (("corank3", "--n", "4", "--samples", "10", "--seed", "1", "--budget", "10000000"),
             "exhaustive mode only"),
        ],
    )
    def test_verify_inert_option_exits_1(self, capsys, argv, message):
        # An option that would leave the sweep unchanged is refused.
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and message in err

    def test_verify_corank4_hunt(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "corank4", "--n", "5", "--samples", "1500", "--seed", "3"
        )
        assert code == 0
        assert out.startswith("corank4: checked 1500, ") and "violations 0" in out

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_verify_jobs_below_1_exits_1(self, capsys, jobs):
        code, out, err = run_cli(capsys, "verify", "corank3", "--n", "3", "--jobs", jobs)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "jobs must be at least 1" in err

    def test_verify_budget(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "corank3", "--n", "5", "--k", "2", "--budget", "1000"
        )
        assert code == 1
        assert "9765625" in err

    def test_verify_budget_huge_scope(self, capsys):
        # 13^(13*2000) has far more digits than Python will print.
        code, out, err = run_cli(capsys, "verify", "corank3", "--n", "13", "--k", "2000")
        assert code == 1 and out == ""
        assert err == ("error: exhaustive scope would enumerate 13^(13*2000) automata, "
                       "budget is 10000000\n")

    def test_verify_unknown_theorem_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "nope", "--n", "3"])
        assert err.value.code == 1


def _every_verb(path, dfa):
    """One argv per CLI verb, for the automaton ``dfa`` stored at ``path``."""
    word = dfa.names[-1] + dfa.names[0]
    n = str(dfa.n)
    return [
        ["rank", path], ["compress", path, "--corank", "1"], ["profile", path, word],
        ["greedy", path, "--corank", "1"], ["apply", path, word], ["structure", path],
        ["classify", path], ["construct", path], ["extend", path, word, "--corank", "1"],
        ["pipeline", path], ["greedy-conditions", path], ["extremal", "--n", n],
        ["pincor", path], ["verify", "corank3", "--n", n, "--samples", "20", "--seed", "1"],
    ]


def _assert_no_traceback(capsys, path, dfa):
    for argv in _every_verb(path, dfa):
        for output in ([], ["--json"]):
            code, _, err = run_cli(capsys, *argv, *output)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err, argv


@st.composite
def _automata(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(1, n), min_size=n, max_size=n), min_size=k, max_size=k))
    return f"{n} {k}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


class TestEveryVerb:
    @pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.dfa")))
    def test_no_traceback(self, capsys, name):
        # Every verb on the fixture, in human and JSON output, ends in an
        # exit status and never in an uncaught exception.
        path = fixture_path(name)
        dfa = load_fixture(name)
        parsed = next(a.choices for a in build_parser()._actions if a.dest == "verb")
        assert sorted(argv[0] for argv in _every_verb(path, dfa)) == sorted(parsed)
        _assert_no_traceback(capsys, path, dfa)

    @given(_automata())
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_no_traceback_on_generated_automata(self, capsys, tmp_path, text):
        path = tmp_path / "generated.dfa"
        path.write_text(text)
        _assert_no_traceback(capsys, str(path), load_dfa(text))


class TestErrors:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "rank", "no-such-file.dfa")
        assert code == 1 and "cannot read" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.dfa"
        bad.write_text("2 1\n3 1\n")
        code, _, err = run_cli(capsys, "rank", str(bad))
        assert code == 1 and "line 2" in err

    @pytest.mark.parametrize(
        "blob",
        [
            '{"n": "3", "letters": [[1, 2, 3]]}',
            '{"n": 3, "letters": 5}',
            pytest.param('{"n": ' + "[" * 100_000, id="deep-nesting"),
            pytest.param("2 2\nnames: #a b\n1 2\n2 1\n", id="bad-letter-name"),
        ],
    )
    def test_json_shape_error_exits_1(self, capsys, tmp_path, blob):
        bad = tmp_path / "bad.json"
        bad.write_text(blob)
        code, _, err = run_cli(capsys, "rank", str(bad))
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "blob, message",
        [('{"n": 4, "letters": []}', "at least one letter is required"),
         ('{"n": -3, "letters": []}', "state count -3 out of range 1..64"),
         ('{"n": 2, "k": 7, "letters": [[1, 2]]}', "k = 7 but letters has length 1")],
    )
    def test_json_without_letters_exits_1(self, capsys, tmp_path, blob, message):
        path = tmp_path / "no_letters.json"
        path.write_text(blob)
        code, out, err = run_cli(capsys, "rank", str(path))
        assert code == 1 and out == ""
        assert err.strip() == f"error: {message}"

    def test_violation_detail_on_stderr(self, capsys, monkeypatch):
        def violating(dfa):
            raise TheoremViolation("pipeline bound: word too long", {"word": [0], "bound": 9})

        monkeypatch.setattr("synchrokit.cli.sync_pipeline", violating)
        code, out, err = run_cli(capsys, "pipeline", fixture_path("c4.dfa"))
        assert code == 2 and out == ""
        assert err == ('violation: pipeline bound: word too long\n'
                       '{\n  "bound": 9,\n  "word": [\n    0\n  ]\n}\n')

    @pytest.mark.parametrize(
        "states, message",
        [
            ("0", "state 0 out of range 1..4"),
            ("5", "state 5 out of range 1..4"),
            ("1,x", "state 'x' is not an integer"),
        ],
    )
    def test_apply_bad_set_exits_1(self, capsys, states, message):
        code, out, err = run_cli(capsys, "apply", fixture_path("c4.dfa"), "ab", "--set", states)
        assert code == 1 and out == ""
        assert err.strip() == f"error: {message}"

    @pytest.mark.parametrize("seed, n, k", [(0, 40, 6), (5, 64, 8)])
    def test_greedy_conditions_search_budget_exits_1(self, capsys, tmp_path, seed, n, k):
        path = tmp_path / "many_letters.dfa"
        path.write_text(serialize_dfa(random_dfas(seed, 1, n, k)[0]))
        code, out, err = run_cli(capsys, "greedy-conditions", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: power-automaton search discovered ")

    def test_unknown_verb_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [(["verify", "corank3"], "the following arguments are required: --n"),
         (["rank"], "the following arguments are required: file"),
         (["verify", "corank3", "--n", "x"], "invalid int value: 'x'")],
    )
    def test_usage_error_exits_1(self, capsys, argv, message):
        # Exit 2 is kept for violations, so a usage error exits 1.
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 1 and captured.out == ""
        assert captured.err.startswith("usage: synchrokit ") and message in captured.err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0 and capsys.readouterr().out.startswith("usage: synchrokit")
