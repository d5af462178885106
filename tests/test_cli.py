"""End-to-end checks of the command-line interface."""

import dataclasses
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import steengraph
from steengraph import cli, connectivity, graphs, verify
from steengraph.algebra import (
    Level,
    enumerate_monomials,
    monomial_count,
    parse_monomial,
    random_monomials,
)
from steengraph.graphs import WoodGraph
from steengraph.verify import run_check


@pytest.fixture(scope="module")
def validator():
    text = resources.files("steengraph").joinpath("schemas/report.schema.json").read_text()
    schema = json.loads(text)
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_worked_example_text(self, capsys):
        code, out, err = run_cli(capsys, ["analyze", "xi1^6 xi2 xi3", "-n", "2"])
        assert code == 0 and err == ""
        assert out.startswith("monomial xi1^6*xi2^1*xi3^1 at n=2 (4 vertices, 4 edges)\n")
        assert "edges: {1,4} {1,8} {2,4} {4,8}" in out
        assert "C(0,1)=2" in out and "C(2,3)=6" in out
        assert "U(0,1)=0" in out
        assert "connected: yes (search oracle: yes)" in out
        assert "unilateral: no (closure oracle: no)" in out
        assert "WARNING" not in out

    def test_tree_and_dipath_lines(self, capsys):
        code, out, _ = run_cli(capsys, ["analyze", "xi1^15 xi3^2", "-n", "3"])
        assert code == 0
        assert "tree: no (search oracle: no)" in out
        assert "hamilton directed path: 1->2->4->8->16" in out

    def test_hamilton_witness_line(self, capsys):
        code, out, _ = run_cli(capsys, ["analyze", "xi1^6 xi2^6 xi3 xi4", "-n", "3"])
        assert code == 0
        assert "hamilton cycle: 1-8-2-4-16-1" in out

    def test_json_schema(self, capsys, validator):
        code, out, _ = run_cli(capsys, ["analyze", "xi1^6 xi2 xi3", "-n", "2", "--json"])
        assert code == 0
        rep = json.loads(out)
        validator.validate(rep)
        assert rep["report"] == "analysis"
        assert rep["oracles_agree"] is True
        assert [r["value"] for r in rep["C"]] == [2, 6, 5, 4, 2, 6]

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, ["analyze", "[6,1,1]", "-n", "2", "--json"])
        _, second, _ = run_cli(capsys, ["analyze", "[6,1,1]", "-n", "2", "--json"])
        assert first == second

    def test_dot_side_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, _ = run_cli(
            capsys, ["analyze", "xi2", "-n", "2", "--dot", str(target)]
        )
        assert code == 0
        text = target.read_text()
        assert text.startswith("graph {\n")
        assert '"1" -- "4";' in text

    def test_oracle_disagreement_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "oracle_is_connected", lambda g: False)
        code, out, _ = run_cli(capsys, ["analyze", "xi1^6 xi2 xi3", "-n", "2"])
        assert code == 1
        assert "WARNING: a criterion disagrees with its oracle above" in out
        assert "connected: yes (search oracle: no)" in out

    def test_edgeless_report_text(self, capsys):
        code, out, err = run_cli(capsys, ["analyze", "1", "-n", "2"])
        assert code == 0 and err == ""
        assert out == (
            "monomial 1 at n=2 (4 vertices, 0 edges)\n"
            "edges: none\n"
            "degrees (in+out): 1:0+0 2:0+0 4:0+0 8:0+0\n"
            "C: C(0,1)=0 C(0,2)=0 C(0,3)=0 C(1,2)=0 C(1,3)=0 C(2,3)=0\n"
            "U: U(0,1)=0 U(0,2)=0 U(0,3)=0 U(1,2)=0 U(1,3)=0 U(2,3)=0\n"
            "connected: no (search oracle: no)\n"
            "unilateral: no (closure oracle: no)\n"
            "tree: no (search oracle: no)\n"
            "hamilton cycle: none found\n"
            "  degree bound n/2 (printed condition): no\n"
            "  degree bound (n+2)/2 (vertex-count bound): no\n"
            "hamilton directed path: none\n"
        )

    def test_parse_error_exits_two(self, capsys):
        code, out, err = run_cli(capsys, ["analyze", "xi9^2", "-n", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", "[8,0]", "-n", "1"], "exponent 8 of xi1 exceeds bound 3 at n=1"),
            (["analyze", "xi1^8", "-n", "1"], "exponent 8 of xi1 exceeds bound 3 at n=1"),
            (["analyze", "xi2^2", "-n", "1"], "exponent 2 of xi2 exceeds bound 1 at n=1"),
            (["dot", "xi1^99", "-n", "0"], "exponent 99 of xi1 exceeds bound 1 at n=0"),
        ],
    )
    def test_an_exponent_over_its_bound_exits_two(self, capsys, argv, message):
        # both monomial forms, analyze and dot, print the one bound message
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit in this Python"
    )
    @pytest.mark.parametrize("command", ["analyze", "dot"])
    @pytest.mark.parametrize(
        "text, what",
        [
            ("xi1^" + "9" * 5000, "exponent of xi1 in term 1"),
            ("[" + "9" * 5000 + ",0]", "exponent r_1 of the list"),
            ("xi" + "9" * 5000, "generator index of term 1"),
        ],
    )
    def test_an_over_long_number_is_refused_by_the_parser(self, capsys, command, text, what):
        # a number past the interpreter's int-string limit is measured, never converted, so
        # the interpreter's own conversion text cannot reach stderr
        code, out, err = run_cli(capsys, [command, text, "-n", "1"])
        assert code == 2 and out == ""
        limit = sys.get_int_max_str_digits()
        assert err == f"error: {what} has 5000 digits, above the limit of {limit}\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-string limit in this Python"
    )
    @pytest.mark.parametrize("command", ["analyze", "dot"])
    def test_a_repeated_generator_summed_past_the_limit_is_refused_by_the_parser(
        self, capsys, command
    ):
        # each factor passes the length check, and their sum has one digit more than the limit
        limit = sys.get_int_max_str_digits()
        nines = "9" * limit
        for text in (f"xi1^{nines} xi1^{nines}", f"xi2 xi1^{nines} xi1"):
            code, out, err = run_cli(capsys, [command, text, "-n", "1"])
            assert code == 2 and out == ""
            assert err == f"error: the exponents of xi1 sum past the limit of {limit} digits\n"
        # a sum just below the limit reaches the level's bound check
        code, out, err = run_cli(capsys, [command, f"xi1^{nines[1:]}8 xi1", "-n", "1"])
        assert code == 2 and out == ""
        assert err.startswith("error: exponent ") and "exceeds bound 3 at n=1" in err

    def test_non_ascii_digit_exits_two(self, capsys):
        code, out, err = run_cli(capsys, ["analyze", "[\u00b2,0,0]", "-n", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: bad exponent") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["*", " * * "])
    def test_text_without_a_factor_exits_two(self, capsys, text):
        code, out, err = run_cli(capsys, ["analyze", text, "-n", "1"])
        assert code == 2 and out == ""
        assert err.startswith("error: no factor in ") and err.count("\n") == 1

    def test_level_cap_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("STEENGRAPH_MAX_N", "2")
        code, _, err = run_cli(capsys, ["analyze", "xi1", "-n", "3"])
        assert code == 2
        assert "error: " in err


class TestReportBytes:
    # sha256 over the text and the JSON of 20 seeded reports at each n=4..12:
    # a change in any table, verdict or rendering of these reports shows here
    DIGEST = "f3d95d456ff3b501644faa3b91a4aa358be1c637a7d23ae14b1a17db46614724"

    def test_seeded_reports_keep_their_bytes(self):
        h = hashlib.sha256()
        for n in range(4, 13):
            for x in random_monomials(Level(n), 20, seed=n):
                rep = cli.build_report(x)
                h.update(cli.render_analysis_text(rep).encode())
                h.update((json.dumps(rep, indent=2) + "\n").encode())
        assert h.hexdigest() == self.DIGEST

    def test_each_walk_table_is_built_once(self, monkeypatch):
        calls = []
        real = connectivity._walk_table

        def counting(x, directed):
            calls.append(directed)
            return real(x, directed)

        monkeypatch.setattr(connectivity, "_walk_table", counting)
        rep = cli.build_report(parse_monomial("xi1^6 xi2 xi3", Level(2)))
        assert rep["connected"] and not rep["unilateral"]
        assert sorted(calls) == [False, True]
        # n+1 = 3 edges: the tree criterion reads the connectedness already at hand
        calls.clear()
        rep = cli.build_report(parse_monomial("xi1^7", Level(2)))
        assert rep["connected"] and rep["tree"] and rep["unilateral"]
        assert sorted(calls) == [False, True]


class TestWalkLines:
    # render_analysis_text fills one line template a vertex count with the counts of
    # walk_records in order; this pins that order apart from the report digests
    @pytest.mark.parametrize("n", range(13))
    def test_lines_spell_out_the_walk_records(self, n):
        level = Level(n)
        sample = enumerate_monomials(level) if n <= 2 else random_monomials(level, 20, seed=n)
        for x in sample:
            lines = cli.render_analysis_text(cli.build_report(x)).splitlines()
            assert lines[3:5] == [
                f"{name}: "
                + " ".join(
                    f"{name}({r['p']},{r['q']})={r['value']}"
                    for r in connectivity.walk_records(x, directed)
                )
                for name, directed in (("C", False), ("U", True))
            ]


class TestReportAtTheLevelCap:
    # a graph with no Hamilton cycle at n=12: the six vertices 2, 8, ..., 2048 joined to each
    # other and to the other eight, plus {1,4}; the digests are of the reports the unbounded
    # Hamilton search gave, in over 20 s each
    ARGV = ["analyze", "[4095,2731,1023,682,255,170,63,42,15,10,3,2,0]", "-n", "12"]
    TEXT_DIGEST = "86c3356cd531e41151d8cd0a84894a7372057d7f2fa07b4bf52f03bda9aec515"
    JSON_DIGEST = "ceb221036b2012942470b94e7cd5adbd12243d7b93b929be0bc9e26bfe4cc3d9"

    def test_text_keeps_its_bytes(self, capsys):
        code, out, err = run_cli(capsys, self.ARGV)
        assert code == 0 and err == ""
        assert "hamilton cycle: none found\n" in out
        assert hashlib.sha256(out.encode()).hexdigest() == self.TEXT_DIGEST

    def test_json_keeps_its_bytes(self, capsys):
        code, out, err = run_cli(capsys, [*self.ARGV, "--json"])
        assert code == 0 and err == ""
        assert json.loads(out)["hamilton_cycle_found"] is False
        assert hashlib.sha256(out.encode()).hexdigest() == self.JSON_DIGEST


class TestCriteriaReadTheMonomial:
    # the criterion side of a report reads the factors of x, never the oracles' graph
    CRITERIA = (
        "connected",
        "unilateral",
        "tree",
        "hamilton_dipath",
        "paper_hamilton_condition",
        "dirac_condition",
        "C",
        "U",
        "degrees",
    )

    def test_criteria_ignore_a_damaged_oracle_graph(self, monkeypatch):
        x = parse_monomial("xi1^7", Level(2))
        before = cli.build_report(x)
        real = cli.to_graph

        def without_edge_0_1(y):
            g = real(y)
            return WoodGraph(g.level, [e for e in g.sorted_edges() if e != (0, 1)])

        monkeypatch.setattr(cli, "to_graph", without_edge_0_1)
        after = cli.build_report(x)
        assert before["tree"] and not after["oracle_tree"]
        assert {k: after[k] for k in self.CRITERIA} == {k: before[k] for k in self.CRITERIA}

    def test_no_adjacency_matrix_on_any_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("adjacency_matrix is the tests' reference only")

        monkeypatch.setattr(graphs, "adjacency_matrix", refuse)
        monkeypatch.setattr(connectivity, "adjacency_matrix", refuse, raising=False)
        for n in range(4, 13):
            for x in random_monomials(Level(n), 5, seed=n):
                assert cli.build_report(x)["oracles_agree"]
        for name in ("main", "tree", "corollary-unilateral"):
            assert run_check(name, 3).ok


class TestVerify:
    def test_single_theorem_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--theorem", "dirac", "-n", "1"])
        assert code == 0
        assert "verify dirac at n=1: 8 cases, 0 discrepancies" in out
        assert out.endswith("result: PASS (1 checks)\n")

    def test_findings_do_not_fail(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--theorem", "paper-hamilton", "-n", "2"])
        assert code == 0
        assert "31 findings" in out
        assert "finding: " in out
        assert "... and 21 more" in out

    def test_json_schema(self, capsys, validator):
        code, out, _ = run_cli(
            capsys, ["verify", "--theorem", "corollary-unilateral", "-n", "1", "--json"]
        )
        assert code == 0
        rep = json.loads(out)
        validator.validate(rep)
        assert rep["ok"] is True
        assert rep["checks"][0]["name"] == "corollary-unilateral"
        assert rep["checks"][0]["cases"] == 8

    def test_all_at_n0(self, capsys, validator):
        code, out, _ = run_cli(capsys, ["verify", "-n", "0", "--json"])
        assert code == 0
        rep = json.loads(out)
        validator.validate(rep)
        names = [c["name"] for c in rep["checks"]]
        assert names == list(cli.CHECK_ORDER)
        assert rep["ok"] is True

    def test_unknown_theorem_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--theorem", "bogus", "-n", "1"])
        assert code == 2
        assert "unknown check" in err

    def test_sweep_cap_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("STEENGRAPH_MAX_N", "1")
        code, _, err = run_cli(capsys, ["verify", "--theorem", "main", "-n", "2"])
        assert code == 2
        assert "STEENGRAPH_MAX_N" in err

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_level_above_the_cap_exits_two(self, capsys, monkeypatch, fmt):
        # every check is capped out above n=4, but the level itself must exist
        monkeypatch.delenv("STEENGRAPH_MAX_N", raising=False)
        for n in ("13", "1000000"):
            code, out, err = run_cli(capsys, ["verify", "-n", n, *fmt])
            assert code == 2 and out == ""
            assert err == (
                f"error: truncation parameter {n} exceeds the safety cap 12"
                " (set STEENGRAPH_MAX_N to raise it)\n"
            )
        code, out, _ = run_cli(capsys, ["verify", "-n", "12", *fmt])
        assert code == 0
        if fmt:
            checks = json.loads(out)["checks"]
            assert [c["cases"] for c in checks] == [0] * 8
            assert all(c["notes"][0].startswith("skipped: ") for c in checks)
        else:
            assert out.count("  note: skipped: capped at n <= ") == 8
            assert out.endswith("result: PASS (8 checks)\n")

    def test_jobs_match_serial(self, capsys):
        _, serial, _ = run_cli(capsys, ["verify", "--theorem", "tree", "-n", "2", "--json"])
        _, pooled, _ = run_cli(
            capsys, ["verify", "--theorem", "tree", "-n", "2", "--jobs", "2", "--json"]
        )
        assert serial == pooled

    @pytest.mark.parametrize(
        "n, expected",
        [
            (2, {
                "paper-hamilton": [
                    "  note: 31 counterexamples to the n/2 degree bound"
                    " (reported, not failed: the sweep itself is the verdict)"
                ],
                "corollary-unilateral": [
                    "  note: integer-exponent divisibility reading disagrees in 15 cases"
                    " with the walk criterion"
                ],
            }),
            (3, {
                "paper-hamilton": [
                    "  note: 35 counterexamples to the n/2 degree bound"
                    " (reported, not failed: the sweep itself is the verdict)"
                ],
                "corollary-unilateral": [
                    "  note: integer-exponent divisibility reading reported only for n <= 2"
                ],
            }),
        ],
    )
    def test_sweep_notes(self, capsys, n, expected):
        code, out, _ = run_cli(capsys, ["verify", "-n", str(n)])
        assert code == 0
        notes = {}
        for line in out.splitlines():
            if line.startswith("verify "):
                check = notes.setdefault(line.split()[1], [])
            elif line.startswith("  note: "):
                check.append(line)
        assert {name: notes[name] for name in expected} == expected
        assert not any(notes[name] for name in notes if name not in expected)


class TestVerifyBytes:
    # sha256 of the stdout of `verify -n N` at default caps, text then --json; n=4 takes the
    # capped-out branch of run_all (dirac, paper-hamilton, corollary-unilateral, hopf-axioms)
    DIGESTS = {
        0: ("82b94a2751f345a1f37a06ca274ee1aca0d0ed5bb1b7d45cd13aec6da376aaa3",
            "c8926b1897b165f5db938e59772000c1f0f66357d3bc0043d7c3c9ca15b27b28"),
        1: ("eca75ee61ae62f7bd4e0f5a20f222acce74a3d9edcf0f01d10281f7cbba9bf60",
            "8c80cd6bb406f10a8ec77c3df78e33c31178741bc6613977ab89eb18ad6b0dea"),
        2: ("96566c30b24b2dcd93cb9581cb29025c9456ba153ca55e1b193dc889e378b6c6",
            "46cf202a5d7d37ef1a0150a1dd4b492d0c9fcde95c715823fef78c63308fa896"),
        3: ("e269cd1037bb302a509bc7810b6a6a8195ccfb90eaed6c6a0e10651d49f7af37",
            "7dc7db586f5fc4278b524848c0bd75eef85f2df43aa71fcac50793fddcc944ed"),
        4: ("b752ddf0cac23352bbc15f068310991dfdd57ba62c4e99ae81e161894a7666aa",
            "43ffdd2cb80c365f07d4e2ecc2454603eef4be57817058a78dba5cc8471039d5"),
    }

    @pytest.mark.parametrize("n", sorted(DIGESTS))
    def test_verify_output_keeps_its_bytes(self, capsys, monkeypatch, n):
        monkeypatch.delenv("STEENGRAPH_MAX_N", raising=False)
        digests = []
        for extra in ([], ["--json"]):
            code, out, err = run_cli(capsys, ["verify", "-n", str(n), *extra])
            assert code == 0 and err == ""
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(digests) == self.DIGESTS[n]

    # sha256 of `verify -n 4 --theorem paper-hamilton --json` under STEENGRAPH_MAX_N=4
    PAPER_HAMILTON_4 = "662d84f53f2a9b24c94fc408fd7c391e367c731832b6f57f64aca5fe9a409a09"

    def test_degree_sweeps_above_their_cap_keep_their_answer(self, capsys, monkeypatch):
        monkeypatch.setenv("STEENGRAPH_MAX_N", "4")
        dirac = run_check("dirac", 4)
        assert (dirac.cases, dirac.failures, dirac.findings) == (32768, [], [])
        argv = ["verify", "-n", "4", "--theorem", "paper-hamilton", "--json"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == self.PAPER_HAMILTON_4
        [check] = json.loads(out)["checks"]
        assert (check["cases"], check["failures"], len(check["findings"])) == (32768, [], 1990)


class TestHopf:
    def test_antipode_golden(self, capsys):
        code, out, _ = run_cli(capsys, ["hopf", "antipode", "--i", "2", "--j", "0", "-n", "3"])
        assert code == 0
        assert out == "xi2^1 + xi1^3\n"

    def test_coproduct_golden(self, capsys):
        code, out, _ = run_cli(capsys, ["hopf", "coproduct", "--i", "1", "--j", "0", "-n", "1"])
        assert code == 0
        assert out == "xi1^1 (x) 1 + 1 (x) xi1^1\n"

    def test_paths_untruncated_golden(self, capsys):
        code, out, _ = run_cli(capsys, ["hopf", "paths", "--i", "3"])
        assert code == 0
        assert out == "xi3^1 + xi1^1*xi2^2 + xi1^4*xi2^1 + xi1^7\n"

    def test_json_schema(self, capsys, validator):
        code, out, _ = run_cli(
            capsys, ["hopf", "antipode", "--i", "2", "-n", "3", "--json"]
        )
        assert code == 0
        rep = json.loads(out)
        validator.validate(rep)
        assert rep == {
            "report": "hopf",
            "action": "antipode",
            "i": 2,
            "j": 0,
            "n": 3,
            "result": "xi2^1 + xi1^3",
        }

    @pytest.mark.parametrize("action", ["coproduct", "antipode", "paths"])
    def test_out_of_range_exits_two(self, capsys, action):
        # every action refuses an absent xi_i^(2^j) with the one generator-power message
        code, _, err = run_cli(capsys, ["hopf", action, "--i", "3", "-n", "1"])
        assert code == 2
        assert err == "error: xi3^(2^0) does not exist at n=1 (need i+j <= 2)\n"

    @pytest.mark.parametrize("action", ["coproduct", "antipode", "paths"])
    @pytest.mark.parametrize("i, j", [(10**10, 0), (1, 10**11)])
    def test_huge_absent_power_is_refused_before_any_allocation(self, capsys, action, i, j):
        # sizes of 10^10 would mean gigabytes of exponents; the shape refuses them first
        code, out, err = run_cli(capsys, ["hopf", action, "--i", str(i), "--j", str(j), "-n", "1"])
        assert code == 2 and out == ""
        assert err == f"error: xi{i}^(2^{j}) does not exist at n=1 (need i+j <= 2)\n"

    @pytest.mark.parametrize("action", ["antipode", "paths", "coproduct"])
    def test_untruncated_request_must_fit_the_level_cap(self, capsys, action):
        # without -n, xi_i^(2^j) must exist in A*(12), the default cap: i + j - 1 <= 12
        for argv in (["--i", "40"], ["--i", "1", "--j", "13"]):
            code, out, err = run_cli(capsys, ["hopf", action, *argv])
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "STEENGRAPH_MAX_N" in err
        code, out, _ = run_cli(capsys, ["hopf", action, "--i", "1", "--j", "12"])
        assert code == 0 and "xi1^4096" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["coproduct", "--i", "0", "--j", "100"], "generator index must be >= 1, got 0"),
            (["coproduct", "--i", "-5", "--j", "200"], "generator index must be >= 1, got -5"),
            (["paths", "--i", "3", "--j", "-1"], "power index must be >= 0, got -1"),
            (
                ["antipode", "--i", "14"],
                "xi14^(2^0) without -n needs level 13, above the cap 12"
                " (set STEENGRAPH_MAX_N to raise it)",
            ),
        ],
    )
    def test_untruncated_request_names_an_absent_generator_before_the_cap(
        self, capsys, argv, message
    ):
        # a pair with i < 1 or j < 0 names no generator at any level: its own text, not the cap's
        code, out, err = run_cli(capsys, ["hopf", *argv])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_untruncated_antipode_at_the_cap_keeps_its_bytes(self, capsys):
        # xi13 is the largest generator of A*(12); its antipode has 2^12 terms
        code, out, err = run_cli(capsys, ["hopf", "antipode", "--i", "13"])
        assert code == 0 and err == "" and out.count(" + ") == 4095
        digest = "3bfdd9635b5b4b733992bd395515d777b1378ca0a14e58a4a4b91087a8009887"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestEnumerate:
    def test_limit(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "-n", "1", "--limit", "3"])
        assert code == 0
        assert out == "1\nxi2^1\nxi1^1\n"

    def test_json_schema(self, capsys, validator):
        code, out, _ = run_cli(capsys, ["enumerate", "-n", "0", "--json"])
        assert code == 0
        rep = json.loads(out)
        validator.validate(rep)
        assert rep["count"] == 2 and rep["monomials"] == ["1", "xi1^1"]

    def test_full_count(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "-n", "2"])
        assert code == 0
        assert len(out.splitlines()) == 64

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_negative_limit_exits_two(self, capsys, fmt):
        code, out, err = run_cli(capsys, ["enumerate", "-n", "2", "--limit", "-1", *fmt])
        assert code == 2 and out == ""
        assert err == "error: --limit must be >= 0, got -1\n"
        code, out, _ = run_cli(capsys, ["enumerate", "-n", "2", "--limit", "0", *fmt])
        assert code == 0
        if fmt:
            assert json.loads(out)["listed"] == 0
        else:
            assert out == ""

    def test_json_above_the_sweep_cap_needs_a_limit(self, capsys, monkeypatch):
        monkeypatch.delenv("STEENGRAPH_MAX_N", raising=False)
        code, out, err = run_cli(capsys, ["enumerate", "-n", "5", "--json"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--limit" in err
        code, out, _ = run_cli(capsys, ["enumerate", "-n", "5", "--json", "--limit", "3"])
        assert code == 0
        rep = json.loads(out)
        assert (rep["count"], rep["listed"]) == (2 ** 21, 3)
        assert rep["monomials"] == ["1", "xi6^1", "xi5^1"]

    def test_text_above_the_sweep_cap_needs_a_limit(self, capsys, monkeypatch):
        monkeypatch.delenv("STEENGRAPH_MAX_N", raising=False)
        code, out, err = run_cli(capsys, ["enumerate", "-n", "5"])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--limit" in err
        code, out, _ = run_cli(capsys, ["enumerate", "-n", "5", "--limit", "3"])
        assert code == 0
        assert out == "1\nxi6^1\nxi5^1\n"


class TestDot:
    def test_stdout_golden(self, capsys):
        code, out, _ = run_cli(capsys, ["dot", "xi2", "-n", "2"])
        assert code == 0
        assert out.startswith("graph {\n")
        assert out.endswith("}\n")
        assert '"1" -- "4";' in out
        assert out.count('";') >= 4

    def test_directed(self, capsys):
        _, out, _ = run_cli(capsys, ["dot", "xi1^6 xi2 xi3", "-n", "2", "--directed"])
        assert out.startswith("digraph {\n")
        assert '"1" -> "4";' in out

    def test_file_target(self, capsys, tmp_path):
        target = tmp_path / "t.dot"
        code, out, _ = run_cli(capsys, ["dot", "1", "-n", "0", "--dot", str(target)])
        assert code == 0 and out == ""
        assert target.read_text().startswith("graph {\n")

    def test_json_is_a_usage_error(self, capsys):
        # dot has no JSON report; it prints DOT or writes it to --dot
        with pytest.raises(SystemExit) as exit_:
            cli.main(["dot", "xi2", "-n", "2", "--json"])
        captured = capsys.readouterr()
        assert exit_.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --json" in captured.err

    @pytest.mark.parametrize("command", ["analyze", "dot"])
    def test_unwritable_target_exits_two(self, capsys, tmp_path, command):
        target = tmp_path / "missing" / "x.dot"
        code, out, err = run_cli(capsys, [command, "xi1", "-n", "1", "--dot", str(target)])
        assert code == 2 and out == ""
        assert err == f"error: cannot write --dot file {target}: No such file or directory\n"


ANTIPODE_ARGV = ["hopf", "antipode", "--i", "2", "--j", "0", "-n", "3"]


class TestInstalledEntryPoint:
    def test_console_script(self):
        """The ``[project.scripts]`` entry runs as its own process, as pip's wrapper runs it."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        value = scripts["steengraph"]
        # Run the checkout under test, whatever the working directory.
        env = dict(os.environ)
        root = str(Path(steengraph.__file__).parents[1])
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
        wrapper = (
            "import sys; from importlib.metadata import EntryPoint; "
            f"sys.exit(EntryPoint('steengraph', {value!r}, 'console_scripts').load()())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, *ANTIPODE_ARGV],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "xi2^1 + xi1^3\n"

    @pytest.mark.skipif(
        shutil.which("steengraph") is None, reason="steengraph console script not installed"
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            [shutil.which("steengraph"), *ANTIPODE_ARGV],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "xi2^1 + xi1^3\n"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially, starts nothing."""

    sizes = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestVerifyInputs:
    @pytest.fixture
    def pool(self, monkeypatch):
        from steengraph import verify

        RecordingPool.sizes = []
        monkeypatch.setattr(verify, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
        return RecordingPool

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two(self, capsys, pool, jobs):
        for argv in (["--theorem", "tree", "-n", "2"], ["-n", "9"]):
            code, out, err = run_cli(capsys, ["verify", *argv, "--jobs", jobs])
            assert code == 2 and out == ""
            assert "--jobs must be >= 1" in err
        assert pool.sizes == []

    def test_pool_capped_at_cpu_count(self, capsys, monkeypatch, pool):
        # A*(5) has 64 blocks, so it splits; every lower level is one block
        monkeypatch.setenv("STEENGRAPH_MAX_N", "5")
        argv = ["verify", "--theorem", "tree", "-n", "5", "--json"]
        _, serial, _ = run_cli(capsys, argv)
        assert pool.sizes == []
        code, pooled, _ = run_cli(capsys, argv + ["--jobs", "64"])
        assert code == 0 and pooled == serial
        assert pool.sizes == [3]
        run_cli(capsys, argv + ["--jobs", "2"])
        assert pool.sizes == [3, 2]

    def test_one_job_reads_no_cpu_count(self, capsys, monkeypatch, pool):
        def refused():
            raise AssertionError("a serial run read the cpu count")

        monkeypatch.setattr(verify.os, "cpu_count", refused)
        for argv in (["-n", "2"], ["--theorem", "tree", "-n", "2", "--jobs", "1"]):
            code, _, _ = run_cli(capsys, ["verify", *argv])
            assert code == 0
        assert pool.sizes == []

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_one_block_level_starts_no_pool(self, capsys, pool, n):
        argv = ["verify", "-n", str(n)]
        assert run_cli(capsys, argv + ["--jobs", "2"]) == run_cli(capsys, argv)
        assert pool.sizes == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "-n", "1"],
            ["verify", "--theorem", "dirac", "-n", "1"],
            ["analyze", "xi1", "-n", "1"],
        ],
    )
    def test_non_integer_max_n_names_the_variable(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("STEENGRAPH_MAX_N", "abc")
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err == "error: STEENGRAPH_MAX_N must be an integer, got 'abc'\n"

    def test_chunks_are_whole_blocks(self, monkeypatch, pool):
        from steengraph import verify

        monkeypatch.setenv("STEENGRAPH_MAX_N", "5")
        ranges = []
        worker = verify._run_range_worker
        monkeypatch.setattr(
            verify,
            "_run_range_worker",
            lambda name, n, a, b: ranges.append((a, b)) or worker(name, n, a, b),
        )
        serial = run_check("main", 5)
        assert ranges == []
        # 64 blocks in at most 4 runs a worker: 11 runs of 6 blocks, the last of 4
        assert run_check("main", 5, jobs=3) == serial
        assert pool.sizes == [3]
        assert len(ranges) == 11
        assert [a for a, _ in ranges] == [0] + [b for _, b in ranges[:-1]]
        assert ranges[-1][1] == 1 << 21
        assert all(a % (1 << 15) == 0 == b % (1 << 15) for a, b in ranges)
        assert serial.cases == 1 << 21 and serial.failures == [] and serial.notes == []

    @pytest.mark.parametrize("n, k", [(4, 4096), (4, 16383), (5, 32768 + 16383)])
    def test_pooled_runs_report_the_serial_failures(self, monkeypatch, pool, n, k):
        # 4096 is no cross-checked index of A*(4)'s one block; 16383 is its middle one,
        # and 32768 + 16383 the middle one of block 1 of A*(5)
        from steengraph import verify
        from steengraph.algebra import monomial_from_index

        monkeypatch.setenv("STEENGRAPH_MAX_N", "5")
        flipped = monomial_from_index(Level(n), k)
        criteria = verify._walk_criteria

        def flip(x):
            connected, unilateral = criteria(x)
            return connected ^ (x == flipped), unilateral

        monkeypatch.setattr(verify, "_walk_criteria", flip)
        serial = run_check("main", n)
        assert run_check("main", n, jobs=2) == serial
        text = f"block kernel disagrees with the walk-count tables on {flipped}"
        assert serial.failures == ([] if k == 4096 else [text])


class RefusingPool(RecordingPool):
    """A ProcessPoolExecutor stand-in that cannot start its workers."""

    def map(self, fn, *iterables):
        raise OSError(24, "Too many open files")


class TestSerialFallback:
    def test_fallback_is_noted(self, capsys, monkeypatch):
        from steengraph import verify

        monkeypatch.setattr(verify, "ProcessPoolExecutor", RefusingPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("STEENGRAPH_MAX_N", "5")
        # 64 blocks of A*(5) in 8 runs of 8 on 2 workers
        argv = ["verify", "--theorem", "tree", "-n", "5"]
        _, serial, _ = run_cli(capsys, argv)
        code, fallback, _ = run_cli(capsys, argv + ["--jobs", "2"])
        assert code == 0
        note = "  note: process pool unavailable ([Errno 24] Too many open files); ran 8 chunks serially\n"
        head, rest = serial.split("\n", 1)
        assert fallback == head + "\n" + note + rest

    def test_serial_runs_tile_the_level(self, monkeypatch):
        from steengraph import verify

        monkeypatch.setattr(verify, "ProcessPoolExecutor", RefusingPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        monkeypatch.setenv("STEENGRAPH_MAX_N", "5")
        spec = verify.CHECKS["tree"]
        runs, levels = [], []

        def recording(level, start, stop):
            runs.append((start, stop))
            levels.append(level)
            return spec.range_runner(level, start, stop)

        recorded = dataclasses.replace(spec, range_runner=recording)
        monkeypatch.setitem(verify.CHECKS, "tree", recorded)
        block = 1 << 15
        # serially, the 64 blocks of A*(5) are 4 runs of 16, all on the caller's level
        serial = run_check("tree", 5)
        assert runs == [(a, a + 16 * block) for a in range(0, 1 << 21, 16 * block)]
        assert all(level is levels[0] for level in levels)
        # a refused pool on 2 workers runs the 8 runs of 8 that its note counts
        runs.clear()
        fallback = run_check("tree", 5, jobs=2)
        assert runs == [(a, a + 8 * block) for a in range(0, 1 << 21, 8 * block)]
        assert fallback.notes == [
            "process pool unavailable ([Errno 24] Too many open files); ran 8 chunks serially"
        ]
        assert fallback.failures == serial.failures == []
        assert fallback.cases == serial.cases == 1 << 21


class TestLazyPool:
    def test_cli_import_leaves_the_process_pool_unloaded(self):
        env = dict(os.environ)
        root = str(Path(steengraph.__file__).parents[1])
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
        probe = (
            "import sys, steengraph.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_first_call_gives_a_process_pool(self):
        from concurrent.futures import ProcessPoolExecutor as Pool

        from steengraph import verify

        pool = verify.ProcessPoolExecutor(max_workers=1)  # starts no process before a submit
        try:
            assert isinstance(pool, Pool)
        finally:
            pool.shutdown()


class TestEnumerateStreams:
    def test_level_3_text_is_every_name_in_index_order(self, capsys):
        # exponent vectors in lexicographic order, r_1 most significant
        names = [
            "*".join(f"xi{i}^{r}" for i, r in enumerate(exps, start=1) if r) or "1"
            for exps in itertools.product(range(16), range(8), range(4), range(2))
        ]
        code, out, _ = run_cli(capsys, ["enumerate", "-n", "3"])
        assert code == 0
        assert out == "".join(name + "\n" for name in names)
        assert len(names) == 1024

    def test_names_are_printed_as_they_are_produced(self, capsys, monkeypatch):
        produced = cli.enumerate_monomials

        def failing_after_two(level):
            yield from itertools.islice(produced(level), 2)
            raise RuntimeError("enumeration stopped")

        monkeypatch.setattr(cli, "enumerate_monomials", failing_after_two)
        with pytest.raises(RuntimeError):
            cli.main(["enumerate", "-n", "1"])
        assert capsys.readouterr().out == "1\nxi2^1\n"


    @pytest.mark.parametrize("limit", [None, 0, 7])
    @pytest.mark.parametrize("n", range(5))
    def test_json_is_the_bytes_of_one_dump_of_the_report(self, capsys, n, limit):
        # the names are written as produced, in the layout of json.dumps(payload, indent=2)
        level = Level(n)
        total = monomial_count(level)
        listed = total if limit is None else min(limit, total)
        names = [str(x) for x in itertools.islice(enumerate_monomials(level), listed)]
        payload = {"report": "enumerate", "n": n, "count": total, "listed": listed,
                   "monomials": names}
        argv = ["enumerate", "-n", str(n), "--json"]
        code, out, _ = run_cli(capsys, argv + ([] if limit is None else ["--limit", str(limit)]))
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_json_names_are_not_held_as_a_list(self, monkeypatch):
        # the first 200,000 names of A*(12), held as a list, take about 45 MB
        class Discard:
            def write(self, text):
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Discard())
        tracemalloc.start()
        try:
            code = cli.main(["enumerate", "-n", "12", "--json", "--limit", "200000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 << 20


class TestClosedStdout:
    """A reader that closes the pipe early ends the run with 141 and an empty stderr."""

    @staticmethod
    def start(argv, stdout):
        env = dict(os.environ)
        root = str(Path(steengraph.__file__).parents[1])
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = root + os.pathsep + inherited if inherited else root
        return subprocess.Popen(
            [sys.executable, "-m", "steengraph.cli", *argv],
            stdout=stdout,
            stderr=subprocess.PIPE,
            env=env,
        )

    def test_reader_leaves_after_one_line(self):
        # 32768 names at n=4 overflow the pipe, so the writer is still running
        proc = self.start(["enumerate", "-n", "4"], subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"1\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()

    def test_reader_leaves_a_level_too_big_to_count_in_a_machine_word(self):
        # 2^66 names at n=10, a count and a limit above sys.maxsize: the listing streams
        # until the reader leaves
        proc = self.start(["enumerate", "-n", "10", "--limit", str(2 ** 66)], subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"1\n"
            assert proc.stdout.readline() == b"xi11^1\n"
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()

    def test_reader_gone_before_the_first_write(self):
        # output small enough to sit in the buffer until the last flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.start(["enumerate", "-n", "1"], write_end)
        finally:
            os.close(write_end)
        try:
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == b""
        finally:
            proc.kill()
            proc.stderr.close()


def outcome(capsys, argv):
    """Exit code, stdout and stderr of one `cli.main` call, argparse's own exits included."""
    try:
        code = cli.main(argv)
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_its_parser_once_a_process(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parser", None)
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    argvs = (
        ["verify", "-n", "1"],
        ["analyze", "xi1", "-n", "1"],
        ["enumerate", "-n", "1"],
        ["--help"],
        ["verify"],  # a usage error: -n is required
    )
    assert [outcome(capsys, argv)[0] for argv in argvs] == [0, 0, 0, 0, 2]
    assert len(built) == 1


def kept_against_fresh(capsys, monkeypatch, argvs):
    """Each call's outcome through one kept parser, then each through a parser of its own."""
    monkeypatch.setattr(cli, "_parser", None)
    kept = [outcome(capsys, argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", cli.build_parser())
        fresh.append(outcome(capsys, argv))
    return kept, fresh


def test_no_argument_state_carries_from_one_call_to_the_next(capsys, monkeypatch):
    monkeypatch.delenv("STEENGRAPH_MAX_N", raising=False)
    argvs = [
        ["verify", "-n", "1", "--json"],
        ["verify", "-n", "1"],
        ["verify", "-n", "2", "--theorem", "main", "--jobs", "2"],
        ["verify", "-n", "0"],
        ["analyze", "xi1", "-n", "1", "--json"],
        ["analyze", "xi1", "-n", "1"],
    ]
    kept, fresh = kept_against_fresh(capsys, monkeypatch, argvs)
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0] * len(argvs)


@pytest.mark.parametrize("columns", ["60", "120"])
def test_help_and_usage_errors_keep_their_bytes(capsys, monkeypatch, columns):
    # argparse words these differently across Python versions, so the fresh parser is the
    # reference, not a digest
    monkeypatch.setenv("COLUMNS", columns)
    commands = [[], ["analyze"], ["verify"], ["hopf"], ["enumerate"], ["dot"]]
    helps = [[*command, "--help"] for command in commands]
    errors = [["verify"], ["verify", "-n", "x"], ["dot", "1", "-n", "0", "--json"], ["frobnicate"]]
    kept, fresh = kept_against_fresh(capsys, monkeypatch, helps + errors)
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0] * len(helps) + [2] * len(errors)
    assert all(out.startswith("usage: steengraph") for _, out, _ in kept[: len(helps)])
