"""End-to-end checks of the command-line interface."""

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import steengraph
from steengraph import cli, connectivity
from steengraph.algebra import Level, parse_monomial, random_monomials


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

    def test_parse_error_exits_two(self, capsys):
        code, out, err = run_cli(capsys, ["analyze", "xi9^2", "-n", "2"])
        assert code == 2 and out == ""
        assert err.startswith("error: ")

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
        real = connectivity.adjacency_matrix

        def counting(x, directed=False):
            calls.append(directed)
            return real(x, directed=directed)

        monkeypatch.setattr(connectivity, "adjacency_matrix", counting)
        # 4 edges, not n+1 = 3, so the tree criterion builds no table of its own
        rep = cli.build_report(parse_monomial("xi1^6 xi2 xi3", Level(2)))
        assert rep["connected"] and not rep["unilateral"]
        assert sorted(calls) == [False, True]


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

    def test_out_of_range_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["hopf", "coproduct", "--i", "3", "-n", "1"])
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("action", ["antipode", "paths", "coproduct"])
    def test_untruncated_request_must_fit_the_level_cap(self, capsys, action):
        # without -n, xi_i^(2^j) must exist in A*(12), the default cap: i + j - 1 <= 12
        for argv in (["--i", "40"], ["--i", "1", "--j", "13"]):
            code, out, err = run_cli(capsys, ["hopf", action, *argv])
            assert code == 2 and out == ""
            assert err.startswith("error: ") and "STEENGRAPH_MAX_N" in err
        code, out, _ = run_cli(capsys, ["hopf", action, "--i", "1", "--j", "12"])
        assert code == 0 and "xi1^4096" in out


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

    def test_pool_capped_at_cpu_count(self, capsys, pool):
        argv = ["verify", "--theorem", "tree", "-n", "2", "--json"]
        _, serial, _ = run_cli(capsys, argv)
        assert pool.sizes == []
        code, pooled, _ = run_cli(capsys, argv + ["--jobs", "64"])
        assert code == 0 and pooled == serial
        assert pool.sizes == [3]
        run_cli(capsys, argv + ["--jobs", "2"])
        assert pool.sizes == [3, 2]

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

    def test_unaligned_chunks_read_the_same_lanes(self, pool):
        from steengraph.verify import run_check

        serial = run_check("main", 4)
        # 32768 monomials in 12 chunks of 2731: no chunk starts on a block boundary
        assert run_check("main", 4, jobs=3) == serial
        assert pool.sizes == [3]
        assert serial.cases == 32768 and serial.failures == [] and serial.notes == []


class RefusingPool(RecordingPool):
    """A ProcessPoolExecutor stand-in that cannot start its workers."""

    def map(self, fn, *iterables):
        raise OSError(24, "Too many open files")


class TestSerialFallback:
    def test_fallback_is_noted(self, capsys, monkeypatch):
        from steengraph import verify

        monkeypatch.setattr(verify, "ProcessPoolExecutor", RefusingPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        argv = ["verify", "--theorem", "tree", "-n", "2"]
        _, serial, _ = run_cli(capsys, argv)
        code, fallback, _ = run_cli(capsys, argv + ["--jobs", "2"])
        assert code == 0
        note = "  note: process pool unavailable ([Errno 24] Too many open files); ran 8 chunks serially\n"
        head, rest = serial.split("\n", 1)
        assert fallback == head + "\n" + note + rest


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
