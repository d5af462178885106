"""The correctness gate passes genuine outputs and counts tampered ones as failures.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gate
import run
import speed
import worker
from steengraph import algebra, cli, hopf, verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def verify_output(check: str, n: int) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "-n", str(n), "--theorem", check, "--json"])
    return code, buf.getvalue()


def tampered(out: str, edit) -> str:
    payload = json.loads(out)
    edit(payload["checks"][0])
    return json.dumps(payload, indent=2) + "\n"


def test_genuine_verdicts_pass():
    for check, n in [("main", 2), ("paper-hamilton", 3), ("corollary-unilateral", 2),
                     ("antipode-paths", 3), ("hopf-axioms", 1)]:
        code, out = verify_output(check, n)
        assert gate.sweep_misses(check, n, code, out) == []


def test_reserialized_output_is_unchanged_bytes():
    code, out = verify_output("paper-hamilton", 2)
    assert tampered(out, lambda entry: None) == out


def test_tampered_sweep_results_fail():
    code, out = verify_output("paper-hamilton", 2)
    edits = [
        lambda e: e.update(cases=e["cases"] - 1),
        lambda e: e["failures"].append("connectedness criterion disagrees with search on 1"),
        lambda e: e["findings"].pop(),
        lambda e: e["notes"].append("extra"),
    ]
    for edit in edits:
        misses = gate.sweep_misses("paper-hamilton", 2, code, tampered(out, edit))
        assert misses, edit
    assert gate.sweep_misses("paper-hamilton", 2, 1, out) == ["paper-hamilton n=2: exit 1"]
    assert len(gate.sweep_misses("paper-hamilton", 2, 0, "not json")) == 2


def test_frozen_case_counts_match_the_sweep_formula():
    assert gate.expected_cases("main", 4) == 32768
    assert sum(gate.expected_cases(c, n) for c, n in worker.SWEEPS["graph-sweep"]) == 103794
    assert sum(gate.expected_cases(c, n) for c, n in worker.SWEEPS["hopf-sweep"]) == 1361


def test_reports_pass_unless_oracles_disagree():
    n, text, name = worker.analyze_queries(seed=7)[0]
    report = cli.build_report(algebra.parse_monomial(text, algebra.Level(n)))
    assert gate.report_misses(report, name) == []
    report["oracles_agree"] = False
    assert gate.report_misses(report, name) == [f"{name}: oracles_agree is not true"]
    assert gate.report_misses({"monomial": "raised ValueError()"}, name)


def test_queries_depend_only_on_the_seed():
    assert worker.analyze_queries(3) == worker.analyze_queries(3)
    assert worker.analyze_queries(3) != worker.analyze_queries(4)
    levels = [n for n, _, _ in worker.analyze_queries(3)]
    assert {levels.count(n) for n in worker.ANALYZE_LEVELS} == {worker.QUERIES_PER_LEVEL}


def test_worker_counts_tampered_verdicts_and_disagreeing_reports(monkeypatch):
    plan = [("main", 1), ("paper-hamilton", 2)]
    assert worker.count_failures(worker.run_sweeps(plan))["failed"] == 0

    genuine_main = cli.main

    def tampering_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = genuine_main(argv)
        print(tampered(buf.getvalue(), lambda e: e.update(cases=e["cases"] + 1)), end="")
        return code

    monkeypatch.setattr(cli, "main", tampering_main)
    result = worker.count_failures(worker.run_sweeps(plan))
    assert (result["attempted"], result["failed"]) == (2, 2)

    queries = worker.analyze_queries(seed=1)[:4]
    assert worker.count_failures(worker.run_queries(queries))["failed"] == 0
    genuine_report = cli.build_report

    def disagreeing_report(x):
        return dict(genuine_report(x), oracles_agree=False)

    monkeypatch.setattr(cli, "build_report", disagreeing_report)
    result = worker.count_failures(worker.run_queries(queries))
    assert (result["attempted"], result["failed"]) == (4, 4)


def test_probes_run_inside_verdicts_and_stay_out_of_their_time():
    plan = [("main", 3), ("hopf-axioms", 1)]
    start = time.perf_counter()
    plain = worker.run_sweeps(plan)
    elapsed = time.perf_counter() - start
    traced = worker.run_sweeps(plan, traced=True)
    assert plain["probes"] > traced["probes"] > 0
    assert len(plain["scaled"]) == len(plain["raw"]) == len(plan)
    assert sum(plain["raw"]) < elapsed - plain["probes"] * min(speed.probe() for _ in range(20))
    # the marks are removed
    assert verify.monomial_from_index is algebra.monomial_from_index
    assert hopf.antipode is verify.antipode


def test_work_is_scaled_by_the_probes_around_it(monkeypatch):
    probes = iter([2e-3, 4e-3, 1e-3])
    monkeypatch.setattr(speed, "probe", lambda: next(probes))
    monkeypatch.setattr(speed, "PROBE_EVERY_S", 0.0)
    ticks = iter([0.0, 10.0, 11.0, 15.0, 16.0, 16.5, 17.0])
    monkeypatch.setattr(speed, "perf_counter", lambda: next(ticks))
    timeline = speed.Timeline()  # probe 2 ms; ready at 0
    timeline.start()  # at 10
    timeline.stop()  # at 11: 1 s of work, then probe 4 ms, ready at 15
    timeline.start()  # at 16
    timeline.stop()  # at 16.5: 0.5 s of work, then probe 1 ms
    timeline.finish()
    assert timeline.raw == [1.0, 0.5]
    assert timeline.scaled == pytest.approx([1.0 * 2 * speed.REFERENCE_S / 6e-3,
                                             0.5 * 2 * speed.REFERENCE_S / 5e-3])


def test_percentiles_weigh_each_case():
    rep = {"scaled": [2.0, 1.5], "weights": [4, 1]}
    assert run.per_case(rep) == [(0.5, 4), (1.5, 1)]
    assert run.percentile(run.per_case(rep), 0.5) == (0.5, 5)
    assert run.percentile([(v, 1) for v in range(1, 1207)], 0.99) == (1194, 13)


def test_tracer_reaches_every_import_site():
    # in a child interpreter: install() patches module state for the life of the process
    code = (
        "import json, spans\n"
        "from steengraph import verify\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "verify.run_check('main', 1)\n"
        "print(json.dumps(tracer.metrics()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    m = json.loads(out)
    assert m["algebra.decode_calls"] == 8
    assert m["graphs.to_graph_calls"] == 8
    assert m["connectivity.kernel_calls"] == 16  # is_connected and is_unilateral per case
    assert m["graphs.adjacency_calls"] == 16
    assert m["connectivity.oracle_calls"] == 16
    assert m["algebra.monomial_new_calls"] == 8
    assert m["verify.main_s"] > 0 and m["verify.self_s"] > 0 and m["hopf.coproduct_s"] == 0
