"""Sweep plumbing: the block lanes reach every verdict, and the cross-check watches the kernel."""

import itertools

import pytest

from steengraph import graphs, verify
from steengraph.algebra import Level, monomial_count, monomial_from_index
from steengraph.connectivity import block_width
from steengraph.graphs import to_graph

L3 = Level(3)


def test_a_flipped_lane_is_one_named_discrepancy(monkeypatch):
    # index 777 is none of the cross-checked indices 0, 511, 1023 of the level
    kernel = verify.lane_verdicts

    def flipped(level, base, width):
        connected, unilateral = kernel(level, base, width)
        return connected ^ (1 << (777 - base)), unilateral

    monkeypatch.setattr(verify, "lane_verdicts", flipped)
    result = verify.run_check("main", 3)
    x = monomial_from_index(L3, 777)
    assert result.failures == [f"connectedness criterion disagrees with search on {x}"]


def test_cross_check_reports_a_table_mismatch(monkeypatch):
    sampled = monomial_from_index(L3, 511)
    tables = verify.is_connected
    monkeypatch.setattr(verify, "is_connected", lambda x: tables(x) ^ (x == sampled))
    result = verify.run_check("main", 3)
    assert result.failures == [
        f"block kernel disagrees with the walk-count tables on {sampled}"
    ]


def test_tree_and_corollary_read_the_lanes(monkeypatch):
    # with every lane 0, each of the 16 trees and 8 unilateral monomials of A*(2)
    # becomes a discrepancy against its oracle
    monkeypatch.setattr(verify, "lane_verdicts", lambda level, base, width: (0, 0))
    tree = verify.run_check("tree", 2).failures
    corollary = verify.run_check("corollary-unilateral", 2).failures
    assert sum(w.startswith("tree criterion disagrees") for w in tree) == 16
    assert sum(w.startswith("antipode divisibility test disagrees") for w in corollary) == 8


def test_a_flipped_tree_lane_is_one_named_discrepancy(monkeypatch):
    # index 777 has 4 = n+1 index bits, so its connected lane decides its tree verdict
    kernel = verify.lane_verdicts

    def flipped(level, base, width):
        connected, unilateral = kernel(level, base, width)
        return connected ^ (1 << (777 - base)), unilateral

    monkeypatch.setattr(verify, "lane_verdicts", flipped)
    x = monomial_from_index(L3, 777)
    assert x.edge_count == 4
    assert verify.run_check("tree", 3).failures == [f"tree criterion disagrees with search on {x}"]


def test_a_flipped_dipath_verdict_is_one_named_discrepancy(monkeypatch):
    criterion = verify.dipath_criterion
    calls = itertools.count()
    monkeypatch.setattr(
        verify, "dipath_criterion", lambda level, r1: criterion(level, r1) ^ (next(calls) == 777)
    )
    x = monomial_from_index(L3, 777)
    assert verify.run_check("dipath", 3).failures == [
        f"spanning-dipath criterion disagrees with search on {x}"
    ]


def test_a_witness_off_the_spine_is_named(monkeypatch):
    oracle = verify.oracle_hamilton_directed_path

    def reversed_spine(g):
        witness = oracle(g)
        return None if witness is None else witness[::-1]

    monkeypatch.setattr(verify, "oracle_hamilton_directed_path", reversed_spine)
    # at n=2 the dipaths are the 8 monomials with r_1 = 7, indices 56..63
    assert verify.run_check("dipath", 2).failures == [
        f"dipath witness for {monomial_from_index(Level(2), k)} is (3, 2, 1, 0), not the full spine"
        for k in range(56, 64)
    ]


def test_a_dropped_edge_in_the_oracle_rows_fails_main(monkeypatch):
    # without edge (0, 1), the oracles see xi1^1 as no edge at all
    exponent_rows = graphs.exponent_rows
    m = L3.n + 2
    dropped = ~(1 << 1 | 1 << m)
    monkeypatch.setattr(
        graphs, "exponent_rows", lambda level, i, r: exponent_rows(level, i, r) & dropped
    )
    graphs.row_tables.cache_clear()
    try:
        failures = verify.run_check("main", 3).failures
    finally:
        graphs.row_tables.cache_clear()
    assert failures
    assert all("disagrees with search" in w or "disagrees with closure" in w for w in failures)


def test_sweep_graphs_are_the_graphs_of_the_decoded_monomials():
    for n in range(5):
        level = Level(n)
        swept = verify._iter_graphs(level, 0, monomial_count(level))
        for k, g in swept:
            assert g == to_graph(monomial_from_index(level, k)), (n, k)


def test_graph_sweeps_build_monomials_only_for_the_cross_checks(monkeypatch):
    decode = verify.monomial_from_index
    calls = []
    monkeypatch.setattr(
        verify, "monomial_from_index", lambda level, k: calls.append(k) or decode(level, k)
    )
    level = Level(4)
    blocks = -(-monomial_count(level) >> block_width(level))
    for check, most in (("main", 3 * blocks), ("tree", 3 * blocks), ("dipath", 0)):
        calls.clear()
        assert verify.run_check(check, 4).ok
        assert len(calls) <= most, check


def test_the_antipode_recursion_runs_once_a_process(monkeypatch):
    recursion = verify.verify_antipode_recursion
    calls = []
    monkeypatch.setattr(
        verify, "verify_antipode_recursion", lambda top: calls.append(top) or recursion(top)
    )
    verify._antipode_recursion_holds.cache_clear()
    try:
        results = [verify.run_check("hopf-axioms", n) for n in range(4)]
    finally:
        verify._antipode_recursion_holds.cache_clear()
    assert calls == [8]
    assert all(r.ok for r in results)
    # generator powers, 50 random monomials, and the recursion and ideal checks
    assert [r.cases for r in results] == [(n + 1) * (n + 2) // 2 + 52 for n in range(4)]


@pytest.mark.parametrize(
    "check", ["main", "tree", "dipath", "dirac", "paper-hamilton", "corollary-unilateral"]
)
def test_range_sweeps_build_no_graph_through_to_graph(monkeypatch, check):
    # every range sweep reads its graphs off the row tables
    def refused(x):
        raise AssertionError(f"to_graph({x}) called by the {check} sweep")

    monkeypatch.setattr(graphs, "to_graph", refused)
    monkeypatch.setattr(verify, "to_graph", refused, raising=False)
    assert verify.CHECKS[check].range_runner is not None
    assert verify.run_check(check, 3).ok
