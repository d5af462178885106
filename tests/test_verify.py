"""Sweep plumbing: the block lanes reach every verdict, and the cross-check watches the kernel."""

from steengraph import verify
from steengraph.algebra import Level, monomial_from_index

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
