"""Sweep plumbing: the block lanes reach every verdict, and the cross-check watches the kernel."""

import random
from functools import partial

import pytest

from steengraph import algebra, cli, connectivity, graphs, hopf, structure, verify
from steengraph.algebra import (
    Level,
    block_width,
    monomial_count,
    monomial_from_index,
    random_monomials,
)
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
    # the criterion is asked once for each value of r_1, the top 4 of A*(3)'s 10 index bits;
    # r_1 = 12 is the 64 indices 768..831, none of which has a spanning dipath
    criterion = verify.dipath_criterion
    monkeypatch.setattr(
        verify, "dipath_criterion", lambda level, r1: criterion(level, r1) ^ (r1 == 12)
    )
    assert verify.run_check("dipath", 3).failures == [
        f"spanning-dipath criterion disagrees with search on {monomial_from_index(L3, k)}"
        for k in range(768, 832)
    ]


def test_a_dropped_edge_in_the_oracle_rows_fails_main(monkeypatch):
    # without edge (0, 1), the oracles see xi1^1 as no edge at all
    exponent_rows = graphs.exponent_rows
    m = L3.n + 2
    dropped = ~(1 << 1 | 1 << m)
    monkeypatch.setattr(
        graphs, "exponent_rows", lambda level, i, r: exponent_rows(level, i, r) & dropped
    )
    failures = verify.run_check("main", 3).failures
    assert failures
    assert all("disagrees with search" in w or "disagrees with closure" in w for w in failures)


def test_a_dropped_edge_in_the_oracle_rows_fails_dipath(monkeypatch):
    # without edge (0, 1), no graph has the full spine, though every r_1 = 15 asks for it
    exponent_rows = graphs.exponent_rows
    m = L3.vertex_count
    dropped = ~(1 << 1 | 1 << m)
    monkeypatch.setattr(
        graphs, "exponent_rows", lambda level, i, r: exponent_rows(level, i, r) & dropped
    )
    failures = verify.run_check("dipath", 3).failures
    assert len(failures) == 1 << sum(L3.widths[1:])
    assert all("spanning-dipath criterion disagrees with search" in w for w in failures)


def test_the_walker_names_one_flipped_lane_in_a_range_of_two_blocks(monkeypatch):
    # A*(5) has blocks of 2^block_width indices; this range is blocks 3 and 4, and k is in
    # block 4 but is none of its cross-checked indices
    level = Level(5)
    size = 1 << block_width(level)
    start, stop = 3 * size, 5 * size
    k = 4 * size + 777
    text = "connectedness criterion disagrees with search"

    def lanes(adj, full):
        return (
            connectivity.oracle_connected_lanes(adj, full),
            connectivity.oracle_unilateral_lanes(adj, full),
        )

    def walk():
        return verify._walk(
            level, start, stop, verify.lane_verdicts, lanes,
            lambda x: (connectivity.is_connected(x), connectivity.is_unilateral(x)),
            ("block kernel disagrees with the walk-count tables",) * 2,
            texts=(f"{text} on {{}}", "unilaterality criterion disagrees with closure on {}"),
        )

    assert walk() == (2 * size, [], [])
    kernel = verify.lane_verdicts

    def flipped(level, base, width):
        connected, unilateral = kernel(level, base, width)
        return connected ^ (1 << k - base if base <= k < base + size else 0), unilateral

    monkeypatch.setattr(verify, "lane_verdicts", flipped)
    assert walk() == (2 * size, [f"{text} on {monomial_from_index(level, k)}"], [])


@pytest.mark.parametrize(
    "check, k, text",
    [
        ("main", 32766, verify._ORACLE_LANES),
        ("dipath", 32766, verify._ORACLE_LANES),
        ("dirac", 32766, verify._ORACLE_LANES),
        ("paper-hamilton", 32766, verify._ORACLE_LANES),
        ("tree", 20000, verify._ORACLE_LANES),
        ("corollary-unilateral", 32766, "antipode divisibility test disagrees with walks on {}"),
    ],
)
def test_a_cleared_index_in_the_oracle_edge_lanes_is_one_failure(monkeypatch, check, k, text):
    # every lane oracle of a sweep reads the walker's one oracle_edge_lanes: with each edge
    # lane clear at k, no cross-checked index of A*(4)'s one block, the graph of k reads empty
    level = Level(4)
    x = monomial_from_index(level, k)
    assert str(x) == {32766: "xi1^31*xi2^15*xi3^7*xi4^3", 20000: "xi1^19*xi2^8*xi3^4"}[k]
    assert k != 20000 or structure.oracle_is_tree(to_graph(x))
    edge_lanes = verify.oracle_edge_lanes

    def cleared(level, base, width):
        adj, full = edge_lanes(level, base, width)
        return [[lane & ~(1 << k - base) for lane in row] for row in adj], full

    monkeypatch.setenv("STEENGRAPH_MAX_N", "4")
    monkeypatch.setattr(verify, "oracle_edge_lanes", cleared)
    result = verify.run_check(check, 4)
    # the per-graph oracles confirm the criterion; corollary-unilateral has none, so its
    # antipode lane alone names k
    assert result.failures == [text.format(x)]
    assert len(result.findings) == (1990 if check == "paper-hamilton" else 0)


@pytest.mark.parametrize(
    "check", ["main", "tree", "dipath", "dirac", "paper-hamilton", "corollary-unilateral"]
)
def test_each_lane_sweep_builds_the_oracle_edge_lanes_once_a_block(monkeypatch, check):
    calls = []

    def counted(edge_lanes):
        return lambda level, base, width: calls.append(base) or edge_lanes(level, base, width)

    # a call through either name is counted
    monkeypatch.setattr(graphs, "oracle_edge_lanes", counted(graphs.oracle_edge_lanes))
    monkeypatch.setattr(verify, "oracle_edge_lanes", counted(verify.oracle_edge_lanes))
    level = Level(5)
    size = 1 << block_width(level)
    assert verify.CHECKS[check].range_runner(level, size, 3 * size)[:2] == (2 * size, [])
    assert calls == [size, 2 * size]


@pytest.mark.parametrize("check", ["main", "tree", "dipath", "dirac", "paper-hamilton",
                                   "corollary-unilateral"])
def test_a_range_off_a_block_boundary_is_refused(check):
    sweep = partial(verify.CHECKS[check].range_runner, Level(5))
    size = 1 << block_width(Level(5))
    for start, stop in ((size // 2, 2 * size), (size, 2 * size - 1), (0, size + 1)):
        with pytest.raises(ValueError):
            sweep(start, stop)


def test_a_sweep_reads_the_vertex_count_once_not_once_a_graph(monkeypatch):
    vertex_count = algebra.Level.vertex_count.fget
    reads = []
    counted = property(lambda level: reads.append(1) or vertex_count(level))
    monkeypatch.setattr(algebra.Level, "vertex_count", counted)
    level = Level(4)
    graph = verify._index_graphs(level)
    graphs = [graph(k) for k in range(monomial_count(level))]
    assert len(graphs) == 1 << 15
    # index_rows reads it once an index bit; the graphs share one read
    assert len(reads) <= sum(level.widths) + 1


def test_sweep_graphs_are_the_graphs_of_the_decoded_monomials():
    for n in range(5):
        level = Level(n)
        graph = verify._index_graphs(level)
        for k in range(monomial_count(level)):
            assert graph(k) == to_graph(monomial_from_index(level, k)), (n, k)


def test_sweep_graphs_at_sparse_indices_are_the_graphs_of_the_decoded_monomials():
    # A*(5) has 21 index bits, so the bits above the low byte change from run to run
    level = Level(5)
    boundary = 63 << block_width(level)  # the first index of block 63
    sample = sorted(random.Random(5).sample(range(monomial_count(level)), 400))
    width = block_width(level)
    holds = [
        k
        for base in range(62 << width, 64 << width, 1 << width)
        for lane in [verify.degree_bound_lanes(level, base, width, 0)]
        for k in range(base, base + (1 << width))
        if lane >> k - base & 1
    ]
    for indices in (sample, holds):
        assert len({k >> 8 for k in indices}) > 2
        assert any(b - a > 1 for a, b in zip(indices, indices[1:]))
        assert indices[0] < boundary <= indices[-1]
        graph = verify._index_graphs(level)
        for k in indices:
            assert graph(k) == to_graph(monomial_from_index(level, k)), k


def test_graph_sweeps_build_monomials_only_for_the_cross_checks(monkeypatch):
    decode = verify.monomial_from_index
    calls = []
    monkeypatch.setattr(
        verify, "monomial_from_index", lambda level, k: calls.append(k) or decode(level, k)
    )
    monkeypatch.setenv("STEENGRAPH_MAX_N", "4")
    level = Level(4)
    blocks = -(-monomial_count(level) >> block_width(level))
    # a degree sweep also decodes the monomial of each miss, for its text: 1990 at n=4
    for check, most in (
        ("main", 3 * blocks),
        ("tree", 3 * blocks),
        ("dipath", 0),
        ("dirac", 3 * blocks),
        ("paper-hamilton", 3 * blocks + 1990),
    ):
        calls.clear()
        assert verify.run_check(check, 4).ok
        assert len(calls) <= most, check


@pytest.mark.parametrize("check", ["dirac", "paper-hamilton"])
def test_a_flipped_degree_lane_is_a_failure(monkeypatch, check):
    # index 511 is the middle of A*(3)'s one block, so the cross-check reads its lane
    lanes = verify.degree_bound_lanes
    monkeypatch.setattr(
        verify,
        "degree_bound_lanes",
        lambda level, base, width, extra: lanes(level, base, width, extra) ^ 1 << 511 - base,
    )
    x = monomial_from_index(L3, 511)
    failures = verify.run_check(check, 3).failures
    assert f"degree lanes disagree with the degree profiles on {x}" in failures


def test_a_counterexample_the_search_refutes_is_a_lane_oracle_failure(monkeypatch):
    # index 123 is the first n/2 counterexample of A*(3); a search that finds a cycle there
    # contradicts its cycle lane, so the finding is not reported
    x = monomial_from_index(L3, 123)
    assert str(x) == "xi1^1*xi2^7*xi3^1*xi4^1"
    search = verify.oracle_hamilton_cycle
    monkeypatch.setattr(
        verify,
        "oracle_hamilton_cycle",
        lambda g: (0, 1, 2, 3, 4) if g == to_graph(x) else search(g),
    )
    result = verify.run_check("paper-hamilton", 3)
    assert result.failures == [f"lane oracles disagree with the per-graph search on {x}"]
    assert len(result.findings) == 34


def test_a_cleared_cycle_lane_is_a_lane_oracle_failure_not_a_finding(monkeypatch):
    # at index 62 the n/2 bound holds and the graph has a Hamilton cycle; 62 is no
    # cross-checked index of A*(3)'s one block
    x = monomial_from_index(L3, 62)
    assert str(x) == "xi2^7*xi3^3"
    findings = verify.run_check("paper-hamilton", 3).findings
    assert len(findings) == 35
    lanes = verify.oracle_cycle_lanes
    monkeypatch.setattr(verify, "oracle_cycle_lanes", lambda adj, full: lanes(adj, full) & ~(1 << 62))
    result = verify.run_check("paper-hamilton", 3)
    assert result.failures == [f"lane oracles disagree with the per-graph search on {x}"]
    assert result.findings == findings


def degree_sweep_by_condition(level, start, stop, sound):
    """The per-monomial route: decode each index, test its condition, search where it holds.

    Returns the sweep's (cases, failures, findings) and the indices of its misses.
    """
    if sound:
        condition, bound = structure.dirac_condition, "(n+2)/2"
    else:
        condition, bound = structure.paper_hamilton_condition, "n/2"
    monomials = ((k, monomial_from_index(level, k)) for k in range(start, stop))
    missed = [
        (k, x)
        for k, x in monomials
        if condition(x) and structure.oracle_hamilton_cycle(to_graph(x)) is None
    ]
    misses = [f"degree bound {bound} holds but no Hamilton cycle: {x}" for _, x in missed]
    result = (stop - start, misses, []) if sound else (stop - start, [], misses)
    return result, [k for k, _ in missed]


@pytest.mark.parametrize("sound", [True, False])
@pytest.mark.parametrize(
    "n, cuts",
    [
        (3, [0, 1024]),  # A*(3) is one block
        # blocks 62 and 63 of A*(5), where the n/2 bound has 26 misses
        (5, [62 * 32768, 63 * 32768, 64 * 32768]),
    ],
)
def test_degree_sweeps_are_the_same_over_any_split(monkeypatch, n, cuts, sound):
    searched = []
    search = verify.oracle_hamilton_cycle
    monkeypatch.setattr(verify, "oracle_hamilton_cycle", lambda g: searched.append(g) or search(g))
    level = Level(n)
    sweep = partial(verify._sweep_degree_bound, level, sound=sound)
    cases, failures, findings = zip(*(sweep(a, b) for a, b in zip(cuts, cuts[1:])))
    searched_in_parts = searched.copy()
    searched.clear()
    whole = sweep(cuts[0], cuts[-1])
    assert whole == (sum(cases), sum(failures, []), sum(findings, []))
    reference, missed = degree_sweep_by_condition(level, cuts[0], cuts[-1], sound)
    assert whole == reference
    # the cycle lanes decide every index; the search runs once on each cross-checked index
    # of a block and on each index the compare names, in index order
    size = 1 << block_width(level)
    crossed = {
        base + t for base in range(cuts[0], cuts[-1], size) for t in (0, size // 2 - 1, size - 1)
    }
    visited = sorted(crossed | set(missed))
    assert searched == searched_in_parts == [
        to_graph(monomial_from_index(level, k)) for k in visited
    ]


@pytest.mark.parametrize("check", ["main", "tree", "dipath", "corollary-unilateral"])
def test_verdict_sweeps_are_the_same_over_any_split(check):
    # blocks 62 and 63 of A*(5): r_1 is the block number, so only block 63 holds the
    # unilateral monomials and the spanning dipaths
    sweep = partial(verify.CHECKS[check].range_runner, Level(5))
    cuts = [62 * 32768, 63 * 32768, 64 * 32768]
    cases, failures, findings = zip(*(sweep(a, b) for a, b in zip(cuts, cuts[1:])))
    whole = sweep(cuts[0], cuts[-1])
    assert whole == (sum(cases), sum(failures, []), sum(findings, []))
    assert whole == (2 * 32768, [], [])


def test_the_corollary_sweep_builds_no_graph(monkeypatch):
    # its antipode criterion reads the monomial, and its walk criterion the lanes
    def refused(level):
        raise AssertionError("the corollary-unilateral sweep built a graph")

    monkeypatch.setattr(verify, "_index_graphs", refused)
    assert verify.run_check("corollary-unilateral", 3).ok


def test_a_fault_in_the_per_monomial_antipode_test_is_named_by_its_own_text(monkeypatch):
    # index 511 is the middle of A*(3)'s one block, so its route asks the antipode test there
    x = monomial_from_index(L3, 511)
    test = verify.unilateral_via_antipode
    monkeypatch.setattr(
        verify, "unilateral_via_antipode", lambda y, *args: test(y, *args) ^ (y == x)
    )
    assert verify.run_check("corollary-unilateral", 3).failures == [
        f"antipode lane disagrees with the per-monomial antipode test on {x}"
    ]


def test_the_corollary_sweep_builds_the_antipode_slots_once_a_call(monkeypatch):
    slots = verify.antipode_slots
    calls = []
    monkeypatch.setattr(verify, "antipode_slots", lambda level: calls.append(level) or slots(level))
    assert verify.run_check("corollary-unilateral", 3).ok
    assert calls == [L3]


def test_the_corollary_sweep_decodes_only_its_cross_checked_monomials(monkeypatch):
    # its antipode test is a lane too, so A*(3), one block, decodes indices 0, 511 and 1023
    decode = verify.monomial_from_index
    calls = []
    monkeypatch.setattr(
        verify, "monomial_from_index", lambda level, k: calls.append(k) or decode(level, k)
    )
    assert verify.run_check("corollary-unilateral", 3).ok
    assert calls == [0, 511, 1023]


def test_a_fault_in_one_antipode_slot_is_named_in_index_order(monkeypatch):
    # slot (2, 0) loses its spine term xi1 * xi1^2, the path 0-1-2, and keeps the edge (0, 2):
    # of the 64 unilateral monomials of A*(3), which hold the spine, the 32 without (0, 2) fail
    slots = verify.antipode_slots

    def faulty(level):
        pk = level.guarded_packing
        spine = pk.bit(1, 0) | pk.bit(1, 1)
        at = level.generator_powers().index((2, 0))
        return tuple(
            tuple(t for t in terms if t != spine) if s == at else terms
            for s, terms in enumerate(slots(level))
        )

    monkeypatch.setattr(verify, "antipode_slots", faulty)
    monomials = (monomial_from_index(L3, k) for k in range(monomial_count(L3)))
    expected = [
        f"antipode divisibility test disagrees with walks on {x}"
        for x in monomials
        if connectivity.oracle_is_unilateral(to_graph(x)) and not x.edge_bit(0, 2)
    ]
    assert len(expected) == 32
    assert verify.run_check("corollary-unilateral", 3).failures == expected


@pytest.mark.parametrize("check", ["dirac", "paper-hamilton"])
def test_degree_sweeps_give_the_same_result_on_two_workers(check):
    assert verify.run_check(check, 3, jobs=2) == verify.run_check(check, 3)


def test_the_antipode_recursion_runs_once_a_check(monkeypatch):
    recursion = verify.verify_antipode_recursion
    calls = []
    monkeypatch.setattr(
        verify, "verify_antipode_recursion", lambda top: calls.append(top) or recursion(top)
    )
    results = [verify.run_check("hopf-axioms", n) for n in range(4)]
    assert calls == [8, 8, 8, 8]
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


def test_only_the_measured_caches_outlive_a_call():
    # A cache must pay for itself on a workload: a new one joins this list,
    # and the README's caches paragraph gives its measured reason.
    modules = (algebra, connectivity, graphs, hopf, structure, verify, cli)
    caches = {
        id(f): f for m in modules for f in vars(m).values() if hasattr(f, "cache_info")
    }.values()
    assert sorted(f"{f.__module__}.{f.__name__}" for f in caches) == []
    assert all(f.cache_info().maxsize is not None for f in caches)
    assert all(r.ok for r in verify.run_all(3))
    for x in random_monomials(Level(12), 3, seed=1):
        cli.build_report(x)
    for f in caches:
        info = f.cache_info()
        assert info.currsize <= info.maxsize, f


@pytest.mark.parametrize(
    "check, oracle, text",
    [
        ("main", "oracle_connected_lanes", "connectedness criterion disagrees with search"),
        ("main", "oracle_unilateral_lanes", "unilaterality criterion disagrees with closure"),
        ("tree", "oracle_tree_lanes", "tree criterion disagrees with search"),
    ],
)
@pytest.mark.parametrize("k", [777, 511])
def test_a_flipped_oracle_lane_is_named(monkeypatch, check, oracle, text, k):
    # 777 is no cross-checked index of A*(3)'s one block; 511 is its middle one, where the
    # per-graph oracles run too
    lanes = getattr(verify, oracle)
    monkeypatch.setattr(verify, oracle, lambda adj, full: lanes(adj, full) ^ 1 << k)
    # the compare names k, and the per-graph oracle there sides with the criterion
    x = monomial_from_index(L3, k)
    assert verify.run_check(check, 3).failures == [
        f"lane oracles disagree with the per-graph search on {x}"
    ]


def test_a_flipped_spine_lane_meets_the_per_graph_search(monkeypatch):
    # 777 has r_1 = 12: with its spine lane set, the criterion disagrees, and the search finds no spine
    lanes = verify.oracle_dipath_lanes
    monkeypatch.setattr(verify, "oracle_dipath_lanes", lambda adj, full: lanes(adj, full) | 1 << 777)
    x = monomial_from_index(L3, 777)
    assert verify.run_check("dipath", 3).failures == [
        f"lane oracles disagree with the per-graph search on {x}",
    ]


def test_a_cleared_spine_lane_meets_the_cross_check(monkeypatch):
    # 1023 is the last cross-checked index of A*(3)'s one block, and its graph has the spine
    lanes = verify.oracle_dipath_lanes
    monkeypatch.setattr(
        verify, "oracle_dipath_lanes", lambda adj, full: lanes(adj, full) & ~(1 << 1023)
    )
    x = monomial_from_index(L3, 1023)
    assert str(x) == "xi1^15*xi2^7*xi3^3*xi4^1"
    # the cross-check and the compare both meet the lane there: it is named once
    assert verify.run_check("dipath", 3).failures == [
        f"lane oracles disagree with the per-graph search on {x}",
    ]


def test_the_dipath_sweep_builds_its_graph_table_once_a_call_not_once_a_block(monkeypatch):
    # one table serves the cross-checked graphs and the named indices
    index_rows = verify.index_rows
    calls = []
    monkeypatch.setattr(verify, "index_rows", lambda level: calls.append(level) or index_rows(level))
    monkeypatch.setenv("STEENGRAPH_MAX_N", "5")
    level = Level(5)
    assert verify._sweep_dipath(level, 0, 8 << 15) == (8 << 15, [], [])
    assert calls == [level]


def test_the_per_graph_oracles_search_the_three_cross_checked_indices_a_block(monkeypatch):
    searched = []
    oracle = verify.oracle_is_tree
    monkeypatch.setattr(verify, "oracle_is_tree", lambda g: searched.append(g) or oracle(g))
    assert verify.run_check("tree", 3).ok
    assert searched == [to_graph(monomial_from_index(L3, k)) for k in (0, 511, 1023)]
    # a range over blocks 1 and 2 of A*(5)
    level = Level(5)
    size = 1 << block_width(level)
    searched.clear()
    assert verify._sweep_tree(level, size, 3 * size) == (2 * size, [], [])
    assert searched == [
        to_graph(monomial_from_index(level, base + t))
        for base in (size, 2 * size) for t in (0, size // 2 - 1, size - 1)
    ]


def test_the_tree_sweep_reads_the_vertex_count_a_block_not_an_index(monkeypatch):
    vertex_count = algebra.Level.vertex_count.fget
    reads = []
    counted = property(lambda level: reads.append(1) or vertex_count(level))
    monkeypatch.setattr(algebra.Level, "vertex_count", counted)
    level = Level(5)
    size = 1 << block_width(level)
    # three blocks of A*(5) hold about 87,000 connected indices and 780 trees
    assert verify._sweep_tree(level, 0, 3 * size) == (3 * size, [], [])
    assert len(reads) <= 100 * 3


def test_hopf_axioms_over_the_term_budget_is_refused_before_expanding(monkeypatch, capsys):
    # at n=4 the product bound over the sample's dyadic bits is 3,515,234 coproduct terms
    def refused(level):
        raise AssertionError("the axiom check expanded a sample over its budget")

    monkeypatch.setattr(verify, "axiom_expansions", refused)
    monkeypatch.setenv("STEENGRAPH_MAX_N", "4")
    refusal = (
        "check 'hopf-axioms' at n=4 bounds its coproducts by 3515234 terms,"
        " over its budget of 1048576"
    )
    with pytest.raises(verify.CapExceeded) as caught:
        verify.run_check("hopf-axioms", 4)
    assert str(caught.value) == refusal
    assert cli.main(["verify", "-n", "4", "--theorem", "hopf-axioms"]) == 2
    assert capsys.readouterr().err == f"error: {refusal}\n"
    monkeypatch.setattr(verify, "CHECK_ORDER", ["antipode-paths", "hopf-axioms"])
    paths, axioms = verify.run_all(4)
    assert paths.ok and paths.cases == 15
    assert axioms == verify.SweepResult("hopf-axioms", 4, 0, notes=[f"skipped: {refusal}"])
