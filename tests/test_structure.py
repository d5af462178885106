"""Degrees, trees, Hamilton cycles and directed paths."""

import random
import sys

import pytest

from steengraph.algebra import (
    BLOCK_BITS,
    Level,
    Monomial,
    alpha,
    block_width,
    enumerate_monomials,
    monomial_count,
    monomial_from_index,
    parse_monomial,
    random_monomials,
)
from steengraph.connectivity import is_connected
from steengraph.graphs import WoodGraph, adjacency_matrix, oracle_edge_lanes, to_graph
from steengraph.structure import (
    degree_bound_lanes,
    degree_table,
    degrees,
    dirac_condition,
    format_cycle,
    format_directed_path,
    has_hamilton_directed_path,
    is_hamilton_cycle,
    is_tree,
    oracle_cycle_lanes,
    oracle_hamilton_cycle,
    oracle_hamilton_directed_path,
    oracle_dipath_lanes,
    oracle_is_acyclic,
    oracle_is_tree,
    oracle_tree_lanes,
    paper_hamilton_condition,
    popcount_lanes,
)

L0, L1, L2, L3 = Level(0), Level(1), Level(2), Level(3)


def top_class(level):
    """The monomial of the last index, which has every edge bit set: its graph is complete."""
    return monomial_from_index(level, monomial_count(level) - 1)


def spanning_dipath_by_generic_search(g: WoodGraph):
    """Spanning directed path by plain depth-first search over the digraph.

    Does not assume anything about the orientation; validates the
    consecutive-edge shortcut in the production oracle.
    """
    m = g.vertex_count
    succ = [[q for q in range(m) if p < q and g.has_edge(p, q)] for p in range(m)]

    def extend(path, used):
        if len(path) == m:
            return path
        for w in succ[path[-1]]:
            if not used[w]:
                used[w] = True
                found = extend(path + [w], used)
                if found:
                    return found
                used[w] = False
        return None

    for start in range(m):
        used = [False] * m
        used[start] = True
        found = extend([start], used)
        if found:
            return tuple(found)
    return None


def degree_sample():
    """Every monomial up to n=3, and 20 seeded random ones at each n = 4..12."""
    sample = [x for n in range(4) for x in enumerate_monomials(Level(n))]
    return sample + [x for n in range(4, 13) for x in random_monomials(Level(n), 20, seed=n)]


def adjacency_profiles(x):
    """(vertex, out, in, degree) of every vertex, from the rows and columns of adjacency_matrix."""
    a = adjacency_matrix(x, directed=True)
    out = [sum(row) for row in a]
    inn = [sum(col) for col in zip(*a)]
    return [(p, o, d, o + d) for p, (o, d) in enumerate(zip(out, inn))]


class TestDegrees:
    def test_worked_profile(self):
        x = parse_monomial("xi1^6 xi2^6 xi3 xi4", L3)
        profile = [(d.in_degree, d.out_degree) for d in degree_table(x)]
        assert profile == [(0, 2), (0, 2), (1, 2), (3, 0), (2, 0)]

    def test_vertex_zero_has_no_in_edges(self):
        for x in enumerate_monomials(L2):
            assert degrees(x, 0).in_degree == 0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            degrees(Monomial.one(L2), 4)
        with pytest.raises(ValueError):
            degrees(Monomial.one(L2), -1)

    def test_degree_bounds(self):
        for x in enumerate_monomials(L2):
            for d in degree_table(x):
                assert d.degree == d.in_degree + d.out_degree
                assert d.out_degree <= L2.n + 1 - d.vertex
                assert d.in_degree <= d.vertex

    def test_matches_adjacency_row_and_column_sums(self):
        for level in (L0, L1, L2, L3):
            for x in enumerate_monomials(level):
                a = adjacency_matrix(x, directed=True)
                m = len(a)
                for d in degree_table(x):
                    assert d.out_degree == sum(a[d.vertex])
                    assert d.in_degree == sum(a[p][d.vertex] for p in range(m))

    def test_the_one_pass_table_matches_the_per_vertex_profiles(self):
        # degree_table reads each factor once; the reference sums each vertex's adjacency
        # row and column, up to n=12
        for x in degree_sample():
            assert degree_table(x) == adjacency_profiles(x), x

    def test_handshake(self):
        for x in enumerate_monomials(L2):
            total = sum(d.degree for d in degree_table(x))
            assert total == 2 * sum(alpha(r) for r in x.exponents)


class TestTree:
    def test_worked_examples(self):
        assert is_tree(parse_monomial("xi1 xi2 xi3", L2))
        assert not is_tree(parse_monomial("xi1^6 xi2 xi3", L2))
        assert not is_tree(Monomial.one(L0))

    def test_oracle_star_and_triangle(self):
        assert oracle_is_tree(WoodGraph(L2, [(0, 1), (0, 2), (0, 3)]))
        assert not oracle_is_tree(WoodGraph(L1, [(0, 1), (1, 2), (0, 2)]))
        assert oracle_is_tree(to_graph(parse_monomial("xi1 xi2 xi3", L2)))

    def test_acyclicity_oracle(self):
        assert oracle_is_acyclic(WoodGraph(L2, []))
        assert oracle_is_acyclic(WoodGraph(L2, [(0, 1), (2, 3)]))
        assert not oracle_is_acyclic(WoodGraph(L1, [(0, 1), (1, 2), (0, 2)]))

    def test_criterion_vs_oracle_small(self):
        for level in (L0, L1, L2):
            for x in enumerate_monomials(level):
                assert is_tree(x) == oracle_is_tree(to_graph(x)), x

    def test_connected_edge_count_equivalence(self):
        # for connected graphs, acyclic means exactly n+1 edges
        for level in (L0, L1, L2, L3):
            for x in enumerate_monomials(level):
                g = to_graph(x)
                if is_connected(x):
                    assert oracle_is_acyclic(g) == (g.edge_count == level.n + 1), x


class TestHamiltonConditions:
    def test_worked_positive(self):
        assert paper_hamilton_condition(parse_monomial("xi1^6 xi2^6 xi3 xi4", L3))

    def test_worked_negative(self):
        assert not paper_hamilton_condition(parse_monomial("xi1^15 xi3^2", L3))

    def test_unit_fails_both(self):
        assert not paper_hamilton_condition(Monomial.one(L1))
        assert not dirac_condition(Monomial.one(L1))
        assert not paper_hamilton_condition(Monomial.one(L0))
        assert not dirac_condition(Monomial.one(L0))

    def test_complete_graph_satisfies_dirac(self):
        assert dirac_condition(top_class(L2))

    def test_path_graph_separates_the_thresholds(self):
        x = parse_monomial("xi1^7", L2)
        assert [d.degree for d in degree_table(x)] == [1, 2, 2, 1]
        assert paper_hamilton_condition(x)
        assert not dirac_condition(x)

    def test_dirac_implies_paper(self):
        for x in enumerate_monomials(L2):
            if dirac_condition(x):
                assert paper_hamilton_condition(x)

    def test_both_conditions_match_the_adjacency_degrees(self):
        # n > 0 and 2*deg >= n + extra at every vertex, with deg read off the directed
        # adjacency matrix, up to n=12
        for extra, condition in BOUNDS:
            assert not condition(Monomial.one(L3))
            assert condition(top_class(L3))
            for x in degree_sample():
                n = x.level.n
                expected = n > 0 and all(2 * d >= n + extra for *_, d in adjacency_profiles(x))
                assert condition(x) == expected, (extra, x)


BOUNDS = [(2, dirac_condition), (0, paper_hamilton_condition)]


def assert_lanes_match_the_conditions(level, base, width, lanes_of=range):
    for extra, condition in BOUNDS:
        lanes = degree_bound_lanes(level, base, width, extra)
        assert lanes >> (1 << width) == 0
        for t in lanes_of(1 << width):
            x = monomial_from_index(level, base + t)
            assert lanes >> t & 1 == condition(x), (level, width, extra, base + t)


class TestDegreeBoundLanes:
    def test_every_lane_matches_the_conditions(self):
        # every block width, down to single lanes, up to n=2 (none holds at n=0); the sweep's
        # blocks at n=3 and 4
        for n in range(5):
            level = Level(n)
            widths = range(block_width(level) + 1) if n <= 2 else [block_width(level)]
            for width in widths:
                for base in range(0, monomial_count(level), 1 << width):
                    assert_lanes_match_the_conditions(level, base, width)

    def test_seeded_blocks_match_the_conditions_at_n5(self):
        level = Level(5)
        rng = random.Random(5)
        blocks = monomial_count(level) >> BLOCK_BITS
        for block in rng.sample(range(blocks), 3):
            assert_lanes_match_the_conditions(
                level,
                block << BLOCK_BITS,
                BLOCK_BITS,
                lambda size: rng.sample(range(size), 2000),
            )

    def test_blocks_are_bounded_and_aligned(self):
        for level, base, width in ((L2, 0, 7), (L3, 4, 3), (L3, 1024, 3)):
            with pytest.raises(ValueError):
                degree_bound_lanes(level, base, width, 2)


def assert_lane_oracles_match_the_searches(level, base, width, lanes_of=range):
    adj, full = oracle_edge_lanes(level, base, width)
    trees = oracle_tree_lanes(adj, full)
    dipaths = oracle_dipath_lanes(adj, full)
    assert trees >> (1 << width) == 0 == dipaths >> (1 << width)
    for t in lanes_of(1 << width):
        g = to_graph(monomial_from_index(level, base + t))
        lanes = (trees >> t & 1, dipaths >> t & 1)
        expected = (oracle_is_tree(g), oracle_hamilton_directed_path(g) is not None)
        assert lanes == expected, (level, base + t)


class TestLaneOracles:
    def test_every_lane_matches_the_searches(self):
        # every block width up to n=2, the sweep's blocks at n=3 and 4
        for n in range(5):
            level = Level(n)
            widths = range(block_width(level) + 1) if n <= 2 else [block_width(level)]
            for width in widths:
                for base in range(0, monomial_count(level), 1 << width):
                    assert_lane_oracles_match_the_searches(level, base, width)

    def test_seeded_blocks_match_the_searches_at_n5(self):
        level = Level(5)
        rng = random.Random(11)
        blocks = monomial_count(level) >> BLOCK_BITS
        # block 63 holds the indices with r_1 = 63, where every spine edge is present
        for block in rng.sample(range(blocks - 1), 2) + [blocks - 1]:
            assert_lane_oracles_match_the_searches(
                level, block << BLOCK_BITS, BLOCK_BITS, lambda size: rng.sample(range(size), 2000)
            )

    def test_whole_level_counts_at_n5(self):
        # labelled trees on 7 vertices (Cayley, 7^5) and spanning dipaths (2^15, every r_1 bit)
        level = Level(5)
        trees = dipaths = 0
        for base in range(0, monomial_count(level), 1 << BLOCK_BITS):
            adj, full = oracle_edge_lanes(level, base, BLOCK_BITS)
            trees += oracle_tree_lanes(adj, full).bit_count()
            dipaths += oracle_dipath_lanes(adj, full).bit_count()
        assert trees == 16807 == 7**5
        assert dipaths == 32768 == 2**15

    def test_popcount_lanes_by_a_plain_loop(self):
        for width in (0, 1, 5, BLOCK_BITS):
            counts = popcount_lanes(width)
            assert len(counts) == width + 1
            for c, lane in enumerate(counts):
                assert lane == sum(1 << t for t in range(1 << width) if t.bit_count() == c)


class TestCycleLanes:
    """The cycle lanes against the backtracking search, which shares no code with them."""

    def test_every_lane_matches_the_search(self):
        for n in range(5):
            level = Level(n)
            width = block_width(level)
            for base in range(0, monomial_count(level), 1 << width):
                lanes = oracle_cycle_lanes(*oracle_edge_lanes(level, base, width))
                assert lanes >> (1 << width) == 0
                for t in range(1 << width):
                    g = to_graph(monomial_from_index(level, base + t))
                    assert lanes >> t & 1 == (oracle_hamilton_cycle(g) is not None), (n, t)

    @staticmethod
    def hamiltonian_count(level):
        width = block_width(level)
        return sum(
            oracle_cycle_lanes(*oracle_edge_lanes(level, base, width)).bit_count()
            for base in range(0, monomial_count(level), 1 << width)
        )

    def test_whole_level_counts(self):
        # the labelled Hamiltonian graphs on n+2 vertices
        assert [self.hamiltonian_count(Level(n)) for n in range(5)] == [0, 1, 10, 218, 10078]

    def test_whole_level_count_at_n5(self, monkeypatch):
        monkeypatch.setenv("STEENGRAPH_MAX_N", "5")
        assert self.hamiltonian_count(Level(5)) == 896756


class TestHamiltonCycle:
    def test_worked_example_has_cycle(self):
        g = to_graph(parse_monomial("xi1^6 xi2^6 xi3 xi4", L3))
        witness = oracle_hamilton_cycle(g)
        assert witness is not None
        assert is_hamilton_cycle(g, witness)

    def test_published_witness_validates(self):
        g = to_graph(parse_monomial("xi1^6 xi2^6 xi3 xi4", L3))
        assert is_hamilton_cycle(g, (1, 2, 4, 0, 3))

    def test_worked_example_without_cycle(self):
        assert oracle_hamilton_cycle(to_graph(parse_monomial("xi1^15 xi3^2", L3))) is None

    def test_path_graph_has_no_cycle(self):
        assert oracle_hamilton_cycle(to_graph(parse_monomial("xi1^7", L2))) is None

    def test_two_vertices_never_cycle(self):
        assert oracle_hamilton_cycle(to_graph(top_class(L0))) is None

    def test_complete_graphs_cycle(self):
        for level in (L1, L2, L3):
            g = to_graph(top_class(level))
            witness = oracle_hamilton_cycle(g)
            assert witness is not None and is_hamilton_cycle(g, witness)

    def test_witness_is_lexicographically_smallest(self):
        g = to_graph(top_class(L2))
        # complete graph on 4 vertices: smallest tour from 0 with
        # reflection broken by second < last
        assert oracle_hamilton_cycle(g) == (0, 1, 2, 3)

    def test_every_found_witness_is_valid(self):
        for x in enumerate_monomials(L2):
            g = to_graph(x)
            witness = oracle_hamilton_cycle(g)
            if witness is not None:
                assert is_hamilton_cycle(g, witness)
                assert witness[0] == 0 and witness[1] < witness[-1]

    def test_validator_rejects_bad_sequences(self):
        g = to_graph(top_class(L2))
        assert not is_hamilton_cycle(g, (0, 1, 2))
        assert not is_hamilton_cycle(g, (0, 1, 2, 2))
        assert not is_hamilton_cycle(to_graph(parse_monomial("xi1^7", L2)), (0, 1, 2, 3))


class TestHamiltonDirectedPath:
    def test_worked_example(self):
        y = parse_monomial("xi1^15 xi3^2", L3)
        assert has_hamilton_directed_path(y)
        assert oracle_hamilton_directed_path(to_graph(y)) == (0, 1, 2, 3, 4)

    def test_missing_consecutive_edge(self):
        x = parse_monomial("xi1^6 xi2 xi3", L2)
        assert not has_hamilton_directed_path(x)
        assert oracle_hamilton_directed_path(to_graph(x)) is None

    def test_top_class_always_qualifies(self):
        for level in (L0, L1, L2, L3):
            assert has_hamilton_directed_path(top_class(level))

    def test_empty_graph(self):
        assert oracle_hamilton_directed_path(to_graph(Monomial.one(L2))) is None

    def test_shortcut_matches_generic_search_exhaustive(self):
        for level in (L0, L1, L2, L3):
            spine = tuple(range(level.n + 2))
            for x in enumerate_monomials(level):
                g = to_graph(x)
                generic = spanning_dipath_by_generic_search(g)
                direct = oracle_hamilton_directed_path(g)
                assert (generic is not None) == (direct is not None), x
                if generic is not None:
                    # increasing orientation forces the unique witness
                    assert generic == direct == spine

    def test_spine_mask_matches_the_consecutive_edge_bits_exhaustive(self):
        for n in range(5):
            level = Level(n)
            m = level.vertex_count
            for x in enumerate_monomials(level):
                g = to_graph(x)
                every_step = all(g.has_edge(p, p + 1) for p in range(m - 1))
                expected = tuple(range(m)) if every_step else None
                assert oracle_hamilton_directed_path(g) == expected, x

    @pytest.mark.parametrize("m", range(2, 15))
    def test_complete_graph_and_each_missing_spine_edge(self, m):
        level = Level(m - 2)
        edges = [(p, q) for p in range(m) for q in range(p + 1, m)]
        assert oracle_hamilton_directed_path(WoodGraph(level, edges)) == tuple(range(m))
        for p in range(m - 1):
            g = WoodGraph(level, [e for e in edges if e != (p, p + 1)])
            assert oracle_hamilton_directed_path(g) is None, p


class TestRendering:
    def test_cycle_labels(self):
        assert format_cycle((1, 2, 4, 0, 3)) == "2-4-16-1-8-2"

    def test_path_labels(self):
        assert format_directed_path((0, 1, 2, 3, 4)) == "1->2->4->8->16"


def hamilton_cycle_by_adjacency_lists(g: WoodGraph):
    """Reference backtracking over sorted adjacency lists: the lexicographically smallest
    Hamilton cycle from vertex 0 with second vertex below the last, or None."""
    m = g.vertex_count
    adj = [[q for q in range(m) if g.has_edge(p, q)] for p in range(m)]
    if m < 3 or any(len(a) < 2 for a in adj):
        return None

    def extend(seq):
        if len(seq) == m:
            return seq if seq[1] < seq[-1] and g.has_edge(seq[-1], 0) else None
        for w in adj[seq[-1]]:
            if w not in seq:
                found = extend(seq + [w])
                if found:
                    return found
        return None

    found = extend([0])
    return tuple(found) if found else None


def component_count(g: WoodGraph) -> int:
    """Union-find over the edge list."""
    parent = list(range(g.vertex_count))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for p, q in g.sorted_edges():
        parent[root(p)] = root(q)
    return len({root(v) for v in range(g.vertex_count)})


class TestMaskOracles:
    def test_acyclic_exactly_for_forests(self):
        # a forest on m vertices with c components has m - c edges, and only a forest does
        for level in (L0, L1, L2, L3):
            for x in enumerate_monomials(level):
                g = to_graph(x)
                forest = g.edge_count == g.vertex_count - component_count(g)
                assert oracle_is_acyclic(g) == forest, x


def random_graph(level: Level, density: float, rng: random.Random) -> WoodGraph:
    m = level.vertex_count
    pairs = [(p, q) for p in range(m) for q in range(p + 1, m)]
    return WoodGraph(level, [pq for pq in pairs if rng.random() < density])


class TestHamiltonSearchKeepsItsWitness:
    """The memo and the degree rule only cut branches that fail, so the witness is the one the
    plain search over adjacency lists (read through has_edge, not the masks) finds."""

    def test_every_graph_up_to_n4(self):
        for level in (L0, L1, L2, L3, Level(4)):
            for x in enumerate_monomials(level):
                g = to_graph(x)
                assert oracle_hamilton_cycle(g) == hamilton_cycle_by_adjacency_lists(g), x

    # the degree rule fires most on sparse graphs, the memo on dense ones without a cycle
    @pytest.mark.parametrize("density", [1 / 3, 2 / 3])
    @pytest.mark.parametrize("n", range(4, 13))
    def test_seeded_sample(self, n, density):
        rng = random.Random(f"{n}/{density}")
        for _ in range(40):
            g = random_graph(Level(n), density, rng)
            witness = hamilton_cycle_by_adjacency_lists(g)
            assert oracle_hamilton_cycle(g) == witness, g.sorted_edges()


def extend_calls(g: WoodGraph, bound: int):
    """The witness and the number of calls of the search's inner `extend`; fails past bound."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "extend":
            calls += 1
            if calls > bound:  # fail at once rather than after an unbounded search
                raise AssertionError(f"more than {bound} calls of extend")

    sys.setprofile(profile)
    try:
        witness = oracle_hamilton_cycle(g)
    finally:
        sys.setprofile(None)
    return witness, calls


class TestHamiltonSearchIsBounded:
    """Each (used, last) state is entered once: at most 2^(m-1)·m states (Bellman / Held-Karp)."""

    L12 = Level(12)
    BOUND = 2 ** (L12.vertex_count - 1) * L12.vertex_count  # 114,688 at m = 14
    HUBS = (1, 3, 5, 7, 9, 11)  # the vertices 2, 8, ..., 2048

    def test_joined_hubs_with_one_more_edge(self):
        # the six hubs are joined to each other and to the other eight vertices, plus {1,4}:
        # a cycle needs two edges inside the eight, and there is one
        x = parse_monomial("[4095,2731,1023,682,255,170,63,42,15,10,3,2,0]", self.L12)
        g = to_graph(x)
        others = [p for p in range(14) if p not in self.HUBS]
        inside = [(p, q) for p in others for q in others if p < q and g.has_edge(p, q)]
        assert inside == [(0, 2)]
        witness, calls = extend_calls(g, self.BOUND)
        assert witness is None and calls <= self.BOUND

    def test_complete_bipartite_6_8(self):
        # unbalanced sides: a cycle alternates sides, so none exists
        g = WoodGraph(
            self.L12,
            [(p, q) for p in self.HUBS for q in range(14) if q not in self.HUBS],
        )
        witness, calls = extend_calls(g, self.BOUND)
        assert witness is None and calls <= self.BOUND
