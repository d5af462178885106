"""Monomial/graph bijection, adjacency matrices, DOT export."""

import random
from collections import Counter
from functools import reduce
from operator import or_

import pytest

from steengraph.algebra import (
    UNTRUNCATED,
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
from steengraph.graphs import (
    WoodGraph,
    adjacency_matrix,
    export_dot,
    from_graph,
    index_rows,
    to_graph,
)
from steengraph.structure import degree_bound_lanes

L0, L1, L2, L3 = Level(0), Level(1), Level(2), Level(3)


def top_class(level):
    """The monomial of the last index, which has every edge bit set: its graph is complete."""
    return monomial_from_index(level, monomial_count(level) - 1)


class TestWoodGraph:
    def test_edges_canonicalized(self):
        g = WoodGraph(L2, [(2, 0), (0, 2)])
        assert g.sorted_edges() == [(0, 2)]

    def test_loops_rejected(self):
        with pytest.raises(ValueError):
            WoodGraph(L2, [(1, 1)])

    def test_range_checked(self):
        with pytest.raises(ValueError):
            WoodGraph(L2, [(0, 4)])
        with pytest.raises(ValueError):
            WoodGraph(L2, [(-1, 0)])

    def test_vertex_count_includes_isolated(self):
        g = WoodGraph(L3, [(0, 1)])
        assert g.vertex_count == 5
        assert not any(g.has_edge(4, q) for q in range(5))

    def test_untruncated_rejected(self):
        with pytest.raises(ValueError):
            WoodGraph(UNTRUNCATED, [])


class TestToGraph:
    def test_single_generator(self):
        g = to_graph(parse_monomial("xi2", L2))
        assert g.sorted_edges() == [(0, 2)]

    def test_worked_example(self):
        g = to_graph(parse_monomial("xi1^6 xi2 xi3", L2))
        assert g.sorted_edges() == [(0, 2), (0, 3), (1, 2), (2, 3)]

    def test_top_class_is_complete(self):
        g = to_graph(top_class(L3))
        assert g.edge_count == 10

    def test_unit_has_no_edges(self):
        assert to_graph(Monomial.one(L3)).edge_count == 0


class TestFromGraph:
    def test_empty_graph(self):
        assert from_graph(WoodGraph(L3, [])).is_one

    def test_worked_example(self):
        g = WoodGraph(L3, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
        assert from_graph(g) == parse_monomial("xi1^15 xi3^2", L3)

    def test_bijection_exhaustive(self):
        for level in (L0, L1, L2, L3):
            seen = set()
            for x in enumerate_monomials(level):
                g = to_graph(x)
                assert from_graph(g) == x
                assert g.edges not in seen
                seen.add(g.edges)

    def test_edge_count_is_total_alpha(self):
        for x in enumerate_monomials(L2):
            assert to_graph(x).edge_count == sum(alpha(r) for r in x.exponents)


class TestAdjacencyMatrix:
    def test_worked_example_undirected(self):
        a = adjacency_matrix(parse_monomial("xi1^6 xi2 xi3", L2))
        assert a == (
            (0, 0, 1, 1),
            (0, 0, 1, 0),
            (1, 1, 0, 1),
            (1, 0, 1, 0),
        )

    def test_worked_example_directed(self):
        a = adjacency_matrix(parse_monomial("xi1^6 xi2 xi3", L2), directed=True)
        assert a == (
            (0, 0, 1, 1),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (0, 0, 0, 0),
        )

    def test_unit_is_zero_matrix(self):
        a = adjacency_matrix(Monomial.one(L1))
        assert all(v == 0 for row in a for v in row)

    def test_directed_plus_transpose_is_undirected(self):
        for x in enumerate_monomials(L2):
            d = adjacency_matrix(x, directed=True)
            u = adjacency_matrix(x)
            m = len(d)
            assert all(
                u[p][q] == d[p][q] + d[q][p] for p in range(m) for q in range(m)
            )


class TestTopClass:
    def test_values(self):
        assert top_class(L3) == parse_monomial("xi1^15 xi2^7 xi3^3 xi4", L3)
        assert top_class(L0) == parse_monomial("xi1", L0)

    def test_complete_edge_count(self):
        for level in (L0, L1, L2, L3):
            m = level.n + 2
            assert to_graph(top_class(level)).edge_count == m * (m - 1) // 2


class TestExportDot:
    def test_single_edge_undirected(self):
        text = export_dot(to_graph(parse_monomial("xi2", L2)))
        assert text.startswith("graph {\n")
        assert text.endswith("}\n")
        for node in ("1", "2", "4", "8"):
            assert f'"{node}";' in text
        assert '"1" -- "4";' in text
        assert text.count("--") == 1

    def test_empty_graph_two_nodes(self):
        text = export_dot(WoodGraph(L0, []))
        assert '"1";' in text and '"2";' in text
        assert "--" not in text

    def test_directed_arrows(self):
        text = export_dot(to_graph(parse_monomial("xi1^6 xi2 xi3", L2)), directed=True)
        assert text.startswith("digraph {\n")
        arrows = [line.strip() for line in text.splitlines() if "->" in line]
        assert arrows == [
            '"1" -> "4";',
            '"1" -> "8";',
            '"2" -> "4";',
            '"4" -> "8";',
        ]

    def test_layout_hints_are_comments(self):
        text = export_dot(WoodGraph(L2, []))
        hints = [line for line in text.splitlines() if "layout hint" in line]
        assert all(line.strip().startswith("//") for line in hints)
        assert "rank" not in text

    def test_deterministic(self):
        g = to_graph(top_class(L2))
        assert export_dot(g) == export_dot(g)
        assert "\r" not in export_dot(g)


def overlay_and_carry(x: Monomial, y: Monomial):
    """Multiset union of the two edge sets, resolved by the carry rule.

    Two copies of an edge (p, q) merge into one edge (p+1, q+1); an
    edge pushed past the top vertex kills the product.  Returns the
    resulting edge set or None.
    """
    top = x.level.n + 1
    edges = Counter(to_graph(x).edges)
    edges.update(to_graph(y).edges)
    while True:
        doubled = next((e for e, c in edges.items() if c >= 2), None)
        if doubled is None:
            break
        p, q = doubled
        if q + 1 > top:
            return None
        edges[doubled] -= 2
        edges.update([(p + 1, q + 1)])
    return {e for e, c in edges.items() if c == 1}


class TestMultiplicationCompatibility:
    def test_overlay_carry_oracle_exhaustive(self):
        # every product in the smallest nontrivial level, 64 ordered pairs
        all_pairs = [
            (x, y)
            for x in enumerate_monomials(L1)
            for y in enumerate_monomials(L1)
        ]
        for x, y in all_pairs:
            expected = overlay_and_carry(x, y)
            product = x * y
            if expected is None:
                assert product.is_zero, f"{x} * {y}"
            else:
                (z,) = product.terms
                assert to_graph(z).edges == expected, f"{x} * {y}"


def dyadic_edges(x: Monomial) -> list:
    """The edge rule read off the factors: xi_i^(2^j) is edge (j, i+j)."""
    return [(j, i + j) for i, j in x.dyadic_bits()]


class TestPackedRows:
    def test_to_graph_is_the_validated_graph_of_the_dyadic_edges(self):
        for level in (L0, L1, L2, L3):
            for x in enumerate_monomials(level):
                g = to_graph(x)
                assert g == WoodGraph(level, dyadic_edges(x)), x
                assert from_graph(g) == x

    def test_public_graph_api_matches_an_edge_set(self):
        # every monomial of n <= 3 and seeded ones up to the level cap, so sorted_edges walks
        # the neighbour masks of every vertex count m = 2..14
        sample = [x for level in (L0, L1, L2, L3) for x in enumerate_monomials(level)]
        sample += [x for n in range(4, 13) for x in random_monomials(Level(n), 20, seed=n)]
        for x in sample:
            level = x.level
            m = level.n + 2
            edges = sorted(dyadic_edges(x))
            g = to_graph(x)
            assert g.edges == frozenset(edges) and g.sorted_edges() == edges
            assert g.edge_count == len(edges)
            for p in range(-1, m + 1):
                for q in range(-1, m + 1):
                    assert g.has_edge(p, q) == ((min(p, q), max(p, q)) in edges)
            body = ", ".join(f"{{{1 << p},{1 << q}}}" for p, q in edges)
            assert str(g) == (
                f"graph on {m} vertices with edges {body}"
                if edges
                else f"graph on {m} vertices with no edges"
            )
            assert repr(g) == f"WoodGraph({level!r}, {edges!r})"
            twin = WoodGraph(level, reversed([(q, p) for p, q in edges]))
            assert twin == g and hash(twin) == hash(g)


def index_graph_rows(rows, k):
    """The OR of the index_rows entries over the set bits of k."""
    return reduce(or_, (r for b, r in enumerate(rows) if k >> b & 1), 0)


class TestIndexRows:
    def test_every_index_is_the_graph_of_its_monomial(self):
        for n in range(5):
            level = Level(n)
            rows = index_rows(level)
            for k in range(monomial_count(level)):
                expected = to_graph(monomial_from_index(level, k)).rows
                assert index_graph_rows(rows, k) == expected, (n, k)

    def test_sparse_indices_are_the_graphs_of_their_monomials(self):
        # A*(5) has 21 index bits, so the bits above the low byte change from run to run
        level = Level(5)
        width = block_width(level)
        boundary = 63 << width  # the first index of block 63
        sample = sorted(random.Random(5).sample(range(monomial_count(level)), 400))
        holds = [
            k
            for base in range(62 << width, 64 << width, 1 << width)
            for lane in [degree_bound_lanes(level, base, width, 0)]
            for k in range(base, base + (1 << width))
            if lane >> k - base & 1
        ]
        rows = index_rows(level)
        for indices in (sample, holds):
            assert len({k >> 8 for k in indices}) > 2
            assert any(b - a > 1 for a, b in zip(indices, indices[1:]))
            assert indices[0] < boundary <= indices[-1]
            for k in indices:
                expected = to_graph(monomial_from_index(level, k)).rows
                assert index_graph_rows(rows, k) == expected, k


class TestEdgeBitReference:
    # Monomial.edge_bit, one range-checked exponent read per pair, is the reference
    # for the edges that dyadic_bits and adjacency_matrix read off the set bits
    @pytest.mark.parametrize("n", range(13))
    def test_dyadic_bits_and_adjacency_match_edge_bit(self, n):
        level = Level(n)
        m = n + 2
        for x in random_monomials(level, 20, seed=n) + [top_class(level)]:
            edges = [(p, q) for p in range(m) for q in range(p + 1, m) if x.edge_bit(p, q)]
            factors = list(x.dyadic_bits())
            assert factors == sorted(factors)
            assert sorted(dyadic_edges(x)) == edges
            up = adjacency_matrix(x, directed=True)
            both = adjacency_matrix(x)
            for a in (up, both):
                assert type(a) is tuple and all(type(row) is tuple and len(row) == m for row in a)
            assert len(up) == len(both) == m
            for p in range(m):
                for q in range(m):
                    bit = x.edge_bit(min(p, q), max(p, q)) if p != q else 0
                    assert up[p][q] == (bit if p < q else 0), (x, p, q)
                    assert both[p][q] == bit, (x, p, q)
