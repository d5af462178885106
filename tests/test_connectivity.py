"""Walk counts vs literal enumeration, criteria vs search oracles."""

import functools
import itertools
import random

import pytest

from steengraph import algebra, connectivity, graphs, structure, verify
from steengraph.algebra import (
    BLOCK_BITS,
    Level,
    Monomial,
    block_lanes,
    block_width,
    enumerate_monomials,
    monomial_count,
    monomial_from_index,
    parse_monomial,
    random_monomials,
)
from steengraph.cli import build_report
from steengraph.connectivity import (
    _field_width,
    connection_numbers,
    is_connected,
    is_unilateral,
    lane_verdicts,
    oracle_connected_lanes,
    oracle_is_connected,
    oracle_is_unilateral,
    oracle_unilateral_lanes,
    unilateral_numbers,
    walk_records,
)
from steengraph.graphs import WoodGraph, adjacency_matrix, index_rows, oracle_edge_lanes, to_graph

L0, L1, L2, L3 = Level(0), Level(1), Level(2), Level(3)


def top_class(level):
    """The monomial of the last index, which has every edge bit set: its graph is complete."""
    return monomial_from_index(level, monomial_count(level) - 1)


def count_walks_by_enumeration(a, p, q, t):
    """Number of walks p to q of length exactly t, by explicit extension."""
    m = len(a)
    count = 0
    stack = [(p, 0)]
    while stack:
        v, steps = stack.pop()
        if steps == t:
            count += v == q
            continue
        for w in range(m):
            if a[v][w]:
                stack.append((w, steps + 1))
    return count


def walk_endpoint_tally(a, p, t):
    """Endpoint counts of all length-t walks from p, one explicit extension pass."""
    m = len(a)
    adj = [[w for w in range(m) if a[v][w]] for v in range(m)]
    counts = [0] * m

    def extend(v, steps):
        if steps == t:
            counts[v] += 1
            return
        for w in adj[v]:
            extend(w, steps + 1)

    extend(p, 0)
    return counts


def walk_table_by_enumeration(x, directed):
    """The C or U table computed straight from the definition, no matrices."""
    a = adjacency_matrix(x, directed=directed)
    n = x.level.n
    values = {}
    for p in range(n + 2):
        for q in range(p + 1, n + 2):
            values[(p, q)] = sum(
                count_walks_by_enumeration(a, p, q, t) for t in range(1, n + 2)
            )
    return values


class TestWorkedExamples:
    def test_connection_numbers_small(self):
        c = connection_numbers(parse_monomial("xi1^6 xi2 xi3", L2))
        assert [v for _, v in c.items()] == [2, 6, 5, 4, 2, 6]

    def test_unilateral_numbers_small(self):
        u = unilateral_numbers(parse_monomial("xi1^6 xi2 xi3", L2))
        assert u[(0, 1)] == 0

    def test_connection_numbers_large(self):
        c = connection_numbers(parse_monomial("xi1^15 xi3^2", L3))
        assert [v for _, v in c.items()] == [4, 6, 2, 6, 6, 12, 6, 5, 11, 5]

    def test_unilateral_numbers_large(self):
        u = unilateral_numbers(parse_monomial("xi1^15 xi3^2", L3))
        assert [v for _, v in u.items()] == [1, 1, 1, 2, 1, 1, 2, 1, 1, 1]

    def test_unit_tables_vanish(self):
        c = connection_numbers(Monomial.one(L2))
        assert all(v == 0 for _, v in c.items())


class TestWalkCountTable:
    def test_records_shape(self):
        assert build_report(Monomial.one(L0))["C"] == [{"p": 0, "q": 1, "value": 0}]

    def test_keys_are_the_pairs_in_order(self):
        # report bytes list C and U in the table's key order
        for n in range(13):
            level = Level(n)
            pairs = list(itertools.combinations(range(n + 2), 2))
            for x in (top_class(level), Monomial.one(level)):
                for table in (connection_numbers, unilateral_numbers):
                    assert list(table(x)) == pairs, (n, x, table.__name__)

    def test_report_records_list_the_tables_in_order(self):
        # analyze reads its records straight off the packed rows; the tests and the sweeps
        # read the dicts, so both routes must give the same entries in the same order
        sample = [x for level in (L0, L1, L2, L3) for x in enumerate_monomials(level)]
        sample += [x for n in range(4, 13) for x in random_monomials(Level(n), 20, seed=n)]
        for x in sample:
            for directed, table in ((False, connection_numbers), (True, unilateral_numbers)):
                records = [(r["p"], r["q"], r["value"]) for r in walk_records(x, directed)]
                assert records == [(p, q, v) for (p, q), v in table(x).items()], (x, directed)


class TestWalkCountIdentity:
    def test_pairwise_enumerator_on_a_known_case(self):
        a = adjacency_matrix(parse_monomial("xi1^6 xi2 xi3", L2))
        assert count_walks_by_enumeration(a, 0, 1, 1) == 0
        assert count_walks_by_enumeration(a, 0, 1, 2) == 1  # 0-2-1
        assert count_walks_by_enumeration(a, 0, 2, 1) == 1

    def test_matrix_powers_count_walks_exhaustive(self):
        # every monomial up to n=3, both orientations, every power up to n+1
        for level in (L0, L1, L2, L3):
            m = level.n + 2
            for x in enumerate_monomials(level):
                for directed in (False, True):
                    a = adjacency_matrix(x, directed=directed)
                    power = a
                    for t in range(1, level.n + 2):
                        if t > 1:
                            power = tuple(
                                tuple(
                                    sum(power[i][k] * a[k][j] for k in range(m))
                                    for j in range(m)
                                )
                                for i in range(m)
                            )
                        for p in range(m):
                            assert list(power[p]) == walk_endpoint_tally(a, p, t), (
                                x,
                                directed,
                                p,
                                t,
                            )


class TestDefinitionAgainstMatrixRoute:
    def test_tables_match_literal_enumeration(self):
        for level in (L0, L1, L2):
            for x in enumerate_monomials(level):
                assert connection_numbers(x) == walk_table_by_enumeration(
                    x, directed=False
                )
                assert unilateral_numbers(x) == walk_table_by_enumeration(
                    x, directed=True
                )


class TestCompleteGraphTables:
    # The top class of A*(n) is the complete graph K_m on m = n+2 vertices.
    # Walks of length k between two distinct vertices of K_m number
    # ((m-1)^k - (-1)^k)/m, and with every edge pointing upward the directed
    # paths from p to q are the subsets of the q-p-1 vertices between them.
    def test_closed_forms_through_the_largest_level(self):
        for n in range(13):
            level = Level(n)
            m = n + 2
            walks = sum(((m - 1) ** k - (-1) ** k) // m for k in range(1, n + 2))
            c = connection_numbers(top_class(level))
            u = unilateral_numbers(top_class(level))
            for p in range(m):
                for q in range(p + 1, m):
                    assert c[(p, q)] == walks, (n, p, q)
                    assert u[(p, q)] == 2 ** (q - p - 1), (n, p, q)
        assert walks == 23_436_764_200_591


def power_sum_by_products(a):
    """A + A^2 + ... + A^(m-1) for the m x m matrix a, by plain row-by-column products."""
    m = len(a)
    power = [list(row) for row in a]
    total = [list(row) for row in a]
    for _ in range(m - 2):
        power = [
            [sum(power[i][k] * a[k][j] for k in range(m)) for j in range(m)] for i in range(m)
        ]
        total = [[t + v for t, v in zip(trow, prow)] for trow, prow in zip(total, power)]
    return total


class TestPackedRowsAtAnalyzeLevels:
    # analyze serves n up to 12, where a packed row holds 14 fields of
    # (14^14).bit_length() = 54 bits each.
    def test_tables_match_matrix_products(self):
        for n in range(4, 13):
            level = Level(n)
            m = n + 2
            for x in random_monomials(level, 6, seed=100 + n):
                for directed, table in ((False, connection_numbers), (True, unilateral_numbers)):
                    total = power_sum_by_products(adjacency_matrix(x, directed=directed))
                    expected = {(p, q): total[p][q] for p in range(m) for q in range(p + 1, m)}
                    assert table(x) == expected, (x, directed)

    def test_largest_entry_fits_its_field(self):
        # the complete graph has the most walks; its diagonal (closed walks) is
        # packed too, so every entry of the sum must stay below 2^w, not only p < q
        n = 12
        m = n + 2
        total = power_sum_by_products(adjacency_matrix(top_class(Level(n))))
        largest = max(max(row) for row in total)
        assert largest == 23_436_764_200_591
        assert largest < m**m < 2 ** _field_width(m) == 2**54


class TestCriteria:
    def test_worked_verdicts(self):
        x = parse_monomial("xi1^6 xi2 xi3", L2)
        assert is_connected(x) and not is_unilateral(x)
        y = parse_monomial("xi1^15 xi3^2", L3)
        assert is_connected(y) and is_unilateral(y)

    def test_same_monomial_higher_level_disconnects(self):
        y4 = parse_monomial("xi1^15 xi3^2", Level(4))
        assert not is_connected(y4)
        assert not is_unilateral(y4)

    def test_unit_never_qualifies(self):
        assert not is_connected(Monomial.one(L0))
        assert not is_unilateral(Monomial.one(L0))

    def test_top_class_unilateral_everywhere(self):
        for level in (L0, L1, L2, L3):
            assert is_unilateral(top_class(level))
            u = unilateral_numbers(top_class(level))
            assert all(v >= 1 for _, v in u.items())


class TestOracles:
    def test_path_graph_connected(self):
        assert oracle_is_connected(WoodGraph(L1, [(0, 1), (1, 2)]))

    def test_isolated_vertex_disconnects(self):
        assert not oracle_is_connected(WoodGraph(L1, [(0, 1)]))

    def test_chain_is_unilateral(self):
        for level in (L0, L1, L2, L3):
            chain = WoodGraph(level, [(p, p + 1) for p in range(level.n + 1)])
            assert oracle_is_unilateral(chain)

    def test_empty_graph_not_unilateral(self):
        assert not oracle_is_unilateral(WoodGraph(L0, []))

    def test_worked_example_verdicts(self):
        g = to_graph(parse_monomial("xi1^6 xi2 xi3", L2))
        assert oracle_is_connected(g)
        assert not oracle_is_unilateral(g)


class TestCriteriaAgainstOracles:
    def test_exhaustive_small_levels(self):
        # the acceptance suite pushes this to n=4; keep unit scope quick
        for level in (L0, L1, L2):
            for x in enumerate_monomials(level):
                g = to_graph(x)
                assert is_connected(x) == oracle_is_connected(g), x
                assert is_unilateral(x) == oracle_is_unilateral(g), x


class TestStructuralProperties:
    def test_adding_edges_preserves_connectivity(self):
        from steengraph.graphs import from_graph

        for level in (L0, L1, L2):
            full = set(itertools.combinations(range(level.n + 2), 2))
            for x in enumerate_monomials(level):
                if not is_connected(x):
                    continue
                g = to_graph(x)
                for e in full - g.edges:
                    bigger = from_graph(WoodGraph(level, g.edges | {e}))
                    assert is_connected(bigger)

    def test_unilateral_implies_connected_exhaustive(self):
        for level in (L0, L1, L2, L3):
            for x in enumerate_monomials(level):
                if is_unilateral(x):
                    assert is_connected(x), x


def level_lanes(level, width):
    """(base, connected, unilateral) for each aligned block of 2^width indices of a level."""
    return [
        (base, *lane_verdicts(level, base, width))
        for base in range(0, monomial_count(level), 1 << width)
    ]


class TestLaneVerdicts:
    def test_every_lane_matches_the_integer_tables(self):
        # every block width, down to single lanes, for every monomial up to n=3
        for level in (L0, L1, L2, L3):
            expected = [
                (is_connected(x), is_unilateral(x)) for x in enumerate_monomials(level)
            ]
            for width in range(monomial_count(level).bit_length()):
                for base, connected, unilateral in level_lanes(level, width):
                    assert connected >> (1 << width) == 0 == unilateral >> (1 << width)
                    for t in range(1 << width):
                        lanes = (connected >> t & 1, unilateral >> t & 1)
                        assert lanes == expected[base + t], (level, width, base + t)

    def test_blocks_are_bounded_and_aligned(self):
        assert [block_width(Level(n)) for n in range(6)] == [1, 3, 6, 10, 15, 15]
        with pytest.raises(ValueError):
            lane_verdicts(L2, 0, 7)  # A*(2) has 6 index bits
        with pytest.raises(ValueError):
            lane_verdicts(Level(5), 0, BLOCK_BITS + 1)  # 21 index bits, blocks of 15
        with pytest.raises(ValueError):
            lane_verdicts(L3, 4, 3)
        with pytest.raises(ValueError):
            lane_verdicts(L1, 8, 0)


def dense_boolean_power_sum(a, top):
    """a | a^2 | ... | a^top over lane ints by S_(k+1) = a | a S_k, every entry of every row."""
    s = a
    for _ in range(top - 1):
        s_next = []
        for row in a:
            acc = row
            for r, srow in zip(row, s):
                if r:
                    acc = [t | r & v for t, v in zip(acc, srow)]
            s_next.append(acc)
        s = s_next
    return s


class TestPowerSumEntries:
    # the verdicts AND every entry p < q, so a wrong entry can hide in lanes
    # that another pair already clears; compare the entries themselves
    def test_every_entry_above_the_diagonal_matches_the_dense_sum(self):
        # every level, so the loop bounds meet every vertex count m = 2..8
        rng = random.Random(11)
        for n in range(7):
            level = Level(n)
            m = level.vertex_count
            width = block_width(level)
            blocks = monomial_count(level) >> width
            for block in rng.sample(range(blocks), min(blocks, 3)):
                adj, full = connectivity.edge_lanes(level, block << width, width)
                up = [[e if p < q else 0 for q, e in enumerate(row)] for p, row in enumerate(adj)]
                # each sum gets the symmetric matrix, as lane_verdicts hands it, and the
                # undirected sum its full lanes, past which it copies an entry; the directed
                # dense reference gets the arrows p -> q alone
                for power_sum, reference in (
                    (functools.partial(connectivity._undirected_power_sum, full=full), adj),
                    (connectivity._directed_power_sum, up),
                ):
                    expected = dense_boolean_power_sum(reference, m - 1)
                    got = power_sum(adj)
                    for p in range(m):
                        for q in range(p + 1, m):
                            assert got[p][q] == expected[p][q], (n, block, power_sum, p, q)


class TestCensus:
    # Classical counts, independent of this package: connected labelled
    # graphs on n+2 vertices (OEIS A001187), labelled trees (Cayley,
    # (n+2)^n) and unilateral monomials (every edge p -> p+1 present,
    # the other n(n+1)/2 edges free).
    CONNECTED = [1, 4, 38, 728, 26704]
    TREES = [1, 3, 16, 125, 1296]
    UNILATERAL = [1, 2, 8, 64, 1024]

    def test_whole_level_counts(self):
        for n in range(5):
            level = Level(n)
            width = block_width(level)
            connected = unilateral = trees = 0
            for base, c, u in level_lanes(level, width):
                connected += c.bit_count()
                unilateral += u.bit_count()
                trees += sum(
                    monomial_from_index(level, base + t).edge_count == n + 1
                    for t in range(1 << width)
                    if c >> t & 1
                )
            assert connected == self.CONNECTED[n], n
            assert unilateral == self.UNILATERAL[n] == 2 ** (n * (n + 1) // 2), n
            assert trees == self.TREES[n] == (n + 2) ** n, n

    def test_criterion_counts_at_n5(self):
        # the oracles' census of TestLaneOracles, from the criterion kernel
        level = Level(5)
        connected = unilateral = 0
        for base, c, u in level_lanes(level, BLOCK_BITS):
            connected += c.bit_count()
            unilateral += u.bit_count()
        assert connected == 1866256
        assert unilateral == 32768 == 2**15


def assert_lane_oracles_match_the_searches(level, base, width, lanes_of=range):
    adj, full = oracle_edge_lanes(level, base, width)
    connected = oracle_connected_lanes(adj, full)
    unilateral = oracle_unilateral_lanes(adj, full)
    assert connected >> (1 << width) == 0 == unilateral >> (1 << width)
    for t in lanes_of(1 << width):
        g = to_graph(monomial_from_index(level, base + t))
        lanes = (connected >> t & 1, unilateral >> t & 1)
        assert lanes == (oracle_is_connected(g), oracle_is_unilateral(g)), (level, base + t)


def closed_form_lane(width, b):
    # the lanes t < 2^width with bit b of t set: the run of 2^b ones above 2^b zeros,
    # repeated in each period of 2^(b+1) lanes by a repunit in base 2^(2^(b+1))
    run, period = 1 << b, 2 << b
    repunit = ((1 << (1 << width)) - 1) // ((1 << period) - 1)
    return ((1 << run) - 1 << run) * repunit


def reference_block(level, base, width):
    # block_lanes, edge_lanes and oracle_edge_lanes of a block with no cached table: each
    # lane in closed form, each criterion edge at its index_bit, each oracle edge at the cells
    # of its index_rows entry
    full = (1 << (1 << width)) - 1
    bits = [
        closed_form_lane(width, b) if b < width else full * (base >> b & 1)
        for b in range(sum(level.widths))
    ]
    m = level.vertex_count
    criterion = [[0] * m for _ in range(m)]
    for p, q in itertools.combinations(range(m), 2):
        criterion[p][q] = criterion[q][p] = bits[algebra.index_bit(level, p, q)]
    oracle = [[0] * m for _ in range(m)]
    for lane, rows in zip(bits, index_rows(level)):
        while rows:
            low = rows & -rows
            p, q = divmod(low.bit_length() - 1, m)
            oracle[p][q] |= lane
            rows ^= low
    return (bits, full), (criterion, full), (oracle, full)


def frozen(value):
    return isinstance(value, int) or isinstance(value, tuple) and all(map(frozen, value))


class TestShapeTables:
    """The tables a block reads, built once a process, against a build with no cached table."""

    def test_cached_lane_patterns_are_a_fresh_doubling_build(self):
        for width in range(BLOCK_BITS + 1):
            cached = algebra._index_lanes(width)
            assert cached == algebra._index_lanes.__wrapped__(width), width
            assert cached == tuple(closed_form_lane(width, b) for b in range(width)), width

    @pytest.mark.parametrize("n", [5, 6])
    def test_seeded_blocks_match_a_build_from_the_edge_rules(self, monkeypatch, n):
        monkeypatch.setenv("STEENGRAPH_MAX_N", str(n))
        level = Level(n)
        width = block_width(level)
        rng = random.Random(n)
        for block in rng.sample(range(monomial_count(level) >> width), 8):
            base = block << width
            assert (
                block_lanes(level, base, width),
                connectivity.edge_lanes(level, base, width),
                oracle_edge_lanes(level, base, width),
            ) == reference_block(level, base, width), base

    def test_no_caller_can_change_a_cached_table(self):
        # each cached table is a tuple all the way down, handed as it is to every caller
        widths = range(BLOCK_BITS + 1)
        tables = [algebra._index_lanes(w) for w in widths]
        tables += [structure.popcount_lanes(w) for w in widths]
        for n in range(5):
            level = Level(n)
            tables += [
                connectivity._edge_bits(level),
                graphs._index_cells(level),
                verify._corollary_tables(level),
            ]
        assert all(map(frozen, tables))


class TestLaneOracles:
    def test_lane_patterns_are_the_index_bits(self):
        # bit t of entry b is bit b of t, by a plain loop over every lane
        patterns, full = block_lanes(Level(4), 0, BLOCK_BITS)
        assert len(patterns) == BLOCK_BITS
        assert full == (1 << (1 << BLOCK_BITS)) - 1
        for b, lane in enumerate(patterns):
            assert lane == sum(1 << t for t in range(1 << BLOCK_BITS) if t >> b & 1), b

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
        for block in rng.sample(range(blocks), 3):
            assert_lane_oracles_match_the_searches(
                level, block << BLOCK_BITS, BLOCK_BITS, lambda size: rng.sample(range(size), 2000)
            )

    def test_whole_level_counts_at_n5(self):
        # the census of TestCensus one level up: A001187 and 2^(n(n+1)/2)
        level = Level(5)
        connected = unilateral = 0
        for base in range(0, monomial_count(level), 1 << BLOCK_BITS):
            adj, full = oracle_edge_lanes(level, base, BLOCK_BITS)
            connected += oracle_connected_lanes(adj, full).bit_count()
            unilateral += oracle_unilateral_lanes(adj, full).bit_count()
        assert connected == 1866256
        assert unilateral == 32768 == 2 ** 15

    def test_the_edge_lanes_follow_the_oracle_rows_not_the_index_bits(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the oracle edge lanes read the criterion's edge rule")

        expected = oracle_edge_lanes(L3, 0, 10)
        criterion = connectivity.edge_lanes(L3, 0, 10)
        monkeypatch.setattr(connectivity, "edge_lanes", refused)
        monkeypatch.setattr(connectivity, "index_bit", refused)
        monkeypatch.setattr(algebra, "index_bit", refused)
        assert oracle_edge_lanes(L3, 0, 10) == expected
        # the two edge rules agree on the whole matrix: both triangles and the zero diagonal
        assert criterion == expected
        assert all(expected[0][p][p] == 0 for p in range(5))
