"""Connectedness and unilaterality via walk counts.

For a monomial x of A*(n) with undirected adjacency matrix A, the
connection number C(p,q) is the (p,q) entry of A + A^2 + ... + A^(n+1),
i.e. the number of walks from p to q of length at most n+1.  Since any
two vertices joined by a walk are joined by one of length <= n+1
(there are only n+2 vertices), the graph is connected exactly when
every C(p,q) with p < q is positive.

The unilateral numbers U(p,q) are the same power sum built from the
directed adjacency matrix (edges oriented toward the larger vertex).
That digraph is acyclic with a topological order given by the vertex
indices, so every directed walk is a path, and U(p,q) counts directed
paths from p to q.  The digraph is unilateral (some directed path
joins each pair, in one direction or the other) exactly when every
U(p,q) with p < q is positive: q can never reach p < q.

Every arrow raises the vertex index, so the only directed path from p
to p+1 is the edge itself.  Hence the digraph is unilateral exactly when
every edge {p, p+1} is present, i.e. when r_1 = 2^(n+1) - 1 (the
spanning-dipath criterion of structure.py): 2^(n(n+1)/2) monomials of
each level, one in every 2^(n+1).

Each orientation has one recurrence, used in both representations
below, the packed integer tables and the Boolean lane kernel.  The
undirected sum is m-2 steps of S <- A + A S from S = A.  The directed
sum is the one solution of S = A + A S, solved from the last row up:
A is strictly upper triangular, so A^m = 0 and the solution is
A + A^2 + ... + A^(m-1), and row p of A S reads only the rows above p.
A reverse sweep would count other walks in the undirected graph, which
has arrows both ways.

Both tables are packed the same way: row p of a table is one int whose
field of w bits at bit q*w holds entry (p, q).  Row p of A S is the sum
of the rows S[j] at the neighbours j of p, so an undirected step is one
big-int add per neighbour, and the directed row p is row p of A plus
the final rows of its out-neighbours, one sum per vertex.  The
neighbour lists and the rows of A are read off the factors of x in one
pass: each pair (i, j) of dyadic_bits is the arrow j -> i+j, plus
i+j -> j when undirected.  No 0/1 matrix is built;
graphs.adjacency_matrix is the tests' reference for these tables.  No
field carries into the next: an entry counts walks of length at most
m-1 = n+1 in a graph on m vertices, each vertex of degree at most m-1,
so it is below m^m, and w = (m^m).bit_length().  Every partial sum of a
row, a Jacobi step's or the back-substitution's, adds nonnegative fields,
each at most its final entry.  Only the fields of the pairs p < q are
unpacked, in (p, q) order, at the shifts q*w of a layout that depends on
m alone and is built once a process for each m (_record_layout, a bounded
cache).  walk_records is the one reader of the rows:
it gives a report's C and U records, so analyze builds each table once
and reads its verdicts off those records.  connection_numbers and
unilateral_numbers key the same records by (p, q), and is_connected and
is_unilateral, the sweeps' cross-checks, read positivity off them.

Exhaustive sweeps decide a whole block of monomials at once with
lane_verdicts: the same power sums over the Boolean semiring (positivity
of a sum of nonnegative integers is the OR of their positivity), with
each matrix entry a big int holding one bit, or lane, per monomial of
the block.  Only the entries p < q are read, so only those are computed.
The undirected steps S <- A | A S run above the diagonal and mirror each
entry below it.  A step only adds lanes, so an entry with every lane of
the block set is copied into the next step, not recomputed.  Their
diagonal stays 0, because the diagonal never adds a lane to an entry
off it: the term j = q of entry (p, q) is A[p][q] & S[q][q], inside
A[p][q], and A[p][p] = 0.  The directed S = A | A S is solved one entry
at a time, from row m-3 up: entry (p, q) is A[p][q] | the OR over
p < j < q of A[p][j] & S[j][q], and rows m-2 and m-1, like every entry
(p, p+1), are those of A.  The kernel shares
no code with the integer tables, which serve single monomials (analyze)
and the sampled cross-checks of the sweeps.  edge_lanes builds the lane
int of every edge of a block once, on both triangles: the undirected A.
The index bit of each edge depends on the level alone, so that map is
built once a process for each level (_edge_bits, a bounded cache).
The directed A is its upper triangle, the only part the directed solve
reads.  structure.degree_bound_lanes reads its rows too.

The oracle_* functions decide the same questions by direct graph
search, sharing no code with the matrix route.  oracle_is_connected and
oracle_is_unilateral search one WoodGraph.  oracle_connected_lanes and
oracle_unilateral_lanes run the same searches on a whole block at once,
one lane per monomial, over the lane ints of graphs.oracle_edge_lanes:
those come from the oracles' own edge rule, graphs.index_rows, not from
edge_lanes or index_bit.  Neither reads an edge count or a power sum.
"""

from functools import lru_cache, reduce
from itertools import repeat
from operator import and_, itemgetter, or_
from typing import Tuple

from .algebra import DEFAULT_MAX_N, Level, Monomial, block_lanes, index_bit
from .graphs import WoodGraph


def _field_width(m: int) -> int:
    """Bits per field of a packed walk-count row on m vertices: every entry is below m^m."""
    return (m**m).bit_length()


def _walk_table(x: Monomial, directed: bool) -> Tuple[list, int]:
    # (rows, w): row p holds entry (p, q) in its field of w bits at bit q*w
    m = x.level.vertex_count
    w = _field_width(m)
    neighbours = [[] for _ in range(m)]
    ones = [0] * m  # row p of A: field q is 1 for each neighbour q of p
    for i, j in x.dyadic_bits():  # the factor xi_i^(2^j) is the edge j -> i+j
        neighbours[j].append(i + j)
        ones[j] += 1 << (i + j) * w
        if not directed:
            neighbours[i + j].append(j)
            ones[i + j] += 1 << j * w
    s = ones
    if directed:
        # S = A + A S, solved from vertex m-1 down: row p sums the final rows above it
        for p in range(m - 1, -1, -1):
            s[p] = sum(map(s.__getitem__, neighbours[p]), s[p])
    else:
        for _ in range(m - 2):  # S_1 = A, then m-2 more steps to S_(m-1)
            s = list(map(sum, map(map, repeat(s.__getitem__), neighbours), ones))
    return s, w


@lru_cache(maxsize=DEFAULT_MAX_N + 1)
def _record_layout(m: int) -> tuple:
    # (p, q, q*w) for every pair p < q of m vertices in (p, q) order: where walk_records reads
    # entry (p, q) of a packed row; one per vertex count up to the default cap is kept
    w = _field_width(m)
    return tuple((p, q, q * w) for p in range(m) for q in range(p + 1, m))


def walk_records(x: Monomial, directed: bool) -> list:
    """A walk table as report rows [{"p": p, "q": q, "value": v}, ...], p < q in (p, q) order.

    directed=False gives the connection numbers, True the unilateral
    numbers; each row is read straight off the packed table, at the
    shifts of the vertex count's one record layout.
    """
    rows, w = _walk_table(x, directed)
    mask = (1 << w) - 1
    return [
        {"p": p, "q": q, "value": rows[p] >> shift & mask}
        for p, q, shift in _record_layout(len(rows))
    ]


def connection_numbers(x: Monomial) -> dict:
    """{(p, q): walks of length <= n+1 from p to q} in the graph of x, for p < q in (p, q) order."""
    return {(r["p"], r["q"]): r["value"] for r in walk_records(x, directed=False)}


def unilateral_numbers(x: Monomial) -> dict:
    """{(p, q): directed paths from p to q} in the digraph of x, for p < q in (p, q) order."""
    return {(r["p"], r["q"]): r["value"] for r in walk_records(x, directed=True)}


def is_connected(x: Monomial) -> bool:
    """True iff every connection number is positive."""
    return all(r["value"] for r in walk_records(x, directed=False))


def is_unilateral(x: Monomial) -> bool:
    """True iff every unilateral number is positive."""
    return all(r["value"] for r in walk_records(x, directed=True))


def _undirected_power_sum(a: list, full: int) -> list:
    # a | a^2 | ... | a^(m-1) over lane ints for a symmetric a with a zero diagonal: m-2 steps
    # of S <- a | a S above the diagonal, mirrored below it; the diagonal stays 0.
    # Entry (p, q) of a S is row p of a ANDed into row q of the symmetric S.  Each step only
    # adds lanes, so an entry that has every lane of full set is copied, not recomputed
    m = len(a)
    s = a
    for _ in range(m - 2):
        s_next = [[0] * m for _ in range(m)]
        for p, row in enumerate(a):
            for q in range(p + 1, m):
                v = s[p][q]
                if v != full:
                    v = reduce(or_, map(and_, row, s[q]), row[q])
                s_next[p][q] = s_next[q][p] = v
        s = s_next
    return s


def _directed_power_sum(a: list) -> list:
    # the one solution of S = a | a S over lane ints for the arrows p -> q of a, from the last
    # row up: entry (p, q) reads a[p][j] and S[j][q] for p < j < q only, so only the entries
    # above the diagonal are read or solved; rows m-2 and m-1 are a's own
    m = len(a)
    s = [row[:] for row in a]
    for p in range(m - 3, -1, -1):
        row = a[p]
        for q in range(p + 2, m):
            s[p][q] = reduce(or_, map(and_, row[p + 1:q], map(itemgetter(q), s[p + 1:q])), row[q])
    return s


def _every_pair(s: list, full: int) -> int:
    # lanes where every entry above the diagonal is set
    for p, row in enumerate(s):
        for v in row[p + 1:]:
            full &= v
    return full


def edge_lanes(level: Level, base: int, width: int) -> Tuple[list, int]:
    """Lane ints of the edges over the 2^width monomials with indices base, base+1, ...

    Returns (adj, full): adj[p][q] has bit t set exactly when
    monomial_from_index(level, base + t) has edge (p, q), on both
    triangles, with a zero diagonal, and full has all 2^width lanes set.
    base and width follow the rule of block_lanes.  Edge (p, q) is the
    lane of index bit index_bit(p, q), read from the level's one map of
    those bits (_edge_bits).
    """
    bits, full = block_lanes(level, base, width)
    m = level.vertex_count
    adj = [[0] * m for _ in range(m)]
    for p, q, b in _edge_bits(level):
        adj[p][q] = adj[q][p] = bits[b]
    return adj, full


@lru_cache(maxsize=DEFAULT_MAX_N + 1)
def _edge_bits(level: Level) -> tuple:
    # (p, q, index_bit(level, p, q)) for every edge p < q of the level; one per level up to
    # the default cap is kept
    m = level.vertex_count
    return tuple((p, q, index_bit(level, p, q)) for p in range(m) for q in range(p + 1, m))


def lane_verdicts(level: Level, base: int, width: int) -> Tuple[int, int]:
    """Connectedness and unilaterality of the 2^width monomials with indices base, base+1, ...

    Returns the lane masks (connected, unilateral): bit t of each is the
    verdict for monomial_from_index(level, base + t), over the edge lanes
    of edge_lanes, which states the rule for base and width.  The verdicts
    are the positivity of every pair p < q in A | A^2 | ... | A^(n+1), for
    the undirected and the directed adjacency matrix, and only those
    entries are computed.  Both sums read the one symmetric lane matrix of
    edge_lanes, the directed sum only its upper triangle.  Each
    orientation has the recurrence of its integer table: the undirected
    sum is m-2 steps of S <- A | A S, with its diagonal at 0, and the
    directed sum is S = A | A S, solved from the last row up.
    """
    adj, full = edge_lanes(level, base, width)
    return (
        _every_pair(_undirected_power_sum(adj, full), full),
        _every_pair(_directed_power_sum(adj), full),
    )


def oracle_is_connected(g: WoodGraph) -> bool:
    """Breadth-first search from vertex 0 over neighbour masks must reach all n+2 vertices.

    Each step takes the lowest vertex f & -f of the frontier f.
    """
    rows, m = g.rows, g.vertex_count
    everyone = (1 << m) - 1
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows >> (low.bit_length() - 1) * m & everyone & ~seen
        seen |= new
        frontier |= new
    return seen == everyone


def oracle_is_unilateral(g: WoodGraph) -> bool:
    """Reach closure of the increasing orientation; each pair must be joined one way.

    Reach masks are built in reverse vertex order (vertex indices are a
    topological order, since every edge points upward).  So q > p never
    reaches p, and the pair is joined exactly when p reaches q: reach[p]
    must hold every vertex from p up.
    """
    rows, m = g.rows, g.vertex_count
    everyone = (1 << m) - 1
    reach = [0] * m
    for p in range(m - 1, -1, -1):
        r = 1 << p
        later = (rows >> p * m & everyone) >> (p + 1)  # bit t: the arrow p -> p+1+t
        while later:
            low = later & -later
            later ^= low
            r |= reach[low.bit_length() + p]
        if r >> p != everyone >> p:
            return False
        reach[p] = r
    return True


def oracle_connected_lanes(adj: list, full: int) -> int:
    """Lanes whose graph is connected: a flood fill from vertex 0 must reach every vertex.

    adj[p][q] is the lane int of edge (p, q), on both triangles, and full
    has every lane set (graphs.oracle_edge_lanes).  reach[q] holds the
    lanes where the fill has reached q: reach[q] |= reach[p] & adj[p][q],
    pass after pass until a pass changes nothing.
    """
    m = len(adj)
    reach = [full] + [0] * (m - 1)
    changed = True
    while changed:
        changed = False
        for p, row in enumerate(adj):
            from_p = reach[p]
            for q, e in enumerate(row):
                new = reach[q] | from_p & e
                if new != reach[q]:
                    reach[q] = new
                    changed = True
    for r in reach:
        full &= r
    return full


def oracle_unilateral_lanes(adj: list, full: int) -> int:
    """Lanes whose increasing orientation is unilateral: the closure of oracle_is_unilateral.

    adj and full are as for oracle_connected_lanes; only the upper
    triangle, the arrows p -> q with p < q, is read.  reach[p][v] holds the
    lanes where p reaches v, built in reverse vertex order; each pair is
    joined where p reaches q.  It stops once no lane is left.
    """
    m = len(adj)
    reach = [None] * m
    for p in range(m - 1, -1, -1):
        row = [0] * m
        row[p] = full
        for q in range(p + 1, m):
            e = adj[p][q]
            if e:
                for v in range(q, m):  # q reaches nothing below itself
                    row[v] |= e & reach[q][v]
        for v in row[p + 1:]:
            full &= v
        if not full:
            return 0
        reach[p] = row
    return full
