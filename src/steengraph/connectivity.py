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

Both tables follow S_1 = A, S_(k+1) = A + A S_k on the 0/1 rows of A:
row p of A S_k is the sum of the rows S_k[j] at the neighbours j of p.
The entries are exact ints, the route is the same for both orientations,
and analyze builds each table once and reads its verdicts off it.

Exhaustive sweeps decide a whole block of monomials at once with
lane_verdicts: the same recurrence over the Boolean semiring, S_(k+1) =
A | A S_k (positivity of a sum of nonnegative integers is the OR of
their positivity), with each matrix entry a big int holding one bit, or
lane, per monomial of the block.  It shares no code with the integer
tables, which serve single monomials (analyze) and the sampled
cross-checks of the sweeps.

The oracle_* functions decide the same questions by direct graph
search, sharing no code with the matrix route.
"""

from functools import lru_cache
from typing import Dict, Tuple

from .algebra import Level, Monomial, index_bit, monomial_count
from .graphs import WoodGraph, adjacency_matrix

# A block holds at most 2^15 monomials, so a lane int is at most 4 KiB at any n.
BLOCK_BITS = 15


class WalkCountTable:
    """Walk counts indexed by vertex pairs (p, q) with 0 <= p < q <= n+1."""

    __slots__ = ("level", "values")

    def __init__(self, level, values: Dict[Tuple[int, int], int]):
        expected = {
            (p, q)
            for p in range(level.n + 2)
            for q in range(p + 1, level.n + 2)
        }
        if set(values) != expected:
            raise ValueError(
                f"walk count table needs exactly the pairs p<q in 0..{level.n + 1}"
            )
        self.level = level
        self.values = dict(values)

    def __getitem__(self, pair: Tuple[int, int]) -> int:
        return self.values[pair]

    def items(self):
        return sorted(self.values.items())

    @property
    def all_positive(self) -> bool:
        return all(v > 0 for v in self.values.values())

    def as_records(self) -> list:
        """JSON-friendly rows [{'p': p, 'q': q, 'value': v}, ...] in (p, q) order."""
        return [{"p": p, "q": q, "value": v} for (p, q), v in self.items()]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WalkCountTable)
            and self.level == other.level
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"WalkCountTable({self.level!r}, {dict(self.items())!r})"


def _walk_power_sum(a: tuple, top: int) -> list:
    # a + a^2 + ... + a^top by S_(k+1) = a + a S_k: row p adds the rows of S_k at p's neighbours
    neighbours = [[j for j, v in enumerate(row) if v] for row in a]
    s = list(a)
    for _ in range(top - 1):
        s = [list(map(sum, zip(row, *[s[j] for j in nbrs]))) for row, nbrs in zip(a, neighbours)]
    return s


def _table_from_matrix(x: Monomial, directed: bool) -> WalkCountTable:
    level = x.level
    a = adjacency_matrix(x, directed=directed)
    s = _walk_power_sum(a, level.n + 1)
    m = level.n + 2
    values = {(p, q): s[p][q] for p in range(m) for q in range(p + 1, m)}
    return WalkCountTable(level, values)


def connection_numbers(x: Monomial) -> WalkCountTable:
    """Numbers of walks of length <= n+1 between vertex pairs of the graph of x."""
    return _table_from_matrix(x, directed=False)


def unilateral_numbers(x: Monomial) -> WalkCountTable:
    """Numbers of directed paths between vertex pairs of the digraph of x."""
    return _table_from_matrix(x, directed=True)


def is_connected(x: Monomial) -> bool:
    """True iff every connection number is positive."""
    return connection_numbers(x).all_positive


def is_unilateral(x: Monomial) -> bool:
    """True iff every unilateral number is positive."""
    return unilateral_numbers(x).all_positive


@lru_cache(maxsize=1)
def _lane_patterns() -> tuple:
    """Entry b has bit t set exactly when bit b of t is set, for t < 2^BLOCK_BITS."""
    lanes = 1 << BLOCK_BITS
    ones = (1 << lanes) - 1
    patterns = []
    for b in range(BLOCK_BITS):
        run = 1 << b
        # one 1 per period of 2*run lanes, widened to the upper run of each period
        patterns.append(ones // ((1 << 2 * run) - 1) * (((1 << run) - 1) << run))
    return tuple(patterns)


def _boolean_power_sum(a: list, top: int) -> list:
    # a | a^2 | ... | a^top over lane ints by S_(k+1) = a | a S_k: row p ORs in a[p][j] & S_k[j]
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


def _every_pair(s: list, full: int) -> int:
    # lanes where every entry above the diagonal is set
    for p, row in enumerate(s):
        for v in row[p + 1:]:
            full &= v
    return full


def block_width(level: Level) -> int:
    """Index bits spanned by the widest block at this level: all of them, at most BLOCK_BITS."""
    return min(BLOCK_BITS, monomial_count(level).bit_length() - 1)


def lane_verdicts(level: Level, base: int, width: int) -> Tuple[int, int]:
    """Connectedness and unilaterality of the 2^width monomials with indices base, base+1, ...

    Returns the lane masks (connected, unilateral): bit t of each is the
    verdict for monomial_from_index(level, base + t).  base must be a
    multiple of 2^width, and width at most block_width(level).  Edge (p, q) sits on index bit b = index_bit(p, q):
    for b < width its lane int is a fixed pattern, above that it is all
    ones or zero for the whole block.  The verdicts are the positivity of
    every pair p < q in A | A^2 | ... | A^(n+1), for the undirected and
    the directed adjacency matrix, by the recurrence S_(k+1) = A | A S_k.
    """
    level._require_truncated()
    lanes = 1 << width
    count = monomial_count(level)
    widest = block_width(level)
    if not 0 <= width <= widest:
        raise ValueError(f"block width {width} outside 0..{widest} at n={level.n}")
    if base % lanes or not 0 <= base < count:
        raise ValueError(f"block base {base} is not a multiple of {lanes} in 0..{count - 1}")
    full = (1 << lanes) - 1
    patterns = _lane_patterns()
    m = level.n + 2
    up = [[0] * m for _ in range(m)]
    for p in range(m):
        for q in range(p + 1, m):
            b = index_bit(level, p, q)
            up[p][q] = patterns[b] & full if b < width else full * (base >> b & 1)
    both = [[up[p][q] | up[q][p] for q in range(m)] for p in range(m)]
    top = level.n + 1
    return (
        _every_pair(_boolean_power_sum(both, top), full),
        _every_pair(_boolean_power_sum(up, top), full),
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
