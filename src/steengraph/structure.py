"""Trees, vertex degrees, and Hamilton criteria for monomial graphs.

The tree test combines connectedness with the edge count: a connected
graph on n+2 vertices is a tree exactly when it has n+1 edges, and the
edge count of a monomial graph is the total number of 1s across the
binary expansions of its exponents.  tree_criterion states that rule
once, for is_tree, the analyze report and the tree sweep; the sweep asks
it once for each edge count and reads a block's edge counts off
popcount_lanes.  Vertex ranges and counts come from the level's shape,
stated once in Level.widths.

The tree oracles use no edge count.  oracle_is_tree searches one graph;
oracle_tree_lanes decides a block of graphs at once, one lane each, over
the oracles' edge lanes of graphs.oracle_edge_lanes: a flood fill for
connectedness, and leaf peeling for acyclicity.  oracle_dipath_lanes
ANDs the spine edge lanes of the same block.

Two sufficient conditions for a Hamilton cycle are exposed side by
side.  `paper_hamilton_condition` bounds every vertex degree below by
n/2; `dirac_condition` uses (n+2)/2, i.e. half the number of vertices,
which is the classical bound.  They differ, and the exhaustive
verifier reports which one is actually sound on these graphs.  Both
comparisons are done in integers (2*degree against n, resp. n+2), over
degree_table, the one per-monomial degree reader: it reads every
vertex's degrees in one pass over the factors of x, and degrees(x, p)
is its row p.  Two routes that share no code are the arbiters:
oracle_hamilton_cycle searches one graph by backtracking, and
oracle_cycle_lanes decides a block of graphs at once.

Exhaustive sweeps decide both bounds for a block of 2^width monomials at
once with degree_bound_lanes.  It reads the index bits, through the
edge lane ints of connectivity.edge_lanes, not the oracle's rows: each
vertex counts its edges up to the bound with an "at least j" chain of
lane ints, and the vertices' chains are ANDed.  The sweeps cross-check
it against the per-monomial conditions on three indices a block.

The directed-path question is far more rigid: because every edge
points toward its larger endpoint, a spanning directed path must visit
the vertices in increasing order, so it exists exactly when all the
consecutive edges {p, p+1} are present, i.e. when the exponent of xi_1
is 2^(n+1) - 1.
"""

from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from .algebra import BLOCK_BITS, Level, Monomial
from .connectivity import edge_lanes, is_connected, oracle_connected_lanes, oracle_is_connected
from .graphs import WoodGraph


class DegreeProfile(NamedTuple):
    """In/out/total degree of one vertex in the directed view of a monomial graph."""

    vertex: int
    out_degree: int
    in_degree: int
    degree: int


def degrees(x: Monomial, p: int) -> DegreeProfile:
    """Degree data of vertex p, row p of degree_table: arrows out go to larger vertices."""
    x.level.check_vertex(p)
    return degree_table(x)[p]


def degree_table(x: Monomial) -> list:
    """Degree profiles of all n+2 vertices in index order, in one pass over the factors of x."""
    m = x.level.vertex_count
    out, inn = [0] * m, [0] * m
    for i, j in x.dyadic_bits():  # the factor xi_i^(2^j) is the arrow j -> i+j
        out[j] += 1
        inn[i + j] += 1
    return [DegreeProfile(p, o, d, o + d) for p, (o, d) in enumerate(zip(out, inn))]


def tree_criterion(level: Level, edge_count: int, connected: bool) -> bool:
    """The tree rule: a graph on a level's m vertices is a tree iff connected with m-1 edges."""
    return connected and edge_count == level.vertex_count - 1


def is_tree(x: Monomial) -> bool:
    """True iff the graph of x is a tree: connected with exactly n+1 edges."""
    return tree_criterion(x.level, x.edge_count, is_connected(x))


def oracle_is_acyclic(g: WoodGraph) -> bool:
    """Search over neighbour masks from each unseen vertex finds no cycle.

    A vertex taken from the frontier has seen at most one of its
    neighbours, the one it was reached from, unless an edge closes a cycle.
    """
    rows, m = g.rows, g.vertex_count
    everyone = (1 << m) - 1
    seen = 0
    while seen != everyone:
        frontier = everyone & ~seen
        frontier &= -frontier  # the lowest unseen vertex roots the next search
        seen |= frontier
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            neighbours = rows >> (low.bit_length() - 1) * m & everyone
            if (neighbours & seen).bit_count() > 1:
                return False
            new = neighbours & ~seen
            seen |= new
            frontier |= new
    return True


def oracle_is_tree(g: WoodGraph) -> bool:
    """Tree test by search alone: connected (breadth-first) and acyclic (depth-first).

    Deliberately does not use the edge count, so the classical
    edge-count characterization stays independently testable.
    """
    return oracle_is_connected(g) and oracle_is_acyclic(g)


def oracle_tree_lanes(adj: list, full: int) -> int:
    """Lanes whose graph is a tree, by search alone: connected, and leaf peeling empties it.

    adj and full are as for connectivity.oracle_connected_lanes.  live[p]
    holds the lanes where vertex p survives: pass after pass, each vertex
    keeps only the lanes where it has at least 2 live neighbours, until a
    pass changes nothing.  What survives is the 2-core, which a forest
    does not have.  Like oracle_is_tree, it reads no edge count.
    """
    live = [full] * len(adj)
    changed = True
    while changed:
        changed = False
        for p, row in enumerate(adj):
            one = two = 0  # lanes with at least one, at least two live neighbours of p
            for q, e in enumerate(row):
                v = live[q] & e
                two |= one & v
                one |= v
            kept = live[p] & two
            if kept != live[p]:
                live[p] = kept
                changed = True
    cyclic = 0
    for v in live:
        cyclic |= v
    return oracle_connected_lanes(adj, full) & ~cyclic


@lru_cache(maxsize=BLOCK_BITS + 1)
def popcount_lanes(width: int) -> tuple:
    """Entry c has bit t set exactly when t has c set bits, for t < 2^width.

    Built by the recurrence over width: t below 2^w has the popcounts it
    has below 2^(w-1), and t + 2^(w-1) has one more.  The table depends on
    the width alone, so one per block width is kept.
    """
    counts = (1,)
    for w in range(width):
        run = 1 << w
        counts = tuple(low | high << run for low, high in zip(counts + (0,), (0,) + counts))
    return counts


def degree_bound_holds(level: Level, profiles: Iterable[DegreeProfile], extra: int) -> bool:
    """2*degree >= n + extra at every vertex; never at n = 0.

    profiles holds the degree profiles of every vertex of a monomial at
    this level, as degree_table gives them.
    """
    level._require_truncated()
    if level.n == 0:
        return False
    return all(2 * d.degree >= level.n + extra for d in profiles)


def degree_bound_lanes(level: Level, base: int, width: int, extra: int) -> int:
    """Lanes where 2*degree >= n + extra at every vertex, over a block of 2^width indices.

    Bit t is degree_bound_holds for monomial_from_index(level, base + t);
    base and width follow the rule of connectivity.edge_lanes.  Each vertex
    runs an "at least k" chain over its edge lanes, k = ceil((n + extra)/2):
    after an edge e, at_least[j] |= at_least[j-1] & e.  The bound holds
    where every vertex's chain reaches k; never at n = 0.
    """
    adj, full = edge_lanes(level, base, width)
    if level.n == 0:
        return 0
    k = -(-(level.n + extra) // 2)
    holds = full
    for row in adj:
        at_least = [full] + [0] * k
        for e in row:
            if e:
                for j in range(k, 0, -1):
                    at_least[j] |= at_least[j - 1] & e
        holds &= at_least[k]
        if not holds:
            break
    return holds


def paper_hamilton_condition(x: Monomial) -> bool:
    """Every vertex degree at least n/2 (and n > 0), compared exactly as 2*degree >= n."""
    return degree_bound_holds(x.level, degree_table(x), 0)


def dirac_condition(x: Monomial) -> bool:
    """Every vertex degree at least half the vertex count (n+2)/2, as 2*degree >= n+2."""
    return degree_bound_holds(x.level, degree_table(x), 2)


def is_hamilton_cycle(g: WoodGraph, seq: Sequence[int]) -> bool:
    """Validate a witness: seq visits every vertex exactly once and closes up along edges."""
    m = g.vertex_count
    if len(seq) != m or set(seq) != set(range(m)) or m < 3:
        return False
    return all(g.has_edge(seq[k], seq[(k + 1) % m]) for k in range(m))


def oracle_hamilton_cycle(g: WoodGraph) -> Optional[Tuple[int, ...]]:
    """Backtracking search for a Hamilton cycle; None when there is none.

    The witness starts at vertex 0 and is the lexicographically
    smallest such sequence, with the reflection duplicate removed by
    requiring the second vertex to be smaller than the last: the
    candidates after the last vertex are its unused neighbours, lowest
    first.

    Two rules cut branches that cannot succeed; neither reorders the
    candidates, so the first cycle found, the witness, is the one a plain
    search finds.
    - A state is the set of used vertices and the last one.  Each state
      whose extension failed is remembered for the call, keyed by
      `used * m + last`, and is not entered again.  The second vertex
      enters a state's outcome only through the closing test
      `seq[1] < last`, and second vertices are tried in increasing
      order, so a state that failed for one second vertex fails for
      every later one.  Each state is entered at most once: at most
      2^(m-1)·m states (the Bellman / Held-Karp subset bound).
    - Once the search leaves `last`, it is interior to the cycle.  Every
      unused neighbour w of `last` then needs two cycle edges into the
      vertices still open, the unused ones and 0.  A w short of two must
      be the next vertex; two such w and no step can succeed.  Only the
      neighbours of `last` lost an open vertex, so only they are checked.
    """
    m = g.vertex_count
    if m < 3:
        return None
    everyone = (1 << m) - 1
    masks = [g.rows >> p * m & everyone for p in range(m)]
    if any(mask.bit_count() < 2 for mask in masks):
        return None
    seq = [0]
    dead = set()  # used * m + last of each state whose extension failed

    def extend(used: int) -> bool:
        last = seq[-1]
        if used == everyone:
            return seq[1] < last and masks[last] & 1 == 1
        free = masks[last] & ~used
        if free & (free - 1):  # the degree rule narrows a choice of two or more
            open_ends = everyone & ~used | 1
            forced = 0
            rest = free
            while rest:
                w = rest & -rest
                rest ^= w
                if (masks[w.bit_length() - 1] & open_ends).bit_count() < 2:
                    forced |= w
            if forced:
                free = forced if forced & (forced - 1) == 0 else 0
        while free:
            low = free & -free
            free ^= low
            nxt = low.bit_length() - 1
            state = (used | low) * m + nxt
            if state in dead:
                continue
            seq.append(nxt)
            if extend(used | low):
                return True
            seq.pop()
            dead.add(state)
        return False

    return tuple(seq) if extend(1) else None


def oracle_cycle_lanes(adj: list, full: int) -> int:
    """Lanes with a Hamilton cycle: an OR over the cycles of K_m of the AND of their edge lanes.

    adj and full are as for connectivity.oracle_connected_lanes.  Each of
    the (m-1)!/2 labelled cycles is listed once, from vertex 0 with its
    second vertex below its last.  A path from 0 passes the AND of its edge
    lanes to the cycles that extend it; a path whose AND is 0 stops.
    """
    m = len(adj)
    cycles = 0
    # a path from 0: its second vertex, its last vertex, the vertices it has not visited, its lanes
    paths = [(q, q, (1 << m) - 2 & ~(1 << q), full & adj[0][q]) for q in range(1, m)]
    while paths:
        second, last, rest, lanes = paths.pop()
        if rest:
            for q in range(1, m):
                if rest >> q & 1 and (path := lanes & adj[last][q]):
                    paths.append((second, q, rest & ~(1 << q), path))
        elif second < last:
            cycles |= lanes & adj[last][0]
    return cycles


def dipath_criterion(level: Level, r1: int) -> bool:
    """The paper's spanning-dipath test on the exponent r_1 of xi_1: r_1 = 2^(n+1) - 1."""
    return r1 == level.exponent_bound(1)


def has_hamilton_directed_path(x: Monomial) -> bool:
    """True iff the digraph of x has a spanning directed path.

    Equivalent to the exponent of xi_1 being 2^(n+1) - 1: the
    orientation is increasing, so the only candidate is 0,1,...,n+1 and
    it needs every consecutive edge, i.e. every bit of r_1.
    """
    return dipath_criterion(x.level, x.exponent(1))


def oracle_hamilton_directed_path(g: WoodGraph) -> Optional[Tuple[int, ...]]:
    """Spanning directed path by direct check of the consecutive edges {p, p+1}, as one mask."""
    rows, m = g.rows, g.vertex_count
    # edge {p, p+1} is bit p*(m+1) + 1, so the spine is a geometric series in 2^(m+1)
    spine = ((1 << (m - 1) * (m + 1)) - 1) // ((1 << m + 1) - 1) << 1
    return tuple(range(m)) if rows & spine == spine else None


def oracle_dipath_lanes(adj: list, full: int) -> int:
    """Lanes with a spanning directed path: the AND of the m-1 spine edge lanes adj[p][p+1].

    adj and full are as for connectivity.oracle_connected_lanes.
    """
    for p in range(len(adj) - 1):
        full &= adj[p][p + 1]
    return full


def format_cycle(seq: Sequence[int]) -> str:
    """Render a cycle by dyadic vertex labels, repeating the start: 2-4-16-1-8-2."""
    labels = [str(1 << p) for p in seq]
    labels.append(str(1 << seq[0]))
    return "-".join(labels)


def format_directed_path(seq: Sequence[int]) -> str:
    """Render a directed path by dyadic vertex labels: 1->2->4->8->16."""
    return "->".join(str(1 << p) for p in seq)
