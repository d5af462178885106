"""Trees, vertex degrees, and Hamilton criteria for monomial graphs.

The tree test combines connectedness with the edge count: a connected
graph on n+2 vertices is a tree exactly when it has n+1 edges, and the
edge count of a monomial graph is the total number of 1s across the
binary expansions of its exponents.

Two sufficient conditions for a Hamilton cycle are exposed side by
side.  `paper_hamilton_condition` bounds every vertex degree below by
n/2; `dirac_condition` uses (n+2)/2, i.e. half the number of vertices,
which is the classical bound.  They differ, and the exhaustive
verifier reports which one is actually sound on these graphs; the
brute-force searchers here are the arbiters.  Both comparisons are
done in integers (2*degree against n, resp. n+2).

The directed-path question is far more rigid: because every edge
points toward its larger endpoint, a spanning directed path must visit
the vertices in increasing order, so it exists exactly when all the
consecutive edges {p, p+1} are present, i.e. when the exponent of xi_1
is 2^(n+1) - 1.
"""

from typing import NamedTuple, Optional, Sequence, Tuple

from .algebra import Level, Monomial
from .connectivity import is_connected, oracle_is_connected
from .graphs import WoodGraph


class DegreeProfile(NamedTuple):
    """In/out/total degree of one vertex in the directed view of a monomial graph."""

    vertex: int
    out_degree: int
    in_degree: int
    degree: int


def degrees(x: Monomial, p: int) -> DegreeProfile:
    """Degree data of vertex p: arrows out go to larger vertices, arrows in come from smaller."""
    level = x.level
    level._require_truncated()
    if not 0 <= p <= level.n + 1:
        raise ValueError(f"vertex index {p} out of range 0..{level.n + 1}")
    # edge (p, p+k) is bit p of r_k, edge (p-k, p) is bit p-k of r_k
    out = sum(x.exponent(k) >> p & 1 for k in range(1, level.n + 2 - p))
    inn = sum(x.exponent(k) >> (p - k) & 1 for k in range(1, p + 1))
    return DegreeProfile(p, out, inn, out + inn)


def degree_table(x: Monomial) -> list:
    """Degree profiles of all n+2 vertices in index order."""
    return [degrees(x, p) for p in range(x.level.n + 2)]


def is_tree(x: Monomial) -> bool:
    """True iff the graph of x is a tree: connected with exactly n+1 edges."""
    if x.edge_count != x.level.n + 2 - 1:
        return False
    return is_connected(x)


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


def _degree_bound_holds(x: Monomial, extra: int) -> bool:
    """2*degree >= n + extra at every vertex, stopping at the first one below; never at n = 0."""
    level = x.level
    level._require_truncated()
    if level.n == 0:
        return False
    return all(2 * degrees(x, p).degree >= level.n + extra for p in range(level.n + 2))


def paper_hamilton_condition(x: Monomial) -> bool:
    """Every vertex degree at least n/2 (and n > 0), compared exactly as 2*degree >= n."""
    return _degree_bound_holds(x, 0)


def dirac_condition(x: Monomial) -> bool:
    """Every vertex degree at least half the vertex count (n+2)/2, as 2*degree >= n+2."""
    return _degree_bound_holds(x, 2)


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
    """
    m = g.vertex_count
    if m < 3:
        return None
    masks = [g.rows >> p * m & ((1 << m) - 1) for p in range(m)]
    if any(mask.bit_count() < 2 for mask in masks):
        return None
    seq = [0]

    def extend(used: int) -> bool:
        last = seq[-1]
        if len(seq) == m:
            return seq[1] < last and masks[last] & 1 == 1
        free = masks[last] & ~used
        while free:
            low = free & -free
            free ^= low
            seq.append(low.bit_length() - 1)
            if extend(used | low):
                return True
            seq.pop()
        return False

    return tuple(seq) if extend(1) else None


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
    """Spanning directed path by direct check of the consecutive-edge bits {p, p+1}."""
    rows, m = g.rows, g.vertex_count
    # edge {p, p+1} is bit p*m + p+1 = p*(m+1) + 1
    if all(rows >> (p * (m + 1) + 1) & 1 for p in range(m - 1)):
        return tuple(range(m))
    return None


def format_cycle(seq: Sequence[int]) -> str:
    """Render a cycle by dyadic vertex labels, repeating the start: 2-4-16-1-8-2."""
    labels = [str(1 << p) for p in seq]
    labels.append(str(1 << seq[0]))
    return "-".join(labels)


def format_directed_path(seq: Sequence[int]) -> str:
    """Render a directed path by dyadic vertex labels: 1->2->4->8->16."""
    return "->".join(str(1 << p) for p in seq)
