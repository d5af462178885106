"""Monomials as graphs on the vertex set {2^0, 2^1, ..., 2^(n+1)}.

Each dyadic factor xi_i^(2^j) of a monomial contributes the edge
{2^j, 2^(i+j)}, and distinct factors give distinct edges, so monomials
of A*(n) correspond bijectively to simple graphs on n+2 fixed vertices.
Vertices are stored as indices p (the value shown to humans is 2^p);
all n+2 vertices belong to every graph, including isolated ones, since
connectedness questions depend on them.

The directed view orients every edge toward its larger endpoint, which
makes the directed adjacency matrix strictly upper triangular.

A WoodGraph is one int of neighbour masks, built by to_graph from the
rows of exponent_rows, and the search oracles of connectivity.py and
structure.py run on it.  oracle_edge_lanes turns the same rows, through
index_rows, into one lane int per edge for a block of indices, one bit
per monomial, and the block search oracles run on those.  The cells of
each index bit's rows depend on the level alone and are built once a
process for each level (_index_cells, a bounded cache).  The vertex and
edge ranges are read off the level's shape, stated once in Level.widths.
"""

from functools import lru_cache
from typing import Iterable, Tuple

from .algebra import DEFAULT_MAX_N, Level, Monomial, block_lanes

Edge = Tuple[int, int]


class WoodGraph:
    """A simple graph on vertices {0, ..., n+1}; vertex p stands for 2^p.

    The graph is one int, `rows`: with m = n+2, bits p*m ... p*m+m-1 are
    the neighbour mask of vertex p, so edge (p, q) sets bit p*m+q and bit
    q*m+p.  Edges given to the constructor are unordered pairs; loops are
    rejected and duplicate edges collapse.  `vertex_count` is the level's,
    kept on the graph so that the oracles read it as a plain attribute.
    """

    __slots__ = ("level", "rows", "vertex_count")

    def __init__(self, level: Level, edges: Iterable[Edge] = ()):
        m = level.vertex_count
        rows = 0
        for p, q in edges:
            if p > q:
                p, q = q, p
            if p == q:
                raise ValueError(f"loop at vertex {p} not allowed")
            if p < 0 or q >= m:
                raise ValueError(f"edge ({p},{q}) outside vertex range 0..{m - 1}")
            rows |= 1 << (p * m + q) | 1 << (q * m + p)
        self.level, self.rows, self.vertex_count = level, rows, m

    @classmethod
    def _unchecked(cls, level: Level, rows: int) -> "WoodGraph":
        """A graph from rows already symmetric, loop-free and within the level's vertices."""
        g = object.__new__(cls)
        g.level, g.rows, g.vertex_count = level, rows, level.vertex_count
        return g

    @property
    def edge_count(self) -> int:
        return self.rows.bit_count() // 2

    @property
    def edges(self) -> frozenset:
        """The edges as pairs (p, q) with p < q."""
        return frozenset(self.sorted_edges())

    def vertices(self) -> range:
        return range(self.vertex_count)

    def has_edge(self, p: int, q: int) -> bool:
        m = self.vertex_count
        return 0 <= p < m and 0 <= q < m and bool(self.rows >> (p * m + q) & 1)

    def sorted_edges(self) -> list:
        m, rows = self.vertex_count, self.rows
        edges = []
        for p in range(m - 1):
            upper = rows >> (p * m + p + 1) & (1 << (m - p - 1)) - 1  # bit t: edge (p, p+1+t)
            while upper:
                low = upper & -upper
                edges.append((p, p + low.bit_length()))
                upper ^= low
        return edges

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WoodGraph)
            and self.level == other.level
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.level, self.rows))

    def __str__(self) -> str:
        if not self.rows:
            return f"graph on {self.vertex_count} vertices with no edges"
        body = ", ".join(f"{{{1 << p},{1 << q}}}" for p, q in self.sorted_edges())
        return f"graph on {self.vertex_count} vertices with edges {body}"

    def __repr__(self) -> str:
        return f"WoodGraph({self.level!r}, {self.sorted_edges()!r})"


def exponent_rows(level: Level, i: int, r: int) -> int:
    """The rows of the edges of xi_i^r at a truncated level: bit j of r is edge (j, i+j).

    This is the search oracles' own edge rule.  The block kernel reads
    edges off the enumeration index (algebra.index_bit) instead.
    """
    m = level.vertex_count
    rows = 0
    while r:
        low = r & -r
        j = low.bit_length() - 1
        rows |= 1 << (j * m + i + j) | 1 << ((i + j) * m + j)
        r ^= low
    return rows


def index_rows(level: Level) -> list:
    """Entry b is exponent_rows(level, i, 1 << j) for xi_i^(2^j), the edge of index bit b.

    exponent_rows is an OR over the bits of r, so an index's rows are the
    OR of the entries of its set bits.  oracle_edge_lanes reads the list
    once a process for each level, as the cells of each entry's rows;
    to_graph calls exponent_rows directly.
    """
    level._require_truncated()
    pk = level.index_packing
    bits = (pk.generator_power(1 << b) for b in range(sum(level.widths)))
    return [exponent_rows(level, i, 1 << j) for i, j in bits]


@lru_cache(maxsize=DEFAULT_MAX_N + 1)
def _index_cells(level: Level) -> tuple:
    # entry b: the (p, q) cells, on both triangles, of the rows of index bit b; one per level
    # up to the default cap is kept
    m = level.vertex_count
    return tuple(
        tuple(divmod(c, m) for c in range(m * m) if rows >> c & 1) for rows in index_rows(level)
    )


def oracle_edge_lanes(level: Level, base: int, width: int) -> Tuple[list, int]:
    """The oracles' edge lane ints over the 2^width monomials with indices base, base+1, ...

    Returns (adj, full): adj[p][q] has bit t set exactly when index_rows
    puts edge (p, q) in the graph of index base + t, on both triangles,
    and full has all 2^width lanes set.  base and width follow the rule of
    algebra.block_lanes, which gives the lane int of each index bit;
    each lane is ORed into the cells of the rows of its bit, which are
    read off index_rows once a process for each level.  The block search
    oracles and the antipode lane of verify.py read these lanes.
    """
    bits, full = block_lanes(level, base, width)
    m = level.vertex_count
    adj = [[0] * m for _ in range(m)]
    for lane, cells in zip(bits, _index_cells(level)):
        for p, q in cells:
            adj[p][q] |= lane
    return adj, full


def to_graph(x: Monomial) -> WoodGraph:
    """The graph of a monomial: dyadic factor xi_i^(2^j) becomes edge {j, i+j}."""
    x.level._require_truncated()
    rows = 0
    for i, r in enumerate(x.exponents, start=1):
        rows |= exponent_rows(x.level, i, r)
    return WoodGraph._unchecked(x.level, rows)


def from_graph(g: WoodGraph) -> Monomial:
    """The monomial of a graph: edge (p, q) contributes 2^p to the exponent of xi_(q-p)."""
    exps = [0] * len(g.level.widths)
    for p, q in g.edges:
        exps[q - p - 1] += 1 << p
    return Monomial(g.level, exps)


def adjacency_matrix(x: Monomial, directed: bool = False) -> tuple:
    """0/1 adjacency matrix of the graph of x, as a tuple of row tuples.

    The factor xi_i^(2^j) is edge (j, i+j).  Undirected: symmetric with
    zero diagonal.  Directed: entry (p, q) is the edge indicator only for
    p < q, so the matrix is strictly upper triangular.
    """
    m = x.level.vertex_count
    rows = [[0] * m for _ in range(m)]
    for i, j in x.dyadic_bits():
        rows[j][i + j] = 1
        if not directed:
            rows[i + j][j] = 1
    return tuple(map(tuple, rows))


def export_dot(g: WoodGraph, directed: bool = False) -> str:
    """Graphviz text for a graph, with vertices labeled by their dyadic values.

    Every vertex is declared, isolated ones included, and edges appear
    one per line in lexicographic (p, q) order, so output is
    deterministic.  The two-row layout used in hand drawings (even
    vertex indices above, odd below) is recorded as comments only.
    """
    kind = "digraph" if directed else "graph"
    arrow = "->" if directed else "--"
    lines = [f"{kind} {{"]
    even = [str(1 << p) for p in g.vertices() if p % 2 == 0]
    odd = [str(1 << p) for p in g.vertices() if p % 2 == 1]
    lines.append("  // vertex labels are dyadic values 2^p")
    lines.append(f"  // layout hint, top row: {' '.join(even)}")
    lines.append(f"  // layout hint, bottom row: {' '.join(odd)}")
    for p in g.vertices():
        lines.append(f'  "{1 << p}";')
    for p, q in g.sorted_edges():
        lines.append(f'  "{1 << p}" {arrow} "{1 << q}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
