"""Exact arithmetic in truncated mod-2 dual Steenrod algebras.

The algebra A*(n) is the quotient of the polynomial algebra
F2[xi_1, xi_2, ...] by the ideal generated by

    xi_1^(2^(n+1)), xi_2^(2^n), ..., xi_(n+1)^2, xi_(n+2), xi_(n+3), ...

so a monomial of A*(n) is an exponent vector (r_1, ..., r_(n+1)) with
0 <= r_i <= 2^(n+2-i) - 1.  The binary (dyadic) expansion of each
exponent is the structural key: the bit 2^j of r_i stands for the factor
xi_i^(2^j), and that factor corresponds to the edge {2^j, 2^(i+j)} of the
graph on vertices {2^0, ..., 2^(n+1)} associated to the monomial.  All
edge-level queries read those bits directly: edge_bit one bit, dyadic_bits
every set bit as a plain pair (i, j), the edge j -> i+j.  That shape is
stated once, in Level.widths = (n+1, ..., 1), the profile function of
A*(n); every module reads its counts and ranges from the level.

One layout, `Packing`, lays those bits out in an int, and a level carries
it twice.  Without guard bits (`index_packing`) it is the enumeration
index, one bit per edge; with a guard bit above each exponent field
(`guarded_packing`), adding two packed monomials multiplies them (hopf.py).
Sweeps read the index a block of up to 2^BLOCK_BITS indices at a time:
block_lanes gives each index bit as one lane int, one bit per index.

Polynomials are finite sets of monomials: coefficients live in F2, so a
monomial is either present or absent and duplicates cancel pairwise.
The zero polynomial is the empty set.  F2Sum holds that set arithmetic
once; Polynomial and the tensor sums of hopf.py supply only their terms.

A Monomial comes through one of three doors.  The gate, Monomial(level,
exponents), is the one place that refuses exponents outside the level.
The quotient rule, _fitted, gives products and truncate_monomial the
monomial or None (zero).  The packing decode, Monomial._decoded, checks
nothing: a masked field of a packed int cannot outgrow its width (nor can
the field ranges enumerate_monomials walks).

A Level with n=None denotes the untruncated algebra F2[xi_1, xi_2, ...],
which imposes no exponent bound.  It exists to support antipode
recursion checks and Hopf-ideal verification, where images are computed
upstairs and then pushed through the quotient (truncate_monomial /
truncate_polynomial).

All values are immutable after construction and every operation is a
pure function, so everything here is safe to share across threads.
"""

import functools
import itertools
import operator
import os
import random
import re
import sys
from typing import Iterable, Iterator, NamedTuple, Optional, Tuple, Union

ENV_MAX_N = "STEENGRAPH_MAX_N"
DEFAULT_MAX_N = 12
# A block holds at most 2^15 monomials, so a lane int is at most 4 KiB at any n.
BLOCK_BITS = 15


def max_truncation() -> int:
    """Largest accepted truncation parameter n (env STEENGRAPH_MAX_N overrides)."""
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None


class Level:
    """Truncation level: A*(n) for an integer n >= 0, or the untruncated algebra.

    At level n the generators are xi_1, ..., xi_(n+1) and the exponent of
    xi_i is bounded by 2^(n+2-i) - 1.  Level(None) is the untruncated
    algebra, with generators xi_i for every i >= 1 and no exponent bound.

    `widths` states the shape of A*(n) once, as its profile function:
    xi_i^(2^j) exists exactly when j < widths[i-1], and it is the edge
    (j, i+j) on the `vertex_count` vertices 0..len(widths).  Every other
    module reads the shape from these two.  `index_packing` and
    `guarded_packing` are packing(widths, 0) and packing(widths), read
    from packing's cache; both are None untruncated.
    """

    __slots__ = ("n", "widths", "_vertices", "index_packing", "guarded_packing")

    def __init__(self, n: Optional[int] = None):
        if n is not None:
            n = operator.index(n)  # an int or a bool; a float or a string is refused
            if n < 0:
                raise ValueError(f"truncation parameter must be >= 0, got {n}")
            cap = max_truncation()
            if n > cap:
                raise ValueError(
                    f"truncation parameter {n} exceeds the safety cap {cap}"
                    f" (set {ENV_MAX_N} to raise it)"
                )
        self.n = n
        # bits of r_1, ..., r_(n+1): r_i < 2^(n+2-i), the one statement of the bound
        self.widths = () if n is None else tuple(range(n + 1, 0, -1))
        self._vertices = None if n is None else len(self.widths) + 1
        self.index_packing = None if n is None else packing(self.widths, 0)
        self.guarded_packing = None if n is None else packing(self.widths)

    @property
    def truncated(self) -> bool:
        return self.n is not None

    @property
    def vertex_count(self) -> int:
        """Number of graph vertices, len(widths) + 1 (vertex p is 2^p), counted in __init__."""
        if self._vertices is None:
            self._require_truncated()
        return self._vertices

    def check_vertex(self, p: int) -> None:
        """Refuse a vertex index p outside 0..n+1, the one vertex-range check."""
        if not 0 <= p < self.vertex_count:
            raise ValueError(f"vertex index {p} out of range 0..{len(self.widths)}")

    def generator_powers(self) -> list:
        """(i, j) of every factor xi_i^(2^j) of A*(n), that is j < widths[i-1], by i then j."""
        self._require_truncated()
        return [(i, j) for i, w in enumerate(self.widths, start=1) for j in range(w)]

    def exponent_bound(self, i: int) -> int:
        """Largest legal exponent of xi_i, namely 2^(n+2-i) - 1."""
        self._require_truncated()
        if not 1 <= i <= len(self.widths):
            raise ValueError(f"generator index {i} out of range 1..{len(self.widths)}")
        return (1 << self.widths[i - 1]) - 1

    def first_breach(self, exponents) -> Optional[int]:
        """Index i of the first exponent r_i outside this level, or None when all fit.

        Exponents are >= 0, at level n each r_i fits in its field of `widths`
        (r_i >> w == 0), and generators past xi_(n+1) have exponent 0
        (a field of width 0).  (A negative r shifts to -1, so the shift test
        rejects it too.)
        """
        if self.n is None:
            return next((i for i, r in enumerate(exponents, start=1) if r < 0), None)
        pairs = itertools.zip_longest(exponents, self.widths, fillvalue=0)
        return next((i for i, (r, w) in enumerate(pairs, start=1) if r >> w), None)

    def generator_valid(self, i: int) -> bool:
        return i >= 1 and (self.n is None or i <= len(self.widths))

    def _require_truncated(self):
        if self.n is None:
            raise ValueError("operation requires a truncated level")

    def __eq__(self, other) -> bool:
        return isinstance(other, Level) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("Level", self.n))

    def __repr__(self) -> str:
        return "Level(untruncated)" if self.n is None else f"Level({self.n})"


UNTRUNCATED = Level()


def alpha(m: int) -> int:
    """Number of 1s in the binary expansion of m (the edge count a single exponent contributes)."""
    if m < 0:
        raise ValueError(f"alpha is defined for nonnegative integers, got {m}")
    return m.bit_count()


class Monomial:
    """A monomial xi_1^r_1 * xi_2^r_2 * ... at a fixed Level.

    Truncated monomials store exactly n+1 exponents; untruncated ones
    store a tuple with trailing zeros stripped, so equal monomials have
    equal representations.  The all-zero vector is the unit monomial 1.

    The constructor is the gate and raises ValueError outside the level;
    _fitted and _decoded are the other two doors.  All three apply that form.
    """

    __slots__ = ("level", "exponents", "_hash")

    def __init__(self, level: Level, exponents: Iterable[int]):
        exps = tuple(map(operator.index, exponents))  # as Level: no float or string
        i = level.first_breach(exps)
        if i is not None:
            if exps[i - 1] < 0:
                raise ValueError("negative exponent")
            if i > len(level.widths):
                raise ValueError(
                    f"monomial has {len(exps)} exponents but level n={level.n} "
                    f"admits generators xi_1..xi_{len(level.widths)}"
                )
            raise ValueError(
                f"exponent {exps[i - 1]} of xi{i} exceeds bound {level.exponent_bound(i)}"
                f" at n={level.n}"
            )
        exps = _stored_form(level, exps)
        self.level, self.exponents, self._hash = level, exps, hash((level.n, exps))

    @classmethod
    def _unchecked(cls, level: Level, exps: tuple) -> "Monomial":
        """A monomial from exponents already within level and in stored form."""
        x = object.__new__(cls)
        x.level, x.exponents, x._hash = level, exps, hash((level.n, exps))
        return x

    @classmethod
    def _decoded(cls, level: Level, pk: "Packing", packed: int) -> "Monomial":
        """The monomial packed in pk at level: a masked field is within its width, so no check."""
        return cls._unchecked(level, _stored_form(level, pk.unpack(packed)))

    @classmethod
    def one(cls, level: Level) -> "Monomial":
        return cls(level, ())

    @classmethod
    def generator_power(cls, i: int, j: int, level: Level) -> "Monomial":
        """The monomial xi_i^(2^j); it exists at a truncated level only when j < widths[i-1]."""
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {i}")
        if j < 0:
            raise ValueError(f"power index must be >= 0, got {j}")
        # refuse from the shape before i and j size any allocation
        if level.truncated and not (i <= len(level.widths) and j < level.widths[i - 1]):
            raise ValueError(
                f"xi{i}^(2^{j}) does not exist at n={level.n} (need i+j <= {len(level.widths)})"
            )
        exps = [0] * i
        exps[i - 1] = 1 << j
        return cls(level, exps)

    def exponent(self, i: int) -> int:
        """The exponent r_i (0 for any generator beyond the stored vector)."""
        if i < 1:
            raise ValueError(f"generator index must be >= 1, got {i}")
        if i > len(self.exponents):
            return 0
        return self.exponents[i - 1]

    @property
    def is_one(self) -> bool:
        return not any(self.exponents)

    @property
    def edge_count(self) -> int:
        """Total number of dyadic bits, i.e. edges of the associated graph."""
        return sum(r.bit_count() for r in self.exponents)

    def dyadic_bits(self) -> Iterator[tuple]:
        """Pairs (i, j), one for each factor xi_i^(2^j) of this monomial, ordered by (i, j)."""
        for i, r in enumerate(self.exponents, start=1):
            while r:
                low = r & -r
                yield i, low.bit_length() - 1
                r ^= low

    def edge_bit(self, p: int, q: int) -> int:
        """Coefficient of 2^p in the binary expansion of r_(q-p), for 0 <= p < q.

        This is the indicator of the edge {2^p, 2^q} in the associated
        graph: 1 exactly when the factor xi_(q-p)^(2^p) is present.
        """
        if p < 0 or p >= q:
            raise ValueError(f"need 0 <= p < q, got p={p}, q={q}")
        if self.level.truncated:
            self.level.check_vertex(q)
        return (self.exponent(q - p) >> p) & 1

    def __mul__(self, other: "Monomial") -> "Polynomial":
        """Product in the algebra: exponentwise sum, zero if any bound is breached."""
        if not isinstance(other, Monomial):
            return NotImplemented
        _check_level(self.level, other.level)
        prod = monomial_product(self, other)
        if prod is None:
            return Polynomial.zero(self.level)
        return Polynomial(self.level, (prod,))

    def __add__(self, other: "Monomial") -> "Polynomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        _check_level(self.level, other.level)
        return Polynomial.from_terms(self.level, (self, other))

    def as_polynomial(self) -> "Polynomial":
        return Polynomial(self.level, (self,))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Monomial)
            and self._hash == other._hash
            and self.level.n == other.level.n
            and self.exponents == other.exponents
        )

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        """Lexicographic key on the exponent vector (canonical term order)."""
        return self.exponents

    def __str__(self) -> str:
        factors = [f"xi{i}^{r}" for i, r in enumerate(self.exponents, start=1) if r]
        return "*".join(factors) if factors else "1"

    def __repr__(self) -> str:
        return f"Monomial({self.level!r}, {list(self.exponents)!r})"


def _stored_form(level: Level, exps: tuple) -> tuple:
    """One exponent per width at a truncated level, trailing zeros cut when untruncated."""
    if level.truncated:
        width = len(level.widths)
        return exps[:width] + (0,) * (width - len(exps))
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def _check_level(level: Level, other: Level) -> None:
    if level != other:
        raise ValueError(f"level mismatch: {level!r} vs {other!r}")


def _fitted(level: Level, exps: tuple) -> Optional[Monomial]:
    """The quotient rule: the monomial of exps at level, or None when it lies in the ideal."""
    if level.first_breach(exps) is not None:
        return None
    return Monomial._unchecked(level, _stored_form(level, exps))


def monomial_product(x: Monomial, y: Monomial) -> Optional[Monomial]:
    """Exponentwise sum, or None when the product lands in the ideal (a carry escapes)."""
    pairs = itertools.zip_longest(x.exponents, y.exponents, fillvalue=0)
    return _fitted(x.level, tuple(map(sum, pairs)))


class F2Sum:
    """A finite F2-linear combination of terms: a set, so duplicates cancel pairwise.

    The zero sum is the empty set.  A subclass supplies the term
    arithmetic: `_term_product` (None when the product lies in the
    ideal), `_term_levels` (the levels a term lives at), `_term_key`
    (canonical order) and `_term_text`.
    """

    __slots__ = ("level", "terms")

    def __init__(self, level: Level, terms: Iterable = ()):
        terms = frozenset(terms)
        for t in terms:
            if any(at != level for at in self._term_levels(t)):
                raise ValueError(f"term {self._term_text(t)} off level {level!r}")
        self.level = level
        self.terms = terms

    @classmethod
    def zero(cls, level: Level):
        return cls(level, ())

    @classmethod
    def from_terms(cls, level: Level, terms: Iterable):
        """Sum over F2: terms appearing an even number of times cancel."""
        acc = set()
        for t in terms:
            if t in acc:
                acc.discard(t)
            else:
                acc.add(t)
        return cls(level, acc)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator:
        return iter(self.sorted_terms())

    def sorted_terms(self) -> list:
        return sorted(self.terms, key=self._term_key)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        _check_level(self.level, other.level)
        return type(self)(self.level, self.terms ^ other.terms)

    def __mul__(self, other):
        """Every product of a term of self with a term of other, summed over F2."""
        if not isinstance(other, type(self)):
            return NotImplemented
        _check_level(self.level, other.level)
        product = self._term_product
        return self.from_terms(
            self.level,
            (p for x in self.terms for y in other.terms if (p := product(x, y)) is not None),
        )

    def map_terms(self, f, level: Level):
        """Image at level under a termwise map f, injective where defined; f(t) None kills t.

        Injective means surviving images never collide, so nothing cancels.
        """
        images = (f(t) for t in self.terms)
        return type(self)(level, (m for m in images if m is not None))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, type(self))
            and self.level == other.level
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.level, self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self._term_text(t) for t in self.sorted_terms())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.level!r}, {self.sorted_terms()!r})"


class Polynomial(F2Sum):
    """A finite F2-linear combination of monomials (a set; duplicates cancel)."""

    __slots__ = ()

    @staticmethod
    def _term_product(x: Monomial, y: Monomial) -> Optional[Monomial]:
        # monomial_product is looked up per call, so a wrapper installed on
        # the module (perfbench's tracer) sees every product
        return monomial_product(x, y)

    @staticmethod
    def _term_levels(t: Monomial) -> tuple:
        return (t.level,)

    _term_key = staticmethod(Monomial.sort_key)
    _term_text = staticmethod(str)

    @classmethod
    def one(cls, level: Level) -> "Polynomial":
        return cls(level, (Monomial.one(level),))

    def __mul__(self, other: Union["Polynomial", Monomial]) -> "Polynomial":
        if isinstance(other, Monomial):
            other = other.as_polynomial()
        return super().__mul__(other)


class ParseError(ValueError):
    """Monomial text that does not conform to the grammar."""


_TERM_RE = re.compile(r"^xi(\d+)(?:\^(\d+))?$", re.ASCII)
_SPLIT_RE = re.compile(r"[\s*]+")


def _digit_limit() -> int:
    """The interpreter's limit on the digits of an int converted to or from a string, 0 for none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()  # absent: no limit


def _number(digits: str, what: str, *args) -> int:
    """The value of a run of ASCII digits, refused as a ParseError past the interpreter's int limit.

    what.format(*args) names the number in the error.  A limit is 0 (none) or
    at least 640 digits, so a shorter run is converted at once.  The limit
    counts leading zeros, so they are cut first; a longer run is refused by
    its length, so no int() or str() of it raises the interpreter's own text.
    """
    if len(digits) > 640:
        digits = digits.lstrip("0") or "0"
        limit = _digit_limit()
        if limit and len(digits) > limit:
            raise ParseError(
                f"{what.format(*args)} has {len(digits)} digits, above the limit of {limit}"
            )
    return int(digits)


def parse_monomial(text: str, level: Level) -> Monomial:
    """Parse monomial text: factors `xi<I>` or `xi<I>^<E>` separated by `*` or spaces.

    `1` alone denotes the unit monomial.  The compact form `[r1,r2,...]`
    lists all n+1 exponents directly.  Repeated generators accumulate
    their exponents.  Numbers are ASCII decimal digits only.  A number,
    or the sum of a repeated generator's exponents, with more digits than
    the interpreter converts is refused as a ParseError.
    """
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ParseError(f"unterminated exponent list: {text!r}")
        items = [s.strip() for s in text[1:-1].split(",")] if text[1:-1].strip() else []
        exps = []
        for k, s in enumerate(items, start=1):
            if not (s.isascii() and s.isdigit()):
                raise ParseError(f"bad exponent {s!r} in {text!r}")
            exps.append(_number(s, "exponent r_{} of the list", k))
        if level.truncated and len(exps) != len(level.widths):
            raise ParseError(
                f"exponent list has {len(exps)} entries,"
                f" expected {len(level.widths)} at n={level.n}"
            )
        return _gated(level, exps)

    tokens = [t for t in _SPLIT_RE.split(text) if t]
    if not tokens:
        raise ParseError(f"no factor in {text!r}" if text else "empty monomial text")
    if "1" in tokens:
        if len(tokens) > 1:
            raise ParseError("the unit monomial `1` must appear alone")
        return Monomial.one(level)
    exps: dict = {}
    for k, token in enumerate(tokens, start=1):
        m = _TERM_RE.match(token)
        if m is None:
            raise ParseError(f"bad term {token!r} (expected xi<I> or xi<I>^<E>)")
        i = _number(m.group(1), "generator index of term {}", k)
        if not level.generator_valid(i):
            raise ParseError(f"generator xi{i} out of range at n={level.n}")
        e = 1 if m.group(2) is None else _number(m.group(2), "exponent of xi{} in term {}", i, k)
        if i in exps:
            e += exps[i]
            limit = _digit_limit()
            # a sum below 8^limit has fewer digits than the limit, so 10^limit is seldom built
            if limit and e.bit_length() > 3 * limit and e >= 10**limit:
                raise ParseError(f"the exponents of xi{i} sum past the limit of {limit} digits")
        exps[i] = e
    width = max(exps) if exps else 0
    vec = [exps.get(i, 0) for i in range(1, width + 1)]
    return _gated(level, vec)


def _gated(level: Level, exps: list) -> Monomial:
    """Monomial(level, exps), its refusal raised as a ParseError with the same text."""
    try:
        return Monomial(level, exps)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def monomial_count(level: Level) -> int:
    """Number of monomials of A*(n): 2^((n+1)(n+2)/2)."""
    level._require_truncated()
    return 1 << sum(level.widths)


def enumerate_monomials(level: Level) -> Iterator[Monomial]:
    """All monomials of A*(n) exactly once, in enumeration index order.

    That order is lexicographic by exponent vector, r_1 most significant.
    """
    level._require_truncated()
    for exps in itertools.product(*(range(1 << w) for w in level.widths)):
        yield Monomial._unchecked(level, exps)


def index_bit(level: Level, p: int, q: int) -> int:
    """The bit of an enumeration index that holds edge (p, q), for 0 <= p < q <= n+1.

    Edge (p, q) is bit p of the field of r_(q-p) in the index packing.
    """
    if not 0 <= p < q:
        raise ValueError(f"need 0 <= p < q, got p={p}, q={q}")
    level.check_vertex(q)
    return level.index_packing.offsets[q - p - 1] + p


def block_width(level: Level) -> int:
    """Index bits spanned by the widest block at this level: all of them, at most BLOCK_BITS."""
    return min(BLOCK_BITS, monomial_count(level).bit_length() - 1)


def block_lanes(level: Level, base: int, width: int) -> Tuple[list, int]:
    """Lane ints of the index bits over the 2^width indices base, base+1, ...

    Returns (bits, full): bits[b] has bit t set exactly when bit b of
    base + t is set, and full has all 2^width lanes set.  base must be a
    multiple of 2^width, and width at most block_width(level).  For
    b < width, bits[b] is the upper run of 2^b lanes of each period of
    2^(b+1), built by doubling the period once a process for each width;
    above that it is all ones or zero for the whole block.
    """
    lanes = 1 << width
    count = monomial_count(level)
    widest = block_width(level)
    if not 0 <= width <= widest:
        raise ValueError(f"block width {width} outside 0..{widest} at n={level.n}")
    if base % lanes or not 0 <= base < count:
        raise ValueError(f"block base {base} is not a multiple of {lanes} in 0..{count - 1}")
    full = (1 << lanes) - 1
    bits = list(_index_lanes(width))
    bits += [full if base >> b & 1 else 0 for b in range(width, count.bit_length() - 1)]
    return bits, full


@functools.lru_cache(maxsize=BLOCK_BITS + 1)
def _index_lanes(width: int) -> tuple:
    # the lanes of the index bits b < width, the same in every block of 2^width indices: the
    # upper run of 2^b lanes of each period of 2^(b+1), built by doubling the period; one per
    # block width is kept
    lanes = 1 << width
    bits = []
    for b in range(width):
        run = 1 << b
        lane, period = (1 << run) - 1 << run, 2 * run
        while period < lanes:
            lane |= lane << period
            period *= 2
        bits.append(lane)
    return tuple(bits)


class Packing(NamedTuple):
    """Exponent vectors as one int: r_i in a field of widths[i-1] bits, r_1 highest.

    Without guard bits, a level's packing is its enumeration index: one
    bit per edge, so 2^(sum of widths) monomials.  With a guard bit above
    each field, adding two packed vectors adds their exponents, and
    `sum & guard` is nonzero exactly when some r_i outgrew its field (with
    a level's widths, Level.first_breach of the sum).  A tensor term
    a (x) b packs as `a << size | b`; the same add-and-guard test, with the
    guard repeated in each half, multiplies tensor terms.
    """

    widths: tuple
    offsets: tuple  # bit where the field of r_i starts
    guard: int  # the guard bits, 0 when there are none
    size: int  # bits of one packed vector, guards included

    def pack(self, exponents) -> int:
        return sum(r << o for r, o in zip(exponents, self.offsets))

    def unpack(self, packed: int) -> tuple:
        return tuple(packed >> o & ((1 << w) - 1) for w, o in zip(self.widths, self.offsets))

    def bit(self, i: int, j: int) -> int:
        """The packed xi_i^(2^j): bit j of the field of r_i."""
        return 1 << (self.offsets[i - 1] + j)

    def generator_power(self, bit: int) -> tuple:
        """(i, j) of the packed xi_i^(2^j) that is `bit`; the inverse of `bit`."""
        position = bit.bit_length() - 1
        i = next(i for i, o in enumerate(self.offsets, start=1) if o <= position)
        return i, position - self.offsets[i - 1]


@functools.lru_cache(maxsize=4 * (DEFAULT_MAX_N + 1))
def packing(widths: tuple, guards: int = 1) -> Packing:
    """Fields of the given widths, r_1 first, `guards` bits above each (0: the index layout).

    A Packing is immutable and depends on its arguments only, so each is
    built once a process.  The bound holds the two packings of each level
    up to the default cap, and as many again for hopf's untruncated ones.
    """
    offsets = []
    size = 0
    for w in reversed(widths):
        offsets.append(size)
        size += w + guards
    offsets.reverse()
    guard = sum(((1 << guards) - 1) << (o + w) for w, o in zip(widths, offsets))
    return Packing(widths, tuple(offsets), guard, size)


def monomial_from_index(level: Level, index: int) -> Monomial:
    """The index-th monomial in enumeration order: the index unpacked by the level's index packing.

    Every radix is a power of 2, so the index is a plain bit field with
    one bit per edge; index_bit names the bit of each edge.
    """
    if not 0 <= index < monomial_count(level):
        raise ValueError(f"index {index} out of range 0..{monomial_count(level) - 1}")
    return Monomial._decoded(level, level.index_packing, index)


def random_monomials(level: Level, count: int, seed: int) -> list:
    """Deterministic pseudo-random monomials (uniform exponents within bounds)."""
    level._require_truncated()
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        exps = [rng.randint(0, (1 << w) - 1) for w in level.widths]
        out.append(Monomial(level, exps))
    return out


def truncate_monomial(x: Monomial, level: Level) -> Optional[Monomial]:
    """Image of x under the quotient map onto A*(n): the same monomial, or None (zero).

    A monomial dies exactly when some exponent breaches the level bound
    or a generator beyond xi_(n+1) appears.
    """
    level._require_truncated()
    return _fitted(level, x.exponents)


def truncate_polynomial(p: Polynomial, level: Level) -> Polynomial:
    """Termwise quotient map; killed terms drop out of the F2 sum."""
    return p.map_terms(lambda t: truncate_monomial(t, level), level)
