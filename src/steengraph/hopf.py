"""Coproduct, counit, and antipode, with their directed-path readings.

On generators the coproduct is

    coproduct(xi_i) = sum over 0 <= k <= i of xi_(i-k)^(2^k) (x) xi_k

with xi_0 = 1, and the antipode has Milnor's closed form

    antipode(xi_i) = sum over compositions (p_1, ..., p_l) of i of
                     xi_(p_1)^(2^(s_1)) * ... * xi_(p_l)^(2^(s_l))

where s_k is the sum of the first k-1 parts.  Both maps extend to all
monomials as algebra maps, and raising to a power 2^j just doubles
every exponent j times (characteristic 2 kills all cross terms), so a
dyadic factor xi_i^(2^j) is handled by shifting exponents.

The graph reading: antipode(xi_i^(2^j)), up to sign (which is trivial
here), is the sum of all directed paths from vertex j to vertex i+j,
each path contributing the monomial whose dyadic bits are its edges.
The middle coproduct terms of xi_i^(2^j) are the splittings of that
edge into two consecutive edges through an intermediate vertex.  Both
statements are verified exactly by the test suite, and the second
powers the unilaterality test `unilateral_via_antipode`: a digraph is
unilateral exactly when for every vertex pair some directed path
between them is edgewise present, and the antipode terms enumerate the
candidate paths.

The maps and the axiom checks compute on packed ints (algebra.Packing):
a monomial is one int with a guard bit above each exponent field, a
product is one addition and a guard test, a tensor term a (x) b is
`a << S | b`, and a rank-3 term is `(a << S | b) << S | c`.  `coproduct`
and `antipode` unpack their results into the F2 sums of the API.
Images are listed per call, the first time a call meets a monomial: one
call of `coproduct`, `antipode` or an axiom predicate builds its own
expansions, and a caller that checks the axioms on many monomials of one
level passes every predicate the one pair that `axiom_expansions` builds,
dropped when that caller returns; `antipode_slots` serves
`unilateral_via_antipode` the same way.

Truncation interacts with everything here through the quotient map
(truncate_monomial / truncate_polynomial / truncate_tensor): the
truncation ideals are Hopf ideals, which `verify_hopf_ideal` checks at
desk scale, so all maps descend to the finite algebras.
"""

import itertools
import operator
from typing import Iterator, Optional, Tuple, Union

from .algebra import (
    UNTRUNCATED,
    F2Sum,
    Level,
    Monomial,
    Packing,
    Polynomial,
    monomial_product,
    packing,
    truncate_monomial,
    truncate_polynomial,
)

TensorTerm = Tuple[Monomial, Monomial]


class TensorPolynomial(F2Sum):
    """An element of the tensor square: a finite F2 sum of pairs a (x) b."""

    __slots__ = ()

    @staticmethod
    def _term_product(s: TensorTerm, t: TensorTerm) -> Optional[TensorTerm]:
        """Componentwise product (a(x)b)(a'(x)b') = aa' (x) bb'; dead components kill terms."""
        left = monomial_product(s[0], t[0])
        if left is None:
            return None
        right = monomial_product(s[1], t[1])
        return None if right is None else (left, right)

    @staticmethod
    def _term_levels(t: TensorTerm) -> tuple:
        return (t[0].level, t[1].level)

    @staticmethod
    def _term_key(t: TensorTerm) -> tuple:
        # right factor is the primary sort key, matching how the generator
        # coproduct is usually displayed (x (x) 1 first, 1 (x) x last)
        return (t[1].sort_key(), t[0].sort_key())

    @staticmethod
    def _term_text(t: TensorTerm) -> str:
        return f"{t[0]} (x) {t[1]}"

    @classmethod
    def one(cls, level: Level) -> "TensorPolynomial":
        u = Monomial.one(level)
        return cls(level, ((u, u),))


def compositions(total: int) -> Iterator[Tuple[int, ...]]:
    """The parts of all 2^(total-1) compositions of a positive integer, in cut-mask order."""
    if total < 1:
        raise ValueError(f"compositions need a positive total, got {total}")
    for mask in range(1 << (total - 1)):
        # bit pos of the mask cuts between positions pos and pos+1
        cuts = [0] + [pos + 1 for pos in range(total - 1) if mask >> pos & 1] + [total]
        yield tuple(b - a for a, b in zip(cuts, cuts[1:]))


def _packing_of(x: Monomial) -> Packing:
    """The packing that holds x and every term its coproduct, antipode and axioms form.

    At a level it is the level's.  Untruncated, every such term has degree
    at most deg x, where xi_i has degree 2^i - 1, so each r_i <= deg x and
    only xi_i with 2^i - 1 <= deg x occur: d fields of d bits, with d the
    bit length of deg x, hold them all, and no guard bit fires.  A dyadic
    bit xi_i^(2^j) of such a term has 2^(i+j-1) <= 2^j (2^i - 1) < 2^d, so
    the terms of its coproduct and antipode, whose bits reach 2^(i+j-1),
    fit as well.
    """
    if x.level.truncated:
        return x.level.guarded_packing
    degree = sum(r * ((1 << i) - 1) for i, r in enumerate(x.exponents, start=1))
    d = degree.bit_length()
    return packing((d,) * d)


def _coproduct_terms(pk: Packing, i: int, j: int) -> tuple:
    """Packed coproduct_generator(i, j): the ends, then the splittings of edge j -> i+j."""
    g = pk.bit(i, j)
    return (g << pk.size, g) + tuple(
        pk.bit(i - k, j + k) << pk.size | pk.bit(k, j) for k in range(1, i)
    )


def _antipode_terms(pk: Packing, i: int, j: int) -> tuple:
    """Packed antipode of xi_i^(2^j): Milnor's composition sum, each part shifted by j."""
    terms = []
    for parts in compositions(i):
        term, offset = 0, j
        for part in parts:
            term |= pk.bit(part, offset)
            offset += part
        terms.append(term)
    return tuple(terms)


class _Expansion(dict):
    """Packed monomial -> the terms of its image under the algebra map `terms` gives on dyadic bits.

    A dyadic bit xi_i^(2^j) maps to terms(pk, i, j), whose terms fit the
    packing (see _packing_of).  The image of any other p is the image of p
    without its lowest bit times the image of that bit, summed over F2; a
    term whose sum sets a guard bit lies in the ideal and dies.  Adding a
    fixed term is injective, so each batch has no internal duplicates and
    xor-ing whole batches computes the F2 sum.  An image is kept as a
    tuple, smaller than a set, since the expansion may serve a whole
    sample of monomials; the monomials it serves share the work of their
    common bits, and it is dropped with the call that built it.
    """

    def __init__(self, pk: Packing, terms, guard: int):
        super().__init__({0: (0,)})
        self.pk, self.terms, self.guard = pk, terms, guard

    def __missing__(self, p: int) -> tuple:
        low = p & -p
        if p == low:
            image = self.terms(self.pk, *self.pk.generator_power(p))
        else:
            rest, guard = self[p ^ low], self.guard
            acc = set()
            for t in self[low]:
                acc ^= {u for s in rest if not (u := s + t) & guard}
            image = tuple(acc)
        self[p] = image
        return image


def _coproducts(pk: Packing) -> _Expansion:
    return _Expansion(pk, _coproduct_terms, pk.guard << pk.size | pk.guard)


def _antipodes(pk: Packing) -> _Expansion:
    return _Expansion(pk, _antipode_terms, pk.guard)


def axiom_expansions(level: Level) -> tuple:
    """A fresh (coproduct, antipode) expansion pair on a truncated level's packing.

    Passed as `pair` to the axiom predicates of many monomials of the
    level, it lists each image once for all of them; drop it when the
    check is done.
    """
    level._require_truncated()
    pk = level.guarded_packing
    return _coproducts(pk), _antipodes(pk)


def _expansions_for(x: Monomial, pair: Optional[tuple]) -> tuple:
    """The pair to expand x with: `pair` if it is on x's packing, a fresh one when None."""
    pk = _packing_of(x)
    if pair is None:
        return _coproducts(pk), _antipodes(pk)
    if pair[0].pk != pk:
        raise ValueError(f"the expansion pair is not on the packing of {x}")
    return pair


def coproduct_generator(i: int, j: int, level: Level) -> TensorPolynomial:
    """Coproduct of xi_i^(2^j): ends plus all splittings through intermediate vertices.

    The terms are xi_i^(2^j) (x) 1, 1 (x) xi_i^(2^j), and for each
    0 < k < i the pair xi_(i-k)^(2^(j+k)) (x) xi_k^(2^j), i.e. the edge
    j -> i+j broken at vertex j+k (second edge on the left).
    """
    return coproduct(Monomial.generator_power(i, j, level))


def coproduct(x: Monomial) -> TensorPolynomial:
    """Coproduct of any monomial: product of the generator coproducts of its dyadic bits."""
    pk = _packing_of(x)
    low = (1 << pk.size) - 1
    return TensorPolynomial(
        x.level,
        (
            (Monomial._decoded(x.level, pk, t >> pk.size), Monomial._decoded(x.level, pk, t & low))
            for t in _coproducts(pk)[pk.pack(x.exponents)]
        ),
    )


def counit(x: Union[Monomial, Polynomial]) -> int:
    """1 on the unit monomial, 0 on every other monomial, F2-linear on polynomials."""
    if isinstance(x, Polynomial):
        return 1 if Monomial.one(x.level) in x.terms else 0
    return 1 if x.is_one else 0


def antipode_generator(i: int, level: Level) -> Polynomial:
    """Antipode of xi_i by Milnor's composition sum; truncation may kill terms."""
    return antipode(Monomial.generator_power(i, 0, level))


def antipode(x: Monomial) -> Polynomial:
    """Antipode of any monomial: product over dyadic bits of antipode_generator^(2^j)."""
    pk = _packing_of(x)
    return Polynomial(
        x.level,
        (Monomial._decoded(x.level, pk, t) for t in _antipodes(pk)[pk.pack(x.exponents)]),
    )


def antipode_recursion_residual(i: int) -> Polynomial:
    """The untruncated sum over 0 <= k <= i of xi_(i-k)^(2^k) * antipode(xi_k).

    The antipode is the unique map making this vanish for every i >= 1
    (with xi_0 = 1), so a zero residual certifies the closed form.  The
    sum is taken on packed ints in the box of i fields of i bits: every
    term has degree 2^i - 1, so each r_j < 2^i and no guard bit fires.
    """
    if i < 1:
        raise ValueError(f"recursion index must be >= 1, got {i}")
    pk = packing((i,) * i)
    chi = _antipodes(pk)
    # k = 0 and k = i, then each k between: a fixed factor times a duplicate-free image
    acc = {pk.bit(i, 0)} ^ set(chi[pk.bit(i, 0)])
    for k in range(1, i):
        left = pk.bit(i - k, k)
        acc ^= {left + t for t in chi[pk.bit(k, 0)]}
    return Polynomial(UNTRUNCATED, (Monomial._decoded(UNTRUNCATED, pk, t) for t in acc))


def verify_antipode_recursion(i_max: int) -> bool:
    """True iff the defining recursion of the antipode vanishes for all 1 <= i <= i_max."""
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {i_max}")
    return all(antipode_recursion_residual(i).is_zero for i in range(1, i_max + 1))


def directed_path_polynomial(j: int, i: int, level: Level) -> Polynomial:
    """Sum of all directed paths from vertex j to vertex i+j, one monomial per path.

    A path is a strictly increasing vertex sequence j = b_0 < ... < b_m = i+j;
    its monomial has the dyadic bit xi_(b_k - b_(k-1))^(2^(b_(k-1))) for
    each step.  There are 2^(i-1) paths, one per subset of the
    intermediate vertices, and at any level admitting xi_i^(2^j) none
    of them truncates away.
    """
    acc = [Monomial.generator_power(i, j, level)]  # the one-edge path; refuses an absent edge
    inner = range(j + 1, i + j)
    for size in range(1, i):
        for mids in itertools.combinations(inner, size):
            seq = (j,) + mids + (i + j,)
            exps = [0] * i
            for a, b in zip(seq, seq[1:]):
                exps[b - a - 1] += 1 << a
            acc.append(Monomial(level, exps))
    return Polynomial(level, acc)


def antipode_slots(level: Level) -> tuple:
    """The packed antipode of each generator power of a truncated level, by i then j."""
    pk = level.guarded_packing
    return tuple(_antipode_terms(pk, i, j) for i, j in level.generator_powers())


def unilateral_via_antipode(
    x: Monomial, edgewise: bool = True, slots: Optional[tuple] = None
) -> bool:
    """Unilaterality read off the antipode: every edge slot must host a present path.

    For each valid generator power xi_i^(2^j), some term of its
    antipode (a directed path from j to i+j) must divide x.  Division
    is edgewise by default; the integer-exponent reading is kept
    selectable because the two genuinely differ and only one can match
    the walk-count criterion.  A caller that tests many monomials of one
    level passes the `antipode_slots` of that level; they are built
    afresh when None.
    """
    level = x.level
    level._require_truncated()
    pk = level.guarded_packing
    if slots is None:
        slots = antipode_slots(level)
    if edgewise:
        m = pk.pack(x.exponents)
        return all(any(not t & ~m for t in terms) for terms in slots)
    r = x.exponents
    return all(
        any(all(map(operator.le, pk.unpack(t), r)) for t in terms) for terms in slots
    )


def truncate_tensor(tp: TensorPolynomial, level: Level) -> TensorPolynomial:
    """Quotient map on both tensor factors; a term dies if either factor does."""
    level._require_truncated()

    def pair(t: TensorTerm) -> Optional[TensorTerm]:
        a, b = (truncate_monomial(m, level) for m in t)
        return None if a is None or b is None else (a, b)

    return tp.map_terms(pair, level)


def hopf_ideal_generators(level: Level) -> list:
    """Untruncated generators of the truncation ideal, the infinite tail cut at n+3.

    The ideal is generated by xi_m^(2^w), the first power of each xi_m
    past its width w = widths[m-1], together with every xi_m past the
    last width, m >= n+2; generators beyond n+3 behave identically to
    xi_(n+3) under the coproduct's triangular shape, so two tail
    witnesses stand in for the rest.
    """
    tail = level.vertex_count  # n+2, the first generator with no width
    powers = [*enumerate(level.widths, start=1), (tail, 0), (tail + 1, 0)]
    return [Monomial.generator_power(m, w, UNTRUNCATED) for m, w in powers]


def hopf_ideal_violations(level: Level) -> list:
    """Ideal generators whose coproduct, antipode, or counit image fails to vanish."""
    bad = []
    for g in hopf_ideal_generators(level):
        if not truncate_tensor(coproduct(g), level).is_zero:
            bad.append(f"coproduct of {g} survives truncation at n={level.n}")
        if not truncate_polynomial(antipode(g), level).is_zero:
            bad.append(f"antipode of {g} survives truncation at n={level.n}")
        if counit(g) != 0:
            bad.append(f"counit of {g} is nonzero")
    return bad


def verify_hopf_ideal(n: int) -> bool:
    """True iff the truncation ideal at n passes all Hopf-ideal checks."""
    return not hopf_ideal_violations(Level(n))


def counit_laws_hold(x: Monomial, pair: Optional[tuple] = None) -> bool:
    """(counit (x) id) after coproduct gives back x, and likewise on the right."""
    delta, _ = _expansions_for(x, pair)
    pk = delta.pk
    p = pk.pack(x.exponents)
    low = (1 << pk.size) - 1
    d = delta[p]
    left = {t & low for t in d if not t >> pk.size}
    right = {t >> pk.size for t in d if not t & low}
    return left == {p} and right == {p}


def coassociativity_holds(x: Monomial, pair: Optional[tuple] = None) -> bool:
    """Expanding the left or the right tensor factor again gives the same rank-3 sum.

    With coproduct(x) the sum of its terms a (x) b, bilinearity groups both
    rank-3 sums:

        L = sum over b of (sum over a in A_b of coproduct(a)) (x) b
        R = sum over a of a (x) (sum over b in B_a of coproduct(b))

    where A_b holds the left factors beside b and B_a the right factors
    beside a.  Each inner sum is the symmetric difference of the images of
    its group, and an image repeats no term.  R is kept as a -> its set of
    packed pairs v1 << S | v2.  Neither sum repeats a term, so L = R
    exactly when each term u1 (x) u2 (x) b of L has u2 << S | b in R[u1]
    and both sums have as many terms.
    """
    delta, _ = _expansions_for(x, pair)
    size = delta.pk.size
    low = (1 << size) - 1
    lefts, rights = {}, {}
    for t in delta[delta.pk.pack(x.exponents)]:
        a, b = t >> size, t & low
        rights.setdefault(a, []).append(b)
        lefts.setdefault(b, []).append(a)
    right, count = {}, 0
    for a, group in rights.items():
        terms = right[a] = set(delta[group[0]])
        for b in group[1:]:
            terms.symmetric_difference_update(delta[b])
        count += len(terms)
    for b, group in lefts.items():
        terms = delta[group[0]]  # a group of one is its own sum, with no set to build
        if len(group) > 1:
            terms = set(terms)
            for a in group[1:]:
                terms.symmetric_difference_update(delta[a])
        count -= len(terms)
        for u in terms:
            if (u & low) << size | b not in right.get(u >> size, ()):
                return False
    return count == 0


def antipode_identity_holds(x: Monomial, pair: Optional[tuple] = None) -> bool:
    """Multiplying antipode into either coproduct factor collapses x to its counit."""
    delta, chi = _expansions_for(x, pair)
    pk = delta.pk
    low = (1 << pk.size) - 1
    guard = pk.guard
    left = set()
    right = set()
    for t in delta[pk.pack(x.exponents)]:
        a, b = t >> pk.size, t & low
        # multiplication by a fixed monomial is injective where it survives,
        # so each batch is duplicate-free and xor gives the F2 sum
        left ^= {u for s in chi[a] if not (u := s + b) & guard}
        right ^= {u for s in chi[b] if not (u := a + s) & guard}
    expected = {0} if counit(x) else set()
    return left == expected and right == expected
