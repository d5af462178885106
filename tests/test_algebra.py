"""Exponent-vector arithmetic: construction, parsing, products, enumeration."""

import itertools
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steengraph.algebra import (
    ENV_MAX_N,
    UNTRUNCATED,
    Level,
    Monomial,
    ParseError,
    Polynomial,
    alpha,
    enumerate_monomials,
    index_bit,
    monomial_count,
    monomial_from_index,
    monomial_product,
    packing,
    parse_monomial,
    random_monomials,
    truncate_monomial,
    truncate_polynomial,
)

L0, L1, L2, L3 = Level(0), Level(1), Level(2), Level(3)


def monomials(level, max_size=24):
    """Strategy for valid monomials of a truncated level."""
    bounds = [level.exponent_bound(i) for i in range(1, level.n + 2)]
    return st.tuples(*[st.integers(0, b) for b in bounds]).map(
        lambda exps: Monomial(level, exps)
    )


class TestLevel:
    def test_exponent_bounds(self):
        assert [L3.exponent_bound(i) for i in range(1, 5)] == [15, 7, 3, 1]
        assert L0.exponent_bound(1) == 1

    def test_counts(self):
        assert L2.vertex_count == 4
        assert not UNTRUNCATED.truncated
        assert L2.truncated

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Level(-1)

    @pytest.mark.parametrize("n", [2.9, 3.0, "3"])
    def test_a_non_integral_level_is_refused_not_truncated(self, n):
        with pytest.raises(TypeError):
            Level(n)

    def test_cap_and_env_override(self, monkeypatch):
        monkeypatch.delenv(ENV_MAX_N, raising=False)
        with pytest.raises(ValueError):
            Level(13)
        monkeypatch.setenv(ENV_MAX_N, "20")
        assert Level(14).n == 14
        monkeypatch.setenv(ENV_MAX_N, "junk")
        with pytest.raises(ValueError):
            Level(3)

    def test_generator_validity(self):
        assert L2.generator_valid(3)
        assert not L2.generator_valid(4)
        assert not L2.generator_valid(0)
        assert UNTRUNCATED.generator_valid(100)

    @pytest.mark.parametrize("n", range(13))
    def test_shape_matches_closed_forms(self, n):
        level = Level(n)
        pairs = level.generator_powers()
        assert pairs == sorted(
            (i, j) for i in range(1, n + 2) for j in range(n + 1) if i + j <= n + 1
        )
        assert len(pairs) == sum(level.widths) == (n + 1) * (n + 2) // 2
        for p in range(n + 2):
            level.check_vertex(p)
        for p in (-1, n + 2):
            with pytest.raises(ValueError, match="out of range"):
                level.check_vertex(p)

    @pytest.mark.parametrize("n", range(13))
    def test_a_level_carries_its_two_packings(self, n):
        level = Level(n)
        assert level.index_packing == packing(level.widths, 0)
        assert level.guarded_packing == packing(level.widths)

    def test_untruncated_has_no_packings(self):
        assert UNTRUNCATED.index_packing is None
        assert UNTRUNCATED.guarded_packing is None

    def test_untruncated_has_no_bounds(self):
        with pytest.raises(ValueError):
            UNTRUNCATED.exponent_bound(1)
        with pytest.raises(ValueError):
            UNTRUNCATED.vertex_count
        with pytest.raises(ValueError):
            UNTRUNCATED.generator_powers()
        with pytest.raises(ValueError):
            UNTRUNCATED.check_vertex(0)


class TestMonomial:
    def test_exponent_bound_enforced(self):
        with pytest.raises(ValueError):
            Monomial(L2, (8, 0, 0))
        with pytest.raises(ValueError):
            Monomial(L2, (0, 0, 2))
        with pytest.raises(ValueError):
            Monomial(L2, (0, 0, 0, 1))

    def test_non_integral_exponents_are_refused_not_truncated(self):
        for exponents in ([1.9, 2, 1], [1, "2", 1], [1.0]):
            with pytest.raises(TypeError):
                Monomial(L2, exponents)
        with pytest.raises(TypeError):
            Monomial(UNTRUNCATED, [0.5])
        # an int and a bool are exact, as before
        assert Monomial(L2, [1, 2, True]) == Monomial(L2, (1, 2, 1))
        assert Level(True) == L1

    def test_short_vectors_pad(self):
        assert Monomial(L2, (3,)) == Monomial(L2, (3, 0, 0))

    def test_untruncated_strips_trailing_zeros(self):
        assert Monomial(UNTRUNCATED, (1, 0, 2, 0, 0)).exponents == (1, 0, 2)
        assert Monomial(UNTRUNCATED, (0, 0)).is_one

    def test_unit(self):
        one = Monomial.one(L2)
        assert one.is_one and one.edge_count == 0 and str(one) == "1"

    def test_generator_power(self):
        g = Monomial.generator_power(2, 1, L3)
        assert g.exponents == (0, 2, 0, 0)
        with pytest.raises(ValueError):
            Monomial.generator_power(3, 2, L3)
        with pytest.raises(ValueError):
            Monomial.generator_power(0, 0, L3)

    def test_dyadic_bits(self):
        x = parse_monomial("xi1^6 xi3^2", L3)
        assert list(x.dyadic_bits()) == [(1, 1), (1, 2), (3, 1)]
        assert x.edge_count == 3

    def test_edge_bit_matches_binary_expansion(self):
        for x in enumerate_monomials(L2):
            for q in range(1, 4):
                for p in range(q):
                    assert x.edge_bit(p, q) == (x.exponent(q - p) >> p) & 1

    def test_edge_bit_range_errors(self):
        x = Monomial.one(L2)
        with pytest.raises(ValueError):
            x.edge_bit(2, 2)
        with pytest.raises(ValueError):
            x.edge_bit(0, 4)

    def test_str_exponents_always_printed(self):
        assert str(parse_monomial("xi1 xi2", L2)) == "xi1^1*xi2^1"
        assert str(parse_monomial("xi1^15 xi3^2", L3)) == "xi1^15*xi3^2"

    def test_equality_and_hash(self):
        a = Monomial(L2, (3, 1, 0))
        b = parse_monomial("xi1^3 xi2", L2)
        assert a == b and hash(a) == hash(b)
        assert a != Monomial(L3, (3, 1, 0, 0))


class TestAlpha:
    def test_values(self):
        assert [alpha(m) for m in (0, 1, 6, 7, 15)] == [0, 1, 2, 3, 4]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            alpha(-1)

    @given(st.integers(0, 10**9))
    def test_matches_binary_string(self, m):
        assert alpha(m) == bin(m).count("1")


class TestParse:
    def test_grammar_forms(self):
        want = Monomial(L2, (6, 1, 1))
        assert parse_monomial("xi1^6 xi2 xi3", L2) == want
        assert parse_monomial("xi1^6*xi2*xi3", L2) == want
        assert parse_monomial("  xi1^6 * xi2 xi3 ", L2) == want
        assert parse_monomial("[6,1,1]", L2) == want

    def test_unit_forms(self):
        assert parse_monomial("1", L2).is_one
        assert parse_monomial("[0,0,0]", L2).is_one

    def test_repeated_generators_accumulate(self):
        assert parse_monomial("xi1 xi1^2", L2) == Monomial(L2, (3, 0, 0))

    def test_untruncated(self):
        x = parse_monomial("xi7^5", UNTRUNCATED)
        assert x.exponent(7) == 5

    def test_errors_name_the_problem(self):
        with pytest.raises(ParseError, match="xi9"):
            parse_monomial("xi9", L2)
        with pytest.raises(ParseError, match="exceeds bound"):
            parse_monomial("xi1^8", L2)
        with pytest.raises(ParseError, match="bad term"):
            parse_monomial("zeta1", L2)
        with pytest.raises(ParseError, match="alone"):
            parse_monomial("1 xi1", L2)
        with pytest.raises(ParseError):
            parse_monomial("", L2)
        with pytest.raises(ParseError, match="3 entries"):
            parse_monomial("[1,2,3]", L1)
        with pytest.raises(ParseError, match="bad exponent"):
            parse_monomial("[1,x,0]", L2)

    @pytest.mark.parametrize(
        "text",
        [
            "xi1^" + "0" * 5000 + "6 xi2 xi3",
            "xi" + "0" * 5000 + "1^6 xi2 xi3",
            "[" + "0" * 5000 + "6,1,1]",
        ],
    )
    def test_leading_zeros_are_not_counted_against_the_int_limit(self, text):
        # int() counts them, so the parser cuts them before it measures a number
        assert parse_monomial(text, L2) == Monomial(L2, (6, 1, 1))

    @pytest.mark.parametrize("text", ["*", " * * ", "**"])
    def test_text_without_a_factor_rejected(self, text):
        # the unit is `1`; a separator alone names no monomial
        with pytest.raises(ParseError, match="no factor"):
            parse_monomial(text, L2)

    @pytest.mark.parametrize("text", ["[\u00b2,0,0]", "[\u0661,0,0]", "xi\u0661^\u0663"])
    def test_non_ascii_digits_rejected(self, text):
        # str.isdigit and \d accept superscript and Arabic-Indic digits; the grammar does not
        with pytest.raises(ParseError):
            parse_monomial(text, L2)

    def test_round_trip_exhaustive_small(self):
        for level in (L0, L1, L2):
            for x in enumerate_monomials(level):
                assert parse_monomial(str(x), level) == x

    @given(monomials(L3))
    def test_round_trip_random(self, x):
        assert parse_monomial(str(x), L3) == x


class TestMultiplication:
    def test_unit_laws(self):
        one = Monomial.one(L2)
        x = parse_monomial("xi1^6 xi2 xi3", L2)
        assert x * one == x.as_polynomial()

    def test_carry_escaping_gives_zero(self):
        x = parse_monomial("xi1^4", L2)
        y = parse_monomial("xi1^4", L2)
        assert (x * y).is_zero
        assert monomial_product(x, y) is None

    def test_product_of_disjoint_bits(self):
        x = parse_monomial("xi1^2", L2)
        y = parse_monomial("xi1^4 xi2", L2)
        assert x * y == parse_monomial("xi1^6 xi2", L2).as_polynomial()

    def test_untruncated_never_dies(self):
        x = parse_monomial("xi1^9", UNTRUNCATED)
        assert (x * x) == parse_monomial("xi1^18", UNTRUNCATED).as_polynomial()

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Monomial.one(L2) * Monomial.one(L3)

    @given(monomials(L2), monomials(L2))
    def test_commutative(self, x, y):
        assert x * y == y * x

    @given(monomials(L2), monomials(L2), monomials(L2))
    @settings(max_examples=60)
    def test_associative(self, x, y, z):
        assert (x * y) * z.as_polynomial() == x.as_polynomial() * (y * z)


class TestPolynomial:
    def test_f2_cancellation(self):
        x = parse_monomial("xi1", L2)
        assert (x + x).is_zero
        assert Polynomial.from_terms(L2, [x, x, x]) == x.as_polynomial()

    def test_str_sorted_lexicographically(self):
        p = parse_monomial("xi1^3", L3) + parse_monomial("xi2", L3)
        assert str(p) == "xi2^1 + xi1^3"
        assert str(Polynomial.zero(L3)) == "0"

    def test_distributes(self):
        a = parse_monomial("xi1", L2)
        b = parse_monomial("xi2", L2)
        c = parse_monomial("xi1^2", L2)
        assert (a + b) * c.as_polynomial() == a * c + b * c

    def test_term_level_checked(self):
        with pytest.raises(ValueError):
            Polynomial(L2, [Monomial.one(L3)])


class TestEnumeration:
    def test_counts(self):
        assert [monomial_count(Level(n)) for n in range(4)] == [2, 8, 64, 1024]

    def test_exhaustive_unique_and_ordered(self):
        seen = list(enumerate_monomials(L1))
        assert len(seen) == 8 == len(set(seen))
        keys = [x.exponents for x in seen]
        assert keys == sorted(keys)

    def test_index_round_trip(self):
        for k, x in enumerate(enumerate_monomials(L2)):
            assert monomial_from_index(L2, k) == x
        with pytest.raises(ValueError):
            monomial_from_index(L2, 64)

    def test_index_bit_names_edge_bit(self):
        for level in (L0, L1, L2, L3):
            m = level.n + 2
            bits = {index_bit(level, p, q) for p in range(m) for q in range(p + 1, m)}
            assert bits == set(range(monomial_count(level).bit_length() - 1))
            for k, x in enumerate(enumerate_monomials(level)):
                assert monomial_from_index(level, k) == x
                for p in range(m):
                    for q in range(p + 1, m):
                        assert (k >> index_bit(level, p, q)) & 1 == x.edge_bit(p, q), (k, p, q)
        with pytest.raises(ValueError):
            index_bit(L2, 1, 1)

    def test_random_monomials_deterministic(self):
        a = random_monomials(L3, 20, seed=7)
        b = random_monomials(L3, 20, seed=7)
        assert a == b
        assert random_monomials(L3, 20, seed=8) != a


class TestTruncation:
    def test_kills_out_of_range_generator(self):
        x = parse_monomial("xi4", UNTRUNCATED)
        assert truncate_monomial(x, L2) is None

    def test_kills_oversized_exponent(self):
        x = parse_monomial("xi1^8", UNTRUNCATED)
        assert truncate_monomial(x, L2) is None

    def test_identity_on_survivors(self):
        x = parse_monomial("xi1^7 xi3", UNTRUNCATED)
        assert truncate_monomial(x, L2) == parse_monomial("xi1^7 xi3", L2)

    def test_polynomial_termwise(self):
        p = parse_monomial("xi2", UNTRUNCATED) + parse_monomial("xi1^3", UNTRUNCATED)
        assert truncate_polynomial(p, L0).is_zero
        q = truncate_polynomial(p, L1)
        assert q == parse_monomial("xi2", L1) + parse_monomial("xi1^3", L1)


# Bound rule, pinned against an exponent-vector reference written here:
# exponents are >= 0, r_i <= exponent_bound(i) at level n, and generators
# past xi_(n+1) have exponent 0.  The untruncated level bounds nothing.
BOUND_LEVELS = [Level(n) for n in range(6)] + [UNTRUNCATED]


def within_level(level, exps):
    for i, r in enumerate(exps, start=1):
        if r < 0:
            return False
        if level.truncated:
            if i > level.n + 1:
                if r != 0:
                    return False
            elif r > level.exponent_bound(i):
                return False
    return True


def gate(level, exps):
    """Monomial(level, exps), or None where the constructor refuses exps."""
    try:
        return Monomial(level, exps)
    except ValueError:
        return None


def reference_sum(a, b):
    width = max(len(a), len(b))
    a, b = list(a) + [0] * (width - len(a)), list(b) + [0] * (width - len(b))
    return [x + y for x, y in zip(a, b)]


@st.composite
def exponent_vectors(draw, level, valid=False):
    """Vectors mixing in-range, boundary and out-of-range exponents (in-range only if valid)."""
    width = level.n + 1 if level.truncated else 5
    exps = []
    for i in range(1, draw(st.integers(0, width + (0 if valid else 2))) + 1):
        if level.truncated:
            bound = level.exponent_bound(i) if i <= level.n + 1 else 0
        else:
            bound = 40
        choices = st.integers(0, bound) | st.sampled_from([0, bound])
        if not valid:
            beyond = st.sampled_from([bound + 1, -1]) | st.integers(bound + 1, 4 * bound + 4)
            choices = choices | beyond
        exps.append(draw(choices))
    return exps


def tensor_terms(level):
    pair = st.tuples(exponent_vectors(level, valid=True), exponent_vectors(level, valid=True))
    return st.lists(pair, max_size=4)


def normal_form(level, exps):
    """The stored exponent tuple: n+1 entries when truncated, trailing zeros cut otherwise."""
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    if level.truncated:
        exps += [0] * (level.n + 1 - len(exps))
    return tuple(exps)


def odd_terms(level, pairs):
    """The F2 sum of a list of exponent-vector pairs: the pairs listed an odd number of times."""
    counts = Counter((normal_form(level, a), normal_form(level, b)) for a, b in pairs)
    return [t for t, k in counts.items() if k % 2]


bound_cases = st.sampled_from(BOUND_LEVELS).flatmap(
    lambda level: st.tuples(st.just(level), exponent_vectors(level))
)
valid_pairs = st.sampled_from(BOUND_LEVELS).flatmap(
    lambda level: st.tuples(
        st.just(level), exponent_vectors(level, valid=True), exponent_vectors(level, valid=True)
    )
)


class TestBoundRule:
    @given(bound_cases)
    @settings(max_examples=300)
    def test_construction_raises_exactly_out_of_range(self, case):
        level, exps = case
        if within_level(level, exps):
            x = Monomial(level, exps)
            assert [x.exponent(i) for i in range(1, len(exps) + 1)] == exps
        else:
            with pytest.raises(ValueError):
                Monomial(level, exps)

    @given(valid_pairs)
    @settings(max_examples=300)
    def test_product_dies_exactly_when_the_sum_breaks_the_bound(self, case):
        level, a, b = case
        x, y = Monomial(level, a), Monomial(level, b)
        expected = reference_sum(a, b)
        if within_level(level, expected):
            assert monomial_product(x, y) == Monomial(level, expected)
            assert x * y == Monomial(level, expected).as_polynomial()
        else:
            assert monomial_product(x, y) is None
            assert (x * y).is_zero

    @given(valid_pairs, st.integers(0, 5))
    @settings(max_examples=200)
    def test_truncation_dies_exactly_when_the_target_breaks_the_bound(self, case, n):
        level, a, _ = case
        target = Level(n)
        assume(not level.truncated or level.n >= n)
        image = truncate_monomial(Monomial(level, a), target)
        if within_level(target, a):
            assert image == Monomial(target, a)
        else:
            assert image is None

    @pytest.mark.parametrize("level", [L0, L1, L2, UNTRUNCATED], ids=repr)
    def test_every_product_is_the_gates_monomial_or_none(self, level):
        # every pair at n <= 2; untruncated, the pairs of unequal length (after the strip)
        if level.truncated:
            xs = list(enumerate_monomials(level))
        else:
            xs = [Monomial(level, exps) for exps in itertools.product(range(3), repeat=3)]
        for x, y in itertools.product(xs, xs):
            if level.truncated or len(x.exponents) != len(y.exponents):
                expected = gate(level, reference_sum(x.exponents, y.exponents))
                assert monomial_product(x, y) == expected

    @pytest.mark.parametrize("n", range(3))
    def test_truncation_is_the_gates_monomial_or_none(self, n):
        # untruncated x with up to n+3 exponents, each at 0, 1, 2 or either side of a bound
        level = Level(n)
        values = sorted({0, 1, 2} | {(1 << w) - 1 for w in level.widths} | {1 << level.widths[0]})
        for exps in itertools.product(values, repeat=n + 3):
            assert truncate_monomial(Monomial(UNTRUNCATED, exps), level) == gate(level, exps)

    @pytest.mark.parametrize(
        "level, pk",
        [(Level(n), Level(n).index_packing) for n in range(4)]
        + [(Level(n), Level(n).guarded_packing) for n in range(4)]
        + [(UNTRUNCATED, packing((3,) * 3))],
    )
    def test_decode_is_the_gates_monomial(self, level, pk):
        # every packed value, guard bits included; the untruncated box strips trailing zeros
        for packed in range(1 << pk.size):
            x = Monomial._decoded(level, pk, packed)
            assert x == Monomial(level, pk.unpack(packed))
            assert level.truncated or x.exponents[-1:] != (0,)

    @given(
        st.sampled_from(BOUND_LEVELS[:4] + [UNTRUNCATED]).flatmap(
            lambda level: st.tuples(st.just(level), tensor_terms(level), tensor_terms(level))
        )
    )
    @settings(max_examples=150)
    def test_tensor_product_is_componentwise(self, case):
        from steengraph.hopf import TensorPolynomial

        level, left, right = case

        def tensor(pairs):
            return TensorPolynomial.from_terms(
                level, [(Monomial(level, a), Monomial(level, b)) for a, b in pairs]
            )

        expected = set()
        for a, b in odd_terms(level, left):
            for c, d in odd_terms(level, right):
                ac, bd = reference_sum(a, c), reference_sum(b, d)
                if within_level(level, ac) and within_level(level, bd):
                    expected ^= {(normal_form(level, ac), normal_form(level, bd))}
        product = tensor(left) * tensor(right)
        assert {(x.exponents, y.exponents) for x, y in product.terms} == expected


def squeeze_guards(pk, packed):
    """The packed int with its guard bits cut out, fields closed up."""
    out, shift = 0, 0
    for w, o in sorted(zip(pk.widths, pk.offsets), key=lambda f: f[1]):
        out |= (packed >> o & ((1 << w) - 1)) << shift
        shift += w
    return out


level_pairs = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.just(Level(n)),
        exponent_vectors(Level(n), valid=True),
        exponent_vectors(Level(n), valid=True),
    )
)


class TestPacking:
    """The guard-bit packing of a level against Level.first_breach and the enumeration index."""

    @given(level_pairs)
    @settings(max_examples=300)
    def test_unpack_inverts_pack(self, case):
        level, a, _ = case
        pk = packing(level.widths)
        assert pk.unpack(pk.pack(a)) == normal_form(level, a)

    @given(level_pairs)
    @settings(max_examples=300)
    def test_guard_fires_exactly_when_the_sum_breaches(self, case):
        level, a, b = case
        pk = packing(level.widths)
        total = reference_sum(a, b)
        s = pk.pack(a) + pk.pack(b)
        assert bool(s & pk.guard) == (level.first_breach(total) is not None)
        if not s & pk.guard:
            assert pk.unpack(s) == normal_form(level, total)

    @pytest.mark.parametrize("n", range(6))
    def test_fields_hold_exactly_the_exponent_bound(self, n):
        level = Level(n)
        pk = packing(level.widths)
        for i in range(1, n + 2):
            top = [0] * (n + 1)
            top[i - 1] = level.exponent_bound(i)
            assert not pk.pack(top) & pk.guard
            assert (pk.pack(top) + pk.bit(i, 0)) & pk.guard
            assert pk.unpack(pk.pack(top)) == tuple(top)

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 ** 21))))
    @settings(max_examples=200)
    def test_field_order_is_the_enumeration_index(self, case):
        n, k = case
        level = Level(n)
        k %= monomial_count(level)
        pk = packing(level.widths)
        assert squeeze_guards(pk, pk.pack(monomial_from_index(level, k).exponents)) == k
        for p, q in [(p, q) for q in range(n + 2) for p in range(q)]:
            bit = pk.bit(q - p, p)
            assert pk.generator_power(bit) == (q - p, p)
            assert squeeze_guards(pk, bit) == 1 << index_bit(level, p, q)


class TestIndexLayout:
    """The index layout stated once (index_fields): decode, enumeration and index_bit agree."""

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 ** 21 - 1))))
    @settings(max_examples=300)
    def test_decoded_exponents_fit_and_each_index_bit_is_its_edge(self, case):
        n, k = case
        level = Level(n)
        k %= monomial_count(level)
        x = monomial_from_index(level, k)
        assert level.first_breach(x.exponents) is None
        assert x == Monomial(level, x.exponents)
        for q in range(n + 2):
            for p in range(q):
                bit = index_bit(level, p, q)
                assert x.edge_bit(p, q) == k >> bit & 1
                single = Monomial.generator_power(q - p, p, level)
                assert monomial_from_index(level, 1 << bit) == single

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 2 ** 15 - 1))))
    @settings(max_examples=60)
    def test_enumeration_follows_index_order(self, case):
        n, start = case
        level = Level(n)
        count = monomial_count(level)
        start %= count
        window = list(itertools.islice(enumerate_monomials(level), start, start + 8))
        stop = min(start + 8, count)
        assert window == [monomial_from_index(level, k) for k in range(start, stop)]
