"""Coproduct, counit, antipode, and their directed-path readings."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steengraph.algebra import (
    UNTRUNCATED,
    Level,
    Monomial,
    Polynomial,
    enumerate_monomials,
    monomial_count,
    monomial_from_index,
    parse_monomial,
    random_monomials,
)
from steengraph import algebra, hopf, verify
from steengraph.connectivity import is_unilateral
from steengraph.hopf import (
    TensorPolynomial,
    antipode,
    antipode_generator,
    antipode_identity_holds,
    antipode_recursion_residual,
    antipode_slots,
    axiom_expansions,
    coassociativity_holds,
    compositions,
    coproduct,
    coproduct_generator,
    counit,
    counit_laws_hold,
    directed_path_polynomial,
    hopf_ideal_generators,
    hopf_ideal_violations,
    truncate_tensor,
    unilateral_via_antipode,
    verify_antipode_recursion,
    verify_hopf_ideal,
)

L0, L1, L2, L3 = Level(0), Level(1), Level(2), Level(3)


def poly(text_terms, level):
    return Polynomial.from_terms(level, [parse_monomial(t, level) for t in text_terms])


class TestTensorPolynomial:
    def test_cancellation(self):
        u = Monomial.one(L1)
        x = parse_monomial("xi1", L1)
        t = TensorPolynomial.from_terms(L1, [(x, u), (x, u)])
        assert t.is_zero

    def test_level_checked(self):
        with pytest.raises(ValueError):
            TensorPolynomial(L1, [(Monomial.one(L1), Monomial.one(L2))])
        with pytest.raises(ValueError):
            TensorPolynomial.one(L1) + TensorPolynomial.one(L2)

    def test_multiplication_componentwise(self):
        x = parse_monomial("xi1", L1)
        a = TensorPolynomial(L1, [(x, Monomial.one(L1))])
        b = TensorPolynomial(L1, [(Monomial.one(L1), x)])
        assert a * b == TensorPolynomial(L1, [(x, x)])

    def test_multiplication_truncates(self):
        x = parse_monomial("xi2", L1)
        t = TensorPolynomial(L1, [(x, Monomial.one(L1))])
        assert (t * t).is_zero

    def test_str_order(self):
        d = coproduct_generator(1, 0, L1)
        assert str(d) == "xi1^1 (x) 1 + 1 (x) xi1^1"
        assert str(TensorPolynomial.zero(L1)) == "0"


class TestCompositions:
    def test_small_cases(self):
        assert set(compositions(1)) == {(1,)}
        assert set(compositions(2)) == {(2,), (1, 1)}
        assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}

    def test_cut_mask_order(self):
        # bit pos of the mask index cuts after position pos, the lowest bit first
        assert list(compositions(3)) == [(3,), (1, 2), (2, 1), (1, 1, 1)]
        assert list(compositions(4)) == [
            (4,), (1, 3), (2, 2), (1, 1, 2), (3, 1), (1, 2, 1), (2, 1, 1), (1, 1, 1, 1)
        ]

    def test_counts_up_to_eight(self):
        for i in range(1, 9):
            parts = list(compositions(i))
            assert len(parts) == 1 << (i - 1)
            assert len(set(parts)) == len(parts)
            assert all(sum(c) == i for c in parts)

    def test_positive_total_required(self):
        with pytest.raises(ValueError):
            list(compositions(0))


class TestCoproduct:
    def test_primitive_generator(self):
        d = coproduct_generator(1, 0, L1)
        u = Monomial.one(L1)
        x = parse_monomial("xi1", L1)
        assert d == TensorPolynomial(L1, [(x, u), (u, x)])

    def test_second_generator(self):
        d = coproduct_generator(2, 0, L2)
        u = Monomial.one(L2)
        assert d == TensorPolynomial(
            L2,
            [
                (parse_monomial("xi2", L2), u),
                (parse_monomial("xi1^2", L2), parse_monomial("xi1", L2)),
                (u, parse_monomial("xi2", L2)),
            ],
        )

    def test_squared_generator(self):
        d = coproduct_generator(2, 1, L3)
        u = Monomial.one(L3)
        assert d == TensorPolynomial(
            L3,
            [
                (parse_monomial("xi2^2", L3), u),
                (parse_monomial("xi1^4", L3), parse_monomial("xi1^2", L3)),
                (u, parse_monomial("xi2^2", L3)),
            ],
        )

    def test_frobenius_shortcut_matches_naive_powers(self):
        # square and fourth power by repeated tensor multiplication
        for i, j in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]:
            naive = coproduct_generator(i, 0, UNTRUNCATED)
            for _ in range(j):
                naive = naive * naive
            assert coproduct_generator(i, j, UNTRUNCATED) == naive

    def test_unit_is_grouplike(self):
        assert coproduct(Monomial.one(L2)) == TensorPolynomial.one(L2)

    def test_cube_of_first_generator(self):
        d = coproduct(parse_monomial("xi1^3", L1))
        u = Monomial.one(L1)
        x1 = parse_monomial("xi1", L1)
        x2 = parse_monomial("xi1^2", L1)
        x3 = parse_monomial("xi1^3", L1)
        assert d == TensorPolynomial(L1, [(x3, u), (x2, x1), (x1, x2), (u, x3)])

    def test_generator_out_of_range(self):
        with pytest.raises(ValueError):
            coproduct_generator(3, 0, L1)
        with pytest.raises(ValueError):
            coproduct_generator(2, 1, L1)

    def test_multiplicative_exhaustive_small(self):
        # algebra map: coproduct of a product is the product of coproducts
        for level in (L0, L1):
            for x in enumerate_monomials(level):
                for y in enumerate_monomials(level):
                    p = x * y
                    lhs = (
                        coproduct(next(iter(p.terms)))
                        if not p.is_zero
                        else TensorPolynomial.zero(level)
                    )
                    assert lhs == coproduct(x) * coproduct(y), (x, y)

    @given(st.integers(0, 63), st.integers(0, 63))
    @settings(max_examples=40)
    def test_multiplicative_sampled(self, a, b):
        from steengraph.algebra import monomial_from_index

        x = monomial_from_index(L2, a)
        y = monomial_from_index(L2, b)
        p = x * y
        lhs = (
            coproduct(next(iter(p.terms))) if not p.is_zero else TensorPolynomial.zero(L2)
        )
        assert lhs == coproduct(x) * coproduct(y)


class TestCounit:
    def test_values(self):
        assert counit(Monomial.one(L2)) == 1
        assert counit(parse_monomial("xi3", L2)) == 0
        assert counit(parse_monomial("xi1^2 xi2", L2)) == 0

    def test_on_polynomials(self):
        p = Polynomial.one(L1) + parse_monomial("xi1", L1).as_polynomial()
        assert counit(p) == 1
        assert counit(Polynomial.zero(L1)) == 0


class TestAntipode:
    def test_first_generators(self):
        assert antipode_generator(1, UNTRUNCATED) == poly(["xi1"], UNTRUNCATED)
        assert antipode_generator(2, UNTRUNCATED) == poly(["xi2", "xi1^3"], UNTRUNCATED)
        assert antipode_generator(3, UNTRUNCATED) == poly(
            ["xi3", "xi1 xi2^2", "xi2 xi1^4", "xi1^7"], UNTRUNCATED
        )

    def test_term_count_is_composition_count(self):
        for i in range(1, 9):
            assert len(antipode_generator(i, UNTRUNCATED)) == 1 << (i - 1)

    def test_truncation_can_kill_terms(self):
        # at n=1 both terms of c(xi2) sit exactly on their bounds
        c = antipode_generator(2, L1)
        assert c == poly(["xi2", "xi1^3"], L1)
        with pytest.raises(ValueError):
            antipode_generator(2, L0)

    def test_unit(self):
        assert antipode(Monomial.one(L2)) == Polynomial.one(L2)

    def test_squared_generator(self):
        assert antipode(parse_monomial("xi2^2", L3)) == poly(["xi2^2", "xi1^6"], L3)

    def test_powers_of_first_generator_are_fixed(self):
        for j in range(3):
            g = Monomial.generator_power(1, j, L3)
            assert antipode(g) == g.as_polynomial()

    def test_recursion_residuals_vanish(self):
        for i in range(1, 9):
            assert antipode_recursion_residual(i).is_zero, i

    def test_verify_recursion(self):
        assert verify_antipode_recursion(8)
        with pytest.raises(ValueError):
            verify_antipode_recursion(0)

    def test_antipode_is_an_algebra_map_where_products_survive(self):
        for x in enumerate_monomials(L1):
            for y in enumerate_monomials(L1):
                p = x * y
                if p.is_zero:
                    continue
                assert antipode(next(iter(p.terms))) == antipode(x) * antipode(y)


class TestDirectedPathPolynomial:
    def test_two_step_edge(self):
        assert directed_path_polynomial(0, 2, L1) == poly(["xi2", "xi1^3"], L1)

    def test_single_edge(self):
        assert directed_path_polynomial(1, 1, L3) == poly(["xi1^2"], L3)

    def test_three_step_edge_matches_antipode(self):
        assert directed_path_polynomial(0, 3, L2) == antipode_generator(3, L2)

    def test_term_count(self):
        for i in range(1, 5):
            assert len(directed_path_polynomial(0, i, UNTRUNCATED)) == 1 << (i - 1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            directed_path_polynomial(3, 1, L2)
        with pytest.raises(ValueError):
            directed_path_polynomial(0, 0, L2)

    def test_equality_with_antipode_all_generator_powers(self):
        for level in (L0, L1, L2, L3):
            for i in range(1, level.n + 2):
                for j in range(level.n + 2 - i):
                    g = Monomial.generator_power(i, j, level)
                    assert antipode(g) == directed_path_polynomial(j, i, level), (i, j)

    def test_coproduct_middle_terms_are_path_splittings(self):
        for level in (L1, L2, L3):
            for i in range(1, level.n + 2):
                for j in range(level.n + 2 - i):
                    middle = {
                        t
                        for t in coproduct_generator(i, j, level).terms
                        if not t[0].is_one and not t[1].is_one
                    }
                    expected = {
                        (
                            Monomial.generator_power(i - k, j + k, level),
                            Monomial.generator_power(k, j, level),
                        )
                        for k in range(1, i)
                    }
                    assert middle == expected, (i, j)


class TestUnilateralViaAntipode:
    def test_worked_examples(self):
        assert unilateral_via_antipode(parse_monomial("xi1^15 xi3^2", L3))
        assert not unilateral_via_antipode(parse_monomial("xi1^6 xi2 xi3", L2))

    def test_top_class(self):
        for level in (L0, L1, L2, L3):
            # the last index has every edge bit set
            assert unilateral_via_antipode(monomial_from_index(level, monomial_count(level) - 1))

    def test_agrees_with_walk_counts_small(self):
        for level in (L0, L1, L2):
            for x in enumerate_monomials(level):
                assert unilateral_via_antipode(x) == is_unilateral(x), x

    def test_passed_slots_match_the_built_ones(self):
        for level in (L0, L1, L2, L3):
            slots = antipode_slots(level)
            for x in enumerate_monomials(level):
                for edgewise in (True, False):
                    expected = unilateral_via_antipode(x, edgewise)
                    assert unilateral_via_antipode(x, edgewise, slots) == expected, x

    def test_integer_reading_differs_somewhere(self):
        # the bit-subset reading is the sound one; plain exponent
        # comparison accepts this non-unilateral monomial
        x = parse_monomial("xi1^5 xi2^2", L2)
        assert not is_unilateral(x)
        assert not unilateral_via_antipode(x)
        assert unilateral_via_antipode(x, edgewise=False)


class TestHopfIdeal:
    def test_generator_list(self):
        gens = hopf_ideal_generators(L0)
        assert gens == [
            parse_monomial("xi1^2", UNTRUNCATED),
            parse_monomial("xi2", UNTRUNCATED),
            parse_monomial("xi3", UNTRUNCATED),
        ]

    def test_truncated_coproduct_of_ideal_generator_vanishes(self):
        d = coproduct(parse_monomial("xi1^2", UNTRUNCATED))
        assert truncate_tensor(d, L0).is_zero

    def test_truncated_antipode_of_tail_generator_vanishes(self):
        c = antipode(parse_monomial("xi2", UNTRUNCATED))
        assert c == poly(["xi2", "xi1^3"], UNTRUNCATED)
        assert truncate_polynomial_is_zero(c, L0)

    def test_verify_small_levels(self):
        for n in range(3):
            assert verify_hopf_ideal(n)
            assert hopf_ideal_violations(Level(n)) == []


def truncate_polynomial_is_zero(p, level):
    from steengraph.algebra import truncate_polynomial

    return truncate_polynomial(p, level).is_zero


class TestHopfAxioms:
    def test_counit_laws_on_generator_powers(self):
        for level in (L0, L1, L2):
            for i in range(1, level.n + 2):
                for j in range(level.n + 2 - i):
                    assert counit_laws_hold(Monomial.generator_power(i, j, level))

    def test_axioms_on_worked_monomials(self):
        for text, level in [
            ("xi1^6 xi2 xi3", L2),
            ("xi1^15 xi3^2", L3),
            ("xi1^6 xi2^6 xi3 xi4", L3),
            ("1", L0),
        ]:
            x = parse_monomial(text, level)
            assert counit_laws_hold(x)
            assert coassociativity_holds(x)
            assert antipode_identity_holds(x)

    def test_axioms_on_random_sample(self):
        for x in random_monomials(L2, 25, seed=505):
            assert counit_laws_hold(x)
            assert coassociativity_holds(x)
            assert antipode_identity_holds(x)

    def test_axioms_untruncated(self):
        x = parse_monomial("xi1^3 xi4^2", UNTRUNCATED)
        assert counit_laws_hold(x)
        assert coassociativity_holds(x)
        assert antipode_identity_holds(x)


def coproduct_by_generators(x):
    """The F2Sum route: product of the generator coproducts of the dyadic bits of x."""
    acc = TensorPolynomial.one(x.level)
    for i, j in x.dyadic_bits():
        acc = acc * coproduct_generator(i, j, x.level)
    return acc


def antipode_by_generators(x):
    """The F2Sum route: antipode_generator(i)^(2^j), by squaring, multiplied over the bits of x."""
    acc = Polynomial.one(x.level)
    for i, j in x.dyadic_bits():
        power = antipode_generator(i, x.level)
        for _ in range(j):
            power = power * power
        acc = acc * power
    return acc


WIDE_UNTRUNCATED = ["xi1^1048577 xi3^5", "xi2^4097 xi4^3", "xi1^7 xi5^2 xi6", "xi7^64"]


class TestPackedKernel:
    """coproduct and antipode on packed ints against products of F2 sums of generator images."""

    def test_every_monomial_up_to_n2(self):
        for level in (L0, L1, L2):
            for x in enumerate_monomials(level):
                assert coproduct(x) == coproduct_by_generators(x), x
                assert antipode(x) == antipode_by_generators(x), x

    @given(st.integers(0, 1023))
    @settings(max_examples=40, deadline=None)
    def test_sampled_monomials_at_n3(self, index):
        from steengraph.algebra import monomial_from_index

        x = monomial_from_index(L3, index)
        assert coproduct(x) == coproduct_by_generators(x)
        assert antipode(x) == antipode_by_generators(x)

    @pytest.mark.parametrize("text", WIDE_UNTRUNCATED)
    def test_wide_untruncated_exponents(self, text):
        x = parse_monomial(text, UNTRUNCATED)
        assert coproduct(x) == coproduct_by_generators(x)
        assert antipode(x) == antipode_by_generators(x)
        assert counit_laws_hold(x) and antipode_identity_holds(x)

    def test_dropped_splitting_breaks_coassociativity(self, monkeypatch):
        with monkeypatch.context() as patch:
            drop_a_splitting(patch)
            failing = [x for x in enumerate_monomials(L2) if not coassociativity_holds(x)]
        assert parse_monomial("xi3", L2) in failing
        assert all(coassociativity_holds(x) for x in enumerate_monomials(L2))


def coassociativity_by_flat_sum(x):
    """The flat route: xor both rank-3 sums, term batch by term batch, into one set."""
    pk = hopf._packing_of(x)
    size = pk.size
    low = (1 << size) - 1
    delta = hopf._coproducts(pk)
    both = set()
    for t in delta[pk.pack(x.exponents)]:
        a, b = t >> size, t & low
        both ^= {u << size | b for u in delta[a]}
        both ^= {a << 2 * size | u for u in delta[b]}
    return not both


def drop_a_splitting(patch):
    """xi_2 loses xi1^2 (x) xi1, the one splitting of the edge 0 -> 2, at every packing."""
    terms = hopf._coproduct_terms
    patch.setattr(
        hopf, "_coproduct_terms", lambda pk, i, j: terms(pk, i, j)[:2 if (i, j) == (2, 0) else None]
    )


def add_a_square(patch):
    """xi_1 gains xi1 (x) xi1: for xi2 the right-hand sum then has a term the left lacks."""
    terms = hopf._coproduct_terms

    def with_a_square(pk, i, j):
        image = terms(pk, i, j)
        return image + (image[1] << pk.size | image[1],) if (i, j) == (1, 0) else image

    patch.setattr(hopf, "_coproduct_terms", with_a_square)


def axioms_sample(level):
    """The monomials the hopf-axioms check of verify runs at a level."""
    sample = [Monomial.generator_power(i, j, level) for i, j in level.generator_powers()]
    return sample + random_monomials(
        level, verify.RANDOM_SAMPLE_SIZE, verify.RANDOM_SEED + level.n
    )


class TestSharedExpansions:
    """The grouped coassociativity check and the shared expansion pair against the flat route."""

    @pytest.mark.parametrize("mutation", [None, drop_a_splitting, add_a_square])
    def test_grouped_matches_flat_on_every_monomial_up_to_n2(self, monkeypatch, mutation):
        verdicts = []
        with monkeypatch.context() as patch:
            if mutation:
                mutation(patch)
            for level in (L0, L1, L2):
                pair = axiom_expansions(level)
                for x in enumerate_monomials(level):
                    flat = coassociativity_by_flat_sum(x)
                    assert coassociativity_holds(x) == flat, x
                    assert coassociativity_holds(x, pair) == flat, x
                    verdicts.append(flat)
        assert all(verdicts) == (mutation is None)
        assert any(verdicts)

    def test_a_term_only_the_right_hand_sum_has_breaks_coassociativity(self, monkeypatch):
        # every term of the left-hand sum is in the right-hand one: only the counts differ
        x = parse_monomial("xi2", L1)
        with monkeypatch.context() as patch:
            add_a_square(patch)
            assert not coassociativity_by_flat_sum(x)
            assert not coassociativity_holds(x)

    @pytest.mark.parametrize("mutation", [None, drop_a_splitting])
    def test_grouped_matches_flat_on_the_n3_axioms_sample(self, monkeypatch, mutation):
        verdicts = []
        with monkeypatch.context() as patch:
            if mutation:
                mutation(patch)
            pair = axiom_expansions(L3)
            for x in axioms_sample(L3):
                flat = coassociativity_by_flat_sum(x)
                assert coassociativity_holds(x, pair) == flat, x
                assert coassociativity_holds(x) == flat, x
                verdicts.append(flat)
        assert all(verdicts) == (mutation is None)

    @pytest.mark.parametrize("text", WIDE_UNTRUNCATED)
    def test_grouped_matches_flat_on_wide_untruncated_exponents(self, monkeypatch, text):
        x = parse_monomial(text, UNTRUNCATED)
        assert coassociativity_holds(x) and coassociativity_by_flat_sum(x)
        with monkeypatch.context() as patch:
            drop_a_splitting(patch)
            assert coassociativity_holds(x) == coassociativity_by_flat_sum(x)

    def test_hopf_axioms_check_under_a_dropped_splitting_matches_the_reference(self, monkeypatch):
        with monkeypatch.context() as patch:
            drop_a_splitting(patch)
            expected = []
            for x in axioms_sample(L3):
                if not counit_laws_hold(x):
                    expected.append(f"counit laws fail on {x}")
                if not coassociativity_by_flat_sum(x):
                    expected.append(f"coassociativity fails on {x}")
                if not antipode_identity_holds(x):
                    expected.append(f"antipode identity fails on {x}")
            if not verify_hopf_ideal(3):
                expected.append("truncation ideal at n=3 fails a Hopf-ideal check")
            result = verify.run_check("hopf-axioms", 3)
        assert any(w.startswith("coassociativity fails") for w in expected)
        assert result.failures == expected
        assert result.cases == len(axioms_sample(L3)) + 2

    def test_each_generator_image_is_listed_once_a_check(self, monkeypatch):
        terms = hopf._coproduct_terms
        listed = collections.Counter()

        def counted(pk, i, j):
            listed[pk, i, j] += 1
            return terms(pk, i, j)

        monkeypatch.setattr(hopf, "_coproduct_terms", counted)
        assert verify.run_check("hopf-axioms", 3).ok
        assert listed and max(listed.values()) == 1

    def test_a_pair_on_another_packing_is_refused(self):
        x = parse_monomial("xi1^3", L2)
        for predicate in (counit_laws_hold, coassociativity_holds, antipode_identity_holds):
            assert predicate(x, axiom_expansions(L2))
            with pytest.raises(ValueError):
                predicate(x, axiom_expansions(L3))
        with pytest.raises(ValueError):
            axiom_expansions(UNTRUNCATED)


def residual_by_polynomials(i):
    """The F2Sum route: the recursion summed as Polynomials, a Monomial product a term."""
    acc = Polynomial.zero(UNTRUNCATED)
    for k in range(i + 1):
        if k == i:
            left = Polynomial.one(UNTRUNCATED)
        else:
            left = Monomial.generator_power(i - k, k, UNTRUNCATED).as_polynomial()
        right = (
            Polynomial.one(UNTRUNCATED)
            if k == 0
            else antipode_generator(k, UNTRUNCATED)
        )
        acc = acc + left * right
    return acc


def drop_a_composition(patch):
    """xi_i^(2^j) for i >= 3 loses its last composition term, the path of i single steps."""
    terms = hopf._antipode_terms
    patch.setattr(
        hopf, "_antipode_terms", lambda pk, i, j: terms(pk, i, j)[:-1 if i >= 3 else None]
    )


class TestPackedRecursion:
    """The recursion residual on packed ints against the sum of Polynomial products."""

    @pytest.mark.parametrize("mutation", [None, drop_a_composition])
    def test_packed_residual_matches_the_polynomial_sum(self, monkeypatch, mutation):
        with monkeypatch.context() as patch:
            if mutation:
                mutation(patch)
            residuals = [antipode_recursion_residual(i) for i in range(1, 9)]
            assert residuals == [residual_by_polynomials(i) for i in range(1, 9)]
        # under the mutation, at i = 4 the xi1^15 dropped from k = 3 and k = 4 cancels
        nonzero = [] if mutation is None else [3, 5, 6, 7, 8]
        assert [i for i, r in enumerate(residuals, start=1) if not r.is_zero] == nonzero

    def test_no_check_multiplies_monomials(self, monkeypatch):
        def refused(x, y):
            raise AssertionError(f"monomial_product({x}, {y}) called by a check")

        monkeypatch.setattr(algebra, "monomial_product", refused)
        monkeypatch.setattr(hopf, "monomial_product", refused)
        assert all(r.ok for r in verify.run_all(3))
