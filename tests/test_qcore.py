"""Exact-arithmetic core: polynomials, rationals, Laurent values, Pochhammer
symbols, Gaussian binomials and the terminating series summator."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from pfes import qcore
from pfes.qcore import (
    ONE, ZERO, Q, QLaurent, QPoly, QRational, PowerParam,
    LowerParamPole, NotDivisible, NotPolynomial, ZeroDenominator,
    _SPARSE_TERMS, _prs_gcd,
    gauss_binomial, geometric_series, monomial, neg_qpow, phi_eval,
    pochhammer, poly_exact_div, poly_gcd, q_product, q_quotient, qpow,
)


def gauss_binomial_by_partitions(m, r, b):
    """Independent oracle: coefficient of q^(b*t) counts partitions of t
    that fit in an r x (m-r) box (at most r parts, each at most m-r)."""
    if r < 0 or r > m:
        return QPoly()
    w = m - r
    # dp[parts][total]
    dp = [[0] * (r * w + 1) for _ in range(r + 1)]
    dp[0][0] = 1
    for size in range(1, w + 1):
        new = [row[:] for row in dp]
        for parts in range(1, r + 1):
            for total in range(size, r * w + 1):
                # add one more part of this size on top of a partition whose
                # parts are all < size or fewer copies of `size`
                new[parts][total] += new[parts - 1][total - size]
        dp = new
    coeffs = [0] * (b * r * w + 1)
    for total in range(r * w + 1):
        coeffs[b * total] = sum(dp[parts][total] for parts in range(r + 1))
    return QPoly(coeffs)


small_polys = st.lists(st.integers(-9, 9), max_size=6).map(QPoly)


def schoolbook_mul(a, b):
    """Reference product: every coefficient pair, zeros included."""
    if a.is_zero or b.is_zero:
        return ZERO
    out = [0] * (a.degree + b.degree + 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return QPoly(out)


def terms_of(data, min_terms, max_terms, max_degree=300, bound=2 ** 200):
    """A polynomial with the given range of nonzero terms, placed at random
    exponents up to max_degree, so long zero runs occur."""
    terms = data.draw(st.dictionaries(
        st.integers(0, max_degree),
        st.integers(-bound, bound).filter(bool),
        min_size=min_terms, max_size=max_terms))
    cs = [0] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        cs[e] = c
    return QPoly(cs)


def reduce_by_prs(num, den):
    """Reference reduction: PRS gcd, then divide, then make lc(den) > 0."""
    g = _prs_gcd(num, den)
    num, den = poly_exact_div(num, g), poly_exact_div(den, g)
    return (-num, -den) if den.lc < 0 else (num, den)


def planted(data):
    """(a, b): a high-degree common factor of (1 - q^e) factors and a dense
    part, times two cofactors, each possibly with an integer content."""
    exps = data.draw(st.lists(st.integers(1, 30), max_size=8))
    dense = terms_of(data, 1, 40, max_degree=60, bound=2 ** 20)
    common = q_product(exps) * dense * data.draw(st.integers(1, 6))
    u = terms_of(data, 1, 30, max_degree=60, bound=2 ** 12)
    v = terms_of(data, 1, 30, max_degree=60, bound=2 ** 12)
    return common * u, common * v


class TestQPoly:
    def test_canonical_form_strips_trailing_zeros(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPoly([0, 0]).coeffs == ()
        assert QPoly().degree == -1

    def test_product_difference_of_squares(self):
        assert (Q - 1) * (Q + 1) == monomial(2) - 1

    def test_additive_identity(self):
        p = QPoly([3, 0, 1])
        assert p + ZERO == p

    def test_geometric_telescope(self):
        assert QPoly([1, 1, 1]) * (Q - 1) == monomial(3) - 1

    def test_degree_adds_under_multiplication(self):
        a, b = QPoly([1, 2, 3]), QPoly([5, 0, 0, 1])
        assert (a * b).degree == a.degree + b.degree

    def test_evaluation(self):
        assert QPoly([1, 1, 2, 1, 1])(2) == 1 + 2 + 8 + 8 + 16

    def test_str_descending_powers(self):
        assert str(QPoly([1, 1, 2, 2, 2, 1, 1])) == "q^6+q^5+2q^4+2q^3+2q^2+q+1"
        assert str(QPoly([0, 0, -1, 0, 0, 1])) == "q^5-q^2"
        assert str(ZERO) == "0"

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    # sparser operand at most _SPARSE_TERMS terms: term-by-term loop;
    # both above it: Kronecker substitution; and both sides of the switch
    @pytest.mark.parametrize("terms_a, terms_b", [
        ((0, _SPARSE_TERMS), (0, 301)),
        ((_SPARSE_TERMS + 1, 120), (_SPARSE_TERMS + 1, 301)),
        ((_SPARSE_TERMS - 1, _SPARSE_TERMS + 2), (_SPARSE_TERMS - 1, _SPARSE_TERMS + 2)),
    ], ids=["sparse", "kronecker", "boundary"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_product_matches_schoolbook(self, terms_a, terms_b, data):
        a, b = terms_of(data, *terms_a), terms_of(data, *terms_b)
        expected = schoolbook_mul(a, b)
        assert a * b == expected
        assert b * a == expected

    @pytest.mark.parametrize("sign_b", [1, -1])
    def test_product_at_the_coefficient_bound(self, sign_b):
        # every product coefficient reaches 300 * 2**400 in absolute value
        a = QPoly([-(2 ** 200)] * 300)
        b = QPoly([sign_b * 2 ** 200] * 300)
        assert a * b == schoolbook_mul(a, b)
        alternating = QPoly([(-1) ** t * 2 ** 200 for t in range(300)])
        assert alternating * alternating == schoolbook_mul(alternating, alternating)

    def test_equal_values_hash_equally(self):
        assert hash(QPoly([3])) == hash(3)
        assert hash(ZERO) == hash(0)
        assert len({QPoly([3]), 3}) == 1
        p = QPoly([1, 2])
        assert hash(QRational(p)) == hash(p)
        assert hash(QRational(-5)) == hash(-5)
        assert len({QRational(p), p}) == 1
        assert len({QRational(3), QPoly([3]), 3}) == 1

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_exact_division_inverts_multiplication(self, a, b):
        if b.is_zero:
            return
        assert poly_exact_div(a * b, b) == a


class TestExactDivision:
    def test_geometric_series_quotient(self):
        assert poly_exact_div(monomial(4) - 1, Q - 1) == QPoly([1, 1, 1, 1])

    def test_zero_numerator(self):
        assert poly_exact_div(ZERO, Q - 1) == ZERO

    def test_remainder_raises_with_operands(self):
        num, den = monomial(2) + 1, Q - 1
        with pytest.raises(NotDivisible) as err:
            poly_exact_div(num, den)
        assert err.value.num == num
        assert err.value.den == den


class TestQRational:
    def test_common_factor_cancels(self):
        r = QRational(monomial(4) - 1, monomial(2) - 1)
        assert r.num == monomial(2) + 1
        assert r.den == ONE
        assert r.is_polynomial

    def test_already_reduced_is_not_polynomial(self):
        r = QRational(QPoly([1, 1, 1]), QPoly([1, 1]))
        assert r.num == QPoly([1, 1, 1])
        assert r.den == QPoly([1, 1])
        assert not r.is_polynomial

    def test_zero_numerator_normalizes(self):
        r = QRational(ZERO, Q - 1)
        assert r.num == ZERO and r.den == ONE

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            QRational(ONE, ZERO)

    def test_sign_normalization(self):
        r = QRational(ONE, 1 - Q)  # denominator has negative leading term
        assert r.den == Q - 1
        assert r.num == -ONE

    def test_cross_multiplied_equality(self):
        a = QRational((monomial(2) - 1) * QPoly([1, 1, 1]), (Q - 1) * QPoly([1, 1, 1]))
        b = QRational(QPoly([1, 1]), ONE)
        assert a == b

    def test_integer_content_reduces(self):
        r = QRational(QPoly([2, 2]), QPoly([2]))
        assert r.num == QPoly([1, 1]) and r.den == ONE

    def test_arithmetic(self):
        half = QRational(ONE, Q + 1)
        assert half + half == QRational(QPoly([2]), Q + 1)
        assert half * (Q + 1) == QRational(ONE)
        assert (half / half) == QRational(ONE)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_canonical_form_matches_prs_reduction(self, data):
        a, b = planted(data)
        r = QRational(a, b)
        assert (r.num, r.den) == reduce_by_prs(a, b)


class TestPochhammer:
    def test_two_factor_product(self):
        got = pochhammer(qpow(1), 1, 2)
        assert got == QLaurent((1 - Q) * (1 - monomial(2)))
        assert got.body == QPoly([1, -1, -1, 1])

    def test_unit_argument_kills_product(self):
        assert pochhammer(qpow(0), 2, 1).is_zero
        assert pochhammer(qpow(0), 2, 3).is_zero

    def test_negated_argument(self):
        assert pochhammer(neg_qpow(1), 1, 2) == QLaurent((1 + Q) * (1 + monomial(2)))

    def test_empty_product_is_one(self):
        assert pochhammer(qpow(7), 3, 0) == QLaurent(ONE)

    def test_negative_exponent_gets_laurent_shift(self):
        got = pochhammer(qpow(-2), 2, 1)  # 1 - q^-2 = q^-2 (q^2 - 1)
        assert got.shift == -2
        assert got.body == monomial(2) - 1

    @given(st.integers(-4, 4), st.integers(1, 3), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_splitting(self, e, b, k1, k2):
        a = qpow(e)
        whole = pochhammer(a, b, k1 + k2)
        split = pochhammer(a, b, k1) * pochhammer(a.shifted(b * k1), b, k2)
        assert whole == split


class TestGaussBinomial:
    def test_matches_displayed_value(self):
        assert gauss_binomial(4, 2, 1) == QPoly([1, 1, 2, 1, 1])

    def test_empty_choice(self):
        assert gauss_binomial(9, 0, 3) == ONE

    def test_five_choose_two(self):
        # frozen from the partition-box oracle
        assert gauss_binomial_by_partitions(5, 2, 1) == QPoly([1, 1, 2, 2, 2, 1, 1])
        assert gauss_binomial(5, 2, 1) == QPoly([1, 1, 2, 2, 2, 1, 1])

    def test_out_of_range_is_zero(self):
        assert gauss_binomial(3, 5, 1) == ZERO
        assert gauss_binomial(3, -1, 1) == ZERO
        assert gauss_binomial(-2, 0, 1) == ZERO

    def test_agrees_with_partition_oracle(self):
        for m in range(0, 9):
            for r in range(0, m + 1):
                for b in (1, 2):
                    assert gauss_binomial(m, r, b) == gauss_binomial_by_partitions(m, r, b)

    def test_symmetry(self):
        for m in range(0, 10):
            for r in range(0, m + 1):
                assert gauss_binomial(m, r, 1) == gauss_binomial(m, m - r, 1)

    def test_counts_at_one(self):
        for m in range(0, 13):
            for r in range(0, m + 1):
                assert gauss_binomial(m, r, 2)(1) == math.comb(m, r)

    def test_palindromic(self):
        for m in range(0, 10):
            for r in range(0, m + 1):
                p = gauss_binomial(m, r, 2)
                assert p.is_palindromic
                assert p.degree == 2 * r * (m - r)

    def test_alternating_sum_telescopes(self):
        # sum_s (-1)^s q^(s(s-1)) [a choose s]_{q^2} is 1 for a=0 and 0 otherwise
        for a in range(0, 11):
            total = ZERO
            for s in range(0, a + 1):
                total = total + (-1) ** s * monomial(s * (s - 1)) * gauss_binomial(a, s, 2)
            assert total == (ONE if a == 0 else ZERO)


def schoolbook_product(exponents):
    out = ONE
    for a in exponents:
        out = out * (ONE - monomial(a))
    return out


exponent_lists = st.lists(st.integers(1, 9), max_size=5)


class TestQProducts:
    """q_product and q_quotient against an explicit (1 - q^a) loop and
    poly_exact_div."""

    @given(exponent_lists)
    def test_product_matches_schoolbook(self, exponents):
        assert q_product(exponents) == schoolbook_product(exponents)

    @given(exponent_lists, exponent_lists)
    def test_quotient_matches_schoolbook(self, tops, bottoms):
        num, den = schoolbook_product(tops), schoolbook_product(bottoms)
        try:
            expected = poly_exact_div(num, den)
        except NotDivisible:
            with pytest.raises(NotPolynomial, match="cell 7"):
                q_quotient(tops, bottoms, "cell 7")
        else:
            assert q_quotient(tops, bottoms, "cell 7") == expected

    @given(exponent_lists, exponent_lists)
    def test_quotient_of_a_multiple(self, extra, bottoms):
        tops = list(reversed(bottoms)) + extra
        assert q_quotient(tops, bottoms, "") == schoolbook_product(extra)

    def test_empty_lists_give_one(self):
        assert q_product([]) == ONE
        assert q_quotient([], [], "") == ONE

    def test_product_exponent_zero_and_negative(self):
        assert q_product([3, 0, 2]) == ZERO
        with pytest.raises(ValueError):
            q_product([2, -1])

    def test_quotient_by_a_higher_degree_divisor_raises(self):
        with pytest.raises(NotPolynomial) as info:
            q_quotient([2], [5], "cell 9")
        assert info.value.num == ONE - monomial(2)
        assert info.value.den == ONE - monomial(5)

    @given(st.lists(st.integers(-9, 9), max_size=4),
           st.lists(st.integers(1, 9), max_size=4))
    def test_zero_top_gives_zero_before_negative_tops(self, tops, bottoms):
        # (1 - q^a) with a < 0 is not a polynomial; the 0 decides first
        assert q_quotient([*tops, 0, -3], bottoms, "") == ZERO

    def test_remainder_raises_with_context(self):
        with pytest.raises(NotPolynomial) as info:
            q_quotient([1], [2], "dual weight (k=1, i=2, n=7)")
        assert info.value.num == ONE - Q
        assert info.value.den == ONE - monomial(2)
        assert "dual weight (k=1, i=2, n=7)" in str(info.value)

    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("m", range(0, 7))
    def test_geometric_series_is_a_binomial(self, m, b):
        assert geometric_series(m, b) == gauss_binomial(m, 1, b)


class TestPolyGcd:
    def test_common_factor_recovered(self):
        g = QPoly([1, 1, 1])
        a = g * QPoly([-1, 0, 1])
        b = g * QPoly([3, 1])
        got, a_co, b_co = poly_gcd(a, b)
        assert got == g or got == -g
        assert (a_co, b_co) == (QPoly([-1, 0, 1]), QPoly([3, 1]))

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40, deadline=None)
    def test_divides_both_and_contains_planted_factor(self, a, b, c):
        x, y = a * c, b * c
        if x.is_zero and y.is_zero:
            return
        g, x_co, y_co = poly_gcd(x, y)
        assert g * x_co == x and g * y_co == y
        if not c.is_zero:
            poly_exact_div(g, poly_gcd(c, g)[0])

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_triple_matches_prs_on_planted_factors(self, data):
        a, b = planted(data)
        g, a_co, b_co = poly_gcd(a, b)
        assert g == _prs_gcd(a, b)
        assert g * a_co == a and g * b_co == b

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_prs_fallback(self, data):
        a, b = planted(data)
        g = _prs_gcd(a, b)
        assert g.lc > 0
        poly_exact_div(a, g)
        poly_exact_div(b, g)
        # the cofactors are coprime: their gcd is a unit
        assert _prs_gcd(poly_exact_div(a, g), poly_exact_div(b, g)) == ONE

    def test_fallback_when_no_heuristic_candidate_divides(self, monkeypatch):
        monkeypatch.setattr(qcore, "_heuristic_gcds", lambda x, y: iter([Q + 5]))
        g0 = QPoly([1, 1, 1]) * 6
        a, b = g0 * QPoly([-1, 0, 1]), g0 * QPoly([3, 1]) * 4
        assert poly_gcd(a, b) == (g0, QPoly([-1, 0, 1]), QPoly([12, 4]))

    def test_zero_operands(self):
        p = QPoly([2, -4])
        assert poly_gcd(ZERO, p) == (-p, ZERO, -ONE)
        assert poly_gcd(p, ZERO) == (-p, -ONE, ZERO)
        assert poly_gcd(ZERO, ZERO) == (ZERO, ZERO, ZERO)


class TestQLaurent:
    def test_shift_is_maximal(self):
        l = QLaurent(QPoly([0, 0, 3, 1]), -1)
        assert l.shift == 1
        assert l.body == QPoly([3, 1])

    def test_zero_has_zero_shift(self):
        assert QLaurent(ZERO, 5).shift == 0

    def test_as_rational_negative_shift(self):
        l = QLaurent(QPoly([1, 1]), -2)
        r = l.as_rational()
        assert r == QRational(QPoly([1, 1]), monomial(2))

    def test_addition_aligns_shifts(self):
        a = QLaurent(ONE, -1)   # q^-1
        b = QLaurent(ONE, 0)    # 1
        assert a + b == QLaurent(QPoly([1, 1]), -1)


class TestPhiEval:
    def test_unit_upper_parameter_truncates_to_one(self):
        got = phi_eval([qpow(0), qpow(5)], [qpow(3)], 1, qpow(2), 6)
        assert got == QRational(ONE)

    def test_zero_terms_is_one(self):
        assert phi_eval([qpow(-4)], [qpow(3)], 2, qpow(1), 0) == QRational(ONE)

    def test_two_term_series_matches_hand_expansion(self):
        # [3 choose 2]_q * 2phi1(q^-2, q^-1; q^-3; base q^2, z=1) = q^2 + q
        phi = phi_eval([qpow(-2), qpow(-1)], [qpow(-3)], 2, qpow(0), 1)
        got = QRational(gauss_binomial(3, 2, 1)) * phi
        assert got == QRational(QPoly([0, 1, 1]))

    def test_lower_pole_detected(self):
        with pytest.raises(LowerParamPole):
            phi_eval([qpow(-6)], [qpow(-2)], 1, qpow(1), 3)

    def test_pole_outside_term_range_is_fine(self):
        # lower q^-2 with base 1 only degenerates from term 3 onward
        phi_eval([qpow(-6)], [qpow(-2)], 1, qpow(1), 2)

    def test_negative_series_excess_uses_laurent_weights(self):
        # one upper parameter, no lower parameter: excess factor power -? no:
        # r=2, s=0 gives excess -1 and negative q-powers in the weights
        got = phi_eval([qpow(-2), neg_qpow(-2)], [], 1, qpow(1), 2)
        assert isinstance(got, QRational)
