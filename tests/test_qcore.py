"""Exact-arithmetic core: polynomials, Pochhammer symbols, products and
quotients of (1 - q^a) factors, Gaussian binomials and the terminating
series summator.  A quotient is a pair (num, den) of QPolys, compared by
cross-multiplication."""

import math
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from pfes import identities, qcore
from pfes.identities import CutParams, verify_phi_reductions
from pfes.qcore import (
    ONE, ZERO, Q, QPoly,
    NotPolynomial, ZeroDenominator,
    _reduced,
    gauss_binomial, geometric_series, monomial, phi_eval,
    q_divide, q_quotient, q_times,
)


def poly_exact_div(num: QPoly, den: QPoly) -> QPoly:
    """Exact quotient num/den in Z[q] by schoolbook long division; raises
    NotPolynomial otherwise.  The reference for q_divide and q_quotient,
    which the other test modules import from here."""
    if not den:
        raise ZeroDenominator("division by the zero polynomial")
    if not num:
        return ZERO
    if num.degree < den.degree:
        raise NotPolynomial(num, den)
    rem = list(num.coeffs)
    dd = den.degree
    dlc = den.coeffs[-1]
    quo = [0] * (num.degree - dd + 1)
    for i in range(num.degree - dd, -1, -1):
        c = rem[i + dd]
        if c == 0:
            continue
        head, tail = divmod(c, dlc)
        if tail:
            raise NotPolynomial(num, den)
        quo[i] = head
        for j, dc in enumerate(den.coeffs):
            rem[i + j] -= head * dc
    if any(rem):
        raise NotPolynomial(num, den)
    return QPoly(quo)


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

# For tests on large operands: the same examples are drawn, but a failure is
# reported as found, since shrinking a broken multiply's failing 300-term
# operands takes minutes.
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


def schoolbook_mul(a, b):
    """Reference product: every coefficient pair, zeros included."""
    if not a or not b:
        return ZERO
    out = [0] * (a.degree + b.degree + 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return QPoly(out)


def plain(p):
    """The coefficients of p as a list, lowest first."""
    return list(p.coeffs)


def plain_sum(xs, ys):
    """Reference sum of two coefficient lists, without trailing zeros."""
    out = [0] * max(len(xs), len(ys))
    for cs in (xs, ys):
        for i, c in enumerate(cs):
            out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


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


def planted(data):
    """(a, b): a high-degree common factor of (1 - q^e) factors and a dense
    part, times two cofactors, each possibly with an integer content."""
    exps = data.draw(st.lists(st.integers(1, 30), max_size=8))
    dense = terms_of(data, 1, 40, max_degree=60, bound=2 ** 20)
    common = q_quotient(exps, (), "") * dense * data.draw(st.integers(1, 6))
    u = terms_of(data, 1, 30, max_degree=60, bound=2 ** 12)
    v = terms_of(data, 1, 30, max_degree=60, bound=2 ** 12)
    return common * u, common * v


class TestQPoly:
    def test_truth_is_the_one_zero_test(self):
        assert not QPoly() and not QPoly([0, 0]) and not ZERO
        assert QPoly([0, 1]) and QPoly([-1]) and ONE
        assert not hasattr(QPoly, "is_zero")

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

    def test_render_spells_the_variable(self):
        assert QPoly([1, -1, 0, 2]).render("uv") == "2(uv)^3-uv+1"
        assert QPoly([0, 3]).render("t") == "3t"

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    # operands from zero or one nonzero term up to dense ones: constants
    # scale, every other product is one Kronecker multiply
    @pytest.mark.parametrize("terms_a, terms_b", [
        ((0, 16), (0, 301)),
        ((17, 120), (17, 301)),
        ((15, 18), (15, 18)),
    ], ids=["sparse", "kronecker", "boundary"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
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

    # (coefficient bound, digit width): a QPoly is held at the smallest
    # multiple w of 64 bits with max|c| < 2**(w-2), so 2**62 - 1 is the
    # largest coefficient of the 64-bit fast path.  The byte-named cases
    # are bounds whose products fit in 1, 2, 4 or 8 bytes; each is held at
    # 64 bits all the same
    @pytest.mark.parametrize("bound, width", [
        (1, 64), (31, 64), (511, 64), (2 ** 29 - 1, 64),
        (2 ** 62 - 1, 64), (2 ** 62, 128), (2 ** 126 - 1, 128), (2 ** 126, 192),
    ], ids=["1-byte", "2-byte", "3-byte-as-4", "8-byte",
            "64-bit", "128-bit", "128-bit-top", "192-bit"])
    def test_each_digit_width_matches_schoolbook(self, bound, width):
        a = QPoly([-bound, 0, bound, 3, -bound])
        b = QPoly([bound, bound, -1, -bound])
        assert a._w == b._w == width
        for x, y in ((a, b), (b, a)):
            xs, ys = plain(x), plain(y)
            assert plain(x * y) == plain(schoolbook_mul(x, y))
            assert plain(x + y) == plain_sum(xs, ys)
            assert plain(x - y) == plain_sum(xs, [-c for c in ys])
            assert plain(x + x + x) == [3 * c for c in xs]
            assert plain(-x) == [-c for c in xs]
            assert plain(x.shift(3)) == [0, 0, 0, *xs]
            assert plain(x * -7) == plain(-7 * x) == [-7 * c for c in xs]
            assert x.degree == len(xs) - 1

    def test_bounds_that_cross_the_width_match_schoolbook(self):
        doubled = QPoly([1, -1, 2])
        for _ in range(130):
            doubled = doubled + doubled
        assert plain(doubled) == [2 ** 130, -(2 ** 130), 2 ** 131]
        assert plain(doubled - doubled.shift(1)) == [
            2 ** 130, -(2 ** 131), 3 * 2 ** 130, -(2 ** 131)]
        # each coefficient of the square is 300 products of 2**30 - 1 or fewer
        dense = QPoly([2 ** 30 - 1] * 300)
        assert plain(dense * dense) == plain(schoolbook_mul(dense, dense))
        cube = dense * dense * dense
        assert plain(cube) == plain(schoolbook_mul(schoolbook_mul(dense, dense),
                                                   dense))
        # 70 tops (1 - q): each may double the bound, and the coefficients
        # of (1 - q)**70 pass 2**63
        binomials = [(-1) ** k * math.comb(70, k) for k in range(71)]
        assert plain(q_quotient([1] * 70, (), "")) == binomials
        assert q_quotient([1] * 70, [1] * 69, "") == ONE - Q
        tops, bottoms = list(range(1, 71)), list(range(1, 64))
        assert q_quotient(tops, bottoms, "") == schoolbook_product(range(64, 71))

    def test_division_whose_running_sums_cross_the_width(self):
        # the running sums of a division by (1 - q) reach 30 * 2**60 > 2**62
        flat = QPoly([2 ** 60] * 30)
        assert plain(q_divide(flat * (ONE - Q), [1], "")) == [2 ** 60] * 30
        with pytest.raises(NotPolynomial):
            q_divide(flat, [1], "")
        # steps of +-2**58 whose running sums climb to 2**63, which no
        # 64-bit digit holds
        steps = QPoly([2 ** 58] * 32 + [-(2 ** 58)] * 32)
        peak = [k * 2 ** 58 for k in (*range(1, 33), *range(31, 0, -1))]
        assert plain(q_divide(steps, [1], "")) == peak
        ramp = QPoly([(k + 1) * 2 ** 55 for k in range(100)])
        num = ramp * (ONE - Q) * (ONE - monomial(3))
        assert plain(q_divide(num, [1, 3], "")) == plain(ramp)
        assert plain(q_divide(num, [3], "")) == plain(
            poly_exact_div(num, ONE - monomial(3)))
        with pytest.raises(NotPolynomial):
            q_divide(num + 1, [1, 3], "")
        # a top running sum of 1 is a remainder, whatever the digits below
        for b in (1, 2, 3):
            with pytest.raises(NotPolynomial):
                q_divide(ONE - monomial(b) + monomial(2 * b), [b], "")

    def test_equal_values_at_two_widths_compare_and_hash_equal(self):
        wide = QPoly([7, 2 ** 62, 5])
        held_wide = wide - QPoly([0, 2 ** 62])
        narrow = QPoly([7, 0, 5])
        assert held_wide._w > narrow._w
        assert held_wide == narrow and narrow == held_wide
        assert hash(held_wide) == hash(narrow)
        assert len({held_wide, narrow}) == 1
        assert held_wide != narrow + Q and narrow + Q != held_wide
        constant = wide - QPoly([0, 2 ** 62, 5])
        assert constant._w > ONE._w
        assert constant == 7 and constant == QPoly([7])
        assert hash(constant) == hash(7)
        assert wide - wide == ZERO and wide - wide == 0
        assert not wide - wide

    @pytest.mark.parametrize("terms", [1, 2, 16, 17])
    def test_every_nonconstant_product_is_packed(self, monkeypatch, terms):
        # the operands are packed when built; their product multiplies the
        # packed values and neither packs nor decodes
        sparse = QPoly([0, 0, 0, -5] * terms)  # terms nonzero, zeros between
        dense = QPoly(range(1, 60))
        expected = schoolbook_mul(sparse, dense)

        def no_repack(*args):
            raise AssertionError("repacked an operand")

        monkeypatch.setattr(qcore, "_pack", no_repack)
        monkeypatch.setattr(qcore, "_unpack", no_repack)
        products = (sparse * dense, dense * sparse)
        monkeypatch.undo()
        for product in products:
            assert product == expected

    def test_constant_factors_scale_without_packing(self, monkeypatch):
        dense = QPoly(range(-5, 60))
        small = {c: (schoolbook_mul(dense, QPoly([c])), QPoly([c]))
                 for c in (0, 1, -1, 7)}

        def no_repack(*args):
            raise AssertionError("repacked a constant factor")

        monkeypatch.setattr(qcore, "_pack", no_repack)
        monkeypatch.setattr(qcore, "_unpack", no_repack)
        products = {c: (dense * c, c * dense, dense * const, const * dense)
                    for c, (_, const) in small.items()}
        monkeypatch.undo()
        for c, (expected, _) in small.items():
            assert all(product == expected for product in products[c])
        huge = -(2 ** 70)  # past the bound: the product is repacked wider
        expected = schoolbook_mul(dense, QPoly([huge]))
        assert dense * huge == huge * dense == expected
        assert dense * QPoly([huge]) == QPoly([huge]) * dense == expected
        assert dense * ZERO is ZERO and 0 * dense is ZERO
        assert dense * ONE is dense and 1 * dense is dense

    def test_equal_values_hash_equally(self):
        assert hash(QPoly([3])) == hash(3)
        assert hash(ZERO) == hash(0)
        assert len({QPoly([3]), 3}) == 1
        assert hash(QPoly([-5])) == hash(-5)
        assert len({QPoly([1, 2]), QPoly((1, 2, 0))}) == 1

    @given(small_polys, small_polys)
    @settings(max_examples=60, deadline=None)
    def test_exact_division_inverts_multiplication(self, a, b):
        if not b:
            return
        assert poly_exact_div(a * b, b) == a


class TestExactDivision:
    def test_geometric_series_quotient(self):
        assert poly_exact_div(monomial(4) - 1, Q - 1) == QPoly([1, 1, 1, 1])

    def test_zero_numerator(self):
        assert poly_exact_div(ZERO, Q - 1) == ZERO

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDenominator):
            poly_exact_div(ONE, ZERO)

    def test_remainder_raises_with_operands(self):
        num, den = monomial(2) + 1, Q - 1
        with pytest.raises(NotPolynomial) as err:
            poly_exact_div(num, den)
        assert err.value.num == num
        assert err.value.den == den

    @given(data=st.data())
    @settings(max_examples=25, deadline=None, phases=NO_SHRINK)
    def test_quotient_or_remainder_on_planted_factors(self, data):
        a, b = planted(data)
        multiple = data.draw(st.booleans())
        if multiple:
            a = a * b
        try:
            quotient = poly_exact_div(a, b)
        except NotPolynomial:
            assert not multiple
        else:
            assert quotient * b == a


# a series parameter s*q**e as the pair (s, e)
power_params = st.tuples(st.sampled_from([1, -1]), st.integers(-6, 6))


def value_at(pair, x):
    """Exact value of the quotient pair (num, den) at q = x."""
    num, den = pair
    return Fraction(num(x), den(x))


def same(a, b):
    """Whether the quotient pairs a and b are equal, by cross-multiplication."""
    return a[0] * b[1] == b[0] * a[1]


def pochhammer(a, b, k):
    """(a; q^b)_k as the pair (p, q**-shift), reduced by qcore._reduced and
    applied by q_times, as phi_eval applies its ratios; shift <= 0 always."""
    s, e = a
    shift, sign, pairs = _reduced((s, e + b * j) for j in range(k))
    return sign * q_times(ONE, pairs), monomial(-shift)


def pochhammer_by_definition(a, b, k, x):
    """(a; q^b)_k at q = x, one factor (1 - a*q^(b*j)) at a time."""
    s, e = a
    out = Fraction(1)
    for j in range(k):
        out *= 1 - s * Fraction(x) ** (e + b * j)
    return out


def phi_by_definition(upper, lower, b, z, max_terms, x):
    """Terms 0..max_terms of the basic hypergeometric series at q = x, each
    summed as its own ratio of Pochhammer values."""
    big_q = Fraction(x) ** b
    z_sign, z_exp = z
    excess = 1 + len(lower) - len(upper)
    total = Fraction(0)
    for m in range(max_terms + 1):
        term = pochhammer_by_definition((1, b), b, m, x) ** -1
        for a in upper:
            term *= pochhammer_by_definition(a, b, m, x)
        for c in lower:
            term /= pochhammer_by_definition(c, b, m, x)
        term *= ((-1) ** m * big_q ** (m * (m - 1) // 2)) ** excess
        total += term * (z_sign * Fraction(x) ** z_exp) ** m
    return total


def phi_suite_calls(monkeypatch, n):
    """The argument tuples of every phi_eval call that
    identities.verify_phi_reductions makes at each (k, i) for n, recorded
    from the suite itself, each keyed by its rewrite."""
    calls = []
    real = identities.phi_eval

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(identities, "phi_eval", record)
    identities._phi_smooth_row.cache_clear()
    try:
        for k in range(1, (n + 1) // 2):
            for i in range(1, (n + 1) // 2):
                verify_phi_reductions(CutParams(n, k, i))
    finally:
        identities._phi_smooth_row.cache_clear()
    return [(phi_shape(*args), args) for args in calls]


def phi_shape(upper, lower, base, z, max_terms):
    if len(upper) == 2:
        return "2phi1-small" if z == (1, 2) else "2phi1-big"
    return "3phi2" if len(lower) == 2 else "3phi1"


class TestPochhammer:
    def test_two_factor_product(self):
        got = pochhammer((1, 1), 1, 2)
        assert got == ((1 - Q) * (1 - monomial(2)), ONE)
        assert got[0] == QPoly([1, -1, -1, 1])

    def test_unit_argument_kills_product(self):
        assert not pochhammer((1, 0), 2, 1)[0]
        assert not pochhammer((1, 0), 2, 3)[0]

    def test_negated_argument(self):
        assert pochhammer((-1, 1), 1, 2) == ((1 + Q) * (1 + monomial(2)), ONE)

    def test_empty_product_is_one(self):
        assert pochhammer((1, 7), 3, 0) == (ONE, ONE)

    def test_negative_exponent_gets_laurent_shift(self):
        # 1 - q^-2 = (q^2 - 1) / q^2
        assert pochhammer((1, -2), 2, 1) == (monomial(2) - 1, monomial(2))

    @given(power_params, st.integers(1, 3), st.integers(0, 5))
    @settings(max_examples=150, deadline=None)
    def test_matches_factor_by_factor_product(self, a, b, k):
        got = pochhammer(a, b, k)
        for x in (2, 3):
            assert value_at(got, x) == pochhammer_by_definition(a, b, k, x)

    @given(st.integers(-4, 4), st.integers(1, 3), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_splitting(self, e, b, k1, k2):
        whole = pochhammer((1, e), b, k1 + k2)
        (head_num, head_den), (tail_num, tail_den) = (
            pochhammer((1, e), b, k1), pochhammer((1, e + b * k1), b, k2))
        assert same(whole, (head_num * tail_num, head_den * tail_den))


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


GAUSS_KEYS = [(m, r, b) for m in range(0, 25) for r in range(-1, m + 2)
              for b in (1, 2, 3)]


def direct_gauss(m, r, b):
    """The defining quotient, built afresh for every key."""
    if r < 0:
        return ZERO
    return q_quotient([b * (m - i) for i in range(r)],
                      [b * (i + 1) for i in range(r)], "")


class TestGaussBinomialReuse:
    @pytest.fixture(autouse=True)
    def empty_memo(self):
        qcore._GAUSS_CACHE.clear()
        yield
        qcore._GAUSS_CACHE.clear()

    def test_cold_and_warm_values_are_the_quotient(self):
        for key in GAUSS_KEYS:
            qcore._GAUSS_CACHE.clear()
            assert gauss_binomial(*key) == direct_gauss(*key), key
        for key in GAUSS_KEYS:
            gauss_binomial(*key)
        for key in GAUSS_KEYS:
            assert gauss_binomial(*key) == direct_gauss(*key), key

    @pytest.mark.parametrize("spread_first", [True, False])
    def test_spread_and_mirror_in_either_order(self, spread_first):
        for m in range(0, 25):
            for r in range(0, m + 1):
                qcore._GAUSS_CACHE.clear()
                keys = [(m, r, 2), (m, m - r, 1)]
                for key in keys if spread_first else keys[::-1]:
                    assert gauss_binomial(*key) == direct_gauss(*key), key

    def test_every_key_is_stored_over_its_base_one_shape(self):
        for m, r, b in GAUSS_KEYS:
            qcore._GAUSS_CACHE.clear()
            gauss_binomial(m, r, b)
            if 0 <= r <= m and (b > 1 or 2 * r > m):
                assert (m, min(r, m - r), 1) in qcore._GAUSS_CACHE, (m, r, b)
                assert (m, r, b) in qcore._GAUSS_CACHE, (m, r, b)

    def test_mirror_is_the_same_value(self):
        for m in range(0, 25):
            for r in range(0, m + 1):
                assert gauss_binomial(m, r, 1) is gauss_binomial(m, m - r, 1)

    def test_only_base_one_shapes_are_built(self, monkeypatch):
        built = []

        def spy(tops, bottoms, context):
            built.append(context)
            return q_quotient(tops, bottoms, context)

        monkeypatch.setattr(qcore, "q_quotient", spy)
        for key in GAUSS_KEYS:
            gauss_binomial(*key)
        shapes = {(m, min(r, m - r)) for m, r, _ in GAUSS_KEYS if 0 <= r <= m}
        assert sorted(built) == sorted(f"Gaussian binomial (m={m}, r={r})"
                                       for m, r in shapes)


def schoolbook_product(exponents):
    out = ONE
    for a in exponents:
        out = out * (ONE - monomial(a))
    return out


exponent_lists = st.lists(st.integers(1, 9), max_size=5)


class TestQProducts:
    """q_quotient, as a product (no bottoms) and as a quotient, and q_divide
    against an explicit (1 - q^a) loop and poly_exact_div."""

    @given(exponent_lists)
    def test_product_matches_schoolbook(self, exponents):
        assert q_quotient(exponents, (), "") == schoolbook_product(exponents)

    @given(exponent_lists, exponent_lists)
    def test_quotient_matches_schoolbook(self, tops, bottoms):
        num, den = schoolbook_product(tops), schoolbook_product(bottoms)
        try:
            expected = poly_exact_div(num, den)
        except NotPolynomial:
            with pytest.raises(NotPolynomial, match="cell 7"):
                q_quotient(tops, bottoms, "cell 7")
        else:
            assert q_quotient(tops, bottoms, "cell 7") == expected

    @given(exponent_lists, exponent_lists)
    def test_quotient_of_a_multiple(self, extra, bottoms):
        tops = list(reversed(bottoms)) + extra
        assert q_quotient(tops, bottoms, "") == schoolbook_product(extra)

    def test_empty_lists_give_one(self):
        assert q_quotient([], (), "") == ONE

    def test_product_exponent_zero_and_negative(self):
        assert q_quotient([3, 0, 2], (), "") == ZERO
        with pytest.raises(ValueError):
            q_quotient([2, -1], (), "")

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

    def test_negative_top_raises(self):
        with pytest.raises(ValueError):
            q_quotient([3, -2], [1], "")

    def test_remainder_raises_with_context(self):
        with pytest.raises(NotPolynomial) as info:
            q_quotient([1], [2], "dual weight (k=1, i=2, n=7)")
        assert info.value.num == ONE - Q
        assert info.value.den == ONE - monomial(2)
        assert "dual weight (k=1, i=2, n=7)" in str(info.value)

    @given(small_polys, exponent_lists)
    def test_divide_inverts_product(self, a, bottoms):
        assert q_divide(a * q_quotient(bottoms, (), ""), bottoms, "") == a

    def test_divide_by_a_non_factor_raises_with_context(self):
        num = ONE - monomial(3)
        with pytest.raises(NotPolynomial) as info:
            q_divide(num, [2], "triangular solve (k=2, i=1, n=7)")
        assert info.value.num == num
        assert info.value.den == ONE - monomial(2)
        assert "triangular solve (k=2, i=1, n=7)" in str(info.value)

    def test_divide_zero_numerator(self):
        assert q_divide(ZERO, [3, 1, 4], "") == ZERO

    def test_divide_by_a_zero_bottom_raises(self):
        with pytest.raises(ZeroDenominator):
            q_divide(ONE - Q, [1, 0], "")

    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("m", range(0, 7))
    def test_geometric_series_is_a_binomial(self, m, b):
        assert geometric_series(m, b) == gauss_binomial(m, 1, b)


def times_by_coefficients(cs, pairs):
    """Reference for q_times on a plain list of Python integers: each factor
    (1 - s*q**e) in turn, without trailing zeros."""
    out = list(cs)
    for s, e in pairs:
        grown = out + [0] * e
        for t, c in enumerate(out):
            grown[t + e] -= s * c
        out = grown
    while out and out[-1] == 0:
        out.pop()
    return out


factor_pairs = st.lists(st.tuples(st.sampled_from([1, -1]), st.integers(0, 40)),
                        max_size=12)


class TestQTimes:
    """q_times against a plain-integer reference, at and across the bound
    of the 64-bit digit width."""

    @given(data=st.data())
    @settings(max_examples=80, deadline=None, phases=NO_SHRINK)
    def test_matches_plain_integer_reference(self, data):
        # e = 0 is drawn with either sign: 1 - q**0 is zero, 1 + q**0 is 2;
        # the operand is a constant or dense, its coefficients often +-bound
        bound = data.draw(st.sampled_from([1, 2 ** 20, 2 ** 61, 2 ** 62 - 1,
                                           2 ** 200]))
        coefficient = st.one_of(st.sampled_from([bound, -bound]),
                                st.integers(-bound, bound))
        size = data.draw(st.sampled_from([1, 60]))
        p = QPoly(data.draw(st.lists(coefficient, min_size=size,
                                     max_size=size)))
        pairs = data.draw(factor_pairs)
        assert plain(q_times(p, pairs)) == times_by_coefficients(plain(p), pairs)

    def test_zero_and_doubling_factors(self):
        p = QPoly([3, -1, 4])
        assert q_times(p, [(1, 0)]) == ZERO
        assert q_times(p, [(-1, 0), (-1, 0)]) == 4 * p
        assert q_times(p, []) == p
        assert q_times(ZERO, [(1, 2), (-1, 0)]) == ZERO
        with pytest.raises(ValueError):
            q_times(p, [(1, 2), (1, -1)])

    def test_bound_that_crosses_two_to_the_62(self):
        # 30 factors with the distinct exponents 1..30 double the bound 2**40
        # past 2**62, yet the product of their factors has coefficients of at
        # most 34, so the result is exact and still held at 64 bits
        p = QPoly([2 ** 40, -3, 0, 5])
        pairs = [((-1) ** t, t) for t in range(1, 31)]
        got = q_times(p, pairs)
        assert plain(got) == times_by_coefficients(plain(p), pairs)
        assert got._w == 64
        # a coefficient 2**61 doubled twice is 2**63, which needs 128 bits
        top = q_times(QPoly([2 ** 61, -1]), [(-1, 0), (-1, 0)])
        assert plain(top) == [2 ** 63, -4]
        assert top._w == 128


class TestPhiEval:
    def test_unit_upper_parameter_truncates_to_one(self):
        got = phi_eval([(1, 0), (1, 5)], [(1, 3)], 1, (1, 2), 6)
        assert same(got, (ONE, ONE))

    def test_zero_terms_is_one(self):
        assert same(phi_eval([(1, -4)], [(1, 3)], 2, (1, 1), 0), (ONE, ONE))

    def test_two_term_series_matches_hand_expansion(self):
        # [3 choose 2]_q * 2phi1(q^-2, q^-1; q^-3; base q^2, z=1) = q^2 + q
        num, den = phi_eval([(1, -2), (1, -1)], [(1, -3)], 2, (1, 0), 1)
        assert same((gauss_binomial(3, 2, 1) * num, den), (QPoly([0, 1, 1]), ONE))

    def test_lower_pole_detected(self):
        with pytest.raises(ZeroDenominator, match=r"^lower parameter q\^-2 "
                           r"vanishes a denominator factor within 3 terms$"):
            phi_eval([(1, -6)], [(1, -2)], 1, (1, 1), 3)

    def test_lower_pole_at_an_upper_zero_term_raises(self):
        # the upper q^-2 ends the series at term 2, where the lower q^-2
        # zeroes a denominator factor: the pole is still reported
        with pytest.raises(ZeroDenominator, match=r"^lower parameter q\^-2 "
                           r"vanishes a denominator factor within 3 terms$"):
            phi_eval([(1, -2)], [(1, -2)], 1, (1, 1), 3)

    def test_pole_outside_term_range_is_fine(self):
        # lower q^-2 with base 1 only degenerates from term 3 onward
        phi_eval([(1, -6)], [(1, -2)], 1, (1, 1), 2)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_termwise_definition(self, data):
        base, max_terms = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4))
        upper = data.draw(st.lists(power_params, max_size=3))
        lower = data.draw(st.lists(power_params, max_size=2))
        z = data.draw(power_params)
        if any(s == 1 and e in range(-base * (max_terms - 1), 1, base)
               for s, e in lower):
            with pytest.raises(ZeroDenominator):
                phi_eval(upper, lower, base, z, max_terms)
            return
        got = phi_eval(upper, lower, base, z, max_terms)
        for x in (2, 3):
            assert value_at(got, x) == phi_by_definition(upper, lower, base, z,
                                                         max_terms, x)

    def test_negative_series_excess_matches_definition(self):
        # two upper parameters and no lower one: excess -1, so the ratio's
        # power of q is negative and goes into the denominator
        args = ([(1, -2), (-1, -2)], [], 1, (1, 1), 2)
        got = phi_eval(*args)
        for x in (2, 3):
            assert value_at(got, x) == phi_by_definition(*args, x)

    def test_upper_factor_vanishing_mid_series_matches_definition(self):
        # (q^-2; q)_m is zero from m = 3 on, well inside the 6 terms asked for
        args = ([(1, -2)], [(1, 3)], 1, (1, 1), 6)
        got = phi_eval(*args)
        for x in (2, 3):
            assert value_at(got, x) == phi_by_definition(*args, x)

    @pytest.mark.parametrize("n", range(5, 14, 2))
    @pytest.mark.parametrize(
        "shape", ["2phi1-big", "2phi1-small", "3phi1", "3phi2"])
    def test_matches_definition_on_the_phi_suite_calls(self, shape, n,
                                                        monkeypatch):
        checked = 0
        for call_shape, args in phi_suite_calls(monkeypatch, n):
            if call_shape != shape:
                continue
            try:
                got = phi_eval(*args)
            except ZeroDenominator:
                # a pole of phi_eval is a zero denominator of the definition
                with pytest.raises(ZeroDivisionError):
                    phi_by_definition(*args, 2)
                continue
            checked += 1
            for x in (2, 3):
                assert value_at(got, x) == phi_by_definition(*args, x)
        assert checked

    @pytest.mark.parametrize("sign", [0, 2])
    @pytest.mark.parametrize("place", ["upper", "lower", "z"])
    def test_sign_other_than_plus_or_minus_one_is_rejected(self, place, sign):
        args = {"upper": [(1, -2)], "lower": [(1, 3)], "z": (1, 1)}
        if place == "z":
            args["z"] = (sign, 1)
        else:
            args[place].append((sign, 1))
        with pytest.raises(ValueError, match="sign must be"):
            phi_eval(args["upper"], args["lower"], 1, args["z"], 2)
