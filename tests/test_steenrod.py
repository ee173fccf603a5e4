import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import enumerate_monomials, lex_tuples

from hitcalc.steenrod import (
    Monomial,
    Polynomial,
    alpha,
    generic_degree,
    monomial_count,
    monomial_rank,
    monomial_unrank,
    mu,
    parse_monomial,
    parse_polynomial,
    sq,
)


def mono(*exps):
    return Monomial(tuple(exps))


def poly(*monos):
    assert monos
    return Polynomial(monos, monos[0].n)


def product(p, q):
    return Polynomial(
        (tuple(a + b for a, b in zip(s, t)) for s in p.terms for t in q.terms), p.n
    )


class TestArithmetic:
    @pytest.mark.parametrize("m, expected", [(0, 0), (7, 3), (50, 3), (215, 6)])
    def test_alpha(self, m, expected):
        assert alpha(m) == expected

    def test_mu_examples(self):
        # oracle: increment r until alpha(ell + r) <= r
        def mu_oracle(ell):
            r = 0
            while bin(ell + r).count("1") > r:
                r += 1
            return r

        for ell in (0, 5, 50, 105, 215):
            assert mu(ell) == mu_oracle(ell)
        assert mu(0) == 0
        assert mu(5) == 3
        assert mu(50) == 4

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 40))
    def test_alpha_recursions(self, m):
        assert alpha(2 * m) == alpha(m)
        assert alpha(2 * m + 1) == alpha(m) + 1

    def test_generic_degree_paper_values(self):
        assert generic_degree(5, 0, 50) == 50
        assert generic_degree(5, 1, 50) == 105
        assert generic_degree(3, 0, 0) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=200),
    )
    def test_generic_degree_recursion(self, k, t, ell):
        assert (
            generic_degree(k, t + 1, ell)
            == 2 * generic_degree(k, t, ell) + k
        )


@st.composite
def ranked_pairs(draw):
    """(n, d, j, j'): two indices into the lex enumeration of P_n(d), which
    at n = 6, d = 60 has 8,259,888 monomials, far past the tabulated range."""
    n = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=0, max_value=60))
    last = monomial_count(n, d) - 1
    return n, d, draw(st.integers(0, last)), draw(st.integers(0, last))


class TestEnumeration:
    def test_single_variable(self):
        assert enumerate_monomials(1, 3) == [mono(3)]

    def test_two_variables_degree_two(self):
        assert enumerate_monomials(2, 2) == [mono(0, 2), mono(1, 1), mono(2, 0)]

    def test_count_stars_and_bars(self):
        monos = enumerate_monomials(3, 3)
        assert len(monos) == math.comb(5, 2) == 10
        assert monos == sorted(monos)

    @pytest.mark.parametrize("n, d", [(1, 0), (2, 5), (4, 9), (5, 7)])
    def test_monomial_count_matches(self, n, d):
        assert monomial_count(n, d) == len(enumerate_monomials(n, d)) == math.comb(
            d + n - 1, n - 1
        )

    def test_rank_and_unrank_match_the_table(self):
        for n in range(1, 6):
            for d in range(21):
                for j, exps in enumerate(lex_tuples(n, d)):
                    assert monomial_rank(n, d, exps) == j, (n, d, exps)
                    assert monomial_unrank(n, d, j) == exps, (n, d, j)

    @settings(max_examples=200, deadline=None)
    @given(ranked_pairs())
    @example((1, 0, 0, 0))
    @example((1, 60, 0, 0))
    @example((6, 0, 0, 0))
    @example((6, 60, 0, monomial_count(6, 60) - 1))
    @example((0, 0, 0, 0))  # the unit, the one monomial of P_0(0)
    def test_rank_inverts_unrank_beyond_the_table(self, case):
        n, d, j, other = case
        exps = monomial_unrank(n, d, j)
        assert len(exps) == n and sum(exps) == d and all(e >= 0 for e in exps)
        assert monomial_rank(n, d, exps) == j
        assert (j < other) == (exps < monomial_unrank(n, d, other))


class TestSquares:
    def test_instability_degree_one(self):
        assert sq(1, poly(mono(1))) == poly(mono(2))

    def test_even_exponent_killed(self):
        assert sq(1, poly(mono(2))).is_zero()

    def test_cartan_example(self):
        assert sq(2, poly(mono(1, 2))) == poly(mono(1, 4))

    def test_sq0_identity(self):
        p = parse_polynomial("1.2+0.3")
        assert sq(0, p) == p

    def test_linearity_with_instability(self):
        p = poly(mono(1, 0), mono(0, 1))
        assert sq(1, p) == poly(mono(2, 0), mono(0, 2))

    def test_cartan_product_rule_hand(self):
        assert sq(1, poly(mono(1, 1))) == poly(mono(2, 1), mono(1, 2))

    def test_instability_squares_every_monomial(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(1, 4)
            m = mono(*(rng.randrange(0, 7) for _ in range(n)))
            sqd = sq(m.degree, poly(m))
            assert sqd == Polynomial([Monomial(tuple(2 * e for e in tuple(m)))], n)

    def test_vanishing_above_degree(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randrange(1, 4)
            m = mono(*(rng.randrange(0, 6) for _ in range(n)))
            for k in range(m.degree + 1, m.degree + 4):
                assert sq(k, poly(m)).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_cartan_product_rule(self, data):
        n = data.draw(st.integers(min_value=1, max_value=3))
        exps = st.tuples(*([st.integers(min_value=0, max_value=5)] * n))
        p = Polynomial([Monomial(data.draw(exps))], n)
        q = Polynomial([Monomial(data.draw(exps))], n)
        k = data.draw(st.integers(min_value=0, max_value=6))
        lhs = sq(k, product(p, q))
        rhs = Polynomial.zero(n)
        for i in range(k + 1):
            rhs = rhs + product(sq(i, p), sq(k - i, q))
        assert lhs == rhs


class TestFormats:
    def test_roundtrip(self):
        m = parse_monomial("0.15.15.11")
        assert m == mono(0, 15, 15, 11)
        assert str(m) == "0.15.15.11"

    def test_polynomial_roundtrip(self):
        p = parse_polynomial("2.1+1.2")
        assert str(p) == "1.2+2.1"

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_monomial("1.x.3")

    @pytest.mark.parametrize(
        "element, text",
        [
            (Polynomial.zero(2), "0"),
            (poly(mono(0, 15)), "0.15"),
            (poly(mono(2, 1), mono(0, 3), mono(1, 2)), "0.3+1.2+2.1"),
        ],
    )
    def test_printed_form(self, element, text):
        assert str(element) == text

    def test_sorted_terms(self):
        terms = poly(mono(2, 1), mono(0, 3), mono(1, 2)).sorted_terms()
        assert terms == [mono(0, 3), mono(1, 2), mono(2, 1)]
        assert [str(t) for t in terms] == ["0.3", "1.2", "2.1"]

    @pytest.mark.parametrize(
        "text, n, printed",
        [
            ("0", 2, "0"),
            ("1.2", None, "1.2"),
            ("2.1+1.2", None, "1.2+2.1"),
            ("1.2+0+0.3+1.2", None, "0.3"),
            (" 0.15.15.11 ", None, "0.15.15.11"),
        ],
    )
    def test_parse_roundtrip(self, text, n, printed):
        p = parse_polynomial(text, n)
        assert str(p) == printed
        assert parse_polynomial(printed, p.n) == p

    def test_the_one_variable_unit_and_zero_round_trip(self):
        # in one variable '0' is the unit monomial, and zero the empty text
        unit, zero = Polynomial([(0,)], 1), Polynomial.zero(1)
        assert (str(unit), str(zero)) == ("0", "")
        for p in (unit, zero, Polynomial([(3,)], 1), unit + zero):
            assert parse_polynomial(str(p), 1) == p
        assert not parse_polynomial("0", 1).is_zero()
        assert parse_polynomial("0", 2).is_zero()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: Polynomial([mono(1, 2)], 3), "variable count mismatch"),
            (lambda: poly(mono(1, 2)) + Polynomial.zero(3), "variable count mismatch"),
            (lambda: parse_monomial("1.x.3"), "bad monomial '1.x.3'"),
            (lambda: sq(1, poly(mono(-1, 2))), "exponents must be non-negative"),
            (lambda: sq(-1, poly(mono(1, 2))), "Sq^k needs k >= 0"),
        ],
    )
    def test_error_texts(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_kinds_compare_unequal(self):
        from hitcalc.homology import DElement, DMonomial

        assert poly(mono(1, 2)) != DElement([DMonomial((1, 2))], 2)
        assert Polynomial.zero(2) != DElement.zero(2)
