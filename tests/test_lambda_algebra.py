import random

import pytest

from hitcalc.budget import BudgetError
from hitcalc.lambda_algebra import (
    MAX_WORDS_PER_BIDEGREE,
    LambdaElement,
    LambdaWord,
    bidegree_basis,
    bidegree_count,
    binom2,
    differential,
    homology_dim,
    is_boundary,
    is_cycle,
    normal_form,
    parse_lambda_element,
    relation_element,
)


def elem(*indices):
    return LambdaElement.from_word(*indices)


class TestBinom2:
    def test_ordinary(self):
        assert binom2(5, 4) == 1
        assert binom2(5, 2) == 0
        assert binom2(0, 0) == 1
        assert binom2(2, 3) == 0

    def test_negative_top(self):
        # polynomial formula: C(-1, r) = (-1)^r, C(-2, 2) = 3
        assert binom2(-1, 4) == 1
        assert binom2(-2, 2) == 1
        assert binom2(-3, 0) == 1
        assert binom2(-4, -2) == 0


class TestRelationElement:
    def test_reduced_pair_is_vacuous(self):
        assert relation_element(1, 2).is_zero()

    def test_rewritable_pair(self):
        # the (0, 2) instance: the self term cancels over F2, leaving the
        # identification of lambda_2 lambda_0 with lambda_1 lambda_1
        assert relation_element(0, 2) == elem(2, 0) + elem(1, 1)

    def test_grading(self):
        for s in range(0, 12):
            for k in range(0, 12):
                r = relation_element(s, k)
                if not r.is_zero():
                    assert r.length == 2 and r.weight == s + k

    def test_relations_normalize_to_zero(self):
        for s in range(0, 21):
            for k in range(0, 21):
                assert normal_form(relation_element(s, k)).is_zero(), (s, k)


class TestNormalForm:
    def test_already_reduced(self):
        assert normal_form(elem(0, 2)) == elem(0, 2)
        assert normal_form(elem(1, 1)) == elem(1, 1)

    def test_rewrites_undominated_pair(self):
        # lambda_2 lambda_0 rewrites to lambda_1 lambda_1; lambda_3 lambda_1
        # has an empty rewrite and is identified with zero
        assert normal_form(elem(2, 0)) == elem(1, 1)
        assert normal_form(elem(3, 1)).is_zero()

    def test_idempotent(self):
        rng = random.Random(23)
        for _ in range(200):
            word = tuple(rng.randrange(0, 12) for _ in range(rng.randrange(1, 5)))
            once = normal_form(LambdaElement((word,)))
            assert normal_form(once) == once

    def test_preserves_bidegree(self):
        e = elem(9, 2, 1)
        nf = normal_form(e)
        if not nf.is_zero():
            assert (nf.length, nf.weight) == (3, 12)

    def test_confluence_leftmost_vs_rightmost(self):
        rng = random.Random(91)
        for _ in range(1000):
            length = rng.randrange(2, 5)
            word = tuple(rng.randrange(0, 41) for _ in range(length))
            if sum(word) > 40:
                continue
            e = LambdaElement((word,))
            assert normal_form(e, leftmost=True) == normal_form(e, leftmost=False)

    def test_minus_one_kills_word(self):
        assert elem(3, -1, 2).is_zero()

    def test_step_budget_guard(self):
        from hitcalc.lambda_algebra import TerminationGuardError

        with pytest.raises(TerminationGuardError):
            normal_form(elem(40, 0, 0, 0), step_budget=2)


class TestDifferential:
    def test_d_lambda_one_vanishes(self):
        assert differential(elem(1)).is_zero()

    def test_d_lambda_two(self):
        assert differential(elem(2)) == elem(0, 1)

    def test_generators_of_two_power_minus_one_are_cycles(self):
        for j in range(0, 7):
            assert differential(elem((1 << j) - 1)).is_zero()

    def test_other_generators_are_not_cycles(self):
        for w in range(2, 64):
            if (w + 1) & w:
                assert not differential(elem(w)).is_zero(), w

    def test_d_squared_zero_on_generators(self):
        for n in range(0, 65):
            assert differential(differential(elem(n))).is_zero(), n

    def test_d_squared_zero_on_random_products(self):
        rng = random.Random(7)
        for _ in range(150):
            length = rng.randrange(2, 5)
            word = tuple(rng.randrange(0, 17) for _ in range(length))
            if sum(word) > 64:
                continue
            assert differential(differential(LambdaElement((word,)))).is_zero(), word

    def test_differential_of_relations_normalizes_to_zero(self):
        for s in range(-1, 21):
            for k in range(-1, 21):
                assert differential(relation_element(s, k)).is_zero(), (s, k)

    def test_raises_length_lowers_weight(self):
        d = differential(elem(4, 2))
        assert (d.length, d.weight) == (3, 5)

    def test_h_products_are_cycles(self):
        rng = random.Random(13)
        powers = [0, 1, 3, 7, 15, 31]
        for _ in range(40):
            k = rng.randrange(2, 5)
            word = tuple(rng.sample(powers, k))
            e = normal_form(LambdaElement((word,)))
            assert differential(e).is_zero(), word


class TestBidegreeBasis:
    def test_single_generator(self):
        for w in (0, 1, 5, 9):
            assert bidegree_basis(1, w) == [LambdaWord((w,))]

    def test_unit(self):
        assert bidegree_basis(0, 0) == [LambdaWord(())]

    def test_length_two_weight_two(self):
        assert [tuple(w) for w in bidegree_basis(2, 2)] == [(0, 2), (1, 1)]

    def test_all_words_reduced_and_complete(self):
        raw = [
            (a, b, c)
            for a in range(9)
            for b in range(9)
            for c in range(9)
            if a + b + c == 8
        ]
        reduced = {w for w in raw if w[0] <= 2 * w[1] and w[1] <= 2 * w[2]}
        assert {tuple(w) for w in bidegree_basis(3, 8)} == reduced

    def test_budget(self):
        assert bidegree_count(6, 120) == 12_499_171 > MAX_WORDS_PER_BIDEGREE
        with pytest.raises(BudgetError, match="exceeds the word budget"):
            homology_dim(6, 120)


class TestHomology:
    def test_length_one_line(self):
        for w in range(0, 64):
            expected = 1 if (w + 1) & w == 0 else 0
            assert homology_dim(1, w) == expected, w

    def test_h1_squared(self):
        assert homology_dim(2, 2) == 1

    def test_stem_three(self):
        assert homology_dim(2, 3) == 1  # h_0 h_2

    def test_is_cycle_displayed_word(self):
        assert is_cycle(elem(15, 3, 3, 2))

    def test_boundary_solver(self):
        # d(lambda_2) = lambda_0 lambda_1 is a boundary; h_1^2 is not
        assert is_boundary(elem(0, 1))
        assert not is_boundary(elem(1, 1))

    def test_class_arithmetic_small(self):
        # (2, 1): the only reduced words are 0,1 / 1,0-image; homology is 0
        assert homology_dim(2, 1) == 0


class TestParsing:
    def test_roundtrip(self):
        e = parse_lambda_element("15,3,3,2+0,15,4,4")
        assert e == elem(15, 3, 3, 2) + elem(0, 15, 4, 4)
        assert str(e) == "0,15,4,4+15,3,3,2"

    def test_zero(self):
        assert parse_lambda_element("0").is_zero() is False  # the word (0,)
        assert parse_lambda_element("").is_zero()

    def test_bidegree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LambdaElement(((1, 2), (1, 1)))

    @pytest.mark.parametrize(
        "element, text",
        [
            (LambdaElement.zero(), "0"),
            (elem(15, 3, 3, 2), "15,3,3,2"),
            (LambdaElement(((15, 3, 3, 2), (0, 15, 4, 4), (7, 7, 5, 4))), "0,15,4,4+7,7,5,4+15,3,3,2"),
        ],
    )
    def test_printed_form(self, element, text):
        assert str(element) == text

    @pytest.mark.parametrize(
        "text, printed, zero",
        [
            ("0", "0", False),  # the generator lambda_0, not the zero element
            ("", "0", True),
            ("15,3,3,2+0,15,4,4", "0,15,4,4+15,3,3,2", False),
            ("2,0+2,0", "0", True),
            ("3,-1,2", "0", True),
        ],
    )
    def test_parse_roundtrip(self, text, printed, zero):
        e = parse_lambda_element(text)
        assert str(e) == printed and e.is_zero() is zero
        if not zero:
            assert parse_lambda_element(printed) == e

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: LambdaElement(((1, 2), (1, 1))), "element is not homogeneous in (length, weight)"),
            (lambda: LambdaElement(((1,), (1, 0))), "element is not homogeneous in (length, weight)"),
            (lambda: parse_lambda_element("1+2"), "element is not homogeneous in (length, weight)"),
            (lambda: elem(1, 1) + elem(2), "bidegree mismatch in lambda sum"),
            (lambda: elem(1, 1) + elem(0, 1), "bidegree mismatch in lambda sum"),
            (lambda: parse_lambda_element("2,x"), "bad lambda word '2,x'"),
            (lambda: LambdaElement(((3, -2, 2),)), "lambda indices must be >= -1"),
        ],
    )
    def test_error_texts(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_sorted_terms(self):
        terms = LambdaElement(((15, 3, 3, 2), (0, 15, 4, 4))).sorted_terms()
        assert terms == [LambdaWord((0, 15, 4, 4)), LambdaWord((15, 3, 3, 2))]
        assert [str(t) for t in terms] == ["0,15,4,4", "15,3,3,2"]

    def test_minus_one_drops_only_its_word(self):
        e = LambdaElement(((3, -1, 2), (1, 1, 2)))
        assert e == elem(1, 1, 2)
        assert e + elem(1, 1, 2) == LambdaElement.zero()
