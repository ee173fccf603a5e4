import random

import pytest

from hitcalc import lambda_algebra, store
from hitcalc.budget import BudgetError
from hitcalc.gf2 import EchelonBasis
from hitcalc.lambda_algebra import (
    MAX_WORDS_PER_BIDEGREE,
    LambdaElement,
    LambdaWord,
    TerminationGuardError,
    _d_generator,
    bidegree_basis_tuples,
    bidegree_count,
    binom2,
    boundary_echelon,
    boundary_tops,
    differential,
    differential_echelon,
    homology_dim,
    is_boundary,
    normal_form,
    parse_lambda_element,
)
from lambda_oracle import (
    enumerate_words,
    oracle_differential,
    oracle_normal_form,
    one_shot_differential_echelon,
    relation_element,
    top_coordinates,
)


def elem(*indices):
    return LambdaElement([indices])


def bidegree_basis(s, w):
    """All reduced words of the given length and weight, ascending lex."""
    return [LambdaWord(t) for t in bidegree_basis_tuples(s, w)]


def bad_pairs(word):
    return [i for i in range(len(word) - 1) if word[i] > 2 * word[i + 1]]


def reduced_words(max_length, max_weight):
    for s in range(1, max_length + 1):
        for w in range(max_weight + 1):
            yield from bidegree_basis_tuples(s, w)


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
        # the positional rewriting against whole-word rewriting both ways
        rng = random.Random(91)
        for _ in range(1000):
            length = rng.randrange(2, 5)
            word = tuple(rng.randrange(0, 41) for _ in range(length))
            if sum(word) > 40:
                continue
            e = LambdaElement((word,))
            nf = normal_form(e)
            assert nf == oracle_normal_form(e, leftmost=True), word
            assert nf == oracle_normal_form(e, leftmost=False), word

    def test_sums_cancel_after_rewriting(self):
        # (2, 0) rewrites to (1, 1) and (3, 1) to zero
        assert normal_form(LambdaElement(((2, 0), (1, 1)))).is_zero()
        assert normal_form(LambdaElement(((3, 1), (2, 2)))) == elem(2, 2)
        # sums of words that meet only once rewritten
        rng = random.Random(17)
        for _ in range(200):
            weight = rng.randrange(6, 19)
            heads = [(rng.randrange(0, 13), rng.randrange(0, 7)) for _ in range(6)]
            e = LambdaElement((a, b, weight - a - b) for a, b in heads if a + b <= weight)
            assert normal_form(e) == oracle_normal_form(e), e

    def test_minus_one_kills_word(self):
        assert elem(3, -1, 2).is_zero()

    def test_step_budget_guard(self, monkeypatch):
        # the guard reads the constant at call time
        monkeypatch.setattr(lambda_algebra, "NORMAL_FORM_STEP_BUDGET", 2)
        with pytest.raises(TerminationGuardError):
            normal_form(elem(40, 0, 0, 0))


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

    def test_leibniz_terms_are_bad_only_left_of_the_replaced_generator(self):
        for word in reduced_words(5, 30):
            for r, n in enumerate(word):
                for pair in _d_generator(n):
                    term = word[:r] + pair + word[r + 1 :]
                    assert bad_pairs(term) in ([], [r - 1]), (word, r, pair)

    def test_reduced_words_match_whole_word_rewriting(self):
        for word in reduced_words(5, 30):
            e = LambdaElement((word,))
            d = differential(e)
            assert d == oracle_differential(e, leftmost=True), word
            assert d == oracle_differential(e, leftmost=False), word

    def test_any_words_match_whole_word_rewriting(self):
        # words that are not reduced are scanned whole
        rng = random.Random(3)
        for _ in range(300):
            word = tuple(rng.randrange(0, 21) for _ in range(rng.randrange(1, 5)))
            e = LambdaElement((word,))
            assert differential(e) == oracle_differential(e), word

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

    def test_words_are_the_sorted_generator(self):
        for s in range(7):
            for w in range(-2, 41):
                expected = tuple(sorted(enumerate_words(s, w)))
                assert bidegree_basis_tuples(s, w) == expected, (s, w)

    def test_count_equals_the_enumeration(self):
        for s in range(6):
            for w in range(-2, 31):
                assert bidegree_count(s, w) == len(bidegree_basis_tuples(s, w)), (s, w)

    def test_budget(self):
        assert bidegree_count(6, 120) == 12_499_171 > MAX_WORDS_PER_BIDEGREE
        # the sources are checked first, so the cap names the bidegree asked for
        with pytest.raises(BudgetError, match=r"^bidegree \(6, 120\) exceeds the word budget"):
            homology_dim(6, 120)

    def test_budget_of_the_targets(self):
        # (4, 145) has 107,562 words, but d takes them into 2,012,868
        assert bidegree_count(5, 144) > MAX_WORDS_PER_BIDEGREE
        with pytest.raises(BudgetError, match=r"^bidegree \(5, 144\) exceeds the word budget"):
            homology_dim(4, 145)


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
        assert differential(elem(15, 3, 3, 2)).is_zero()

    def test_boundary_solver(self):
        # d(lambda_2) = lambda_0 lambda_1 is a boundary; h_1^2 is not
        assert is_boundary(elem(0, 1))
        assert not is_boundary(elem(1, 1))

    def test_class_arithmetic_small(self):
        # (2, 1): the only reduced words are 0,1 / 1,0-image; homology is 0
        assert homology_dim(2, 1) == 0


class TestBoundaryTops:
    """The boundaries' rank and top coordinates, from the transposed
    differential out of one length down."""

    @pytest.fixture(autouse=True)
    def cold(self):
        store.configure(None)  # empties the memory tier
        yield
        store.configure(None)

    def test_rank_and_tops_match_the_boundary_echelon(self):
        tops = 0
        for s in range(6):
            for w in range(31):
                boundaries = boundary_echelon(s, w)
                basis = boundary_tops(s, w)
                assert basis.rank == boundaries.rank, (s, w)
                assert set(basis.pivots) == top_coordinates(boundaries), (s, w)
                assert all(row == 1 for row in basis.shifted_rows().values())
                tops += basis.rank
        assert tops > 1000

    def test_a_rising_first_index_raises(self, monkeypatch):
        # (1, 2, 2) is a word of (3, 5), but not below (0, 6) at position 1
        real = lambda_algebra._level_terms

        def rising(u, l, carry):
            terms, carry = real(u, l, carry)
            return [*terms, (1, 2, 2)] if u == (0, 6) else terms, carry

        monkeypatch.setattr(lambda_algebra, "_level_terms", rising)
        with pytest.raises(
            RuntimeError, match=r"^d\(0, 6\) holds \(1, 2, 2\), not below it at position 1$"
        ):
            boundary_tops(3, 5)

    def test_the_stream_takes_each_row_once_in_descending_order(self):
        # the tops need the rows in descending order of their targets; with
        # the boundaries' tops dropped, a bucket's targets come in out of order
        sources = bidegree_basis_tuples(4, 30)
        dead = bytearray(len(sources))
        for f in boundary_tops(4, 30, sources).pivots:
            dead[f] = 1
        taken = []
        lambda_algebra._lex_stream(sources, dead, None, lambda t, live: taken.append(t))
        assert len(taken) > 1000
        assert taken == sorted(set(taken), reverse=True)

    def test_homology_reads_no_boundary_echelon(self, monkeypatch):
        monkeypatch.setattr(lambda_algebra, "boundary_echelon", None)
        assert homology_dim(5, 30) == 1
        assert homology_dim(4, 41) == 1


class TestDifferentialEchelon:
    """The rank of d out of (s, w), taken on the transpose over the (s, w) words."""

    @pytest.fixture(autouse=True)
    def cold(self):
        store.configure(None)  # empties the memory tier
        yield
        store.configure(None)

    def test_rank_equals_the_boundary_rank_one_length_up(self):
        for s in range(6):
            for w in range(1, 31):
                rank = boundary_echelon(s + 1, w - 1).rank
                assert differential_echelon(s, w).rank == rank, (s, w)

    def test_d_never_raises_the_first_index(self):
        for s in range(1, 6):
            for w in range(31):
                for word in bidegree_basis_tuples(s, w):
                    for t in differential(LambdaElement((word,))).terms:
                        assert t[0] <= word[0], (word, t)

    def test_the_stream_equals_the_one_shot_build(self):
        dropped = 0
        for s in range(6):
            for w in range(1, 31):
                drop = top_coordinates(boundary_echelon(s, w))
                dropped += len(drop)
                oracle = one_shot_differential_echelon(s, w, drop).row_ints()
                assert differential_echelon(s, w).row_ints() == oracle, (s, w)
        assert dropped > 0

    def test_the_boundaries_top_coordinates_are_not_pivots_of_the_transpose(self):
        # d o d = 0 puts the boundaries in ker d, whose top coordinates are
        # the non-pivot columns of the transpose, so dropping them keeps the rank
        for s in range(6):
            for w in range(1, 31):
                whole = one_shot_differential_echelon(s, w)
                tops = top_coordinates(boundary_echelon(s, w))
                assert tops.isdisjoint(whole.pivots), (s, w)
                assert differential_echelon(s, w).rank == whole.rank, (s, w)

    @pytest.mark.parametrize("s, w, left", [(4, 17, 32), (4, 41, 1), (5, 30, 0)])
    def test_the_peel_leaves_few_rows_to_eliminate(self, monkeypatch, s, w, left):
        # the rows that keep two live sources once every one-source row is
        # peeled; with no peel, (4, 41) would eliminate 8,374 rows for a
        # rank of 2,361
        boundary_echelon(s, w)  # memoised, built before the spy
        handed = []
        extend = EchelonBasis.extend

        def spy(self, rows):
            rows = list(rows)
            handed.extend(rows)
            extend(self, rows)

        monkeypatch.setattr(EchelonBasis, "extend", spy)
        assert differential_echelon(s, w).rank > 0
        assert len(handed) == left

    def test_a_basis_that_is_not_canonical_raises(self, monkeypatch):
        boundary_tops(4, 23)  # memoised, built before the patch
        monkeypatch.setattr(
            EchelonBasis, "from_canonical_rows", classmethod(lambda cls, m, rows: None)
        )
        with pytest.raises(RuntimeError, match=r"^the transposed differential out of"):
            differential_echelon(4, 23)

    def test_a_rising_first_index_raises(self, monkeypatch):
        # only the stream's sources, of length 2, rise: the boundary pass
        # into (2, 5), which runs first, walks sources of length 1
        real = lambda_algebra._level_terms

        def rising(u, l, carry):
            terms, carry = real(u, l, carry)
            return [*terms, (u[0] + 1, 0) + u[1:]] if len(u) == 2 else terms, carry

        monkeypatch.setattr(lambda_algebra, "_level_terms", rising)
        with pytest.raises(
            RuntimeError, match=r"^d\(3, 2\) holds \(4, 0, 2\), not below it at position 1$"
        ):
            differential_echelon(2, 5)

    def test_the_stream_takes_letters_above_255(self):
        # the stream orders words as tuples, so a letter is not a byte
        drop = top_coordinates(boundary_echelon(2, 300))
        assert drop and set(boundary_tops(2, 300).pivots) == drop
        oracle = one_shot_differential_echelon(2, 300, drop).row_ints()
        assert differential_echelon(2, 300).row_ints() == oracle

    @pytest.mark.parametrize("s, w", [(4, 41), (5, 30)])
    def test_the_stream_expands_fewer_than_half_the_positions(self, monkeypatch, s, w):
        # a source peeled at a position is not expanded at the positions below
        live = bidegree_count(s, w) - boundary_tops(s, w).rank  # built before the spy
        expanded = []
        real = lambda_algebra._level_terms

        def spy(u, l, carry):
            expanded.append((u, l))
            return real(u, l, carry)

        monkeypatch.setattr(lambda_algebra, "_level_terms", spy)
        assert differential_echelon(s, w).rank > 0
        assert len(set(expanded)) == len(expanded)
        assert len(expanded) < live * s / 2

    @pytest.mark.parametrize(
        "s, w, dim",
        [
            (0, 0, 1),  # the empty word has no first index
            (1, 2, 0),  # d(2) = (0, 1), below every source's first index
            (1, 0, 1),
            (2, 0, 1),
            (3, 0, 1),
        ],
    )
    def test_edges_of_the_stream(self, s, w, dim):
        assert homology_dim(s, w) == dim

    def test_homology_builds_no_basis_over_the_targets(self, monkeypatch):
        ambients = []
        init = EchelonBasis.__init__

        def spy(self, ambient_length):
            ambients.append(ambient_length)
            init(self, ambient_length)

        monkeypatch.setattr(EchelonBasis, "__init__", spy)
        assert homology_dim(4, 41) == 1
        assert bidegree_count(5, 40) == 14_273
        # each boundaries' pass, from (4, 41) down, spans the words one
        # length below its own, and its tops span its own words, as does the
        # transposed differential: every ambient is some (4 - k, 41 + k)
        assert sorted(set(ambients)) == [bidegree_count(4 - k, 41 + k) for k in range(4, -1, -1)]
        assert bidegree_count(4, 41) < bidegree_count(5, 40)


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
