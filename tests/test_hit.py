import math
import random
from collections import Counter

import pytest
from hit_oracle import global_generator_rows, global_hit_echelon
from reference import (
    degree_index,
    enumerate_monomials,
    kameko_down,
    kameko_down_poly,
    lex_tuples,
    peterson_wood_zero,
)

from hitcalc import budget, hit, store
from hitcalc.budget import BudgetError
from hitcalc.cli import main
from hitcalc.gf2 import EchelonBasis, quotient_representatives
from hitcalc.hit import (
    _generator_rows,
    _square_degrees,
    cohit_basis,
    cohit_dim,
    hit_basis,
    hit_kernel,
    kameko_iso_applicable,
    reduce_degree_chain,
)
from hitcalc.homology import primitive_basis
from hitcalc.steenrod import (
    Monomial,
    Polynomial,
    full_support_count,
    monomial_count,
    sq_exponent_targets,
)


def all_k_hit_rank(n, d):
    """Brute-force oracle: span of Sq^k over every positive k."""
    index = degree_index(n, d)
    basis = EchelonBasis(len(index))
    for k in range(1, d + 1):
        for m in enumerate_monomials(n, d - k):
            basis.insert_indices(
                [index[t] for t in sq_exponent_targets(k, tuple(m))]
            )
    return basis.rank


def sq_target_rows(n, d):
    """Reference: the nonzero Sq^(2^i) rows, term by term through degree_index."""
    index = degree_index(n, d)
    rows = []
    for k in _square_degrees(d):
        for m in enumerate_monomials(n, d - k):
            bits = 0
            for t in sq_exponent_targets(k, tuple(m)):
                bits ^= 1 << index[t]
            if bits:
                rows.append(bits)
    return rows


def test_packed_generator_rows_match_targets():
    cases = [(n, d) for n in (1, 2, 3) for d in range(21)] + [(4, 23), (5, 12)]
    for n, d in cases:
        rows = Counter(global_generator_rows(n, d))
        assert rows == Counter(sq_target_rows(n, d)), (n, d)


def support(exps):
    return tuple(i for i, e in enumerate(exps) if e)


def test_every_generator_row_has_its_sources_support():
    for n in range(1, 5):
        for d in range(17):
            for k in _square_degrees(d):
                for m in enumerate_monomials(n, d - k):
                    for t in sq_exponent_targets(k, tuple(m)):
                        assert support(t) == support(m), (n, d, k, m, t)


def test_block_rows_are_the_full_support_rows():
    # the reference rows of the sources with every exponent >= 1, indexed in
    # the lex order of P^+_n(d)
    for n in range(1, 5):
        for d in range(n, 19):
            index = {t: i for i, t in enumerate(m for m in degree_index(n, d) if all(m))}
            assert len(index) == full_support_count(n, d)
            rows = []
            for k in _square_degrees(d):
                for m in enumerate_monomials(n, d - k):
                    if all(m):
                        targets = sq_exponent_targets(k, tuple(m))
                        if bits := sum(1 << index[t] for t in targets):
                            rows.append(bits)
            assert Counter(_generator_rows(n, d)) == Counter(rows), (n, d)


# every (n, d) with n <= 4, d <= 21 or n = 5, d <= 16, and larger instances
ORACLE_GRID = (
    [(n, d) for n in range(1, 5) for d in range(22)]
    + [(5, d) for d in range(17)]
    + [(4, 23), (4, 25), (4, 35), (5, 21)]
)


def test_relabelled_blocks_equal_the_global_elimination():
    for n, d in ORACLE_GRID:
        store.configure(None)  # empties the memory tier
        whole = global_hit_echelon(n, d)
        assert hit_basis(n, d).row_ints() == whole.row_ints(), (n, d)
        primitives = primitive_basis(n, d).echelon
        assert primitives.row_ints() == whole.kernel().row_ints(), (n, d)
        tuples = lex_tuples(n, d)
        assert cohit_basis(n, d).representatives == tuple(
            Monomial(tuples[i]) for i in quotient_representatives(whole)
        ), (n, d)
    store.configure(None)


def test_a_relabelled_union_that_is_not_canonical_is_an_internal_error(
    monkeypatch, capsys
):
    # rows placed past the coordinates of P_3(9) fail the canonical check
    monkeypatch.setattr(hit, "monomial_count", lambda n, d: 1)
    assert main(["--no-cache", "primitives", "-n", "3", "-d", "9"]) == 4
    assert capsys.readouterr().err == (
        "internal error: the relabelled hit blocks of P_3(9) are not canonical\n"
    )


@pytest.mark.parametrize("n, d, dim", [(5, 21, 840), (5, 25, 1240), (4, 35, 120)])
def test_cohit_dim_is_the_sum_over_supports(n, d, dim):
    # dim QP^+_k(d): the oracle's cohit representatives in k variables with
    # every exponent >= 1
    plus = []
    for k in range(1, n + 1):
        tuples = lex_tuples(k, d)
        reps = quotient_representatives(global_hit_echelon(k, d))
        plus.append(sum(1 for i in reps if all(tuples[i])))
    assert sum(math.comb(n, k) * q for k, q in enumerate(plus, 1)) == dim
    assert cohit_dim(n, d) == dim == monomial_count(n, d) - global_hit_echelon(n, d).rank


class TestHitBasis:
    def test_square_of_generator_is_hit(self):
        assert hit_basis(1, 2).rank == 1

    def test_two_variable_degree_three(self):
        assert hit_basis(2, 3).rank == 1

    def test_spike_is_unhit(self):
        assert hit_basis(1, 3).rank == 0

    def test_degree_zero(self):
        assert hit_basis(3, 0).rank == 0 and cohit_dim(3, 0) == 1

    def test_generator_set_equivalence(self):
        for n in (1, 2, 3):
            for d in range(0, 13):
                assert hit_basis(n, d).rank == all_k_hit_rank(n, d), (n, d)

    @pytest.mark.parametrize("n, d", [(2, -1), (0, 5)])
    @pytest.mark.parametrize(
        "entry",
        [hit_basis, hit_kernel, cohit_basis, cohit_dim],
        ids=lambda f: f.__name__,
    )
    def test_rejects_a_bad_rank_or_degree(self, entry, n, d):
        with pytest.raises(ValueError, match="need n >= 1 and d >= 0"):
            entry(n, d)

    def test_budget_error(self):
        budget.configure(1024)
        try:
            with pytest.raises(BudgetError):
                hit_basis(5, 50)
        finally:
            budget.configure(None)


class TestCohits:
    def test_single_variable_line(self):
        for d in range(0, 21):
            expected = 1 if (d + 1) & d == 0 else 0
            assert cohit_dim(1, d) == expected, d

    def test_two_variables_degree_three(self):
        assert cohit_dim(2, 3) == 3

    def test_two_variables_degree_five(self):
        assert cohit_dim(2, 5) == 0

    def test_representatives_are_nonpivot_monomials(self):
        basis = cohit_basis(2, 3)
        assert [str(m) for m in basis.representatives] == ["0.3", "2.1", "3.0"]
        assert basis.dimension == monomial_count(2, 3) - hit_basis(2, 3).rank

    def test_generator_row_order_changes_nothing(self, monkeypatch):
        import hitcalc.hit as hit_mod
        from hitcalc import store

        store.configure(None)  # empties the memory tier
        a = hit_basis(3, 8).row_ints()
        store.configure(None)
        original = hit_mod._generator_rows

        def shuffled(*args):
            rows = list(original(*args))
            random.Random(8).shuffle(rows)
            return iter(rows)

        monkeypatch.setattr(hit_mod, "_generator_rows", shuffled)
        b = hit_basis(3, 8).row_ints()
        store.configure(None)
        assert a == b


class TestPetersonWood:
    @pytest.mark.parametrize(
        "n, d, expected", [(2, 5, True), (4, 11, False), (5, 50, False)]
    )
    def test_examples(self, n, d, expected):
        assert peterson_wood_zero(n, d) is expected

    def test_vanishing_filter(self):
        for n in (1, 2, 3):
            for d in range(0, 17):
                if peterson_wood_zero(n, d):
                    assert cohit_dim(n, d) == 0, (n, d)


class TestKameko:
    def test_all_odd_halves(self):
        assert kameko_down(2, Monomial((3, 5))) == Monomial((1, 2))

    def test_even_exponent_dies(self):
        assert kameko_down(2, Monomial((2, 6))) is None

    def test_all_ones_to_unit(self):
        assert kameko_down(4, Monomial((1, 1, 1, 1))) == Monomial((0, 0, 0, 0))

    def test_parity_mismatch(self):
        with pytest.raises(ValueError):
            kameko_down(2, Monomial((2, 1)))

    def test_sends_hit_to_hit(self):
        rng = random.Random(5)
        for n, d in ((2, 3), (2, 5), (3, 4)):
            big = hit_basis(n, 2 * d + n)
            small = hit_basis(n, d)
            tuples = list(degree_index(n, 2 * d + n))
            small_index = degree_index(n, d)
            for bits in rng.sample(big.row_ints(), min(6, big.rank)):
                terms = []
                b = bits
                while b:
                    low = b & -b
                    terms.append(Monomial(tuples[low.bit_length() - 1]))
                    b ^= low
                image = kameko_down_poly(n, Polynomial(terms, n))
                residue = small.reduce_int(
                    sum(1 << small_index[tuple(m)] for m in image.terms)
                )
                assert residue == 0, (n, d)


class TestDegreeReduction:
    @pytest.mark.parametrize(
        "n, d, expected",
        [(5, 105, True), (5, 50, False), (3, 11, True), (3, 4, False)],
    )
    def test_iso_applicable(self, n, d, expected):
        assert kameko_iso_applicable(n, d) is expected

    def test_rank5_chain(self):
        assert reduce_degree_chain(5, 215) == [215, 105, 50]
        assert reduce_degree_chain(5, 50) == [50]
        assert reduce_degree_chain(3, 4) == [4]

    def test_iso_preserves_cohit_dim(self):
        assert kameko_iso_applicable(3, 11)
        assert cohit_dim(3, 11) == cohit_dim(3, 4)
