import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitcalc import budget
from hitcalc.budget import Budget, BudgetError
from hitcalc.gf2 import BitRow, EchelonBasis, quotient_representatives


def eager_rref(rows):
    """Reference: keep a pivot -> row map fully reduced after every insert."""
    basis = {}
    for v in rows:
        for p, r in basis.items():  # one XOR per pivot set in v, no cascade
            if v >> p & 1:
                v ^= r
        if v:
            low = v & -v
            for p, r in basis.items():
                if r & low:
                    basis[p] = r ^ v
            basis[low.bit_length() - 1] = v
    return [basis[p] for p in sorted(basis)]


def eager_reduce(rref, v):
    for r in rref:
        if v & r & -r:
            v ^= r
    return v


def eager_kernel(rref, width):
    pivots = {(r & -r).bit_length() - 1: r for r in rref}
    vectors = []
    for f in range(width):
        if f not in pivots:
            v = 1 << f
            for p, r in pivots.items():
                if r >> f & 1:
                    v |= 1 << p
            vectors.append(v)
    return eager_rref(vectors)


def support(v):
    return [i for i in range(v.bit_length()) if v >> i & 1]


def row(*coords):
    return BitRow.from_coords(coords)


def basis_of(*rows_):
    b = EchelonBasis(rows_[0].length if rows_ else 0)
    for r in rows_:
        b.insert(r)
    return b


class TestReduceAgainst:
    def test_zero_row_reduces_to_zero(self):
        b = basis_of(row(1, 0, 0))
        assert b.reduce(row(0, 0, 0)).is_zero()

    def test_member_reduces_to_zero(self):
        b = basis_of(row(1, 1, 0), row(0, 1, 1))
        for r in b.rows:
            assert b.reduce(r).is_zero()

    def test_single_elimination(self):
        b = basis_of(row(1, 0, 0))
        assert b.reduce(row(1, 1, 0)) == row(0, 1, 0)

    def test_length_mismatch(self):
        b = basis_of(row(1, 0, 0))
        with pytest.raises(ValueError):
            b.reduce(row(1, 0))


class TestInsert:
    def test_insert_into_empty(self):
        b = EchelonBasis(3)
        grew = b.insert(row(0, 1, 1))
        assert grew and b.rank == 1

    def test_duplicate_does_not_grow(self):
        b = basis_of(row(0, 1, 1))
        grew = b.insert(row(0, 1, 1))
        assert not grew and b.rank == 1

    def test_mutual_reduction(self):
        b = basis_of(row(1, 1, 0))
        grew = b.insert(row(0, 1, 1))
        assert grew
        assert b.rows == [row(1, 0, 1), row(0, 1, 1)]

    def test_pivots_strictly_increasing(self):
        b = basis_of(row(0, 1, 1, 0), row(1, 1, 0, 1), row(0, 0, 1, 1))
        assert list(b.pivots) == sorted(b.pivots)
        for r, p in zip(b.rows, b.pivots):
            assert r.support()[0] == p

    def test_fully_reduced(self):
        rng = random.Random(11)
        b = EchelonBasis(12)
        for _ in range(20):
            b.insert(BitRow(rng.getrandbits(12), 12))
        pivots = set(b.pivots)
        for r, p in zip(b.rows, b.pivots):
            assert not (set(r.support()) - {p}) & pivots


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        rows = [row(1, 0, 0), row(0, 1, 0), row(0, 0, 1)]
        assert basis_of(*rows).kernel().rank == 0

    def test_zero_row_has_full_kernel(self):
        assert basis_of(row(0, 0)).kernel().rank == 2

    def test_small_system(self):
        k = basis_of(row(1, 1, 0), row(0, 1, 1)).kernel()
        assert k.rows == [row(1, 1, 1)]

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        rows = [BitRow(rng.getrandbits(10), 10) for _ in range(6)]
        k = basis_of(*rows).kernel()
        for v in k.rows:
            for r in rows:
                assert (v.bits & r.bits).bit_count() % 2 == 0

    def test_rank_nullity(self):
        rng = random.Random(17)
        for _ in range(25):
            width = rng.randrange(1, 16)
            rows = [BitRow(rng.getrandbits(width), width) for _ in range(rng.randrange(0, 20))]
            b = basis_of(*(rows or [BitRow.zero(width)]))
            assert b.rank + b.kernel().rank == width


class TestQuotientRepresentatives:
    def test_empty_basis(self):
        assert quotient_representatives(3, EchelonBasis(3)) == [0, 1, 2]

    def test_full_rank(self):
        b = basis_of(row(1, 0), row(0, 1))
        assert quotient_representatives(2, b) == []

    def test_pivot_removed(self):
        b = basis_of(row(1, 0, 1))
        assert quotient_representatives(3, b) == [1, 2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quotient_representatives(4, EchelonBasis(3))


class TestCanonicality:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 14) - 1), max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_insertion_order_irrelevant(self, bits, rnd):
        rows = [BitRow(b, 14) for b in bits]
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        assert basis_of(*(rows or [BitRow.zero(14)])).row_ints() == basis_of(
            *(shuffled or [BitRow.zero(14)])
        ).row_ints()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=10))
    def test_reduce_zero_iff_no_growth(self, bits):
        b = EchelonBasis(10)
        for v in bits:
            b.insert(BitRow(v, 10))
        probe = BitRow(bits[0] if bits else 0, 10)
        was_zero = b.reduce(probe).is_zero()
        grew = b.insert(probe)
        assert was_zero == (not grew)


def test_budget_error():
    budget.configure(Budget(max_bytes=8))
    try:
        b = EchelonBasis(1024)
        with pytest.raises(BudgetError):
            for i in range(100):
                b.insert_indices([i])
    finally:
        budget.configure(None)


def test_insert_indices_parity():
    b = EchelonBasis(4)
    assert not b.insert_indices([2, 2])  # cancels to the zero row
    assert b.insert_indices([1, 2, 2, 3, 2])  # = {1, 2, 3}
    assert b.rows == [row(0, 1, 1, 1)]


class TestInsertInt:
    def test_negative_row_raises(self):
        with pytest.raises(ValueError):
            EchelonBasis(4).insert_int(-1)

    def test_bit_at_ambient_length_raises(self):
        b = EchelonBasis(4)
        with pytest.raises(ValueError):
            b.insert_int(1 << 4)
        with pytest.raises(ValueError):
            b.insert_int(0b10001)
        assert b.rank == 0

    def test_matches_insert_indices(self):
        by_int, by_indices = EchelonBasis(5), EchelonBasis(5)
        for v in (0b10110, 0b00110, 0, 0b10000, 0b01001, 0b10110):
            assert by_int.insert_int(v) == by_indices.insert_indices(support(v))
        assert by_int.row_ints() == by_indices.row_ints()
        assert by_int.pivots == by_indices.pivots


class TestAgainstEagerOracle:
    WIDTH = 12

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=0, max_value=(1 << 12) - 1)),
            max_size=16,
        ),
        st.integers(min_value=0, max_value=(1 << 12) - 1),
        st.randoms(use_true_random=False),
    )
    def test_forward_elimination_matches_oracle(self, bits, probe, rnd):
        rows = bits + bits[: len(bits) // 2]  # duplicates
        rnd.shuffle(rows)
        half = len(rows) // 2
        expected = eager_rref(rows)

        one = EchelonBasis(self.WIDTH)
        for v in rows[:half]:
            one.insert_indices(support(v))
        assert one.row_ints() == eager_rref(rows[:half])
        for v in rows[half:]:  # inserts after the canonical form was read
            one.insert_indices(support(v))
        batch = EchelonBasis(self.WIDTH)
        batch.extend(support(v) for v in rows)
        packed = EchelonBasis(self.WIDTH)
        for v in rows:
            packed.insert_int(v)

        for b in (one, batch, packed):
            assert b.rank == len(expected)
            assert b.pivots == tuple((r & -r).bit_length() - 1 for r in expected)
            assert b.reduce_int(probe) == eager_reduce(expected, probe)
            assert b.row_ints() == expected
            assert b.kernel().row_ints() == eager_kernel(expected, self.WIDTH)
