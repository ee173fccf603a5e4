import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitcalc import budget
from hitcalc.budget import BudgetError
from hitcalc.gf2 import EchelonBasis, quotient_representatives


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
    """The row int with coordinate i set iff coords[i] is 1: row(1, 0, 1) == 0b101."""
    return sum(c << i for i, c in enumerate(coords))


def basis_of(width, *rows_):
    b = EchelonBasis(width)
    for r in rows_:
        b.insert_int(r)
    return b


class TestReduceAgainst:
    def test_zero_row_reduces_to_zero(self):
        b = basis_of(3, row(1, 0, 0))
        assert b.reduce_int(row(0, 0, 0)) == 0

    def test_member_reduces_to_zero(self):
        b = basis_of(3, row(1, 1, 0), row(0, 1, 1))
        for r in b.row_ints():
            assert b.reduce_int(r) == 0

    def test_single_elimination(self):
        b = basis_of(3, row(1, 0, 0))
        assert b.reduce_int(row(1, 1, 0)) == row(0, 1, 0)


class TestInsert:
    def test_insert_into_empty(self):
        b = EchelonBasis(3)
        grew = b.insert_int(row(0, 1, 1))
        assert grew and b.rank == 1

    def test_duplicate_does_not_grow(self):
        b = basis_of(3, row(0, 1, 1))
        grew = b.insert_int(row(0, 1, 1))
        assert not grew and b.rank == 1

    def test_mutual_reduction(self):
        b = basis_of(3, row(1, 1, 0))
        grew = b.insert_int(row(0, 1, 1))
        assert grew
        assert b.row_ints() == [row(1, 0, 1), row(0, 1, 1)]

    def test_pivots_strictly_increasing(self):
        b = basis_of(4, row(0, 1, 1, 0), row(1, 1, 0, 1), row(0, 0, 1, 1))
        assert list(b.pivots) == sorted(b.pivots)
        for r, p in zip(b.row_ints(), b.pivots):
            assert support(r)[0] == p

    def test_fully_reduced(self):
        rng = random.Random(11)
        b = EchelonBasis(12)
        for _ in range(20):
            b.insert_int(rng.getrandbits(12))
        pivots = set(b.pivots)
        for r, p in zip(b.row_ints(), b.pivots):
            assert not (set(support(r)) - {p}) & pivots


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        rows = [row(1, 0, 0), row(0, 1, 0), row(0, 0, 1)]
        assert basis_of(3, *rows).kernel().rank == 0

    def test_zero_row_has_full_kernel(self):
        assert basis_of(2, row(0, 0)).kernel().rank == 2

    def test_small_system(self):
        k = basis_of(3, row(1, 1, 0), row(0, 1, 1)).kernel()
        assert k.row_ints() == [row(1, 1, 1)]

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(5)
        rows = [rng.getrandbits(10) for _ in range(6)]
        k = basis_of(10, *rows).kernel()
        for v in k.row_ints():
            for r in rows:
                assert (v & r).bit_count() % 2 == 0

    def test_rank_nullity(self):
        rng = random.Random(17)
        for _ in range(25):
            width = rng.randrange(1, 16)
            rows = [rng.getrandbits(width) for _ in range(rng.randrange(0, 20))]
            b = basis_of(width, *rows)
            assert b.rank + b.kernel().rank == width


class TestQuotientRepresentatives:
    def test_empty_basis(self):
        assert quotient_representatives(EchelonBasis(3)) == [0, 1, 2]

    def test_full_rank(self):
        b = basis_of(2, row(1, 0), row(0, 1))
        assert quotient_representatives(b) == []

    def test_pivot_removed(self):
        b = basis_of(3, row(1, 0, 1))
        assert quotient_representatives(b) == [1, 2]


class TestCanonicality:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 14) - 1), max_size=12),
        st.randoms(use_true_random=False),
    )
    def test_insertion_order_irrelevant(self, bits, rnd):
        shuffled = bits[:]
        rnd.shuffle(shuffled)
        assert basis_of(14, *bits).row_ints() == basis_of(14, *shuffled).row_ints()

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 10) - 1), max_size=10))
    def test_reduce_zero_iff_no_growth(self, bits):
        b = EchelonBasis(10)
        for v in bits:
            b.insert_int(v)
        probe = bits[0] if bits else 0
        was_zero = b.reduce_int(probe) == 0
        grew = b.insert_int(probe)
        assert was_zero == (not grew)


def test_budget_error():
    budget.configure(8)
    try:
        b = EchelonBasis(1024)
        with pytest.raises(BudgetError):
            for i in range(100):
                b.insert_indices([i])
    finally:
        budget.configure(None)


@pytest.fixture
def limit():
    """Configure a budget of the given bytes for one test."""
    yield budget.configure
    budget.configure(None)


def test_budget_charges_the_row_ints_held(limit):
    # a dense row of 10**6 coordinates would take 125,000 bytes; these
    # ten rows hold 28 bytes each
    limit(4096)
    b = EchelonBasis(10**6)
    for i in range(10):
        b.insert_indices([i])
    assert b.row_ints() == [1 << i for i in range(10)]


def test_budget_charges_rows_shifted_to_their_pivot(limit):
    # as absolute ints these rows would take about 133,000 bytes each;
    # shifted down to their pivots they hold one bit each
    limit(4096)
    top = 10**6
    b = EchelonBasis(top)
    for i in range(10):
        b.insert_int(1 << (top - 1 - i))
    assert not b.insert_int(0b11 << (top - 2))  # the sum of the two top rows
    assert b.row_ints() == [1 << (top - 10 + i) for i in range(10)]


def test_back_substitution_that_grows_a_row_is_charged(limit):
    high = 1 << 100_000
    limit(sys.getsizeof(0b11) + sys.getsizeof(0b10 | high))
    b = EchelonBasis(100_001)
    b.insert_int(0b11)  # pivot 0, with a one at the next row's pivot
    b.insert_int(0b10 | high)
    assert b.rank == 2  # both forward rows fit exactly
    for _ in range(2):  # clearing coordinate 1 gives the first row the high bit
        with pytest.raises(BudgetError, match="echelon basis"):
            b.row_ints()


def test_insert_indices_parity():
    b = EchelonBasis(4)
    assert not b.insert_indices([2, 2])  # cancels to the zero row
    assert b.insert_indices([1, 2, 2, 3, 2])  # = {1, 2, 3}
    assert b.row_ints() == [row(0, 1, 1, 1)]


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


def coords_bits(coords):
    return sum(1 << c for c in set(coords))


class TestAgainstEagerOracle:
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
        self.check(12, bits, probe, rnd)

    # 200 coordinates span seven 30-bit digits of a Python int.  Rows
    # clustered above coordinate 120 have pivots far from bit 0, so shifting
    # them to their pivots and back crosses digit boundaries; a few sparse
    # rows anywhere give shifts of every size.
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=(1 << 80) - 1).map(
                    lambda v: v << 120
                ),
                st.lists(st.integers(min_value=120, max_value=199), max_size=5).map(
                    coords_bits
                ),
                st.lists(st.integers(min_value=0, max_value=199), max_size=3).map(
                    coords_bits
                ),
            ),
            max_size=24,
        ),
        st.integers(min_value=0, max_value=(1 << 200) - 1),
        st.randoms(use_true_random=False),
    )
    def test_rows_across_int_digits_match_oracle(self, bits, probe, rnd):
        self.check(200, bits, probe, rnd)

    def check(self, width, bits, probe, rnd):
        rows = bits + bits[: len(bits) // 2]  # duplicates
        rnd.shuffle(rows)
        half = len(rows) // 2
        expected = eager_rref(rows)

        one = EchelonBasis(width)
        for v in rows[:half]:
            one.insert_indices(support(v))
        assert one.row_ints() == eager_rref(rows[:half])
        for v in rows[half:]:  # inserts after the canonical form was read
            one.insert_indices(support(v))
        batch = EchelonBasis(width)
        batch.extend(support(v) for v in rows)
        packed = EchelonBasis(width)
        for v in rows:
            packed.insert_int(v)

        for b in (one, batch, packed):
            assert b.rank == len(expected)
            assert b.pivots == tuple((r & -r).bit_length() - 1 for r in expected)
            assert b.reduce_int(probe) == eager_reduce(expected, probe)
            assert b.row_ints() == expected
            assert b.kernel().row_ints() == eager_kernel(expected, width)
        assert one == batch == packed
        assert (one == EchelonBasis(width)) == (not expected)


def shifted(rows):
    """Absolute rows as EchelonBasis holds them, pivot p -> row >> p."""
    return {(v & -v).bit_length() - 1: v >> (v & -v).bit_length() - 1 for v in rows}


class TestFromCanonicalRows:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=(1 << 200) - 1), max_size=12),
        st.lists(st.integers(min_value=0, max_value=199), max_size=6).map(coords_bits),
    )
    def test_accepts_the_rows_of_any_basis(self, bits, probe):
        packed = EchelonBasis(200)
        for v in bits:
            packed.insert_int(v)
        expected = eager_rref(bits)
        held = packed.shifted_rows()
        assert held == shifted(expected) and list(held) == sorted(held)
        loaded = EchelonBasis.from_canonical_rows(200, held)
        assert loaded is not None and loaded == packed
        assert loaded.rank == len(expected)
        assert loaded.row_ints() == expected
        assert loaded.reduce_int(probe) == eager_reduce(expected, probe)
        assert loaded.kernel().row_ints() == eager_kernel(expected, 200)

    # over five coordinates a small random map is often canonical already
    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=(1 << 6) - 1),
            max_size=4,
        )
    )
    def test_accepts_exactly_the_canonical_rows(self, rows):
        # each row held under its pivot, and the absolute rows, by pivot,
        # the RREF over five coordinates (the oracle over more keeps bit 5)
        absolute = [rows[p] << p for p in sorted(rows)]
        canonical = (
            all(v & 1 for v in rows.values())
            and absolute == eager_rref(absolute)
            and not any(v >> 5 for v in absolute)
        )
        loaded = EchelonBasis.from_canonical_rows(5, dict(rows))
        assert (loaded is not None) == canonical
        if loaded is not None:
            assert loaded.row_ints() == absolute
            assert loaded.shifted_rows() == rows

    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param({0: 0b1, 1: 0}, id="zero-row"),
            pytest.param({3: 0b1}, id="bit-at-m"),
            pytest.param({0: 0b10000001}, id="bit-past-m"),
            pytest.param({1: -0b1}, id="negative"),
            pytest.param({-1: 0b1}, id="negative-pivot"),
            # a row held under a pivot below its lowest bit: 0b100 under 0
            pytest.param({0: 0b100}, id="pivots-out-of-order"),
            # coordinate 1 twice, under pivots 0 and 1
            pytest.param({0: 0b10, 1: 0b1}, id="pivot-twice"),
            pytest.param({0: 0b11, 1: 0b1}, id="holds-a-later-pivot"),
            pytest.param({0: 0b101, 2: 0b1}, id="holds-a-pivot-two-above"),
        ],
    )
    def test_rejects(self, rows):
        assert EchelonBasis.from_canonical_rows(3, rows) is None

    def test_charges_the_shifted_rows_once(self, limit):
        top = 10**6
        rows = {top - 10 + i: 1 for i in range(10)}  # one bit each, shifted
        limit(10 * sys.getsizeof(1))
        loaded = EchelonBasis.from_canonical_rows(top, dict(rows))
        assert loaded is not None
        assert loaded.row_ints() == [1 << p for p in rows]
        limit(10 * sys.getsizeof(1) - 1)
        with pytest.raises(BudgetError, match="echelon basis"):
            EchelonBasis.from_canonical_rows(top, dict(rows))
