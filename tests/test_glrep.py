import random

import pytest
from reference import (
    act_poly,
    enumerate_monomials,
    group_closure,
    identity,
    inverse,
    matmul,
    relation_oracle,
)

from hitcalc import glrep, store
from hitcalc.glrep import (
    GLMatrix,
    _coinvariant_data,
    coinvariant_class_nonzero,
    coinvariant_classes,
    generators,
    invariant_basis,
    parse_glmatrix,
)
from hitcalc.homology import primitive_basis, zeta_element
from hitcalc.steenrod import Polynomial, parse_polynomial, sq


def sample_gl4():
    """A fixed sample of GL_4 matrices, each with a row of three or four
    ones, together with their inverses."""
    rng = random.Random(4)
    out = [parse_glmatrix("1111;0111;0011;0001")]
    while len(out) < 3:
        rows = [[rng.randrange(2) for _ in range(4)] for _ in range(4)]
        if max(sum(r) for r in rows) < 3:
            continue
        try:
            out.append(GLMatrix(tuple(tuple(r) for r in rows)))
        except ValueError:  # singular
            continue
    return out + [inverse(g) for g in out]


# The first coinvariant class representative at (4, 18), as computed with the
# transposed substitution (the action of ``reference.transposed_action``).
REP_4_18 = (
    "(3).(3).(9).(3)+(3).(5).(6).(4)+(3).(5).(8).(2)+(3).(5).(9).(1)+"
    "(3).(6).(5).(4)+(3).(6).(6).(3)+(3).(6).(7).(2)+(3).(6).(8).(1)+"
    "(3).(9).(3).(3)+(3).(9).(4).(2)+(3).(9).(5).(1)+(3).(10).(3).(2)+"
    "(3).(10).(4).(1)+(3).(11).(2).(2)+(3).(12).(1).(2)+(3).(12).(2).(1)+"
    "(5).(3).(6).(4)+(5).(3).(7).(3)+(5).(3).(8).(2)+(5).(3).(9).(1)+"
    "(5).(5).(5).(3)+(5).(6).(3).(4)+(5).(6).(5).(2)+(5).(6).(6).(1)+"
    "(5).(7).(3).(3)+(5).(7).(4).(2)+(5).(7).(5).(1)+(5).(9).(2).(2)+"
    "(5).(10).(1).(2)+(5).(11).(1).(1)+(6).(3).(5).(4)+(6).(3).(6).(3)+"
    "(6).(3).(7).(2)+(6).(3).(8).(1)+(6).(5).(3).(4)+(6).(5).(5).(2)+"
    "(6).(5).(6).(1)+(6).(6).(3).(3)+(6).(7).(3).(2)+(6).(7).(4).(1)+"
    "(6).(9).(2).(1)+(6).(10).(1).(1)+(7).(5).(3).(3)+(7).(5).(4).(2)+"
    "(7).(5).(5).(1)+(7).(6).(3).(2)+(7).(6).(4).(1)+(7).(7).(2).(2)+"
    "(7).(8).(1).(2)+(7).(8).(2).(1)+(9).(3).(3).(3)+(9).(3).(4).(2)+"
    "(9).(3).(5).(1)+(9).(5).(2).(2)+(9).(6).(1).(2)+(9).(7).(1).(1)+"
    "(10).(3).(3).(2)+(10).(3).(4).(1)+(10).(5).(2).(1)+(10).(6).(1).(1)+"
    "(11).(3).(2).(2)+(11).(4).(1).(2)+(11).(4).(2).(1)+(13).(2).(1).(2)+"
    "(13).(2).(2).(1)+(13).(3).(1).(1)+(14).(1).(1).(2)+(14).(1).(2).(1)"
)


class TestGLMatrix:
    def test_parse_format(self):
        g = parse_glmatrix("10;11")
        assert g.entries == ((1, 0), (1, 1))
        assert str(g) == "10;11"

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            parse_glmatrix("10;10")

    def test_inverse(self):
        g = parse_glmatrix("11;01")
        assert matmul(g, inverse(g)) == identity(2)

    def test_inverse_of_all_gl3_and_a_gl4_sample(self):
        for g in [*group_closure(generators(3)), *sample_gl4()]:
            assert matmul(g, inverse(g)) == identity(g.n), str(g)

    def test_rejects_equal_rows(self):
        with pytest.raises(ValueError, match="matrix is not invertible over F2"):
            parse_glmatrix("11;11")

    @pytest.mark.parametrize(
        "entries, message",
        [
            (((1, 0),), "matrix must be square"),
            (((1, 0), (0, 2)), "entries must be bits"),
            (((0, 1), (0, 1)), "matrix is not invertible over F2"),
        ],
    )
    def test_constructor_validates(self, entries, message):
        with pytest.raises(ValueError, match=message):
            GLMatrix(entries)

    def test_make_and_replace_validate(self):
        singular = "matrix is not invertible over F2"
        with pytest.raises(ValueError, match=singular):
            GLMatrix._make([((0, 1), (0, 1))])
        with pytest.raises(ValueError, match=singular):
            identity(2)._replace(entries=((1, 1), (1, 1)))
        g = identity(2)._replace(entries=((1, 1), (0, 1)))
        assert type(g) is GLMatrix and g == parse_glmatrix("11;01")


class TestGenerators:
    def test_rank_one_trivial(self):
        assert generators(1) == []

    def test_rank_two_order(self):
        assert len(group_closure(generators(2))) == 6

    def test_rank_three_order(self):
        assert len(group_closure(generators(3))) == 168  # (8-1)(8-2)(8-4)


class TestActions:
    def test_transvection_on_square(self):
        t = generators(2)[-1]
        assert act_poly(t, parse_polynomial("2.0", 2)) == parse_polynomial("2.0+0.2", 2)

    def test_identity(self):
        p = parse_polynomial("1.2+3.0", 2)
        assert act_poly(identity(2), p) == p

    def test_swap(self):
        s = generators(2)[0]
        assert act_poly(s, parse_polynomial("1.2", 2)) == parse_polynomial("2.1", 2)

    def test_commutes_with_squares(self):
        rng = random.Random(31)
        gens = generators(3)
        for _ in range(30):
            g = rng.choice(gens)
            d = rng.randrange(1, 8)
            k = rng.randrange(0, d + 1)
            monos = enumerate_monomials(3, d)
            p = Polynomial(rng.sample(monos, min(3, len(monos))), 3)
            assert act_poly(g, sq(k, p)) == sq(k, act_poly(g, p))


class TestInvariants:
    def test_rank_two_degree_two(self):
        classes = invariant_basis(2, 2)
        assert [str(c) for c in classes] == ["1.1"]

    def test_rank_one_trivial_group(self):
        assert len(invariant_basis(1, 3)) == 1

    def test_rank_two_degree_three(self):
        # the full orbit sum of the cohit representatives is fixed
        classes = invariant_basis(2, 3)
        assert [str(c) for c in classes] == ["0.3+2.1+3.0"]


class TestCoinvariants:
    def test_rank_two_degree_two(self):
        report = coinvariant_classes(2, 2)
        assert report.dimension == 1
        assert [str(e) for e in report.class_representatives] == ["(1).(1)"]

    @pytest.mark.parametrize(
        "n, d, dimension, representatives",
        [
            (4, 18, 2, [REP_4_18, "(15).(3).(0).(0)"]),
            (
                4,
                23,
                1,
                ["(15).(3).(3).(2)+(15).(3).(4).(1)+(15).(5).(2).(1)+(15).(6).(1).(1)"],
            ),
            (3, 19, 1, ["(7).(7).(5)+(7).(9).(3)+(11).(5).(3)+(13).(3).(3)"]),
        ],
    )
    def test_pinned_representatives(self, n, d, dimension, representatives):
        report = coinvariant_classes(n, d)
        assert report.dimension == dimension
        assert [str(e) for e in report.class_representatives] == representatives

    def test_rank_four_degree_eleven(self):
        assert coinvariant_classes(4, 11).dimension == 0

    def test_dimension_bookkeeping(self):
        report = coinvariant_classes(3, 8)
        assert (
            report.dimension
            == primitive_basis(3, 8).dimension - report.relations_rank
        )

    def test_zeta_class_detection(self):
        assert coinvariant_class_nonzero(4, 23, zeta_element("B", 1, 2, 1))


def whole_group(n):
    return group_closure(generators(n)) if n > 1 else [identity(1)]


def assert_relations_match(n, d, elements):
    expected = relation_oracle(n, d, elements).row_ints()
    assert _coinvariant_data(n, d)[1].row_ints() == expected, (n, d)


class TestDuality:
    """The relations, built as the annihilator of the invariants, against
    the (g - 1) span of the transposed substitution on the primitives."""

    def test_invariants_match_coinvariants(self):
        for n in (1, 2, 3):
            for d in range(0, 16):
                assert_relations_match(n, d, whole_group(n))

    @pytest.mark.parametrize("n, d", [(4, 18), (4, 23), (4, 35), (5, 21), (5, 27)])
    def test_generator_relations_match_the_oracle(self, n, d):
        assert_relations_match(n, d, generators(n))

    def test_the_oracle_sees_a_dropped_transvection(self, monkeypatch):
        store.configure(None)
        monkeypatch.setattr(glrep, "generators", lambda n: generators(n)[:-1])
        try:
            with pytest.raises(AssertionError, match=r"\(3, 9\)"):
                assert_relations_match(3, 9, generators(3))
        finally:
            store.configure(None)


class TestGeneratorSufficiency:
    def test_generators_span_full_group_relations(self):
        for n in (2, 3):
            whole = whole_group(n)
            for d in range(0, 9):
                assert relation_oracle(n, d, generators(n)).rank == (
                    relation_oracle(n, d, whole).rank
                ), (n, d)
