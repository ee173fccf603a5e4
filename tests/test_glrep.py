import random

import pytest

from hitcalc.gf2 import EchelonBasis, ones
from hitcalc.glrep import (
    GLMatrix,
    _act_exponents,
    _homology_action,
    act_homology,
    act_poly,
    coinvariant_class_nonzero,
    coinvariant_classes,
    generators,
    group_closure,
    invariant_basis,
    parse_glmatrix,
)
from hitcalc.homology import DElement, pair, primitive_basis, zeta_element
from hitcalc.steenrod import (
    Polynomial,
    degree_index,
    enumerate_monomials,
    parse_polynomial,
    sq,
)


def transposed_action(g, d):
    """Reference: the images of the degree-d d-monomials under g, as bit ints,
    read off the transpose of the substitution by g^{-1}."""
    ginv = g.inverse()
    index = degree_index(g.n, d)
    images = [0] * len(index)
    for exps, tau in index.items():
        for t in _act_exponents(ginv, exps):
            images[index[t]] ^= 1 << tau
    return images


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
    return out + [g.inverse() for g in out]


# The first coinvariant class representative at (4, 18), as computed with the
# transposed substitution (the action of ``transposed_action``).
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
        assert g @ g.inverse() == GLMatrix.identity(2)

    def test_inverse_of_all_gl3_and_a_gl4_sample(self):
        for g in [*group_closure(generators(3)), *sample_gl4()]:
            assert g @ g.inverse() == GLMatrix.identity(g.n), str(g)

    def test_rejects_equal_rows(self):
        with pytest.raises(ValueError, match="matrix is not invertible over F2"):
            parse_glmatrix("11;11")


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
        assert act_poly(GLMatrix.identity(2), p) == p

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

    def test_homology_action_is_adjoint(self):
        rng = random.Random(41)
        gens = generators(2)
        for _ in range(40):
            g = rng.choice(gens)
            d = rng.randrange(1, 8)
            monos = enumerate_monomials(2, d)
            xi = DElement(
                (tuple(m) for m in rng.sample(monos, min(3, len(monos)))), 2
            )
            f = Polynomial(rng.sample(monos, min(3, len(monos))), 2)
            assert pair(act_homology(g, xi), f) == pair(xi, act_poly(g.inverse(), f))


class TestHomologyAction:
    """The divided-power action against the transposed polynomial action."""

    @staticmethod
    def assert_matches(g, d):
        act = _homology_action(g, d)
        expected = transposed_action(g, d)
        assert [act([sigma]) for sigma in range(len(expected))] == expected, (g, d)

    def test_whole_groups_of_rank_two_and_three(self):
        for n in (2, 3):
            for g in group_closure(generators(n)):
                for d in range(13):
                    self.assert_matches(g, d)

    def test_rank_four_dense_rows(self):
        sample = sample_gl4()
        assert any(sum(r) == 4 for g in sample for r in g.entries)
        for g in sample:
            for d in range(13):
                self.assert_matches(g, d)

    def test_primitive_rows_rank_four_degree_23(self):
        rows = primitive_basis(4, 23).echelon.row_ints()
        for g in generators(4):
            act = _homology_action(g, 23)
            expected = transposed_action(g, 23)
            for v in rows:
                image = 0
                for sigma in ones(v):
                    image ^= expected[sigma]
                assert act(ones(v)) == image


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


class TestDuality:
    def test_invariants_match_coinvariants(self):
        for n in (1, 2, 3):
            for d in range(0, 16):
                assert (
                    len(invariant_basis(n, d))
                    == coinvariant_classes(n, d).dimension
                ), (n, d)


class TestGeneratorSufficiency:
    def test_generators_span_full_group_relations(self):
        def relation_rank(n, d, elements):
            prim = primitive_basis(n, d)
            if prim.dimension == 0:
                return 0
            rows = prim.echelon.row_ints()
            pivots = prim.echelon.pivots
            rel = EchelonBasis(prim.dimension)
            for g in elements:
                act = _homology_action(g, d)
                for v in rows:
                    w = act(ones(v)) ^ v
                    rel.insert_indices(
                        [j for j, piv in enumerate(pivots) if (w >> piv) & 1]
                    )
            return rel.rank

        for n in (2, 3):
            whole = list(group_closure(generators(n)))
            for d in range(0, 9):
                assert relation_rank(n, d, generators(n)) == relation_rank(
                    n, d, whole
                ), (n, d)
