import functools
import itertools
import math
import random

import pytest
from reference import degree_index, enumerate_monomials, in_span

from hitcalc.gf2 import EchelonBasis
from hitcalc.glrep import coinvariant_class_nonzero
from hitcalc.hit import _square_degrees, cohit_dim
from hitcalc.homology import (
    DElement,
    DMonomial,
    dual_sq,
    dual_sq_targets,
    pair,
    parse_delement,
    parse_dmonomial,
    primitive_basis,
    zeta_element,
)
from hitcalc.steenrod import (
    Monomial,
    Polynomial,
    sq,
    sq_exponent_targets,
)


@functools.lru_cache(maxsize=None)
def dual_primitive_kernel(n, d):
    """Oracle: the joint kernel of the dual squares, assembled from dual_sq_targets."""
    index = degree_index(n, d)
    rows = {}
    for src, i in index.items():
        for k in _square_degrees(d):
            for target in dual_sq_targets(k, src):
                rows.setdefault((k, target), []).append(i)
    stacked = EchelonBasis(len(index))
    stacked.extend(rows.values())
    return stacked.kernel()


def dmono(*exps):
    return DMonomial(tuple(exps))


def delem(*tuples):
    return DElement(tuples, len(tuples[0]))


class TestPairing:
    def test_dual_basis(self):
        xi = delem((2, 1))
        assert pair(xi, Polynomial([Monomial((2, 1))], 2)) == 1

    def test_distinct_monomials(self):
        xi = delem((2, 1))
        assert pair(xi, Polynomial([Monomial((1, 2))], 2)) == 0

    def test_characteristic_two(self):
        xi = delem((2, 1))
        assert pair(xi + xi, Polynomial([Monomial((2, 1))], 2)) == 0

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            pair(delem((1,)), Polynomial([Monomial((1, 0))], 2))


class TestDualSq:
    def test_single_variable(self):
        assert dual_sq(1, delem((2,))) == delem((1,))

    def test_two_variable_vanishing(self):
        assert dual_sq(1, delem((1, 1))).is_zero()

    def test_above_degree(self):
        assert dual_sq(5, delem((2, 1))).is_zero()

    def test_adjointness(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randrange(1, 4)
            d = rng.randrange(1, 12)
            k = rng.randrange(0, d + 1)
            monos = enumerate_monomials(n, d)
            lower = enumerate_monomials(n, d - k)
            xi = DElement(
                (tuple(m) for m in rng.sample(monos, min(3, len(monos)))), n
            )
            f = Polynomial(rng.sample(lower, min(3, len(lower))), n)
            assert pair(dual_sq(k, xi), f) == pair(xi, sq(k, f))


    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_walkers_match_the_brute_force_compositions(self, n):
        # independent of the walker both share: every composition c of k,
        # kept when the Cartan binomials (or their transposes) are all odd,
        # in the walker's lex order on c, so a repeat also fails
        compositions = {
            k: [c for c in itertools.product(range(k + 1), repeat=n) if sum(c) == k]
            for k in range(11)
        }
        for e in itertools.product(range(8), repeat=n):
            for k, comps in compositions.items():
                up = [
                    tuple(a + b for a, b in zip(e, c))
                    for c in comps
                    if all(math.comb(a, b) % 2 for a, b in zip(e, c))
                ]
                down = [
                    tuple(a - b for a, b in zip(e, c))
                    for c in comps
                    if all(b <= a and math.comb(a - b, b) % 2 for a, b in zip(e, c))
                ]
                assert list(sq_exponent_targets(k, e)) == up, (k, e)
                assert list(dual_sq_targets(k, e)) == down, (k, e)


class TestPrimitives:
    def test_single_variable_spike(self):
        basis = primitive_basis(1, 3)
        assert [str(e) for e in basis.elements()] == ["(3)"]

    def test_two_variables_degree_two(self):
        basis = primitive_basis(2, 2)
        assert [str(e) for e in basis.elements()] == ["(1).(1)"]

    def test_hit_square_has_no_primitive(self):
        assert primitive_basis(1, 2).dimension == 0

    def test_dimension_matches_cohits(self):
        for n in range(1, 5):
            for d in range(0, 15):
                assert dual_primitive_kernel(n, d).rank == cohit_dim(n, d), (n, d)

    def test_hit_kernel_matches_dual_assembly(self):
        cases = [(n, d) for n in range(1, 5) for d in range(31)] + [(4, 35)]
        for n, d in cases:
            assert (
                primitive_basis(n, d).echelon.row_ints()
                == dual_primitive_kernel(n, d).row_ints()
            ), (n, d)


class TestDualKameko:
    def test_preserves_primitives(self):
        # the termwise lift a_i^(e) -> a_i^(2e+1) sends primitives to primitives
        for n, d in ((2, 2), (2, 3), (3, 4)):
            up_degree = 2 * d + n
            upper = primitive_basis(n, up_degree)
            for e in primitive_basis(n, d).elements():
                up = DElement((tuple(2 * i + 1 for i in t) for t in e.terms), n)
                assert in_span(upper, up), (n, d)


class TestZeta:
    def test_family_b_u1(self):
        z = zeta_element("B", 1, 2, 1)
        assert z == delem((15, 3, 3, 2), (15, 3, 4, 1), (15, 5, 2, 1), (15, 6, 1, 1))
        assert z.degree == 23

    def test_family_a_t2(self):
        z = zeta_element("A", 2, 1, 2)
        assert z == delem((0, 15, 15, 11), (0, 15, 19, 7), (0, 23, 11, 7), (0, 27, 7, 7))
        assert z.degree == 41

    def test_family_c(self):
        z = zeta_element("C", 2, 2, 2)
        assert z == delem((0, 3, 15, 63))
        assert z.degree == 81

    @pytest.mark.parametrize(
        "family, t, s, u",
        [("A", 1, 1, 2), ("A", 2, 2, 2), ("B", 2, 2, 1), ("B", 1, 2, 0), ("C", 1, 2, 2)],
    )
    def test_out_of_range(self, family, t, s, u):
        with pytest.raises(ValueError):
            zeta_element(family, t, s, u)

    def test_zetas_are_primitive(self):
        for z in (zeta_element("B", 1, 2, 1), zeta_element("B", 1, 2, 2)):
            d = z.degree
            k = 1
            while k <= d:
                assert dual_sq(k, z).is_zero(), k
                k *= 2

    def test_zeta_in_primitive_span(self):
        z = zeta_element("B", 1, 2, 1)
        assert in_span(primitive_basis(4, 23), z)


class TestFormats:
    def test_roundtrip(self):
        m = parse_dmonomial("(0).(15).(15).(11)")
        assert m == dmono(0, 15, 15, 11)
        assert str(m) == "(0).(15).(15).(11)"

    def test_element(self):
        e = parse_delement("(1).(2)+(3).(0)")
        assert e == delem((1, 2), (3, 0))

    def test_bad_format(self):
        with pytest.raises(ValueError):
            parse_dmonomial("1.2")

    @pytest.mark.parametrize(
        "element, text",
        [
            (DElement.zero(4), "0"),
            (delem((15, 3, 3, 2)), "(15).(3).(3).(2)"),
            (delem((3, 0), (0, 3), (1, 2)), "(0).(3)+(1).(2)+(3).(0)"),
        ],
    )
    def test_printed_form(self, element, text):
        assert str(element) == text

    def test_sorted_terms(self):
        terms = delem((3, 0), (0, 3), (1, 2)).sorted_terms()
        assert terms == [dmono(0, 3), dmono(1, 2), dmono(3, 0)]
        assert [str(t) for t in terms] == ["(0).(3)", "(1).(2)", "(3).(0)"]

    @pytest.mark.parametrize(
        "text, n, printed",
        [
            ("0", 3, "0"),
            ("(1).(2)+(3).(0)", None, "(1).(2)+(3).(0)"),
            ("(3).(0)+(1).(2)+(3).(0)", None, "(1).(2)"),
            ("(3).(0) + 0", None, "(3).(0)"),
        ],
    )
    def test_parse_roundtrip(self, text, n, printed):
        e = parse_delement(text, n)
        assert str(e) == printed
        assert parse_delement(printed, e.n) == e

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: DElement([dmono(1, 2)], 3), "variable count mismatch"),
            (lambda: delem((1, 2)) + DElement.zero(3), "variable count mismatch"),
            (lambda: parse_delement(""), "cannot infer variable count of the zero element"),
            (lambda: parse_delement("0"), "cannot infer variable count of the zero element"),
            (lambda: parse_dmonomial("1.2"), "bad d-monomial piece '1'"),
            (lambda: parse_delement("(1).2"), "bad d-monomial piece '2'"),
            (
                lambda: coinvariant_class_nonzero(4, 23, delem((1, 1, 1, 1))),
                "d-monomial (1).(1).(1).(1) has degree 4, not 23",
            ),
            (
                lambda: coinvariant_class_nonzero(4, 23, delem((20, 3))),
                "variable count mismatch",
            ),
        ],
    )
    def test_error_texts(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message
