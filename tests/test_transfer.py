import json

import pytest

from hitcalc import budget, store, transfer
from hitcalc.cli import main
from hitcalc.budget import BudgetError
from hitcalc.homology import DElement, primitive_basis, zeta_element
from hitcalc.lambda_algebra import LambdaElement, differential, normal_form
from hitcalc.transfer import (
    class_equal,
    label_dictionary,
    psi,
    transfer_image,
    transfer_report,
)


def delem(*tuples):
    return DElement(tuples, len(tuples[0]))


class TestPsi:
    def test_rank_one_base_case(self):
        assert psi(1, delem((3,))) == LambdaElement([(3,)])

    def test_rank_two_example(self):
        assert psi(2, delem((1, 1))) == LambdaElement([(1, 1)])

    def test_zero(self):
        assert psi(3, DElement.zero(3)).is_zero()

    def test_variable_mismatch(self):
        with pytest.raises(ValueError):
            psi(2, delem((1, 1, 1)))

    def test_grading(self):
        for n, d in ((2, 3), (3, 7)):
            for e in primitive_basis(n, d).elements():
                image = psi(n, e)
                if not image.is_zero():
                    assert (image.length, image.weight) == (n, d)

    def test_linearity(self):
        els = list(primitive_basis(3, 9).elements())
        a, b = els[0], els[-1]
        assert psi(3, a + b) == normal_form(psi(3, a) + psi(3, b))

    def test_cycle_property_on_primitives(self):
        for n in (1, 2, 3):
            for d in range(0, 17):
                for e in primitive_basis(n, d).elements():
                    assert differential(psi(n, e)).is_zero(), (n, d, str(e))


class TestClassEqual:
    def test_reflexive(self):
        e = LambdaElement([(1, 1)])
        assert class_equal(e, e)

    def test_distinguishes_classes(self):
        # both reduced in bidegree (2, 2), not homologous
        assert not class_equal(
            LambdaElement([(1, 1)]), LambdaElement([(0, 2)])
        )

    def test_bidegree_mismatch(self):
        with pytest.raises(ValueError):
            class_equal(LambdaElement([(1,)]), LambdaElement([(2,)]))

    def test_displayed_image_low_degree(self):
        z = zeta_element("B", 1, 2, 1)
        assert class_equal(psi(4, z), LambdaElement([(15, 3, 3, 2)]))

    def test_configured_budget_reaches_the_boundary_echelon(self):
        # the label search of transfer -n 4 -d 23 first compares the image
        # with h_0h_1h_3h_4, which needs the boundary echelon at (4, 23)
        image = psi(4, zeta_element("B", 1, 2, 1))
        store.configure(None)  # nothing memoised: the echelon is built here
        budget.configure(8)
        try:
            with pytest.raises(BudgetError, match="echelon basis"):
                class_equal(image, LambdaElement([(0, 1, 7, 15)]))
        finally:
            budget.configure(None)


class TestLabels:
    def test_h_words(self):
        labels = dict(label_dictionary(2, 2))
        assert "h_1h_1" in labels
        assert labels["h_1h_1"] == LambdaElement([(1, 1)])

    def test_c_words_only_rank_four(self):
        assert any(name.endswith("c_0") for name, _ in label_dictionary(4, 23))
        assert not any("c_" in name for name, _ in label_dictionary(3, 23))

    def test_weights_all_match(self):
        for name, word in label_dictionary(4, 41):
            assert word.weight == 41 and word.length == 4


class TestTransferReport:
    def test_rank_budget(self):
        with pytest.raises(BudgetError):
            transfer_report(6, 10)

    def test_empty_bidegree(self):
        report = transfer_report(4, 11)
        assert report.coinvariant_dimension == 0
        assert report.representatives == ()

    def test_named_image(self):
        report = transfer_report(4, 23)
        assert report.coinvariant_dimension == 1
        (image,) = report.representatives
        assert image.cycle
        assert image.matched_label == "h_4c_0"
        assert (image.lambda_element.length, image.lambda_element.weight) == (4, 23)


class TestTransferImage:
    def test_agrees_with_verify_cor22(self, capsys):
        z = zeta_element("B", 1, 2, 1)
        image = transfer_image(4, 23, z)
        assert image.d_element == z and image.cycle
        assert image.matched_label == "h_4c_0"
        assert main(["--no-cache", "--json", "verify", "cor22", "-t", "1", "-s", "2", "-u", "1"]) == 0
        (report,) = json.loads(capsys.readouterr().out)
        assert report["representatives"] == [
            {
                "d_element": str(z),
                "lambda_element": str(image.lambda_element),
                "cycle": True,
                "label": "h_4c_0",
            }
        ]

    def test_labels_are_searched_only_for_a_cycle(self, monkeypatch):
        def no_search(n, w):
            raise AssertionError("label search for a non-cycle")

        monkeypatch.setattr(transfer, "label_dictionary", no_search)
        image = transfer_image(2, 3, delem((2, 1)))  # psi gives lambda_2 lambda_1
        assert image.lambda_element == LambdaElement([(2, 1)])
        assert not image.cycle and image.matched_label is None
