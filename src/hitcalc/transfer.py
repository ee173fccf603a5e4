"""The lambda-word representation of the rank-n transfer.

``psi`` sends a degree-d element of the divided power algebra in n
variables to a length-n, weight-d lambda element.  On one variable
a^(i) goes to lambda_i; in general the first variable is peeled off:

    psi_n(a_1^(i) z) = sum_{t>=0} lambda_{i+t} psi_{n-1}(dual_sq(t, z))

with the new factor on the left, so the leading t = 0 term of a d-monomial
is the index word of its exponents.  On primitive elements the image is a
cycle, and its homology class is the transfer image; both facts are
verified by the test suite on every computed representative.

``transfer_image`` gives a primitive's lambda image, its cycle check and
any matching label from the small dictionary of named classes (h_j as
lambda_{2^j - 1}, and the three-factor c_t words
lambda_{2^(t+2)-1}^2 lambda_{3*2^t-1}); ``transfer_report`` gives it for
each coinvariant class of a bidegree.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .budget import BudgetError
from .glrep import coinvariant_classes
from .homology import DElement, dual_sq
from .lambda_algebra import (
    LambdaElement,
    differential,
    is_boundary,
    normal_form,
)

__all__ = [
    "TransferImage",
    "TransferReport",
    "psi",
    "class_equal",
    "label_dictionary",
    "transfer_image",
    "transfer_report",
]


def psi(n: int, xi: DElement) -> LambdaElement:
    """Lambda-word representation of the rank-n transfer on a d-element."""
    if xi.n != n:
        raise ValueError("variable count mismatch")
    if xi.is_zero():
        return LambdaElement.zero()
    if n == 1:
        return LambdaElement(xi.terms)
    by_first: dict[int, list[tuple[int, ...]]] = {}
    for t in xi.terms:
        by_first.setdefault(t[0], []).append(t[1:])
    words: set[tuple[int, ...]] = set()
    for i, rest in sorted(by_first.items()):
        z = DElement(rest, n - 1)
        deg = 0 if z.is_zero() else z.degree or 0
        for t in range(deg + 1):
            zt = dual_sq(t, z)
            if zt.is_zero():
                continue
            sub = psi(n - 1, zt)
            for w in sub.terms:
                words.symmetric_difference_update(((i + t,) + w,))
    return normal_form(LambdaElement(words))


def class_equal(e1: LambdaElement, e2: LambdaElement) -> bool:
    """Whether two lambda elements represent the same homology class."""
    if not e1.is_zero() and not e2.is_zero():
        if (e1.length, e1.weight) != (e2.length, e2.weight):
            raise ValueError("bidegree mismatch in class comparison")
    diff = normal_form(e1 + e2)
    if diff.is_zero():
        return True
    return is_boundary(diff)


# -- named classes ----------------------------------------------------------------


def _h_word(j: int) -> int:
    return (1 << j) - 1


def _c_word(t: int) -> tuple[int, int, int]:
    a = (1 << (t + 2)) - 1
    return (a, a, 3 * (1 << t) - 1)


def label_dictionary(n: int, w: int) -> list[tuple[str, LambdaElement]]:
    """Candidate labeled words of length n and weight w.

    Products of the single-factor classes h_j, and for n = 4 also h_j times
    a three-factor c_t word.  No other nomenclature is built in.
    """
    out: list[tuple[str, LambdaElement]] = []
    # n-fold h products: ascending exponent multisets j_1 <= ... <= j_n
    # with sum (2^{j_i} - 1) = w
    max_j = (w + n).bit_length()
    for combo in itertools.combinations_with_replacement(range(max_j + 1), n):
        if sum(_h_word(j) for j in combo) == w:
            label = "".join(f"h_{j}" for j in combo)
            out.append((label, LambdaElement((tuple(_h_word(j) for j in combo),))))
    if n == 4:
        for t in range(max(w.bit_length(), 1)):
            c = _c_word(t)
            rem = w - sum(c)
            if rem < 0:
                continue
            j = (rem + 1).bit_length() - 1
            if _h_word(j) == rem:
                out.append(
                    (f"h_{j}c_{t}", LambdaElement(((_h_word(j),) + c,)))
                )
    return out


class TransferImage(NamedTuple):
    d_element: DElement
    lambda_element: LambdaElement
    cycle: bool
    matched_label: str | None


class TransferReport(NamedTuple):
    n: int
    d: int
    coinvariant_dimension: int
    representatives: tuple[TransferImage, ...]


def transfer_image(n: int, d: int, xi: DElement) -> TransferImage:
    """The lambda image of a degree-d primitive, whether it is a cycle, and
    the first dictionary label of its class, searched only for a cycle."""
    image = psi(n, xi)
    cycle = differential(image).is_zero()
    label = None
    if cycle:
        for name, word in label_dictionary(n, d):
            if class_equal(image, word):
                label = name
                break
    return TransferImage(xi, image, cycle, label)


def transfer_report(n: int, d: int) -> TransferReport:
    """Coinvariant classes with their lambda images, cycle checks and labels."""
    if n > 5:
        raise BudgetError("transfer reports are budgeted for rank <= 5")
    report = coinvariant_classes(n, d)
    images = tuple(transfer_image(n, d, rep) for rep in report.class_representatives)
    return TransferReport(n, d, report.dimension, images)
