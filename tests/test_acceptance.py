"""Acceptance suite: one test per numbered criterion, each printing a verdict line.

Criteria 1-9 run unconditionally; criterion 10 is the documented stretch
target (rank 5, degree 50 coinvariants) and only runs when HITCALC_HEAVY=1
is set, since it takes about 20 s at 526 MiB peak RSS on a 2-core VM, a
peak above what the default suite should take.
"""

import os
import random
import time

import pytest

from hitcalc import budget
from hitcalc.budget import HEAVY_BUDGET
from hitcalc.gf2 import EchelonBasis
from hitcalc.glrep import (
    _coinvariant_data,
    coinvariant_class_nonzero,
    coinvariant_classes,
    generators,
)
from hitcalc.hit import cohit_dim, reduce_degree_chain
from hitcalc.homology import dual_sq, zeta_element
from hitcalc.lambda_algebra import (
    LambdaElement,
    differential,
    homology_dim,
    is_boundary,
    normal_form,
)
from hitcalc.steenrod import monomial_count, sq_exponent_targets
from hitcalc.transfer import class_equal, psi
from hit_oracle import global_hit_echelon
from lambda_oracle import oracle_normal_form, relation_element
from reference import (
    degree_index,
    enumerate_monomials,
    peterson_wood_zero,
    relation_oracle,
)

BUDGET = 2048 << 20


@pytest.fixture(scope="module", autouse=True)
def acceptance_budget():
    budget.configure(BUDGET)
    yield
    budget.configure(None)


@pytest.fixture()
def heavy_budget():
    budget.configure(HEAVY_BUDGET)
    yield
    budget.configure(BUDGET)


def verdict(number, label, start):
    print(f"\nACCEPTANCE {number} ({label}): PASS [{time.monotonic() - start:.1f}s]")


def test_criterion_1_generator_oracle_equivalence():
    start = time.monotonic()
    for n in (1, 2, 3):
        for d in range(0, 21):
            index = degree_index(n, d)
            oracle = EchelonBasis(len(index))
            for k in range(1, d + 1):
                for m in enumerate_monomials(n, d - k):
                    oracle.insert_indices(
                        [index[t] for t in sq_exponent_targets(k, tuple(m))]
                    )
            assert cohit_dim(n, d) == len(index) - oracle.rank, (n, d)
    verdict(1, "2-power generators match the all-k hit span, n<=3 d<=20", start)


def test_criterion_2_peterson_wood():
    # the engine skips these blocks by Wood's theorem, so the oracle's
    # elimination is the check
    start = time.monotonic()
    for n in range(1, 5):
        for d in range(0, 31):
            if peterson_wood_zero(n, d):
                assert global_hit_echelon(n, d).rank == monomial_count(n, d), (n, d)
                assert cohit_dim(n, d) == 0, (n, d)
    verdict(2, "cohits vanish whenever alpha(n+d) > n, n<=4 d<=30", start)


def test_criterion_3_rank4_coinvariant_table():
    start = time.monotonic()
    table = {11: 0, 25: 0, 19: 0, 47: 0, 23: 1, 39: 1, 41: 1}
    for d, expected in sorted(table.items()):
        assert coinvariant_classes(4, d).dimension == expected, d
    assert coinvariant_class_nonzero(4, 23, zeta_element("B", 1, 2, 1))
    assert coinvariant_class_nonzero(4, 41, zeta_element("A", 2, 1, 2))
    verdict(3, "rank-4 coinvariant dimensions in degrees 11..47", start)


def test_criterion_4_zeta_primitivity():
    start = time.monotonic()
    for z in (
        zeta_element("B", 1, 2, 1),
        zeta_element("B", 1, 2, 2),
        zeta_element("A", 2, 1, 2),
        zeta_element("C", 2, 2, 2),
    ):
        d = z.degree
        k = 1
        while k <= d:
            assert dual_sq(k, z).is_zero(), (str(z), k)
            k *= 2
    verdict(4, "zeta elements annihilated by all 2-power dual squares", start)


def test_criterion_5_transfer_images():
    start = time.monotonic()
    cases = [
        (zeta_element("B", 1, 2, 1), (15, 3, 3, 2)),
        (zeta_element("A", 2, 1, 2), (0, 15, 15, 11)),
        (zeta_element("C", 2, 2, 2), (0, 3, 15, 63)),
    ]
    for z, word in cases:
        image = psi(4, z)
        assert differential(image).is_zero(), word
        assert class_equal(image, LambdaElement((word,))), word
    verdict(5, "psi_4 images match the displayed lambda classes", start)


def test_criterion_6_lambda_homology_anchors():
    start = time.monotonic()
    for w in range(0, 64):
        expected = 1 if (w + 1) & w == 0 else 0
        assert homology_dim(1, w) == expected, w
    assert homology_dim(4, 41) == 1
    # concordance with criterion 3: the transfer domain and target dimensions
    # agree in the two one-dimensional pinned degrees
    assert homology_dim(4, 23) == 1
    assert homology_dim(5, 50) == 0
    assert is_boundary(LambdaElement([(0, 1, 3, 15, 31)]))
    verdict(6, "homology anchors at (1,w<=63), (4,23), (4,41), (5,50)", start)


def test_criterion_7_duality():
    # primitive_basis is the kernel of the hit rows, so its dimension equals
    # cohit_dim by construction; the duality is checked on the primitives
    # assembled independently from the dual squares.  The relations are the
    # annihilator of the invariants, so the two dimensions agree by
    # construction too; the relations are checked against the (g - 1) span
    # of the transposed substitution instead
    from test_homology import dual_primitive_kernel

    start = time.monotonic()
    for n in range(1, 5):
        for d in range(0, 31):
            assert dual_primitive_kernel(n, d).rank == cohit_dim(n, d), (n, d)
            relations = relation_oracle(n, d, generators(n)).row_ints()
            assert _coinvariant_data(n, d)[1].row_ints() == relations, (n, d)
    verdict(7, "relations are the annihilator of the invariants, n<=4 d<=30", start)


def test_criterion_8_kameko_chains():
    start = time.monotonic()
    assert reduce_degree_chain(5, 215) == [215, 105, 50]
    assert cohit_dim(3, 11) == cohit_dim(3, 4)
    # the rank-5 Kameko step: QP_5(27) -> QP_5(11) is a GL_5-equivariant
    # isomorphism, so the cohit and coinvariant dimensions carry down
    assert reduce_degree_chain(5, 27) == [27, 11]
    assert cohit_dim(5, 27) == cohit_dim(5, 11) == 315
    top, bottom = coinvariant_classes(5, 27), coinvariant_classes(5, 11)
    assert top.dimension == bottom.dimension == 0
    verdict(8, "degree reduction chains, (3,11)-(3,4) and (5,27)-(5,11)", start)


def test_criterion_9_lambda_consistency():
    start = time.monotonic()
    for n in range(0, 65):
        assert differential(differential(LambdaElement([(n,)]))).is_zero(), n
    rng = random.Random(2024)
    for _ in range(200):
        word = tuple(rng.randrange(0, 17) for _ in range(rng.randrange(2, 5)))
        if sum(word) > 64:
            continue
        assert differential(differential(LambdaElement((word,)))).is_zero(), word
    for s in range(-1, 21):
        for k in range(-1, 21):
            assert differential(relation_element(s, k)).is_zero(), (s, k)
    checked = 0
    while checked < 1000:
        word = tuple(rng.randrange(0, 41) for _ in range(rng.randrange(2, 5)))
        if sum(word) > 40:
            continue
        e = LambdaElement((word,))
        nf = normal_form(e)
        assert nf == oracle_normal_form(e, leftmost=True), word
        assert nf == oracle_normal_form(e, leftmost=False), word
        checked += 1
    verdict(9, "d.d = 0, relation compatibility, confluence on 1000 words", start)


@pytest.mark.skipif(
    os.environ.get("HITCALC_HEAVY") != "1",
    reason="criterion 10 is opt-in: rank-5 degree-50 coinvariants take about "
    "20 s at 526 MiB peak RSS on a 2-core VM; set HITCALC_HEAVY=1 to run it",
)
def test_criterion_10_rank5_degree50(heavy_budget):
    start = time.monotonic()
    assert coinvariant_classes(5, 50).dimension == 0
    verdict(10, "rank-5 coinvariants vanish in degree 50", start)
