"""Computational engine for the mod-2 hit problem and its transfer to Ext.

The package computes, over the two-element field: hit subspaces and cohit
bases of polynomial algebras under the squaring operations, the primitive
subspace of the dual divided power algebra, invariants and coinvariants of
the finite general linear group, normal forms and homology in the lambda
algebra, and the lambda-word images of coinvariant classes, with
verification drivers for the published dimension statements these feed.
"""

from .budget import Budget, BudgetError, DEFAULT_BUDGET, HEAVY_BUDGET
from .gf2 import BitRow, EchelonBasis, quotient_representatives
from .glrep import (
    CoinvariantReport,
    GLMatrix,
    act_homology,
    act_poly,
    coinvariant_class_nonzero,
    coinvariant_classes,
    generators,
    group_closure,
    invariant_basis,
    parse_glmatrix,
)
from .hit import (
    CohitBasis,
    HitSpace,
    cohit_basis,
    cohit_dim,
    hit_basis,
    kameko_down,
    kameko_down_poly,
    kameko_iso_applicable,
    peterson_wood_zero,
    reduce_degree_chain,
)
from .homology import (
    DElement,
    DMonomial,
    PrimitiveBasis,
    dp_product,
    dual_kameko_up,
    dual_sq,
    pair,
    parse_delement,
    parse_dmonomial,
    primitive_basis,
    zeta_element,
)
from .lambda_algebra import (
    LambdaElement,
    LambdaWord,
    TerminationGuardError,
    bidegree_basis,
    differential,
    homology_dim,
    is_boundary,
    is_cycle,
    normal_form,
    parse_lambda_element,
    relation_element,
)
from .steenrod import (
    GenericDegree,
    Monomial,
    Polynomial,
    alpha,
    enumerate_monomials,
    generic_degree,
    mu,
    parse_monomial,
    parse_polynomial,
    sq,
    sq_monomial,
)
from .transfer import (
    TransferImage,
    TransferReport,
    class_equal,
    label_dictionary,
    psi,
    transfer_report,
)

__version__ = "0.1.0"
