"""Computational engine for the mod-2 hit problem and its transfer to Ext.

The package computes, over the two-element field: hit subspaces and cohit
bases of polynomial algebras under the squaring operations, the primitive
subspace of the dual divided power algebra, invariants and coinvariants of
the finite general linear group, normal forms and homology in the lambda
algebra, and the lambda-word images of coinvariant classes, with
verification drivers for the published dimension statements these feed.
"""

import importlib

# Each module and the public names it defines.  The package imports a module
# the first time one of its names is read (PEP 562), so that a command loads
# only the modules it runs.
_EXPORTS = {
    "budget": "BudgetError DEFAULT_BUDGET HEAVY_BUDGET",
    "gf2": "EchelonBasis quotient_representatives",
    "glrep": "CoinvariantReport GLMatrix coinvariant_class_nonzero coinvariant_classes"
    " generators invariant_basis parse_glmatrix",
    "hit": "CohitBasis cohit_basis cohit_dim hit_basis kameko_iso_applicable"
    " reduce_degree_chain",
    "homology": "DElement DMonomial PrimitiveBasis dual_sq pair parse_delement"
    " parse_dmonomial primitive_basis zeta_element",
    "lambda_algebra": "LambdaElement LambdaWord TerminationGuardError differential"
    " homology_dim is_boundary normal_form parse_lambda_element",
    "steenrod": "Monomial Polynomial alpha generic_degree mu parse_monomial"
    " parse_polynomial sq",
    "transfer": "TransferImage TransferReport class_equal label_dictionary psi"
    " transfer_report",
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names.split()
}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
